// Validates the DCT harness BY MUTATION: a build that skips the
// announce/re-validate half of the parking handshake (the textbook lost
// wakeup, injected via dct::set_mutation_drop_announce_revalidate) must be
// caught — as a deadlock — within the acceptance budget of 10,000 explored
// schedules, deterministically replayable from the printed seed; the stock
// protocol must survive the same budget clean. Only built with
// -DSEMLOCK_DCT=ON.
#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <memory>
#include <string>

#include "commute/builtin_specs.h"
#include "dct/explorer.h"
#include "dct/hooks.h"
#include "dct/starvation.h"
#include "runtime/grant_policy.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;

constexpr int kScheduleBudget = 10'000;
constexpr std::uint64_t kBaseSeed = 2026;

// Reverts the fault injection even when an assertion bails out early.
struct MutationGuard {
  explicit MutationGuard(bool on) {
    dct::set_mutation_drop_announce_revalidate(on);
  }
  ~MutationGuard() { dct::set_mutation_drop_announce_revalidate(false); }
};

// The smallest workload whose schedules contain the lost-wakeup bug: two
// threads, two acquisitions each, one self-conflicting mode, AlwaysPark so
// every contended acquisition goes through prepare/announce/park. The bug
// fires when a waiter parks after the holder's LAST release already ran the
// (empty) wakeup scan — with re-validation dropped, the waiter sleeps
// forever and the scheduler reports an exact deadlock.
dct::Workload make_contended_workload() {
  struct State {
    ModeTable table;
    LockMechanism mech;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("size"), op("clear")})}, c)),
          mech(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  auto state = std::make_shared<State>(c);
  const int mode = state->table.resolve_constant(0);

  dct::Workload w;
  for (int t = 0; t < 2; ++t) {
    w.threads.push_back([state, mode] {
      for (int i = 0; i < 2; ++i) {
        state->mech.lock(mode);
        state->mech.unlock(mode);
      }
    });
  }
  return w;
}

dct::ExploreOptions budget_options() {
  dct::ExploreOptions opts;
  opts.sched.strategy = dct::StrategyKind::Random;
  opts.base_seed = kBaseSeed;
  opts.schedules = kScheduleBudget;
  return opts;
}

TEST(DctMutation, LostWakeupMutationCaughtWithinBudget) {
  MutationGuard mutation(true);
  const dct::ExploreOptions opts = budget_options();
  const dct::ExploreResult result =
      dct::explore(opts, make_contended_workload);

  ASSERT_FALSE(result.ok)
      << "lost-wakeup mutation survived " << kScheduleBudget
      << " schedules undetected";
  std::cout << "[ detector ] mutation caught after " << result.schedules_run
            << " schedules (seed " << result.failing_seed << ")\n";
  EXPECT_TRUE(result.schedule.hung());
  EXPECT_EQ(result.schedule.outcome,
            dct::ScheduleResult::Outcome::Deadlock);
  EXPECT_LE(result.schedules_run, kScheduleBudget);
  // The report carries everything needed to reproduce by hand.
  EXPECT_NE(result.failure.find("DEADLOCK"), std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find(std::to_string(result.failing_seed)),
            std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find("replay:"), std::string::npos);

  // One-line replay of the printed seed: deterministically the same hang.
  const dct::ExploreResult again =
      dct::replay(opts.sched, result.failing_seed, make_contended_workload);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.schedule.outcome, result.schedule.outcome);
  EXPECT_EQ(again.schedule.steps, result.schedule.steps);
  ASSERT_EQ(again.schedule.trace.size(), result.schedule.trace.size());
  for (std::size_t i = 0; i < again.schedule.trace.size(); ++i) {
    EXPECT_EQ(again.schedule.trace[i].thread,
              result.schedule.trace[i].thread)
        << "step " << i;
    EXPECT_STREQ(again.schedule.trace[i].point,
                 result.schedule.trace[i].point)
        << "step " << i;
  }
}

TEST(DctMutation, StockProtocolSurvivesSameBudgetClean) {
  const dct::ExploreResult result =
      dct::explore(budget_options(), make_contended_workload);
  EXPECT_TRUE(result.ok) << result.to_string();
  EXPECT_EQ(result.schedules_run, kScheduleBudget);
}

// --- ISSUE 3: the optimistic tier's retract-then-rewake step ---------------

// Reverts the drop-retract-rewake fault injection on scope exit.
struct RetractMutationGuard {
  explicit RetractMutationGuard(bool on) {
    dct::set_mutation_drop_retract_rewake(on);
  }
  ~RetractMutationGuard() { dct::set_mutation_drop_retract_rewake(false); }
};

// The smallest workload whose schedules contain the optimistic tier's lost
// wakeup. Modes: R = {contains(*)} (self-commuting, striped when `striped`)
// conflicting with W = {add(*), remove(*)}. Threads: three W lockers and one
// R try_locker, AlwaysPark, and the Fig. 20 pre-check (its conflict-skip is
// what lets a waiter park without touching the partition spinlock).
//
// The bug needs a MASKED last release, because an unmasked unlock or any
// later successful acquire/release would rewake the partition and rescue
// the sleepers. One schedule that deadlocks only under the mutation:
//   1. T1 holds W. T3's lock(W) sees it and parks.
//   2. T4's lock(W) prechecked before T1 announced, so it announces late:
//      C_W=2; its validation fails (suspended before the retract).
//   3. T2's try_lock(R) announces, fails against C_W, retracts (DROPPED —
//      harmless here), then announces again under the internal lock and
//      fails again while T4's transient is still up: suspended before its
//      second retract with C_R=1.
//   4. T1 unlocks: prev==2 because of T4's transient — no wakeup. This is
//      the mask: the stock protocol's wake now rides on T4's retract.
//   5. T4 retracts (DROPPED — the bug), re-prechecks, sees T2's transient
//      C_R, and parks beside T3 without the spinlock.
//   6. T2 performs its second retract (DROPPED) and returns false.
// Nothing will ever bump the partition generation again: T3 and T4 sleep
// forever — an exact deadlock. With the rewake intact, step 5's retract
// wakes T3/T4 and step 6's wakes T4, and every schedule converges.
dct::Workload make_retract_workload(bool striped) {
  struct State {
    ModeTable table;
    LockMechanism mech;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("contains", {commute::star()})}),
               SymbolicSet({op("add", {commute::star()}),
                            op("remove", {commute::star()})})},
              c)),
          mech(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  c.counter_stripes = striped ? 4 : 0;
  auto state = std::make_shared<State>(c);
  const int read = state->table.resolve_constant(0);
  const int write = state->table.resolve_constant(1);

  dct::Workload w;
  for (int t = 0; t < 3; ++t) {
    w.threads.push_back([state, write] {
      state->mech.lock(write);
      state->mech.unlock(write);
    });
  }
  w.threads.push_back([state, read] {
    if (state->mech.try_lock(read)) state->mech.unlock(read);
  });
  return w;
}

class DctRetractMutation : public ::testing::TestWithParam<bool> {};

TEST_P(DctRetractMutation, DroppedRewakeCaughtWithinBudget) {
  const bool striped = GetParam();
  RetractMutationGuard mutation(true);
  const dct::ExploreOptions opts = budget_options();
  const dct::ExploreResult result =
      dct::explore(opts, [striped] { return make_retract_workload(striped); });

  ASSERT_FALSE(result.ok)
      << "drop-retract-rewake mutation survived " << kScheduleBudget
      << " schedules undetected (striped=" << striped << ")";
  std::cout << "[ detector ] retract mutation (striped=" << striped
            << ") caught after " << result.schedules_run << " schedules (seed "
            << result.failing_seed << ")\n";
  EXPECT_TRUE(result.schedule.hung());
  EXPECT_EQ(result.schedule.outcome, dct::ScheduleResult::Outcome::Deadlock);
  EXPECT_LE(result.schedules_run, kScheduleBudget);
  EXPECT_NE(result.failure.find("replay:"), std::string::npos);

  // Deterministic replay of the printed seed: same outcome, same trace.
  const dct::ExploreResult again =
      dct::replay(opts.sched, result.failing_seed,
                  [striped] { return make_retract_workload(striped); });
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.schedule.outcome, result.schedule.outcome);
  EXPECT_EQ(again.schedule.steps, result.schedule.steps);
  ASSERT_EQ(again.schedule.trace.size(), result.schedule.trace.size());
  for (std::size_t i = 0; i < again.schedule.trace.size(); ++i) {
    EXPECT_EQ(again.schedule.trace[i].thread, result.schedule.trace[i].thread)
        << "step " << i;
    EXPECT_STREQ(again.schedule.trace[i].point,
                 result.schedule.trace[i].point)
        << "step " << i;
  }
}

TEST_P(DctRetractMutation, StockRetractSurvivesSameBudgetClean) {
  const bool striped = GetParam();
  const dct::ExploreResult result = dct::explore(
      budget_options(), [striped] { return make_retract_workload(striped); });
  EXPECT_TRUE(result.ok) << result.to_string();
  EXPECT_EQ(result.schedules_run, kScheduleBudget);
}

INSTANTIATE_TEST_SUITE_P(BothCounterRepresentations, DctRetractMutation,
                         ::testing::Bool(),
                         [](const auto& pinfo) {
                           return pinfo.param ? std::string("striped")
                                              : std::string("flat");
                         });

// --- ISSUE 7: no-starvation oracle over the grant policies -----------------

// Reverts the drop-barrier-check fault injection on scope exit.
struct BarrierMutationGuard {
  explicit BarrierMutationGuard(bool on) {
    dct::set_mutation_drop_barrier_check(on);
  }
  ~BarrierMutationGuard() { dct::set_mutation_drop_barrier_check(false); }
};

constexpr int kFloodReaders = 3;
constexpr int kFloodIters = 7;  // reader grants available: 3 x 7 = 21
constexpr int kOracleBypassBound = 2;  // the K of BOUNDED_BYPASS under test

// The certified no-starvation bound (grant_policy.h). The tracker counts
// true overtakes only, and the allowance on top of the policy's budget has
// two in-flight components, each worth one grant per peer thread: doorway
// stragglers (barrier checked just before it rose) and ticket/registration
// reorder (a peer that entered the wait loop later but drew its ticket
// first), plus one phase-reorder grant per same-phase peer under
// PHASE_FAIR. BOUNDED_BYPASS additionally refills its K budget for each
// successive queue head, so K scales by the thread count (queue depth).
// Worst observed over the 10k-schedule budget: PHASE_FAIR 8,
// BOUNDED_BYPASS 12 — each within its bound (9 / 14).
std::uint64_t certified_bound(runtime::GrantPolicyKind policy) {
  const std::uint64_t inflight = 2 * kFloodReaders;  // 2 x (threads - 1)
  if (policy == runtime::GrantPolicyKind::BoundedBypass) {
    return kOracleBypassBound * (kFloodReaders + 1) + inflight;
  }
  // FREE is held to the strictest fair standard — exceeding it is the bug.
  return kFloodReaders + inflight;  // 3 x (threads - 1)
}

// The starvation workload of the issue: a flood of self-commuting readers
// ({contains(*)}, kFloodReaders threads x kFloodIters acquisitions) against
// ONE conflicting writer ({add(*),remove(*)}, a single acquisition). Under
// FREE every reader grant while the writer waits is a bypass, and the flood
// offers 21 of them; under the fair policies the barrier must cap the
// count at certified_bound(). A StarvationTracker is installed per schedule
// and the check() oracle fails any schedule whose worst wait episode was
// bypassed more than `allowed` times.
dct::Workload make_flood_workload(runtime::GrantPolicyKind policy,
                                  std::uint64_t allowed) {
  struct State {
    ModeTable table;
    LockMechanism mech;
    dct::StarvationTracker tracker;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("contains", {commute::star()})}),
               SymbolicSet({op("add", {commute::star()}),
                            op("remove", {commute::star()})})},
              c)),
          mech(table) {
      tracker.install();  // uninstalls itself when the State is destroyed
    }
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  c.grant_policy = policy;
  c.bypass_bound = kOracleBypassBound;
  auto state = std::make_shared<State>(c);
  const int read = state->table.resolve_constant(0);
  const int write = state->table.resolve_constant(1);

  dct::Workload w;
  for (int t = 0; t < kFloodReaders; ++t) {
    w.threads.push_back([state, read] {
      for (int i = 0; i < kFloodIters; ++i) {
        state->mech.lock(read);
        state->mech.unlock(read);
      }
    });
  }
  w.threads.push_back([state, write] {
    state->mech.lock(write);
    state->mech.unlock(write);
  });
  w.check = [state, allowed] {
    const std::uint64_t worst = state->tracker.max_bypasses();
    if (worst > allowed) {
      return "starvation: a waiter was bypassed " + std::to_string(worst) +
             " times (certified bound " + std::to_string(allowed) +
             "; episodes: " + state->tracker.describe() + ")";
    }
    return std::string();
  };
  return w;
}

TEST(DctStarvation, FreePolicyStarvesTheWriterWithinBudget) {
  // FREE is the documented liveness hole: the oracle must find a schedule
  // where the reader flood bypasses the waiting writer past the bound that
  // the fair policies certify.
  const std::uint64_t allowed =
      certified_bound(runtime::GrantPolicyKind::Free);
  const dct::ExploreOptions opts = budget_options();
  const auto factory = [allowed] {
    return make_flood_workload(runtime::GrantPolicyKind::Free, allowed);
  };
  const dct::ExploreResult result = dct::explore(opts, factory);

  ASSERT_FALSE(result.ok)
      << "FREE survived " << kScheduleBudget
      << " schedules without starving the writer past " << allowed;
  std::cout << "[ detector ] FREE starvation caught after "
            << result.schedules_run << " schedules (seed "
            << result.failing_seed << "): " << result.oracle_failure << "\n";
  // Starvation is an oracle failure on a COMPLETED schedule — every thread
  // eventually finishes; the writer was just trampled on the way.
  EXPECT_EQ(result.schedule.outcome,
            dct::ScheduleResult::Outcome::Completed);
  EXPECT_NE(result.oracle_failure.find("starvation"), std::string::npos);

  // Deterministic replay of the printed seed: same oracle verdict.
  const dct::ExploreResult again =
      dct::replay(opts.sched, result.failing_seed, factory);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.oracle_failure, result.oracle_failure);
}

class DctStarvationFairPolicy
    : public ::testing::TestWithParam<runtime::GrantPolicyKind> {};

TEST_P(DctStarvationFairPolicy, CertifiesBoundedBypassOverFullBudget) {
  const runtime::GrantPolicyKind policy = GetParam();
  const std::uint64_t allowed = certified_bound(policy);
  const dct::ExploreResult result =
      dct::explore(budget_options(), [policy, allowed] {
        return make_flood_workload(policy, allowed);
      });
  EXPECT_TRUE(result.ok) << runtime::grant_policy_name(policy) << ": "
                         << result.to_string();
  EXPECT_EQ(result.schedules_run, kScheduleBudget);
}

TEST_P(DctStarvationFairPolicy, DroppedBarrierCheckCaughtWithinBudget) {
  // Mutation-validate the oracle itself: a fast path that skips the barrier
  // check turns every fair policy back into FREE, and the same schedules
  // that starve the writer under FREE must now be flagged here.
  const runtime::GrantPolicyKind policy = GetParam();
  BarrierMutationGuard mutation(true);
  const std::uint64_t allowed = certified_bound(policy);
  const dct::ExploreResult result =
      dct::explore(budget_options(), [policy, allowed] {
        return make_flood_workload(policy, allowed);
      });
  ASSERT_FALSE(result.ok)
      << "drop-barrier-check mutation survived " << kScheduleBudget
      << " schedules under " << runtime::grant_policy_name(policy);
  std::cout << "[ detector ] barrier mutation ("
            << runtime::grant_policy_name(policy) << ") caught after "
            << result.schedules_run << " schedules (seed "
            << result.failing_seed << ")\n";
  EXPECT_NE(result.oracle_failure.find("starvation"), std::string::npos)
      << result.failure;
}

// --- the packed word's compiled conflict-mask check ------------------------

// Reverts the drop-packed-mask-check fault injection on scope exit.
struct PackedMaskMutationGuard {
  explicit PackedMaskMutationGuard(bool on) {
    dct::set_mutation_drop_packed_mask_check(on);
  }
  ~PackedMaskMutationGuard() {
    dct::set_mutation_drop_packed_mask_check(false);
  }
};

// The write-skew workload of dct_schedule_test's serializability section,
// pinned to Packed storage: two registers, each guarded by a packed
// mechanism's self-conflicting write mode, two transactions running 2PL with
// a fixed A-before-B order. The explicit sched_point between the read and
// the write is the interleaving the locks must forbid: with the conflict
// mask intact the second transaction blocks at its first lock; with the
// mask dropped (the mutation) both CAS straight in, the scheduler splits
// the transactions at "txn.mid", and the recorded history is the classic
// 2-cycle the serializability oracle must reject.
dct::Workload make_packed_skew_workload() {
  struct State {
    ModeTable table;
    LockMechanism lock_a;
    LockMechanism lock_b;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::register_spec(),
              {SymbolicSet({op("write", {commute::star()}),
                            op("readCell")})},
              c)),
          lock_a(table),
          lock_b(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 1;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  c.storage = StorageKind::Packed;
  auto state = std::make_shared<State>(c);
  auto recorder = std::make_shared<HistoryRecorder>();
  const int mode = state->table.resolve_constant(0);
  const commute::AdtSpec& reg = commute::register_spec();
  const int read = reg.method_index("readCell");
  const int write = reg.method_index("write");
  const char* a = "A";
  const char* b = "B";

  auto txn_body = [state, recorder, mode, &reg, read, write, a,
                   b](const char* read_reg, const char* write_reg) {
    const std::uint64_t txn = recorder->begin_txn();
    state->lock_a.lock(mode);
    state->lock_b.lock(mode);
    recorder->record(txn, read_reg, &reg, read, {});
    dct::sched_point("txn.mid", recorder.get());
    recorder->record(txn, write_reg, &reg, write, {commute::Value{1}});
    state->lock_b.unlock(mode);
    state->lock_a.unlock(mode);
  };
  dct::Workload w;
  w.threads.push_back([txn_body, a, b] { txn_body(a, b); });
  w.threads.push_back([txn_body, a, b] { txn_body(b, a); });
  w.check = dct::serializability_oracle(recorder);
  return w;
}

TEST(DctPackedMaskMutation, DroppedMaskCheckCaughtWithinBudget) {
  // Sanity first: the workload really runs on packed storage (a table this
  // small always has a packed layout).
  {
    ModeTableConfig c;
    c.abstract_values = 1;
    c.storage = StorageKind::Packed;
    const auto table = ModeTable::compile(
        commute::register_spec(),
        {SymbolicSet({op("write", {commute::star()}), op("readCell")})}, c);
    ASSERT_NE(table.packed_layout(), nullptr);
    LockMechanism probe(table);
    ASSERT_EQ(probe.storage(), StorageKind::Packed);
  }
  PackedMaskMutationGuard mutation(true);
  const dct::ExploreOptions opts = budget_options();
  const dct::ExploreResult result =
      dct::explore(opts, make_packed_skew_workload);

  ASSERT_FALSE(result.ok)
      << "drop-packed-mask-check mutation survived " << kScheduleBudget
      << " schedules undetected";
  std::cout << "[ detector ] packed-mask mutation caught after "
            << result.schedules_run << " schedules (seed "
            << result.failing_seed << ")\n";
  // The damage is a completed but non-serializable history, not a hang.
  EXPECT_EQ(result.schedule.outcome,
            dct::ScheduleResult::Outcome::Completed);
  EXPECT_NE(result.oracle_failure.find("NOT serializable"),
            std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find("replay:"), std::string::npos);

  // Deterministic replay of the printed seed: same oracle verdict.
  const dct::ExploreResult again =
      dct::replay(opts.sched, result.failing_seed, make_packed_skew_workload);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.oracle_failure, result.oracle_failure);
}

TEST(DctPackedMaskMutation, StockPackedProtocolSurvivesSameBudgetClean) {
  const dct::ExploreResult result =
      dct::explore(budget_options(), make_packed_skew_workload);
  EXPECT_TRUE(result.ok) << result.to_string();
  EXPECT_EQ(result.schedules_run, kScheduleBudget);
}

INSTANTIATE_TEST_SUITE_P(
    AllFairPolicies, DctStarvationFairPolicy,
    ::testing::Values(runtime::GrantPolicyKind::PhaseFair,
                      runtime::GrantPolicyKind::BoundedBypass),
    [](const auto& pinfo) {
      return pinfo.param == runtime::GrantPolicyKind::PhaseFair
                 ? std::string("phase_fair")
                 : std::string("bounded_bypass");
    });

}  // namespace
}  // namespace semlock
