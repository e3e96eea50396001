// Schedule exploration of the lock runtime under the DCT scheduler
// (src/dct): mutual exclusion holds under every strategy, traces replay
// deterministically from their seed, a park with no unparker is reported as
// an exact deadlock, and the serializability oracle is wired through the
// explorer. Only built with -DSEMLOCK_DCT=ON.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "commute/builtin_specs.h"
#include "dct/explorer.h"
#include "dct/scheduler.h"
#include "runtime/parking_lot.h"
#include "semlock/lock_mechanism.h"
#include "util/spinlock.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;

// A lock/unlock workload over a self-conflicting mode ({size,clear} of the
// set spec), parking at once (spin limit 0) so every contended acquisition
// exercises the full prepare/announce/re-validate/park handshake. The oracle
// checks the plain (non-atomic) counter that the mode is supposed to protect.
dct::Workload make_mutex_workload(int threads, int ops) {
  struct State {
    ModeTable table;
    LockMechanism mech;
    long counter = 0;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("size"), op("clear")})}, c)),
          mech(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  auto state = std::make_shared<State>(c);
  const int mode = state->table.resolve_constant(0);

  dct::Workload w;
  for (int t = 0; t < threads; ++t) {
    w.threads.push_back([state, mode, ops] {
      for (int i = 0; i < ops; ++i) {
        state->mech.lock(mode);
        ++state->counter;  // protected iff the mode excludes
        state->mech.unlock(mode);
      }
    });
  }
  w.check = [state, threads, ops]() -> std::string {
    const long expected = static_cast<long>(threads) * ops;
    if (state->counter == expected) return "";
    return "mutual exclusion violated: counter " +
           std::to_string(state->counter) + " != " +
           std::to_string(expected);
  };
  return w;
}

TEST(DctSchedule, MutualExclusionCleanUnderEveryStrategy) {
  for (const dct::StrategyKind strategy :
       {dct::StrategyKind::RoundRobin, dct::StrategyKind::Random,
        dct::StrategyKind::Pct}) {
    dct::ExploreOptions opts;
    opts.sched.strategy = strategy;
    opts.base_seed = 42;
    opts.schedules = strategy == dct::StrategyKind::RoundRobin ? 1 : 100;
    const dct::ExploreResult result =
        dct::explore(opts, [] { return make_mutex_workload(3, 2); });
    EXPECT_TRUE(result.ok) << dct::strategy_name(strategy) << ": "
                           << result.to_string();
  }
}

TEST(DctSchedule, SameSeedReplaysIdenticalTrace) {
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::Random;
  opts.seed = 12345;

  auto run_trace = [&opts] {
    dct::Workload w = make_mutex_workload(3, 2);
    dct::Scheduler sched(opts);
    return sched.run(std::move(w.threads));
  };
  const dct::ScheduleResult a = run_trace();
  const dct::ScheduleResult b = run_trace();
  EXPECT_FALSE(a.hung());
  ASSERT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].thread, b.trace[i].thread) << "step " << i;
    EXPECT_STREQ(a.trace[i].point, b.trace[i].point) << "step " << i;
  }
}

TEST(DctSchedule, ParkWithNoUnparkerIsExactDeadlock) {
  // One virtual thread parks on a lot nobody will ever bump: the scheduler
  // must report Deadlock (not hang, not livelock) and name the wait point.
  auto lot = std::make_shared<runtime::ParkingLot>(1);
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::RoundRobin;
  dct::Scheduler sched(opts);
  const dct::ScheduleResult result = sched.run({[lot] {
    const std::uint32_t gen = lot->prepare(0);
    lot->announce(0);
    lot->park(0, gen);
  }});
  EXPECT_EQ(result.outcome, dct::ScheduleResult::Outcome::Deadlock);
  ASSERT_EQ(result.stuck.size(), 1u);
  EXPECT_STREQ(result.stuck[0].point, "park.wait");
  EXPECT_NE(result.to_string().find("DEADLOCK"), std::string::npos);
}

TEST(DctSchedule, SpinlockHeldForeverIsExactDeadlock) {
  // Second thread blocks on a spinlock the first never releases. Under a
  // plain build this would spin forever; under DCT it is a detected
  // deadlock once the holder finishes.
  auto lock = std::make_shared<util::Spinlock>();
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::RoundRobin;
  dct::Scheduler sched(opts);
  const dct::ScheduleResult result = sched.run({
      [lock] { lock->lock(); },  // acquires and exits without releasing
      [lock] {
        lock->lock();
        lock->unlock();
      },
  });
  EXPECT_EQ(result.outcome, dct::ScheduleResult::Outcome::Deadlock);
  ASSERT_EQ(result.stuck.size(), 1u);
  EXPECT_EQ(result.stuck[0].thread, 1);
  EXPECT_STREQ(result.stuck[0].point, "spin.blocked");
}

TEST(DctSchedule, SerializabilityOracleFlagsNonSerializableHistory) {
  // The classic two-register write skew, recorded as history events: both
  // transactions read the register the other writes, reads before writes.
  // The precedence graph is a 2-cycle; the oracle must refuse it no matter
  // the schedule (single virtual thread, so schedule 1 of 1 finds it).
  dct::ExploreOptions opts;
  opts.schedules = 1;
  const dct::ExploreResult result = dct::explore(opts, [] {
    auto recorder = std::make_shared<HistoryRecorder>();
    dct::Workload w;
    w.threads.push_back([recorder] {
      const commute::AdtSpec& reg = commute::register_spec();
      const int read = reg.method_index("readCell");
      const int write = reg.method_index("write");
      const char* a = "A";
      const char* b = "B";
      const std::uint64_t t1 = recorder->begin_txn();
      const std::uint64_t t2 = recorder->begin_txn();
      recorder->record(t1, a, &reg, read, {});
      recorder->record(t2, b, &reg, read, {});
      recorder->record(t1, b, &reg, write, {Value{1}});
      recorder->record(t2, a, &reg, write, {Value{2}});
    });
    w.check = dct::serializability_oracle(recorder);
    return w;
  });
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.oracle_failure.empty());
  EXPECT_NE(result.failure.find("NOT serializable"), std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find("replay:"), std::string::npos);
}

// Parametrized over the counter representation: 2PL histories must verify
// serializable no matter how the mechanism counts holds (per-mode atomics,
// or the packed word whose conflict check is a compiled mask).
class DctSerializability : public ::testing::TestWithParam<StorageKind> {};

TEST_P(DctSerializability, LockedHistoryPassesSerializabilityOracle) {
  // Same two-register shape, but every read/write pair holds the register's
  // write mode for the whole transaction — the explorer must find no
  // schedule whose history the oracle rejects.
  const StorageKind storage = GetParam();
  dct::ExploreOptions opts;
  opts.sched.strategy = dct::StrategyKind::Random;
  opts.base_seed = 7;
  opts.schedules = 100;
  const dct::ExploreResult result = dct::explore(opts, [storage] {
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
    c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
    c.park_spin_limit = 0;
    c.storage = storage;
    c.counter_stripes = 4;
    auto state = std::make_shared<State>(c);
    auto recorder = std::make_shared<HistoryRecorder>();
    const int mode = state->table.resolve_constant(0);
    const commute::AdtSpec& reg = commute::register_spec();
    const int read = reg.method_index("readCell");
    const int write = reg.method_index("write");
    const char* a = "A";
    const char* b = "B";

    // 2PL with a fixed global acquisition order (A before B, the ordered
    // locking of Fig. 12): take both registers' modes, run the ops, release.
    auto txn_body = [state, recorder, mode, &reg, read, write, a,
                     b](const char* read_reg, const char* write_reg) {
      const std::uint64_t txn = recorder->begin_txn();
      state->lock_a.lock(mode);
      state->lock_b.lock(mode);
      recorder->record(txn, read_reg, &reg, read, {});
      recorder->record(txn, write_reg, &reg, write, {Value{1}});
      state->lock_b.unlock(mode);
      state->lock_a.unlock(mode);
    };
    dct::Workload w;
    w.threads.push_back([txn_body, a, b] { txn_body(a, b); });
    w.threads.push_back([txn_body, a, b] { txn_body(b, a); });
    w.check = dct::serializability_oracle(recorder);
    return w;
  });
  EXPECT_TRUE(result.ok) << result.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllCounterRepresentations, DctSerializability,
                         ::testing::Values(StorageKind::Striped,
                                           StorageKind::Packed),
                         [](const auto& pinfo) {
                           return std::string(storage_kind_name(pinfo.param));
                         });

}  // namespace
}  // namespace semlock
