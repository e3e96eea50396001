// The runtime waiting subsystem: ParkingLot protocol, wait-policy
// selection/plumbing, and the no-lost-wakeup stress the ISSUE's acceptance
// criteria require (conflicting-mode ping-pong under SpinThenPark with a
// zero spin budget, 100 consecutive iterations, TSan-clean).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "runtime/parking_lot.h"
#include "runtime/wait_policy.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using commute::var;
using runtime::ParkingLot;
using runtime::WaitPolicyKind;

ModeTable make_set_table(WaitPolicyKind policy, int n = 4,
                         int park_spin_limit = 64) {
  ModeTableConfig c;
  c.abstract_values = n;
  c.wait_policy = policy;
  c.park_spin_limit = park_spin_limit;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

TEST(WaitPolicy, NamesRoundTrip) {
  for (const auto kind :
       {WaitPolicyKind::SpinYield, WaitPolicyKind::SpinThenPark,
        WaitPolicyKind::FutexWord}) {
    const auto parsed = runtime::parse_wait_policy(wait_policy_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(runtime::parse_wait_policy("futex"), WaitPolicyKind::FutexWord);
  EXPECT_EQ(runtime::parse_wait_policy("adaptive"),
            WaitPolicyKind::SpinThenPark);
  EXPECT_EQ(runtime::parse_wait_policy("spin"), WaitPolicyKind::SpinYield);
  EXPECT_FALSE(runtime::parse_wait_policy("busy-loop").has_value());
  for (const char* removed : {"always-park", "park", "alwayspark"}) {
    EXPECT_FALSE(runtime::parse_wait_policy(removed).has_value()) << removed;
  }
}

TEST(WaitPolicy, ScopedOverrideSetsModeTableConfigDefault) {
  const auto base = ModeTableConfig{}.wait_policy;
  {
    runtime::ScopedWaitPolicy scope(WaitPolicyKind::FutexWord);
    EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::FutexWord);
    {
      runtime::ScopedWaitPolicy nested(WaitPolicyKind::SpinThenPark);
      EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::SpinThenPark);
    }
    EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::FutexWord);
  }
  EXPECT_EQ(ModeTableConfig{}.wait_policy, base);
}

TEST(WaitPolicy, WaitStateSchedule) {
  runtime::WaitState spin(WaitPolicyKind::SpinYield, 0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(spin.step());

  runtime::WaitState adaptive(WaitPolicyKind::SpinThenPark, 3);
  EXPECT_FALSE(adaptive.step());
  EXPECT_FALSE(adaptive.step());
  EXPECT_FALSE(adaptive.step());
  EXPECT_TRUE(adaptive.step());  // budget exhausted: park from now on
  EXPECT_TRUE(adaptive.step());

  runtime::WaitState eager(WaitPolicyKind::SpinThenPark, 0);
  EXPECT_TRUE(eager.step());
  EXPECT_TRUE(eager.step());
}

// may_block() marks the first step that can leave the CPU: the backoff's
// first yield (after 8 doubling pause rounds, 1 + 2 + ... + 128 pauses) or
// the first park, whichever comes first; it stays set from then on.
TEST(WaitPolicy, MayBlockMarksTheFirstYieldOrPark) {
  const auto spinning_steps = [](runtime::WaitState w) {
    int steps = 0;
    while (!w.may_block()) {
      EXPECT_FALSE(w.step());
      ++steps;
    }
    EXPECT_TRUE(w.may_block());
    return steps;
  };
  EXPECT_EQ(spinning_steps(runtime::WaitState(WaitPolicyKind::SpinYield, 0)),
            8);
  EXPECT_EQ(spinning_steps(
                runtime::WaitState(WaitPolicyKind::SpinThenPark, 64)),
            8);
  EXPECT_EQ(
      spinning_steps(runtime::WaitState(WaitPolicyKind::SpinThenPark, 3)), 3);
  EXPECT_EQ(spinning_steps(runtime::WaitState(WaitPolicyKind::FutexWord, 3)),
            3);
  EXPECT_EQ(
      spinning_steps(runtime::WaitState(WaitPolicyKind::SpinThenPark, 0)), 0);

  runtime::WaitState adaptive(WaitPolicyKind::SpinThenPark, 3);
  for (int i = 0; i < 3; ++i) adaptive.step();
  EXPECT_TRUE(adaptive.may_block());
  EXPECT_TRUE(adaptive.step());  // the step may_block() announced parks
}

TEST(ParkingLot, GenerationAndParkedAccounting) {
  ParkingLot lot(2);
  EXPECT_EQ(lot.generation(0), 0u);
  EXPECT_EQ(lot.parked(0), 0u);

  // No waiters: unpark_all must not burn a generation (the uncontended
  // unlock path relies on this being cheap and side-effect free).
  lot.unpark_all(0);
  EXPECT_EQ(lot.generation(0), 0u);

  lot.announce(0);
  EXPECT_EQ(lot.parked(0), 1u);
  lot.retract(0);
  EXPECT_EQ(lot.parked(0), 0u);

  // With an announced waiter the generation moves and partition 1 is
  // untouched (wakeups are partition-scoped).
  lot.announce(0);
  lot.unpark_all(0);
  EXPECT_EQ(lot.generation(0), 1u);
  EXPECT_EQ(lot.generation(1), 0u);
  lot.retract(0);
}

TEST(ParkingLot, ParkReturnsAfterNotify) {
  ParkingLot lot(1);
  const std::uint32_t gen = lot.prepare(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    lot.announce(0);
    lot.park(0, gen);
    woke.store(true);
  });
  while (lot.parked(0) == 0) std::this_thread::yield();
  lot.unpark_all(0);
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(lot.parked(0), 0u);
}

TEST(ParkingLot, StaleGenerationDoesNotBlock) {
  ParkingLot lot(1);
  const std::uint32_t gen = lot.prepare(0);
  lot.announce(0);
  lot.unpark_all(0);  // bump happens before the park
  lot.park(0, gen);   // must return immediately: generation != gen
  SUCCEED();
}

// The acceptance-criteria stress: N threads ping-pong between two
// conflicting modes, parking on the first failed attempt, 100 consecutive
// iterations. A lost wakeup leaves every thread parked and hangs the test; a
// mutual-exclusion bug corrupts the plain counters.
TEST(NoLostWakeupStress, ParkNowPingPong) {
  constexpr int kIterations = 100;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 250;
  for (int iter = 0; iter < kIterations; ++iter) {
    const auto t = make_set_table(WaitPolicyKind::SpinThenPark, 4,
                                  /*spin_limit=*/0);
    LockMechanism m(t);
    const Value v0[1] = {0};
    const int mode_a = t.resolve(0, v0);       // {add(0),remove(0)}
    const int mode_b = t.resolve_constant(1);  // {size,clear}
    ASSERT_FALSE(t.commutes(mode_a, mode_b));
    long counter = 0;  // guarded by the (mutually exclusive) modes
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int k = 0; k < kOpsPerThread; ++k) {
          const int mode = (k + i) % 2 == 0 ? mode_a : mode_b;
          m.lock(mode);
          ++counter;
          m.unlock(mode);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(counter, static_cast<long>(kThreads) * kOpsPerThread)
        << "iteration " << iter;
    ASSERT_EQ(m.holders(mode_a), 0u);
    ASSERT_EQ(m.holders(mode_b), 0u);
  }
}

// Same shape under the adaptive policy with a tiny spin budget, so the
// spin->park transition is exercised rather than just pure parking.
TEST(NoLostWakeupStress, SpinThenParkPingPong) {
  constexpr int kIterations = 25;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  for (int iter = 0; iter < kIterations; ++iter) {
    const auto t =
        make_set_table(WaitPolicyKind::SpinThenPark, 4, /*spin_limit=*/2);
    LockMechanism m(t);
    const Value v0[1] = {0};
    const int mode_a = t.resolve(0, v0);
    const int mode_b = t.resolve_constant(1);
    long counter = 0;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int k = 0; k < kOpsPerThread; ++k) {
          const int mode = (k + i) % 2 == 0 ? mode_a : mode_b;
          m.lock(mode);
          ++counter;
          m.unlock(mode);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(counter, static_cast<long>(kThreads) * kOpsPerThread)
        << "iteration " << iter;
  }
}

// Parked policies must actually park under sustained conflict, and the new
// AcquireStats fields must observe it.
TEST(AcquireStatsParks, ParkNowRecordsParksAndWaitTime) {
  const auto t = make_set_table(WaitPolicyKind::SpinThenPark, 4,
                                /*spin_limit=*/0);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::atomic<std::uint64_t> parks{0}, wait_ns{0};
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode_b);
    m.unlock(mode_b);
    parks.store(stats.parks);
    wait_ns.store(stats.wait_ns);
  });
  // Wait until the waiter is parked before releasing.
  const int partition = t.partition_of(mode_b);
  while (m.parking_lot().parked(partition) == 0) std::this_thread::yield();
  m.unlock(mode_a);
  waiter.join();
  EXPECT_GE(parks.load(), 1u);
  EXPECT_GT(wait_ns.load(), 0u);
}

TEST(AcquireStatsParks, SpinYieldNeverParks) {
  const auto t = make_set_table(WaitPolicyKind::SpinYield);
  LockMechanism m(t);
  EXPECT_EQ(m.wait_policy(), WaitPolicyKind::SpinYield);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode_b);
    m.unlock(mode_b);
    EXPECT_EQ(stats.parks, 0u);
    EXPECT_EQ(stats.contended, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock(mode_a);
  waiter.join();
}

}  // namespace
}  // namespace semlock
