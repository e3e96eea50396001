#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "commute/builtin_specs.h"
#include "runtime/wait_registry.h"
#include "semlock/lock_mechanism.h"
#include "semlock/semantic_lock.h"
#include "table_cases.h"
#include "util/align.h"
#include "util/spinlock.h"

namespace semlock {

// Reads the private fields whose placement docs/FAST_PATH.md §7 promises.
struct LockMechanismLayoutPeer {
  // [begin, end) byte ranges of the fields lock() and unlock() read.
  static std::vector<std::pair<std::uintptr_t, std::uintptr_t>>
  fast_path_fields(const LockMechanism& m) {
    const auto range = [](const auto& field) {
      const auto at = reinterpret_cast<std::uintptr_t>(&field);
      return std::pair{at, at + sizeof field};
    };
    return {range(m.table_),      range(m.packed_),     range(m.trace_),
            range(m.can_park_),   range(m.futex_word_), range(m.ticketed_)};
  }
  static std::uintptr_t word(const LockMechanism& m) {
    return reinterpret_cast<std::uintptr_t>(&m.word_);
  }
  static std::uintptr_t cell(const LockMechanism& m) {
    return reinterpret_cast<std::uintptr_t>(&m.cell_);
  }
};

namespace {

using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

ModeTable make_set_table(int n = 4) {
  ModeTableConfig c;
  c.abstract_values = n;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

TEST(LockMechanism, HoldersCounting) {
  const auto t = make_set_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  EXPECT_EQ(m.holders(mode), 0u);
  m.lock(mode);
  EXPECT_EQ(m.holders(mode), 1u);
  m.unlock(mode);
  EXPECT_EQ(m.holders(mode), 0u);
}

TEST(LockMechanism, CommutingModesHeldSimultaneously) {
  ModeTableConfig c;
  c.abstract_values = 4;
  const auto t = ModeTable::compile(
      commute::set_spec(), {SymbolicSet({op("add", {star()})})}, c);
  LockMechanism m(t);
  const int mode = t.resolve_constant(0);
  // {add(*)} commutes with itself: many simultaneous holders.
  for (int i = 0; i < 10; ++i) m.lock(mode);
  EXPECT_EQ(m.holders(mode), 10u);
  for (int i = 0; i < 10; ++i) m.unlock(mode);
}

TEST(LockMechanism, TryLockRefusesConflicts) {
  const auto t = make_set_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int addrem = t.resolve(0, v0);
  const int sizeclear = t.resolve_constant(1);
  ASSERT_FALSE(t.commutes(addrem, sizeclear));
  EXPECT_TRUE(m.try_lock(addrem));
  EXPECT_FALSE(m.try_lock(sizeclear));
  EXPECT_FALSE(m.try_lock(addrem));  // self-conflicting
  m.unlock(addrem);
  EXPECT_TRUE(m.try_lock(sizeclear));
  m.unlock(sizeclear);
}

TEST(LockMechanism, DifferentAlphasDontBlock) {
  const auto t = make_set_table(4);
  LockMechanism m(t);
  const Value a[1] = {0};
  const Value b[1] = {1};
  const int ma = t.resolve(0, a);
  const int mb = t.resolve(0, b);
  ASSERT_NE(ma, mb);
  EXPECT_TRUE(m.try_lock(ma));
  EXPECT_TRUE(m.try_lock(mb));  // different stripe: no blocking
  m.unlock(ma);
  m.unlock(mb);
}

TEST(LockMechanism, BlockingLockWaitsForRelease) {
  const auto t = make_set_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int addrem = t.resolve(0, v0);
  const int sizeclear = t.resolve_constant(1);
  m.lock(addrem);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    m.lock(sizeclear);
    acquired.store(true);
    m.unlock(sizeclear);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  m.unlock(addrem);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// Mutual exclusion stress: a self-conflicting mode must behave as a mutex.
TEST(LockMechanism, SelfConflictingModeIsExclusive) {
  const auto t = make_set_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  ASSERT_FALSE(t.commutes(mode, mode));
  long counter = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 5000; ++k) {
        m.lock(mode);
        ++counter;  // protected by the semantic lock
        m.unlock(mode);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4 * 5000);
}

// Readers/writer pattern via modes: {contains(*)} vs {add(*)}, two
// self-commuting modes that conflict. Left to choose, the table packs;
// striped storage, whose validation sums the other mode's stripe row, is
// forced in the first pass.
TEST(LockMechanism, ReadModeParallelWriteModeExclusive) {
  for (const StorageKind storage : {StorageKind::Striped, StorageKind::Packed}) {
    SCOPED_TRACE(storage_kind_name(storage));
    ModeTableConfig c;
    c.abstract_values = 2;
    c.storage = storage;
    const auto t = ModeTable::compile(
        commute::set_spec(),
        {SymbolicSet({op("contains", {star()})}),
         SymbolicSet({op("add", {star()})})},
        c);
    ASSERT_EQ(t.storage(), storage);
    LockMechanism m(t);
    const int read_mode = t.resolve_constant(0);
    const int write_mode = t.resolve_constant(1);
    ASSERT_TRUE(t.commutes(read_mode, read_mode));
    ASSERT_FALSE(t.commutes(read_mode, write_mode));
    ASSERT_TRUE(t.commutes(write_mode, write_mode));  // adds commute!

    // Invariant check: no reader may observe a writer mid-flight.
    std::atomic<int> writers{0};
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&] {
        for (int k = 0; k < 4000; ++k) {
          m.lock(read_mode);
          if (writers.load() != 0) violation.store(true);
          m.unlock(read_mode);
        }
      });
    }
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&] {
        for (int k = 0; k < 4000; ++k) {
          m.lock(write_mode);
          writers.fetch_add(1);
          writers.fetch_sub(1);
          m.unlock(write_mode);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(violation.load());
  }
}

// Regression: releasing one of several holders of a mode must not wake the
// partition — only the release that drops the counter to zero can satisfy a
// waiter's conflict check, so earlier wakeups just stampede waiters into
// re-parking (observable as a generation bump and extra parks).
TEST(LockMechanism, UnlockWakesOnlyOnLastRelease) {
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {star()})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  LockMechanism m(t);
  const int add_mode = t.resolve_constant(0);
  const int clear_mode = t.resolve_constant(1);
  ASSERT_TRUE(t.commutes(add_mode, add_mode));
  ASSERT_FALSE(t.commutes(add_mode, clear_mode));
  const int partition = t.partition_of(clear_mode);
  ASSERT_EQ(partition, t.partition_of(add_mode));  // same conflict component

  m.lock(add_mode);
  m.lock(add_mode);  // two holders of the commuting mode

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    local_acquire_stats().reset();
    m.lock(clear_mode);
    acquired.store(true);
    m.unlock(clear_mode);
    EXPECT_GE(local_acquire_stats().parks, 1u);  // it really parked
  });
  while (m.parking_lot().parked(partition) == 0) std::this_thread::yield();

  const std::uint32_t gen_before = m.parking_lot().generation(partition);
  m.unlock(add_mode);  // one holder remains: no wakeup
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(m.parking_lot().generation(partition), gen_before);
  EXPECT_FALSE(acquired.load());

  m.unlock(add_mode);  // last holder: full wakeup handshake
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // Two add releases plus the waiter's own clear release produced exactly
  // one generation bump: the wakeup that mattered.
  EXPECT_EQ(m.parking_lot().generation(partition), gen_before + 1);
}

struct WaitSample {
  std::uint64_t contended;
  std::uint64_t wait_ns;
  std::uint64_t wait_cpu_ns;
};

// Pins the calling thread to `cpu` (-1: leaves it where it is).
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(set), &set), 0);
}

// One contended lock() of the self-conflicting `mode`: this thread holds it
// until a second thread's wait is published in the WaitRegistry, then for
// `hold` longer, then releases. Returns the waiter's AcquireStats. The waiter
// calls lock() only after this thread has seen it start, so the wait begins
// with both threads known to be on a CPU rather than with this one having
// spun through thread start-up.
WaitSample blocked_wait(LockMechanism& m, int mode,
                        std::chrono::microseconds hold, int waiter_cpu = -1) {
  m.lock(mode);
  std::atomic<runtime::WaitRegistry::Slot*> slot{nullptr};
  std::atomic<bool> go{false};
  WaitSample out{};
  std::thread waiter([&] {
    pin_to(waiter_cpu);
    slot.store(runtime::WaitRegistry::instance().thread_slot());
    while (!go.load()) util::cpu_relax();
    AcquireStats& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode);
    out = {stats.contended, stats.wait_ns, stats.wait_cpu_ns};
    m.unlock(mode);
  });
  runtime::WaitRegistry::Slot* s = nullptr;
  while ((s = slot.load()) == nullptr) util::cpu_relax();
  go.store(true);
  const auto mech = reinterpret_cast<std::uintptr_t>(&m);
  while (s->mechanism.load() != mech) util::cpu_relax();
  std::this_thread::sleep_for(hold);
  m.unlock(mode);
  waiter.join();
  return out;
}

// SpinThenPark tables park on the first failed attempt.
ModeTable make_wait_table(runtime::WaitPolicyKind policy) {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = policy;
  c.park_spin_limit = 0;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})})}, c);
}

// wait_cpu_ns reads the thread-CPU clock only once a wait may yield or park.
// A waiter granted during its spin phase (about 5 µs of pause rounds) was on
// the CPU throughout and is charged exactly its wall time.
TEST(LockMechanism, WaitCpuIsWallTimeWhileSpinning) {
  const auto t = make_wait_table(runtime::WaitPolicyKind::SpinYield);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  ASSERT_FALSE(t.commutes(mode, mode));

  // The releaser must run beside the spinning waiter, not after its first
  // yield, so the two threads are pinned to different CPUs.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  pin_to(cpus[0]);
  // Released as soon as it is seen waiting, the waiter is granted within
  // its spin phase unless the host deschedules one of the two threads, so a
  // handful of trials settles it.
  bool exact = false;
  for (int trial = 0; trial < 20 && !exact; ++trial) {
    const WaitSample w =
        blocked_wait(m, mode, std::chrono::microseconds(0), cpus[1]);
    EXPECT_EQ(w.contended, 1u);
    exact = w.wait_cpu_ns == w.wait_ns;
  }
  EXPECT_TRUE(exact);
  EXPECT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
}

// A parked waiter is off the CPU for almost all of its wait.
TEST(LockMechanism, WaitCpuExcludesParkedTime) {
  const auto t = make_wait_table(runtime::WaitPolicyKind::SpinThenPark);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  const WaitSample w = blocked_wait(m, mode, std::chrono::milliseconds(20));
  EXPECT_EQ(w.contended, 1u);
  EXPECT_GE(w.wait_ns, 20'000'000u);
  EXPECT_LT(w.wait_cpu_ns, w.wait_ns / 4);
}

TEST(SemanticLockTest, LockSiteResolvesAndLocks) {
  const auto t = make_set_table();
  SemanticLock lk(t);
  const Value v[1] = {3};
  const int mode = lk.lock_site(0, v);
  EXPECT_EQ(lk.holders(mode), 1u);
  lk.unlock(mode);
  EXPECT_EQ(lk.holders(mode), 0u);
}

TEST(SemanticLockTest, UniqueIdsDiffer) {
  const auto t = make_set_table();
  SemanticLock a(t), b(t);
  EXPECT_NE(a.unique_id(), b.unique_id());
}

TEST(AcquireStatsTest, CountsAcquisitions) {
  const auto t = make_set_table();
  LockMechanism m(t);
  auto& stats = local_acquire_stats();
  stats.reset();
  const Value v[1] = {1};
  const int mode = t.resolve(0, v);
  m.lock(mode);
  m.unlock(mode);
  EXPECT_EQ(stats.acquisitions, 1u);
  EXPECT_EQ(stats.contended, 0u);
}

// --- ISSUE 3: optimistic fast path + striped holder counters ---------------

// {contains(*)} self-commutes (striped when striping is on); it conflicts
// with {add(*),remove(*)}, which is self-conflicting (never striped).
ModeTable make_readwrite_table(int stripes) {
  ModeTableConfig c;
  c.abstract_values = 4;
  // Pinned, not inherited: these tests assert representation-specific
  // behavior (stripe selection, retract accounting), so a SEMLOCK_STORAGE
  // override must not swap the storage out from under them.
  c.storage = StorageKind::Striped;
  c.counter_stripes = stripes;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("contains", {star()})}),
       SymbolicSet({op("add", {star()}), op("remove", {star()})})},
      c);
}

TEST(StripedHolders, ModeSelectionStripesOnlySelfCommuting) {
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  const int read = t.resolve_constant(0);
  const int write = t.resolve_constant(1);
  EXPECT_TRUE(m.mode_striped(read));
  EXPECT_FALSE(m.mode_striped(write));
  EXPECT_EQ(m.stripes(), 8u);
}

TEST(StripedHolders, ExactAtQuiescenceSameThread) {
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  const int read = t.resolve_constant(0);
  for (int i = 0; i < 10; ++i) m.lock(read);
  EXPECT_EQ(m.holders(read), 10u);
  for (int i = 0; i < 10; ++i) m.unlock(read);
  EXPECT_EQ(m.holders(read), 0u);
}

TEST(StripedHolders, ExactAtQuiescenceCrossThreadRelease) {
  // A hold acquired on one thread and released on another decrements a
  // different stripe than it incremented; the per-stripe values wrap, but
  // the modular stripe sum must stay exact (util/striped_counter.h).
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  const int read = t.resolve_constant(0);
  constexpr int kHolds = 5;
  std::thread acquirer([&] {
    for (int i = 0; i < kHolds; ++i) m.lock(read);
  });
  acquirer.join();
  EXPECT_EQ(m.holders(read), static_cast<std::uint32_t>(kHolds));
  std::thread releaser([&] {
    for (int i = 0; i < kHolds; ++i) m.unlock(read);
  });
  releaser.join();
  EXPECT_EQ(m.holders(read), 0u);
}

TEST(StripedHolders, ExactAtQuiescenceAfterConcurrentChurn) {
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  const int read = t.resolve_constant(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        m.lock(read);
        m.unlock(read);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.holders(read), 0u);
}

TEST(OptimisticAcquire, UncontendedLockIsAnOptimisticHit) {
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  auto& stats = local_acquire_stats();
  stats.reset();
  const int read = t.resolve_constant(0);
  m.lock(read);
  m.unlock(read);
  EXPECT_EQ(stats.optimistic_hits, 1u);
  EXPECT_EQ(stats.retracts, 0u);
}

TEST(OptimisticAcquire, PrecheckRefusesWithoutAnnouncing) {
  // The Fig. 20 pre-check refuses a visibly-held conflict before the
  // optimistic tier announces — no transient increment, no retract to
  // account.
  const auto t = make_readwrite_table(8);
  LockMechanism m(t);
  auto& stats = local_acquire_stats();
  const int read = t.resolve_constant(0);
  const int write = t.resolve_constant(1);
  m.lock(write);
  stats.reset();
  EXPECT_FALSE(m.try_lock(read));
  EXPECT_EQ(stats.retracts, 0u);
  EXPECT_EQ(m.holders(read), 0u);
  m.unlock(write);
}

TEST(OptimisticAcquire, MutualExclusionUnderChurn) {
  // Conflicting read/write churn through the optimistic tier, both counter
  // representations: a writer must never observe a reader's hold and vice
  // versa. Checked via an invariant variable protected by the modes.
  for (const int stripes : {0, 4}) {
    const auto t = make_readwrite_table(stripes);
    LockMechanism m(t);
    const int read = t.resolve_constant(0);
    const int write = t.resolve_constant(1);
    std::atomic<int> in_write{0};
    std::atomic<int> in_read{0};
    std::atomic<bool> violated{false};
    constexpr int kIters = 3000;
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&] {
        for (int j = 0; j < kIters; ++j) {
          m.lock(read);
          in_read.fetch_add(1);
          if (in_write.load() != 0) violated.store(true);
          in_read.fetch_sub(1);
          m.unlock(read);
        }
      });
    }
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        m.lock(write);
        in_write.fetch_add(1);
        if (in_read.load() != 0) violated.store(true);
        in_write.fetch_sub(1);
        m.unlock(write);
      }
    });
    for (auto& th : threads) th.join();
    EXPECT_FALSE(violated.load()) << "stripes=" << stripes;
    EXPECT_EQ(m.holders(read), 0u);
    EXPECT_EQ(m.holders(write), 0u);
  }
}

// --- ISSUE 7: grant policies -----------------------------------------------

ModeTable make_grant_table(runtime::GrantPolicyKind policy, int bound = 2) {
  ModeTableConfig c;
  c.abstract_values = 2;
  c.grant_policy = policy;
  c.bypass_bound = bound;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("contains", {star()})}),
       SymbolicSet({op("add", {star()}), op("remove", {star()})})},
      c);
}

TEST(GrantPolicy, TryLockRefusesUnderRaisedBarrierAndBarrierReopens) {
  // Under phase-fair, a queued writer raises the partition barrier: a reader
  // try_lock — which commutes with the held read mode and would succeed
  // under Free — must refuse rather than bypass the waiter, and must
  // succeed again once the queue drains.
  const auto t = make_grant_table(runtime::GrantPolicyKind::PhaseFair);
  LockMechanism m(t);
  const int read = t.resolve_constant(0);
  const int write = t.resolve_constant(1);

  m.lock(read);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    m.lock(write);
    m.unlock(write);
    writer_done.store(true);
  });

  // Poll until the writer has enqueued (observable exactly as the barrier
  // refusing a commuting try_lock; a pre-enqueue success is harmless —
  // reader commutes with reader — and is released immediately).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool barred = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!m.try_lock(read)) {
      barred = true;
      break;
    }
    m.unlock(read);
    std::this_thread::yield();
  }
  EXPECT_TRUE(barred) << "queued writer never raised the phase-fair barrier";

  m.unlock(read);
  writer.join();
  EXPECT_TRUE(writer_done.load());
  // Queue drained: the barrier must be down again.
  EXPECT_TRUE(m.try_lock(read));
  m.unlock(read);
  EXPECT_EQ(m.holders(read), 0u);
  EXPECT_EQ(m.holders(write), 0u);
}

TEST(GrantPolicy, ChurnDrainsToQuiescenceUnderEveryPolicy) {
  // The MutualExclusionUnderChurn workload under each fair policy: the
  // ticket/phase/barrier machinery must preserve mutual exclusion and leave
  // zero holders and an open fast path at quiescence.
  for (const runtime::GrantPolicyKind policy :
       {runtime::GrantPolicyKind::PhaseFair,
        runtime::GrantPolicyKind::BoundedBypass}) {
    const auto t = make_grant_table(policy, /*bound=*/2);
    LockMechanism m(t);
    const int read = t.resolve_constant(0);
    const int write = t.resolve_constant(1);
    std::atomic<int> in_write{0};
    std::atomic<bool> violated{false};
    long counter = 0;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&] {
        for (int j = 0; j < kIters; ++j) {
          m.lock(read);
          if (in_write.load() != 0) violated.store(true);
          m.unlock(read);
        }
      });
    }
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        m.lock(write);
        in_write.fetch_add(1);
        ++counter;  // protected by the self-conflicting write mode
        in_write.fetch_sub(1);
        m.unlock(write);
      }
    });
    for (auto& th : threads) th.join();
    const char* name = runtime::grant_policy_name(policy);
    EXPECT_FALSE(violated.load()) << name;
    EXPECT_EQ(counter, kIters) << name;
    EXPECT_EQ(m.holders(read), 0u) << name;
    EXPECT_EQ(m.holders(write), 0u) << name;
    // Fast path open again: an uncontended try_lock goes straight through.
    EXPECT_TRUE(m.try_lock(read)) << name;
    m.unlock(read);
  }
}

TEST(GrantPolicy, FreePolicyAllocatesNoGrantSlots) {
  // Free is the compatibility baseline: accessors report it and the
  // mechanism behaves exactly as before (commuting try_locks always pass).
  const auto t = make_grant_table(runtime::GrantPolicyKind::Free);
  LockMechanism m(t);
  EXPECT_EQ(m.grant_policy(), runtime::GrantPolicyKind::Free);
  const int read = t.resolve_constant(0);
  EXPECT_TRUE(m.try_lock(read));
  EXPECT_TRUE(m.try_lock(read));
  m.unlock(read);
  m.unlock(read);

  const auto tb = make_grant_table(runtime::GrantPolicyKind::BoundedBypass,
                                   /*bound=*/7);
  LockMechanism mb(tb);
  EXPECT_EQ(mb.grant_policy(), runtime::GrantPolicyKind::BoundedBypass);
  EXPECT_EQ(mb.bypass_bound(), 7u);
}

// --- Slab layout ------------------------------------------------------------
// Every table of tests/table_cases.h, built into a mechanism. Under striped
// storage, modes of different partitions keep their counters on different
// cache lines, and so do their partitions' spinlocks; a single partition
// keeps a dense slab. Packed storage lays out its spinlocks alone, densely.

class SlabLayout : public ::testing::TestWithParam<test::TableCase> {};

TEST_P(SlabLayout, PartitionsOwnTheirCacheLinesAndObjectsDoNotOverlap) {
  const test::TableCase& c = GetParam();
  ModeTableConfig config = c.config;
  config.storage = StorageKind::Striped;
  const auto t = ModeTable::compile(*c.spec, c.sites, config);
  LockMechanism m(t);
  const auto counters = t.counter_offsets();
  const auto locks = t.lock_offsets();
  ASSERT_EQ(counters.size(), static_cast<std::size_t>(t.num_modes()));
  ASSERT_EQ(locks.size(), static_cast<std::size_t>(t.num_partitions()));
  const auto base = reinterpret_cast<std::uintptr_t>(m.slab());
  EXPECT_EQ(base % t.slab_align(), 0u);
  // Every counter and spinlock lies inside the slab, aligned, and no two
  // overlap: each mode keeps a distinct address (its DCT identity).
  std::vector<std::pair<std::size_t, std::size_t>> objects;  // [begin, end)
  for (const std::uint32_t off : counters) {
    EXPECT_EQ((base + off) % alignof(std::atomic<std::uint32_t>), 0u);
    objects.emplace_back(off, off + sizeof(std::atomic<std::uint32_t>));
  }
  for (const std::uint32_t off : locks) {
    objects.emplace_back(off, off + sizeof(util::Spinlock));
  }
  std::sort(objects.begin(), objects.end());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_LE(objects[i].second, t.slab_bytes());
    if (i > 0) {
      EXPECT_LE(objects[i - 1].second, objects[i].first);
    }
  }
  // The cache line of every object names one partition only.
  const auto line = [&](std::uint32_t off) {
    return (base + off) / util::kCacheLineSize;
  };
  std::map<std::uintptr_t, int> owner;
  const auto claim = [&](std::uint32_t off, int partition) {
    const auto it = owner.emplace(line(off), partition).first;
    EXPECT_EQ(it->second, partition)
        << c.name << ": partitions " << it->second << " and " << partition
        << " share the line at slab offset " << off;
  };
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    claim(counters[static_cast<std::size_t>(mode)], t.partition_of(mode));
  }
  for (int p = 0; p < t.num_partitions(); ++p) {
    claim(locks[static_cast<std::size_t>(p)], p);
  }
  if (t.num_partitions() == 1) {
    EXPECT_EQ(t.slab_bytes(),
              counters.size() * sizeof(std::atomic<std::uint32_t>) +
                  sizeof(util::Spinlock));
  } else {
    // At most one line of padding per partition over the dense arrays.
    EXPECT_LE(t.slab_bytes(),
              counters.size() * sizeof(std::atomic<std::uint32_t>) +
                  locks.size() * (sizeof(util::Spinlock) +
                                  util::kCacheLineSize));
  }
}

TEST_P(SlabLayout, PackedStorageKeepsOnlyDenseSpinlocks) {
  const test::TableCase& c = GetParam();
  ModeTableConfig config = c.config;
  config.storage = StorageKind::Packed;
  const auto t = ModeTable::compile(*c.spec, c.sites, config);
  if (t.packed_layout() == nullptr) {
    // Too wide to pack: the table falls back to striped counters.
    EXPECT_EQ(t.storage(), StorageKind::Striped);
    EXPECT_EQ(t.counter_offsets().size(),
              static_cast<std::size_t>(t.num_modes()));
    return;
  }
  EXPECT_EQ(t.storage(), StorageKind::Packed);
  EXPECT_TRUE(t.counter_offsets().empty());
  EXPECT_EQ(t.slab_bytes(), static_cast<std::size_t>(t.num_partitions()) *
                                sizeof(util::Spinlock));
}

INSTANTIATE_TEST_SUITE_P(AllTables, SlabLayout,
                         ::testing::ValuesIn(test::table_cases()),
                         test::case_name);

// The packed word is the one field of the object that acquisitions write.
// Wherever the allocator puts the mechanism (16 B granules), the word's cache
// line holds none of the fields every lock() and unlock() reads, so a CAS on
// the word never evicts them from another core. Nor does it hold the next
// heap chunk (an 8 B header, 16 B granules), usually the mechanism's own
// slab, whose spinlock contended waiters write. The object is unaligned.
// The instance cell, where the server keeps an account's balance, follows
// the word at byte 72 and shares its line at every placement, so a section
// that holds the lock finds its data on the line its acquisition wrote.
TEST(SlabLayout, PackedWordSharesNoLineWithFastPathFields) {
  const auto t = ModeTable::compile(
      commute::account_spec(),
      {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
       SymbolicSet({op("balance")})},
      ModeTableConfig{.storage = std::nullopt});
  ASSERT_EQ(t.storage(), StorageKind::Packed);
  EXPECT_EQ(sizeof(LockMechanism), 112u);
  EXPECT_EQ(alignof(LockMechanism), alignof(void*));
  constexpr std::uintptr_t kLine = util::kCacheLineSize;
  constexpr std::uintptr_t kChunk =
      (sizeof(LockMechanism) + 8 + 15) / 16 * 16;
  alignas(64) std::byte buffer[64 + sizeof(LockMechanism)];
  for (std::size_t offset = 0; offset < 64; offset += 16) {
    auto* m = ::new (buffer + offset) LockMechanism(t);
    const std::uintptr_t word = LockMechanismLayoutPeer::word(*m);
    EXPECT_EQ(word / kLine, (word + sizeof(std::uint64_t) - 1) / kLine);
    EXPECT_GE(word - reinterpret_cast<std::uintptr_t>(m), 64u);
    const std::uintptr_t cell = LockMechanismLayoutPeer::cell(*m);
    EXPECT_EQ(cell - reinterpret_cast<std::uintptr_t>(m), 72u);
    EXPECT_EQ(cell, reinterpret_cast<std::uintptr_t>(&m->cell()));
    EXPECT_EQ((cell + sizeof(std::int64_t) - 1) / kLine, word / kLine)
        << "offset " << offset;
    const std::uintptr_t next_chunk =
        reinterpret_cast<std::uintptr_t>(m) + kChunk;
    EXPECT_GT(next_chunk / kLine, (word + sizeof(std::uint64_t) - 1) / kLine)
        << "offset " << offset;
    for (const auto& [begin, end] :
         LockMechanismLayoutPeer::fast_path_fields(*m)) {
      EXPECT_NE(begin / kLine, word / kLine) << "offset " << offset;
      EXPECT_NE((end - 1) / kLine, word / kLine) << "offset " << offset;
    }
    m->~LockMechanism();
  }
}

TEST(SlabLayout, SinglePartitionFootprintIsUnchanged) {
  // BENCH_footprint's 8-mode striped table: one partition, so a dense slab.
  // The whole mechanism takes the 217 B that BENCH_footprint.json records:
  // the 112 B object, 33 B of slab and a one-slot ParkingLot.
  ModeTableConfig c;
  c.abstract_values = 7;
  c.storage = StorageKind::Striped;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.grant_policy = runtime::GrantPolicyKind::Free;
  c.trace_events = false;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  ASSERT_EQ(t.num_modes(), 8);
  ASSERT_EQ(t.num_partitions(), 1);
  LockMechanism m(t);
  EXPECT_EQ(m.footprint_bytes(), 217u);
}

// The whole default footprint of the two locks perfbench exercises most,
// under an explicit spin-yield policy (the default, pinned so that a
// SEMLOCK_WAIT_POLICY override cannot move it): the object plus the slab,
// and no ParkingLot, stripe bank or grant slots.
ModeTableConfig spin_yield_free(ModeTableConfig c) {
  c.wait_policy = runtime::WaitPolicyKind::SpinYield;
  c.grant_policy = runtime::GrantPolicyKind::Free;
  c.storage = std::nullopt;
  c.trace_events = false;
  return c;
}

TEST(Footprint, DefaultCiaLock) {
  // {containsKey(key), put(key,*)} at n = 64: 64 self-conflicting modes in
  // 64 partitions, so no stripe row and one 64 B slab line per partition.
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet(
          {op("containsKey", {var("key")}), op("put", {var("key"), star()})})},
      spin_yield_free(test::cfg(64, 256)));
  ASSERT_EQ(t.storage(), StorageKind::Striped);
  ASSERT_EQ(t.num_partitions(), 64);
  ASSERT_EQ(t.stripe_rows(), 0u);
  LockMechanism m(t);
  EXPECT_FALSE(m.has_parking_lot());
  EXPECT_EQ(m.footprint_bytes(), 4208u);
}

TEST(Footprint, DefaultServerAccountLock) {
  // Move {deposit(*),withdraw(*)} and Audit {balance()}: packed, so the
  // counters are the object's word and the slab is one spinlock byte.
  const auto t = ModeTable::compile(
      commute::account_spec(),
      {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
       SymbolicSet({op("balance")})},
      spin_yield_free(ModeTableConfig{}));
  ASSERT_EQ(t.storage(), StorageKind::Packed);
  LockMechanism m(t);
  EXPECT_FALSE(m.has_parking_lot());
  EXPECT_EQ(m.footprint_bytes(), 113u);
}

}  // namespace
}  // namespace semlock
