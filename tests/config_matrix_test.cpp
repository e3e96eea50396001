// Configuration-matrix stress: the lock mechanism must be correct under
// every combination of abstract-value count, partitioning and merging, and
// under every storage and wait policy. Each configuration runs a
// mutual-exclusion invariant and a commuting-parallelism invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/lock_mechanism.h"
#include "util/rng.h"

namespace semlock {
namespace {

using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

// (abstract_values, partition, merge)
using Config = std::tuple<int, bool, bool>;

class ConfigMatrix : public ::testing::TestWithParam<Config> {
 protected:
  ModeTableConfig make_config() const {
    const auto [n, partition, merge] = GetParam();
    ModeTableConfig cfg;
    cfg.abstract_values = n;
    cfg.partition = partition;
    cfg.merge_indistinguishable = merge;
    return cfg;
  }
};

TEST_P(ConfigMatrix, KeyedExclusionHolds) {
  // {get(k),put(k,*)} modes are per-key critical sections: per-key counters
  // incremented non-atomically under the lock must never tear.
  const auto table = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      make_config());
  LockMechanism mech(table);

  constexpr int kKeys = 8;
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  long counters[kKeys] = {0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(util::derive_seed(1, t));
      for (int i = 0; i < kOps; ++i) {
        const Value k = static_cast<Value>(rng.next_below(kKeys));
        const Value vals[1] = {k};
        const int mode = table.resolve(0, vals);
        mech.lock(mode);
        ++counters[k];  // protected iff same-alpha modes exclude
        mech.unlock(mode);
      }
    });
  }
  for (auto& th : threads) th.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, kThreads * kOps);
  // With n >= kKeys and the default modulus, per-key counts are protected
  // individually too; with small n they may share alphas — still exclusive.
}

TEST_P(ConfigMatrix, CommutingModesOverlap) {
  const auto table = ModeTable::compile(
      commute::set_spec(), {SymbolicSet({op("add", {star()})})},
      make_config());
  LockMechanism mech(table);
  const int mode = table.resolve_constant(0);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        mech.lock(mode);
        const int now = inside.fetch_add(1) + 1;
        int prev = max_inside.load();
        while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
        mech.unlock(mode);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Liveness/correctness: all acquisitions completed; add(*) self-commutes
  // so the mechanism never deadlocks on itself regardless of config.
  EXPECT_EQ(mech.holders(mode), 0u);
}

TEST_P(ConfigMatrix, TryLockMatchesLockSemantics) {
  // try_lock must account refusals the same way a contended lock() does:
  // contended bumps and wait time.
  const auto table = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      make_config());
  LockMechanism mech(table);
  const Value vals[1] = {3};
  const int mode = table.resolve(0, vals);
  auto& stats = local_acquire_stats();

  ASSERT_TRUE(mech.try_lock(mode));
  stats.reset();
  constexpr std::uint64_t kAttempts = 1000;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    EXPECT_FALSE(mech.try_lock(mode));  // self-conflicting: all refused
  }
  EXPECT_EQ(stats.acquisitions, kAttempts);
  EXPECT_EQ(stats.contended, kAttempts);
  EXPECT_GT(stats.wait_ns, 0u);  // refused attempts charge their duration
  // A refused try_lock never leaves the CPU: its wall time is its CPU time.
  EXPECT_EQ(stats.wait_cpu_ns, stats.wait_ns);

  mech.unlock(mode);
  stats.reset();
  EXPECT_TRUE(mech.try_lock(mode));
  EXPECT_EQ(stats.acquisitions, 1u);
  EXPECT_EQ(stats.contended, 0u);  // successes never count as contended
  EXPECT_EQ(stats.wait_ns, 0u);
  mech.unlock(mode);
}

TEST_P(ConfigMatrix, ConflictInvariantAcrossConfigs) {
  // F_c is semantic: configuration knobs (partitioning, merging) must never
  // change WHICH operations may overlap, only the mechanism's internals.
  // Compare against the reference config.
  const auto table = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
       SymbolicSet({op("size"), op("clear")})},
      make_config());
  ModeTableConfig ref_cfg;
  ref_cfg.abstract_values = std::get<0>(GetParam());
  const auto ref = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
       SymbolicSet({op("size"), op("clear")})},
      ref_cfg);
  for (Value k1 = 0; k1 < 20; ++k1) {
    for (Value k2 = 0; k2 < 20; ++k2) {
      const Value v1[1] = {k1};
      const Value v2[1] = {k2};
      EXPECT_EQ(
          table.commutes(table.resolve(0, v1), table.resolve(0, v2)),
          ref.commutes(ref.resolve(0, v1), ref.resolve(0, v2)));
      EXPECT_EQ(
          table.commutes(table.resolve(0, v1), table.resolve_constant(1)),
          ref.commutes(ref.resolve(0, v1), ref.resolve_constant(1)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    ::testing::Combine(::testing::Values(1, 2, 8, 64),
                       ::testing::Bool(),   // partition
                       ::testing::Bool()),  // merge
    [](const auto& pinfo) {
      // NOTE: no structured bindings here — the commas inside the brackets
      // would split the INSTANTIATE macro's arguments.
      std::string name = "n" + std::to_string(std::get<0>(pinfo.param));
      name += std::get<1>(pinfo.param) ? "_part" : "_nopart";
      name += std::get<2>(pinfo.param) ? "_merge" : "_nomerge";
      return name;
    });

// --- fast-path matrix: storage policy × wait policy --------------------------
// The acquire tiers and counter representations must be correct under every
// wait policy, including the parked ones whose wakeup handshake the
// optimistic retract path replays and the futex-word policy that sleeps on
// the packed word itself. Kept separate from the main matrix (which varies
// the compilation knobs) so the cross product stays small.

// A counter representation: a storage and its stripe count.
struct StorageCell {
  const char* name;
  StorageKind storage;
  int counter_stripes;
};
// A way to wait: a policy and its spin budget.
struct WaitCell {
  const char* name;
  runtime::WaitPolicyKind policy;
  int park_spin_limit;
};
using FastPathConfig = std::tuple<StorageCell, WaitCell>;

class FastPathMatrix : public ::testing::TestWithParam<FastPathConfig> {
 protected:
  ModeTableConfig make_config() const {
    const auto [storage, wait] = GetParam();
    ModeTableConfig cfg;
    cfg.abstract_values = 8;
    cfg.storage = storage.storage;
    cfg.counter_stripes = storage.counter_stripes;
    cfg.wait_policy = wait.policy;
    cfg.park_spin_limit = wait.park_spin_limit;
    return cfg;
  }
};

TEST_P(FastPathMatrix, ReadWriteExclusionAndQuiescence) {
  // Self-commuting readers against a self-conflicting writer: writers must
  // exclude readers and each other; holders() must be exact once quiescent.
  const auto table = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("contains", {star()})}),
       SymbolicSet({op("add", {star()}), op("remove", {star()})})},
      make_config());
  LockMechanism mech(table);
  const int read = table.resolve_constant(0);
  const int write = table.resolve_constant(1);

  long shared_value = 0;
  std::atomic<long> reads_sum{0};
  std::atomic<int> in_write{0};
  std::atomic<bool> violated{false};
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOps = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        mech.lock(write);
        if (in_write.fetch_add(1) != 0) violated.store(true);
        ++shared_value;  // torn iff writers overlap anything
        in_write.fetch_sub(1);
        mech.unlock(write);
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        mech.lock(read);
        if (in_write.load() != 0) violated.store(true);
        reads_sum.fetch_add(shared_value);
        mech.unlock(read);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(shared_value, kWriters * kOps);
  EXPECT_EQ(mech.holders(read), 0u);
  EXPECT_EQ(mech.holders(write), 0u);
}

TEST_P(FastPathMatrix, KeyedExclusionHolds) {
  const auto table = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      make_config());
  LockMechanism mech(table);
  constexpr int kKeys = 4;
  constexpr int kThreads = 3;
  constexpr int kOps = 1500;
  long counters[kKeys] = {0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(util::derive_seed(7, t));
      for (int i = 0; i < kOps; ++i) {
        const Value k = static_cast<Value>(rng.next_below(kKeys));
        const Value vals[1] = {k};
        const int mode = table.resolve(0, vals);
        mech.lock(mode);
        ++counters[k];
        mech.unlock(mode);
      }
    });
  }
  for (auto& th : threads) th.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, kThreads * kOps);
}

INSTANTIATE_TEST_SUITE_P(
    FastPathConfigs, FastPathMatrix,
    ::testing::Combine(
        ::testing::Values(StorageCell{"unstriped", StorageKind::Striped, 0},
                          StorageCell{"striped", StorageKind::Striped, 4},
                          StorageCell{"packed", StorageKind::Packed, 4}),
        // A spin budget of 4 reaches the parked tier quickly; 0 parks on
        // the first failed attempt.
        ::testing::Values(
            WaitCell{"spinyield", runtime::WaitPolicyKind::SpinYield, 4},
            WaitCell{"spinthenpark", runtime::WaitPolicyKind::SpinThenPark, 4},
            WaitCell{"parknow", runtime::WaitPolicyKind::SpinThenPark, 0},
            // Degrades to SpinThenPark on striped storage and under a
            // non-Free grant policy; exercises the word sleep on packed
            // under Free.
            WaitCell{"futexword", runtime::WaitPolicyKind::FutexWord, 4})),
    [](const auto& pinfo) {
      return std::string(std::get<0>(pinfo.param).name) + "_" +
             std::get<1>(pinfo.param).name;
    });

}  // namespace
}  // namespace semlock
