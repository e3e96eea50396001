// Configuration-matrix stress: the lock mechanism must be correct under
// every combination of abstract-value count, partitioning, merging and
// fast-path settings. Each configuration runs a mutual-exclusion invariant
// and a commuting-parallelism invariant.
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

// (abstract_values, partition, merge, fast_path)
using Config = std::tuple<int, bool, bool, bool>;

class ConfigMatrix : public ::testing::TestWithParam<Config> {
 protected:
  ModeTableConfig make_config() const {
    const auto [n, partition, merge, fast_path] = GetParam();
    ModeTableConfig cfg;
    cfg.abstract_values = n;
    cfg.partition = partition;
    cfg.merge_indistinguishable = merge;
    cfg.fast_path_precheck = fast_path;
    return cfg;
  }
};

TEST_P(ConfigMatrix, PaddedCountersBehaveIdentically) {
  ModeTableConfig cfg = make_config();
  cfg.pad_counters = true;
  const auto table = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      cfg);
  LockMechanism mech(table);
  const Value vals[1] = {3};
  const int mode = table.resolve(0, vals);
  EXPECT_TRUE(mech.try_lock(mode));
  EXPECT_EQ(mech.holders(mode), 1u);
  EXPECT_FALSE(mech.try_lock(mode));  // self-conflicting
  mech.unlock(mode);
  EXPECT_EQ(mech.holders(mode), 0u);
}

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
  // try_lock must honor the same fast-path knob as lock() (the matrix runs
  // this with fast_path_precheck both on and off) and account refusals the
  // same way a contended lock() does: contended bumps and wait time.
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
  // F_c is semantic: configuration knobs (partitioning, merging, fast path)
  // must never change WHICH operations may overlap, only the mechanism's
  // internals. Compare against the reference config.
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
                       ::testing::Bool(),   // merge
                       ::testing::Bool()),  // fast path
    [](const auto& pinfo) {
      // NOTE: no structured bindings here — the commas inside the brackets
      // would split the INSTANTIATE macro's arguments.
      std::string name = "n" + std::to_string(std::get<0>(pinfo.param));
      name += std::get<1>(pinfo.param) ? "_part" : "_nopart";
      name += std::get<2>(pinfo.param) ? "_merge" : "_nomerge";
      name += std::get<3>(pinfo.param) ? "_fast" : "_slow";
      return name;
    });

// --- fast-path matrix: optimistic × storage policy × wait policy ------------
// The acquire tiers and counter representations must be correct under every
// wait policy, including the parked ones whose wakeup handshake the
// optimistic retract path replays and the futex-word policy that sleeps on
// the packed word itself. Kept separate from the main matrix (which varies
// the compilation knobs) so the cross product stays small.

// (optimistic_acquire, storage, wait_policy)
using FastPathConfig = std::tuple<bool, StorageKind, runtime::WaitPolicyKind>;

class FastPathMatrix : public ::testing::TestWithParam<FastPathConfig> {
 protected:
  ModeTableConfig make_config() const {
    const auto [optimistic, storage, policy] = GetParam();
    ModeTableConfig cfg;
    cfg.abstract_values = 8;
    cfg.optimistic_acquire = optimistic;
    cfg.storage = storage;
    cfg.stripe_self_commuting = storage == StorageKind::Striped;
    cfg.counter_stripes = 4;
    cfg.wait_policy = policy;
    cfg.park_spin_limit = 4;  // reach the parked tier quickly
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
        ::testing::Bool(),  // optimistic_acquire
        ::testing::Values(StorageKind::Flat, StorageKind::Striped,
                          StorageKind::Packed),
        ::testing::Values(runtime::WaitPolicyKind::SpinYield,
                          runtime::WaitPolicyKind::SpinThenPark,
                          runtime::WaitPolicyKind::AlwaysPark,
                          // Degrades to SpinThenPark on flat/striped;
                          // exercises the word sleep on packed.
                          runtime::WaitPolicyKind::FutexWord)),
    [](const auto& pinfo) {
      std::string name = std::get<0>(pinfo.param) ? "opt" : "noopt";
      name += "_";
      name += storage_kind_name(std::get<1>(pinfo.param));
      switch (std::get<2>(pinfo.param)) {
        case runtime::WaitPolicyKind::SpinYield:
          name += "_spinyield";
          break;
        case runtime::WaitPolicyKind::SpinThenPark:
          name += "_spinthenpark";
          break;
        case runtime::WaitPolicyKind::AlwaysPark:
          name += "_alwayspark";
          break;
        case runtime::WaitPolicyKind::FutexWord:
          name += "_futexword";
          break;
      }
      return name;
    });

}  // namespace
}  // namespace semlock
