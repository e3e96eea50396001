#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/barrier.h"
#include "util/rng.h"
#include "util/spinlock.h"
#include "util/stats.h"
#include "util/striped_counter.h"
#include "util/thread_team.h"

namespace semlock::util {
namespace {

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ChancePercentExtremes) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance_percent(0));
    EXPECT_TRUE(rng.chance_percent(100));
  }
}

TEST(Rng, DeriveSeedDecorrelates) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) seeds.insert(derive_seed(1, s));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4 * 20000);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Barrier, ReleasesAllParties) {
  constexpr int kParties = 4;
  SpinBarrier barrier(kParties);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      after.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(before.load(), kParties);
  EXPECT_EQ(after.load(), kParties);
}

TEST(Barrier, Reusable) {
  constexpr int kParties = 3;
  SpinBarrier barrier(kParties);
  std::atomic<int> phase_sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        barrier.arrive_and_wait();
        phase_sum.fetch_add(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(phase_sum.load(), kParties * 10);
}

TEST(ThreadTeam, RunsEveryThreadOnce) {
  std::atomic<int> runs{0};
  std::vector<std::atomic<int>> per_thread(8);
  const auto result = run_team(8, [&](std::size_t tid) {
    runs.fetch_add(1);
    per_thread[tid].fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 8);
  for (auto& c : per_thread) EXPECT_EQ(c.load(), 1);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
}

TEST(Stats, MeanAndStddevEmptyInputIsZeroNotNan) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(Log2Hist, BucketsByBitWidth) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_bucket(), 0u);
  h.add(0);    // bit_width(0) == 0
  h.add(1);    // bucket 1
  h.add(2);    // bucket 2
  h.add(3);    // bucket 2
  h.add(4);    // bucket 3
  h.add(255);  // bucket 8
  h.add(256);  // bucket 9
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.total(), 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(8), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.max_bucket(), 10u);  // one past the last non-empty
  // The extremes land in the first and last bucket — no overflow.
  h.add(~std::uint64_t{0});
  EXPECT_EQ(h.bucket(Log2Histogram::kBuckets - 1), 1u);
}

TEST(Log2Hist, MergeSumsBuckets) {
  Log2Histogram a, b;
  a.add(10);
  a.add(100);
  b.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.total(), 10u + 100 + 10 + 1000);
  EXPECT_EQ(a.bucket(4), 2u);  // both 10s
  // Quantiles answer over the union: p50 falls in the 10s' bucket
  // (values < 16), p99+ in the 1000's bucket (values < 1024).
  EXPECT_EQ(a.quantile_upper_bound(0.5), 16u);
  EXPECT_EQ(a.quantile_upper_bound(0.99), 1024u);
}

TEST(Log2Hist, QuantileUpperBound) {
  Log2Histogram h;
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0u);  // empty
  for (int i = 0; i < 99; ++i) h.add(3);  // bucket 2: values < 4
  h.add(1000);                            // bucket 10: values < 1024
  EXPECT_EQ(h.quantile_upper_bound(0.5), 4u);
  EXPECT_EQ(h.quantile_upper_bound(0.99), 4u);
  EXPECT_EQ(h.quantile_upper_bound(1.0), 1024u);
}

// p999's small-sample contract: with fewer than 1000 samples, not even one
// may sit above the reported bound, so it must be the max occupied bucket.
// An interior bucket here silently hides exactly the outliers a tail
// quantile exists to expose. Pinned at the documented boundaries.
TEST(Log2Hist, P999SmallSamplesReturnMaxOccupiedBucket) {
  {  // n = 0
    Log2Histogram h;
    EXPECT_EQ(h.p999(), 0u);
  }
  {  // n = 1: the single sample IS the tail
    Log2Histogram h;
    h.add(1000);  // bucket 10
    EXPECT_EQ(h.p999(), 1024u);
  }
  {  // n = 10: 9 small + 1 huge -> the huge one
    Log2Histogram h;
    for (int i = 0; i < 9; ++i) h.add(3);
    h.add(1'000'000);  // bucket 20
    EXPECT_EQ(h.p999(), std::uint64_t{1} << 20);
  }
  {  // n = 999: still zero samples allowed above the bound
    Log2Histogram h;
    for (int i = 0; i < 998; ++i) h.add(3);
    h.add(1'000'000);
    EXPECT_EQ(h.p999(), std::uint64_t{1} << 20);
  }
  {  // n = 1000: exactly one sample may now sit above -> interior bucket
    Log2Histogram h;
    for (int i = 0; i < 999; ++i) h.add(3);
    h.add(1'000'000);
    EXPECT_EQ(h.p999(), 4u);
    // ...but two outliers put the bound back in the tail.
    Log2Histogram h2;
    for (int i = 0; i < 998; ++i) h2.add(3);
    h2.add(1'000'000);
    h2.add(1'000'000);
    EXPECT_EQ(h2.p999(), std::uint64_t{1} << 20);
  }
}

// Same integer-rank contract for the other accessors: p99 allows one sample
// above only from n = 100, p50 is the usual median rank.
TEST(Log2Hist, QuantileIntegerRankBoundaries) {
  {
    Log2Histogram h;  // n = 99: p99 = max occupied
    for (int i = 0; i < 98; ++i) h.add(3);
    h.add(1000);
    EXPECT_EQ(h.p99(), 1024u);
  }
  {
    Log2Histogram h;  // n = 100: one allowed above
    for (int i = 0; i < 99; ++i) h.add(3);
    h.add(1000);
    EXPECT_EQ(h.p99(), 4u);
  }
  {
    Log2Histogram h;  // p50 of {3, 1000}: rank 1 of 2
    h.add(3);
    h.add(1000);
    EXPECT_EQ(h.p50(), 4u);
  }
}

// delta() is the window-rotation primitive (obs/window.h): two snapshots of
// one growing histogram reduce to the histogram of just the samples between
// them, with exact quantiles at the usual log2 resolution.
TEST(Log2Hist, DeltaIsTheBetweenSnapshotsHistogram) {
  Log2Histogram earlier;
  earlier.add(3);
  earlier.add(1000);
  Log2Histogram later = earlier;
  later.add(7);        // bucket 3
  later.add(500000);   // bucket 19
  later.add(500000);

  const Log2Histogram d = later.delta(earlier);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.total(), 7u + 500000 + 500000);
  EXPECT_EQ(d.bucket(3), 1u);
  EXPECT_EQ(d.bucket(19), 2u);
  EXPECT_EQ(d.bucket(2), 0u);   // earlier's 3 subtracted away
  EXPECT_EQ(d.bucket(10), 0u);  // earlier's 1000 subtracted away
  // The window's quantiles come from the delta, not the lifetime.
  EXPECT_EQ(d.p50(), std::uint64_t{1} << 19);
  EXPECT_EQ(d.p999(), std::uint64_t{1} << 19);
}

TEST(Log2Hist, DeltaEdgeCases) {
  {  // n = 0: empty minus empty is empty, quantiles 0.
    Log2Histogram a, b;
    const Log2Histogram d = a.delta(b);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.total(), 0u);
    EXPECT_EQ(d.p50(), 0u);
    EXPECT_EQ(d.p999(), 0u);
  }
  {  // n = 1 in the window: the lone sample is every quantile.
    Log2Histogram earlier;
    earlier.add(10);
    Log2Histogram later = earlier;
    later.add(1000);  // bucket 10
    const Log2Histogram d = later.delta(earlier);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.p50(), 1024u);
    EXPECT_EQ(d.p99(), 1024u);
    EXPECT_EQ(d.p999(), 1024u);
  }
  {  // Unrelated lineage (earlier > later): saturates at zero, never wraps.
    Log2Histogram big, small;
    big.add(5);
    big.add(5);
    big.add(70);
    small.add(5);
    const Log2Histogram d = small.delta(big);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.total(), 0u);
  }
  {  // Self-delta is empty.
    Log2Histogram h;
    h.add(42);
    const Log2Histogram d = h.delta(h);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.total(), 0u);
  }
}

TEST(Log2Hist, JsonAndLoadRoundTrip) {
  Log2Histogram h;
  h.add(7);
  h.add(900);
  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;

  std::uint64_t raw[Log2Histogram::kBuckets] = {};
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    raw[i] = h.bucket(i);
  }
  Log2Histogram loaded;
  loaded.load(raw, h.total());
  EXPECT_EQ(loaded.count(), h.count());
  EXPECT_EQ(loaded.total(), h.total());
  EXPECT_EQ(loaded.max_bucket(), h.max_bucket());
}

TEST(Stats, SeriesTableFormats) {
  SeriesTable table("threads", "ops/ms");
  table.set_series({"Ours", "Global"});
  table.add_row(1, {100.5, 50.25});
  table.add_row(2, {200.0, 49.0});
  const std::string txt = table.to_table();
  EXPECT_NE(txt.find("Ours"), std::string::npos);
  EXPECT_NE(txt.find("ops/ms"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("threads,Ours,Global"), std::string::npos);
  EXPECT_NE(csv.find("1,100.5"), std::string::npos);
}

TEST(Stats, SeriesTableRejectsWidthMismatch) {
  SeriesTable table("threads", "x");
  table.set_series({"a", "b"});
  EXPECT_THROW(table.add_row(1, {1.0}), std::invalid_argument);
}

TEST(StripedCounter, RoundUpPow2) {
  EXPECT_EQ(StripedCounterBank::round_up_pow2(0), 1u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(1), 1u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(2), 2u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(3), 4u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(64), 64u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(65), 128u);
  EXPECT_EQ(StripedCounterBank::round_up_pow2(100'000),
            StripedCounterBank::kMaxStripes);
}

TEST(StripedCounter, SumCountsEveryStripe) {
  StripedCounterBank bank(2, 4);
  EXPECT_EQ(bank.stripes(), 4u);
  for (std::uint32_t s = 0; s < bank.stripes(); ++s) {
    bank.slot(0, s).fetch_add(s + 1, std::memory_order_relaxed);
  }
  EXPECT_EQ(bank.sum(0, std::memory_order_relaxed), 1u + 2u + 3u + 4u);
  // Rows are independent.
  EXPECT_EQ(bank.sum(1, std::memory_order_relaxed), 0u);
}

TEST(StripedCounter, ModularSumExactAfterCrossStripeMigration) {
  // Increment on one stripe, decrement on another: the decremented stripe
  // wraps negative, but the uint32 modular sum stays exact — the property
  // the lock mechanism's holders() and last-release test rely on when a
  // hold is acquired and released on different threads.
  StripedCounterBank bank(1, 4);
  bank.slot(0, 0).fetch_add(3, std::memory_order_relaxed);
  bank.slot(0, 2).fetch_sub(2, std::memory_order_relaxed);
  EXPECT_EQ(bank.sum(0, std::memory_order_relaxed), 1u);
  bank.slot(0, 3).fetch_sub(1, std::memory_order_relaxed);
  EXPECT_EQ(bank.sum(0, std::memory_order_relaxed), 0u);
}

TEST(StripedCounter, LocalSlotIsStablePerThread) {
  StripedCounterBank bank(1, 8);
  auto* first = &bank.local_slot(0);
  auto* second = &bank.local_slot(0);
  EXPECT_EQ(first, second);
}

TEST(StripedCounter, ThreadsStartedInTurnLandOnDistinctStripes) {
  // A caller pool started thread by thread (each thread taking its token
  // before the next one starts) must spread over the stripes: any `stripes`
  // consecutive tokens cover every stripe once, and two consecutive ones
  // never share a 128 B pair of lines (slots 2k and 2k+1 of a 128 B-aligned
  // slab).
  StripedCounterBank bank(1, 4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&bank.slot(0, 0)) % 128, 0u);
  std::vector<std::uint32_t> stripes;
  for (std::uint32_t t = 0; t < 2 * bank.stripes(); ++t) {
    std::thread([&] {
      const auto* mine = &bank.local_slot(0);
      for (std::uint32_t s = 0; s < bank.stripes(); ++s) {
        if (mine == &bank.slot(0, s)) stripes.push_back(s);
      }
    }).join();
  }
  ASSERT_EQ(stripes.size(), 2 * bank.stripes());
  for (std::size_t i = 0; i + 1 < stripes.size(); ++i) {
    EXPECT_NE(stripes[i] / 2, stripes[i + 1] / 2) << "threads " << i;
    if (i + bank.stripes() <= stripes.size()) {
      const std::set<std::uint32_t> window(
          stripes.begin() + static_cast<std::ptrdiff_t>(i),
          stripes.begin() + static_cast<std::ptrdiff_t>(i + bank.stripes()));
      EXPECT_EQ(window.size(), bank.stripes()) << "from thread " << i;
    }
  }
}

TEST(StripedCounter, ConcurrentLocalIncrementsAllLand) {
  StripedCounterBank bank(1, 8);
  constexpr std::uint32_t kPerThread = 10'000;
  run_team(4, [&](std::size_t) {
    for (std::uint32_t i = 0; i < kPerThread; ++i) {
      bank.local_slot(0).fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(bank.sum(0, std::memory_order_relaxed), 4 * kPerThread);
}

}  // namespace
}  // namespace semlock::util
