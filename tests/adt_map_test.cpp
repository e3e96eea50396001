#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "adt/striped_hash_map.h"
#include "commute/value.h"
#include "util/rng.h"

namespace semlock::adt {
namespace {

using commute::Value;

TEST(StripedHashMapTest, PutGetRemove) {
  StripedHashMap<Value, Value> map;
  EXPECT_FALSE(map.get(1));
  EXPECT_TRUE(map.put(1, 10));
  EXPECT_FALSE(map.put(1, 11));  // overwrite
  ASSERT_TRUE(map.get(1));
  EXPECT_EQ(*map.get(1), 11);
  EXPECT_TRUE(map.contains_key(1));
  EXPECT_TRUE(map.remove(1));
  EXPECT_FALSE(map.remove(1));
  EXPECT_FALSE(map.contains_key(1));
}

TEST(StripedHashMapTest, PutIfAbsent) {
  StripedHashMap<Value, Value> map;
  EXPECT_TRUE(map.put_if_absent(5, 50));
  EXPECT_FALSE(map.put_if_absent(5, 51));
  EXPECT_EQ(*map.get(5), 50);
}

TEST(StripedHashMapTest, SizeAndClear) {
  StripedHashMap<Value, Value> map;
  for (Value k = 0; k < 100; ++k) map.put(k, k * 2);
  EXPECT_EQ(map.size(), 100u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.get(42));
}

TEST(StripedHashMapTest, GrowsBeyondInitialBuckets) {
  StripedHashMap<Value, Value> map(/*num_stripes=*/2,
                                   /*initial_slots_per_stripe=*/2);
  for (Value k = 0; k < 10000; ++k) map.put(k, k);
  EXPECT_EQ(map.size(), 10000u);
  for (Value k = 0; k < 10000; ++k) {
    ASSERT_TRUE(map.get(k)) << k;
    EXPECT_EQ(*map.get(k), k);
  }
}

TEST(StripedHashMapTest, ForEachVisitsAll) {
  StripedHashMap<Value, Value> map;
  for (Value k = 0; k < 50; ++k) map.put(k, k + 100);
  std::set<Value> keys;
  Value sum = 0;
  map.for_each([&](const Value& k, const Value& v) {
    keys.insert(k);
    sum += v;
  });
  EXPECT_EQ(keys.size(), 50u);
  EXPECT_EQ(sum, 50 * 100 + 49 * 50 / 2);
}

TEST(StripedHashMapTest, NegativeAndLargeKeys) {
  StripedHashMap<Value, Value> map;
  map.put(-7, 1);
  map.put((1LL << 62) + 3, 2);
  EXPECT_EQ(*map.get(-7), 1);
  EXPECT_EQ(*map.get((1LL << 62) + 3), 2);
}

TEST(StripedHashMapTest, ConcurrentDisjointKeyStress) {
  StripedHashMap<Value, Value> map(/*num_stripes=*/8);
  constexpr int kThreads = 4;
  constexpr Value kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Value base = static_cast<Value>(t) * kPerThread;
      for (Value k = 0; k < kPerThread; ++k) map.put(base + k, base + k);
      for (Value k = 0; k < kPerThread; ++k) {
        ASSERT_TRUE(map.get(base + k));
      }
      for (Value k = 0; k < kPerThread; k += 2) map.remove(base + k);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), kThreads * kPerThread / 2);
}

TEST(StripedHashMapTest, ConcurrentSameKeyPutIfAbsentIsAtomic) {
  StripedHashMap<Value, Value> map;
  constexpr int kThreads = 4;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (Value k = 0; k < 2000; ++k) {
        if (map.put_if_absent(k, t)) winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 2000);  // exactly one winner per key
  EXPECT_EQ(map.size(), 2000u);
}

TEST(StripedHashMapTest, RandomizedAgainstStdMap) {
  StripedHashMap<Value, Value> map(4, 2);
  std::map<Value, Value> reference;
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 20000; ++i) {
    const Value k = static_cast<Value>(rng.next_below(500));
    switch (rng.next_below(4)) {
      case 0: {
        const Value v = static_cast<Value>(rng.next());
        map.put(k, v);
        reference[k] = v;
        break;
      }
      case 1:
        EXPECT_EQ(map.remove(k), reference.erase(k) > 0);
        break;
      case 2: {
        auto got = map.get(k);
        auto it = reference.find(k);
        EXPECT_EQ(got.has_value(), it != reference.end());
        if (got && it != reference.end()) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
      case 3:
        EXPECT_EQ(map.contains_key(k), reference.count(k) != 0);
        break;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

// A key's home slot in a table of `cap` slots: bits 16 and up of its mixed
// hash (the layout striped_hash_map.h documents).
std::size_t home_slot(Value k, std::size_t cap) {
  return (mix_hash(std::hash<Value>{}(k)) >> 16) & (cap - 1);
}

Value first_key_with_home(std::size_t home, std::size_t cap, Value from) {
  Value k = from;
  while (home_slot(k, cap) != home) ++k;
  return k;
}

TEST(StripedHashMapTest, ProbeChainsWrapPastTheEnd) {
  // One stripe of 8 slots holds 4 keys without growing. Homes 6, 7, 7, 0
  // fill slots 6, 7, 0 and 1: the chain from slot 6 wraps past the end, and
  // the home-0 key sits one past its home. Every removal order must shift
  // the survivors back so that each stays reachable.
  constexpr std::size_t kCap = 8;
  const Value a = first_key_with_home(6, kCap, 0);
  const Value b = first_key_with_home(7, kCap, 0);
  const Value c = first_key_with_home(7, kCap, b + 1);
  const Value d = first_key_with_home(0, kCap, 0);
  std::array<Value, 4> order = {a, b, c, d};
  std::sort(order.begin(), order.end());
  int orders = 0;
  do {
    StripedHashMap<Value, Value> map(/*num_stripes=*/1, kCap);
    std::map<Value, Value> reference;
    for (Value k : {a, b, c, d}) {
      ASSERT_TRUE(map.put(k, k * 10));
      reference[k] = k * 10;
    }
    std::vector<Value> visited;
    map.for_each([&](const Value& k, const Value&) { visited.push_back(k); });
    // for_each walks slots in order, so the wrapped keys come first.
    ASSERT_EQ(visited, (std::vector<Value>{c, d, a, b}));
    for (Value gone : order) {
      EXPECT_TRUE(map.remove(gone));
      reference.erase(gone);
      for (Value k : {a, b, c, d}) {
        const auto it = reference.find(k);
        EXPECT_EQ(map.contains_key(k), it != reference.end()) << k;
        const std::optional<Value> got = map.get(k);
        ASSERT_EQ(got.has_value(), it != reference.end()) << k;
        if (got) {
          EXPECT_EQ(*got, it->second);
        }
      }
      EXPECT_EQ(map.size(), reference.size());
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 24);
}

TEST(StripedHashMapTest, RemoveAndClearDestroyTheValue) {
  const auto value = std::make_shared<int>(1);
  StripedHashMap<Value, std::shared_ptr<int>> map(/*num_stripes=*/1, 4);
  for (Value k = 0; k < 40; ++k) map.put(k, value);
  EXPECT_EQ(value.use_count(), 41);
  // Removals shift later chain entries back; each drops exactly one owner.
  for (Value k = 0; k < 10; ++k) {
    EXPECT_TRUE(map.remove(k));
    EXPECT_EQ(value.use_count(), 40 - k);
  }
  map.put(10, std::make_shared<int>(2));  // overwrite releases the old value
  EXPECT_EQ(value.use_count(), 30);
  map.clear();
  EXPECT_EQ(value.use_count(), 1);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.put(3, value));  // a cleared table takes inserts again
  EXPECT_EQ(value.use_count(), 2);
}

TEST(StripedHashMapTest, ConcurrentCollidingKeysStress) {
  // Every key lands in the one stripe, so four threads grow, probe and
  // shift one table. Each thread owns 64 keys and checks every result
  // against its own reference.
  StripedHashMap<Value, Value> map(/*num_stripes=*/1, 2);
  constexpr int kThreads = 4;
  constexpr Value kKeys = 64;
  std::vector<std::map<Value, Value>> refs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::map<Value, Value>& ref = refs[static_cast<std::size_t>(t)];
      util::Xoshiro256 rng(0x5eed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        const Value k =
            t * 1000 + static_cast<Value>(rng.next_below(kKeys));
        const Value v = static_cast<Value>(rng.next_below(1 << 20));
        const bool present = ref.count(k) != 0;
        switch (rng.next_below(5)) {
          case 0:
            EXPECT_EQ(map.put(k, v), !present);
            ref[k] = v;
            break;
          case 1:
            EXPECT_EQ(map.put_if_absent(k, v), !present);
            ref.emplace(k, v);
            break;
          case 2:
            EXPECT_EQ(map.remove(k), present);
            ref.erase(k);
            break;
          case 3:
            EXPECT_EQ(map.contains_key(k), present);
            break;
          case 4: {
            const std::optional<Value> got = map.get(k);
            EXPECT_EQ(got.has_value(), present);
            if (got && present) {
              EXPECT_EQ(*got, ref[k]);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t expected = 0;
  for (const auto& ref : refs) {
    expected += ref.size();
    for (const auto& [k, v] : ref) EXPECT_EQ(map.get(k), v);
  }
  EXPECT_EQ(map.size(), expected);
}

// --- compute_if_absent (the V8 baseline's path) ----------------------------

TEST(StripedHashMapTest, ComputeIfAbsentOncePerKey) {
  StripedHashMap<Value, Value> map(/*num_stripes=*/256);
  int calls = 0;
  const Value v1 = map.compute_if_absent(7, [&] {
    ++calls;
    return Value{70};
  });
  const Value v2 = map.compute_if_absent(7, [&] {
    ++calls;
    return Value{71};
  });
  EXPECT_EQ(v1, 70);
  EXPECT_EQ(v2, 70);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.get(7), 70);
}

TEST(StripedHashMapTest, ConcurrentComputeIfAbsentAtomic) {
  StripedHashMap<Value, Value> map(/*num_stripes=*/256);
  std::atomic<int> factory_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (Value k = 0; k < 3000; ++k) {
        map.compute_if_absent(k, [&] {
          factory_calls.fetch_add(1);
          return k * 2;
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(factory_calls.load(), 3000);  // at most once per key
  EXPECT_EQ(map.size(), 3000u);
  for (Value k = 0; k < 3000; ++k) EXPECT_EQ(*map.get(k), k * 2);
}

TEST(StripedHashMapTest, ComputeIfAbsentGrowsUnderLoad) {
  StripedHashMap<Value, Value> map(/*num_stripes=*/2);
  for (Value k = 0; k < 5000; ++k) {
    map.compute_if_absent(k, [&] { return k; });
  }
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_EQ(*map.get(4999), 4999);
}

}  // namespace
}  // namespace semlock::adt
