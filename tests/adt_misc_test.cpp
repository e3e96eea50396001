#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "adt/striped_hash_set.h"
#include "adt/striped_multimap.h"
#include "adt/two_lock_queue.h"
#include "commute/value.h"

namespace semlock::adt {
namespace {

using commute::Value;

// --- StripedHashSet ---------------------------------------------------------

TEST(StripedHashSetTest, AddRemoveContains) {
  StripedHashSet<Value> set;
  EXPECT_TRUE(set.add(1));
  EXPECT_FALSE(set.add(1));
  EXPECT_TRUE(set.contains(1));
  EXPECT_TRUE(set.remove(1));
  EXPECT_FALSE(set.remove(1));
  EXPECT_FALSE(set.contains(1));
}

TEST(StripedHashSetTest, SizeClearForEach) {
  StripedHashSet<Value> set;
  for (Value v = 0; v < 30; ++v) set.add(v);
  EXPECT_EQ(set.size(), 30u);
  std::set<Value> seen;
  set.for_each([&](const Value& v) { seen.insert(v); });
  EXPECT_EQ(seen.size(), 30u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
}

TEST(StripedHashSetTest, ConcurrentAdds) {
  StripedHashSet<Value> set;
  std::atomic<int> added{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (Value v = 0; v < 1000; ++v) {
        if (set.add(v)) added.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(added.load(), 1000);
  EXPECT_EQ(set.size(), 1000u);
}

// --- TwoLockQueue -----------------------------------------------------------

TEST(TwoLockQueueTest, FifoOrder) {
  TwoLockQueue<Value> q;
  EXPECT_TRUE(q.is_empty());
  EXPECT_FALSE(q.dequeue());
  for (Value v = 0; v < 10; ++v) q.enqueue(v);
  EXPECT_FALSE(q.is_empty());
  for (Value v = 0; v < 10; ++v) {
    auto got = q.dequeue();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(q.is_empty());
}

TEST(TwoLockQueueTest, InterleavedEnqueueDequeue) {
  TwoLockQueue<Value> q;
  q.enqueue(1);
  EXPECT_EQ(*q.dequeue(), 1);
  q.enqueue(2);
  q.enqueue(3);
  EXPECT_EQ(*q.dequeue(), 2);
  q.enqueue(4);
  EXPECT_EQ(*q.dequeue(), 3);
  EXPECT_EQ(*q.dequeue(), 4);
  EXPECT_FALSE(q.dequeue());
}

TEST(TwoLockQueueTest, ConcurrentProducersConsumers) {
  TwoLockQueue<Value> q;
  constexpr int kProducers = 2, kConsumers = 2;
  constexpr Value kPerProducer = 10000;
  std::atomic<Value> consumed_sum{0};
  std::atomic<long> consumed_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (Value v = 0; v < kPerProducer; ++v) {
        q.enqueue(static_cast<Value>(p) * kPerProducer + v);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed_count.load() < kProducers * kPerProducer) {
        auto got = q.dequeue();
        if (got) {
          consumed_sum.fetch_add(*got);
          consumed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const Value expected =
      kPerProducer * (kPerProducer - 1) / 2 +
      (kPerProducer + kPerProducer * (kPerProducer - 1) / 2 +
       kPerProducer * (kPerProducer - 1) / 2);
  // Simpler: sum of 0..(2*kPerProducer-1) arranged per producer.
  Value total = 0;
  for (Value v = 0; v < kProducers * kPerProducer; ++v) total += v;
  (void)expected;
  EXPECT_EQ(consumed_sum.load(), total);
}

TEST(TwoLockQueueTest, PerProducerOrderPreserved) {
  TwoLockQueue<Value> q;
  std::thread producer([&] {
    for (Value v = 0; v < 5000; ++v) q.enqueue(v);
  });
  std::vector<Value> seen;
  while (seen.size() < 5000) {
    auto got = q.dequeue();
    if (got) seen.push_back(*got);
  }
  producer.join();
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

// --- StripedMultimap --------------------------------------------------------

TEST(StripedMultimapTest, PutGetAllRemove) {
  StripedMultimap<Value, Value> mm;
  EXPECT_TRUE(mm.put(1, 10));
  EXPECT_TRUE(mm.put(1, 11));
  EXPECT_FALSE(mm.put(1, 10));  // set semantics
  auto all = mm.get_all(1);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<Value>{10, 11}));
  EXPECT_TRUE(mm.remove_entry(1, 10));
  EXPECT_FALSE(mm.remove_entry(1, 10));
  EXPECT_EQ(mm.get_all(1).size(), 1u);
  EXPECT_TRUE(mm.get_all(2).empty());
}

TEST(StripedMultimapTest, RemoveAllAndCount) {
  StripedMultimap<Value, Value> mm;
  for (Value v = 0; v < 5; ++v) mm.put(1, v);
  for (Value v = 0; v < 3; ++v) mm.put(2, v);
  EXPECT_EQ(mm.num_entries(), 8u);
  mm.remove_all(1);
  EXPECT_EQ(mm.num_entries(), 3u);
  EXPECT_TRUE(mm.get_all(1).empty());
}

TEST(StripedMultimapTest, ConcurrentDisjointKeys) {
  StripedMultimap<Value, Value> mm;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (Value v = 0; v < 1000; ++v) mm.put(t, v);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mm.num_entries(), 4000u);
  for (Value k = 0; k < 4; ++k) EXPECT_EQ(mm.get_all(k).size(), 1000u);
}

}  // namespace
}  // namespace semlock::adt
