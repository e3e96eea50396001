// An untraced Transaction over at most 8 instances makes no heap allocation:
// its held set lives inline and its id is only assigned when something asks.
// This is its own executable because it replaces the global allocation
// functions to count every operator new call in the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/transaction.h"

#if defined(SEMLOCK_OBS)
#include "obs/trace.h"
#endif

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Array forms too: a sanitizer runtime replaces them itself, so they would
// not reach the scalar ones.
void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

TEST(TransactionAlloc, UntracedTransactionsOfUpToEightInstancesNeverAllocate) {
#if defined(SEMLOCK_OBS)
  obs::set_runtime_enabled(false);
#endif
  ModeTableConfig c;
  c.abstract_values = 8;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  const int size_mode = t.resolve_constant(1);
  constexpr int kInstances = 8;
  std::vector<std::unique_ptr<SemanticLock>> locks;
  for (int i = 0; i < kInstances; ++i) {
    locks.push_back(std::make_unique<SemanticLock>(t));
  }

  // One transaction of n instances, locked through lv (keyed site 0),
  // lv_mode or lv_ordered depending on `how`.
  const auto run = [&](int n, int how) {
    Transaction txn;
    Transaction::DynTarget targets[kInstances];
    for (int i = 0; i < n; ++i) {
      SemanticLock* lk = locks[static_cast<std::size_t>(n - 1 - i)].get();
      const Value v[1] = {i};
      switch (how) {
        case 0: txn.lv(lk, 0, v); break;
        case 1: txn.lv_mode(lk, size_mode); break;
        default: targets[i] = {lk, size_mode}; break;
      }
    }
    if (how == 2) txn.lv_ordered({targets, static_cast<std::size_t>(n)});
    EXPECT_EQ(txn.num_held(), static_cast<std::size_t>(n));
  };

  // The thread's first acquisition registers its per-thread state.
  run(kInstances, 0);
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) run(i % kInstances + 1, i % 3);
  EXPECT_EQ(g_news.load() - before, 0u);

  // The counter sees the allocation a ninth held instance needs.
  SemanticLock ninth(t);
  const std::uint64_t spill_before = g_news.load();
  {
    Transaction txn;
    for (auto& lk : locks) txn.lv_mode(lk.get(), size_mode);
    txn.lv_mode(&ninth, size_mode);
    EXPECT_EQ(txn.num_held(), 9u);
  }
  EXPECT_GT(g_news.load() - spill_before, 0u);
}

}  // namespace
}  // namespace semlock
