#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::star;
using commute::SymbolicSet;

ModeTable make_table() {
  ModeTableConfig c;
  c.abstract_values = 2;
  return ModeTable::compile(commute::set_spec(),
                            {SymbolicSet({op("add", {star()})}),
                             SymbolicSet({op("size"), op("clear")})},
                            c);
}

TEST(TransactionTest, LvSkipsHeldInstances) {
  const auto t = make_table();
  SemanticLock lk(t);
  Transaction txn;
  txn.lv(&lk, 0);
  EXPECT_EQ(txn.num_held(), 1u);
  txn.lv(&lk, 0);  // LOCAL_SET semantics: no re-lock
  EXPECT_EQ(txn.num_held(), 1u);
  EXPECT_EQ(lk.holders(t.resolve_constant(0)), 1u);
  txn.unlock_all();
  EXPECT_EQ(lk.holders(t.resolve_constant(0)), 0u);
}

TEST(TransactionTest, NullIsNoOp) {
  Transaction txn;
  txn.lv(nullptr, 0);
  txn.lv_mode(nullptr, 0);
  EXPECT_EQ(txn.num_held(), 0u);
}

TEST(TransactionTest, UnlockAllReleasesEverything) {
  const auto t = make_table();
  SemanticLock a(t), b(t);
  Transaction txn;
  txn.lv(&a, 0);
  txn.lv(&b, 0);
  EXPECT_EQ(txn.num_held(), 2u);
  txn.unlock_all();
  EXPECT_EQ(txn.num_held(), 0u);
  EXPECT_EQ(a.holders(t.resolve_constant(0)), 0u);
  EXPECT_EQ(b.holders(t.resolve_constant(0)), 0u);
}

TEST(TransactionTest, DestructorReleases) {
  const auto t = make_table();
  SemanticLock lk(t);
  {
    Transaction txn;
    txn.lv(&lk, 0);
    EXPECT_EQ(lk.holders(t.resolve_constant(0)), 1u);
  }
  EXPECT_EQ(lk.holders(t.resolve_constant(0)), 0u);
}

TEST(TransactionTest, UnlockInstanceIsEarlyRelease) {
  const auto t = make_table();
  SemanticLock a(t), b(t);
  Transaction txn;
  txn.lv(&a, 0);
  txn.lv(&b, 0);
  txn.unlock_instance(&a);
  EXPECT_EQ(txn.num_held(), 1u);
  EXPECT_EQ(a.holders(t.resolve_constant(0)), 0u);
  EXPECT_EQ(b.holders(t.resolve_constant(0)), 1u);
  txn.unlock_all();
}

TEST(TransactionTest, LvOrderedSortsByUniqueId) {
  const auto t = make_table();
  SemanticLock a(t), b(t), c(t);
  const int mode = t.resolve_constant(0);
  Transaction txn;
  Transaction::DynTarget targets[3] = {{&c, mode}, {&a, mode}, {&b, mode}};
  txn.lv_ordered(targets);
  EXPECT_EQ(txn.num_held(), 3u);
  // Targets were reordered ascending by unique id.
  EXPECT_LE(targets[0].lk->unique_id(), targets[1].lk->unique_id());
  EXPECT_LE(targets[1].lk->unique_id(), targets[2].lk->unique_id());
  txn.unlock_all();
}

TEST(TransactionTest, LvOrderedCollapsesAliases) {
  const auto t = make_table();
  SemanticLock a(t);
  const int mode = t.resolve_constant(0);
  Transaction txn;
  Transaction::DynTarget targets[2] = {{&a, mode}, {&a, mode}};
  txn.lv_ordered(targets);
  EXPECT_EQ(txn.num_held(), 1u);
  EXPECT_EQ(a.holders(mode), 1u);
  txn.unlock_all();
}

TEST(TransactionTest, LvWithKeyedSiteResolvesByValue) {
  ModeTableConfig c;
  c.abstract_values = 4;
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {commute::var("k")}),
                    op("put", {commute::var("k"), star()})})},
      c);
  SemanticLock a(t), b(t);
  Transaction txn;
  const commute::Value k3[1] = {3};
  const commute::Value k5[1] = {5};
  txn.lv(&a, 0, k3);
  txn.lv(&b, 0, k5);
  const auto held = txn.held();
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].mode, t.resolve(0, k3));
  EXPECT_EQ(held[1].mode, t.resolve(0, k5));
  EXPECT_NE(held[0].mode, held[1].mode);  // 3 and 5 differ mod 4
  txn.unlock_all();
}

// Exercises the hash index holds() switches to once the held set outgrows
// the inline linear scan (Fig. 12 LVn shapes can hold hundreds of
// instances), including early release and reuse after unlock_all.
TEST(TransactionTest, HoldsScalesPastInlineThreshold) {
  const auto t = make_table();
  const int mode = t.resolve_constant(0);  // add(*): self-commuting
  constexpr int kInstances = 100;          // well past the inline threshold
  std::vector<std::unique_ptr<SemanticLock>> locks;
  locks.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    locks.push_back(std::make_unique<SemanticLock>(t));
  }

  Transaction txn;
  for (auto& lk : locks) txn.lv_mode(lk.get(), mode);
  EXPECT_EQ(txn.num_held(), static_cast<std::size_t>(kInstances));
  for (auto& lk : locks) EXPECT_TRUE(txn.holds(lk.get()));

  // LOCAL_SET semantics survive the index switch: no re-lock.
  txn.lv_mode(locks[0].get(), mode);
  EXPECT_EQ(txn.num_held(), static_cast<std::size_t>(kInstances));
  EXPECT_EQ(locks[0]->holders(mode), 1u);

  // Early release must drop the instance from the index too.
  txn.unlock_instance(locks[5].get());
  EXPECT_FALSE(txn.holds(locks[5].get()));
  EXPECT_EQ(locks[5]->holders(mode), 0u);
  txn.lv_mode(locks[5].get(), mode);  // and re-locking works
  EXPECT_TRUE(txn.holds(locks[5].get()));

  txn.unlock_all();
  EXPECT_EQ(txn.num_held(), 0u);
  for (auto& lk : locks) {
    EXPECT_FALSE(txn.holds(lk.get()));
    EXPECT_EQ(lk->holders(mode), 0u);
  }

  // The transaction object is reusable after the epilogue.
  txn.lv_mode(locks[1].get(), mode);
  EXPECT_TRUE(txn.holds(locks[1].get()));
  EXPECT_FALSE(txn.holds(locks[2].get()));
  txn.unlock_all();
}

std::vector<SemanticLock*> held_locks(const Transaction& txn) {
  std::vector<SemanticLock*> out;
  for (const auto& e : txn.held()) out.push_back(e.lk);
  return out;
}

// One held set across both storage boundaries: the inline entries (8 -> 9
// moves it to the heap) and the linear scan (64 -> 65 adds the hash index).
// Membership, LOCAL_SET semantics and acquisition order hold throughout.
TEST(TransactionTest, HeldSetCrossesInlineAndIndexBoundaries) {
  const auto t = make_table();
  const int mode = t.resolve_constant(0);  // add(*): self-commuting
  constexpr std::size_t kInstances = 65;
  std::vector<std::unique_ptr<SemanticLock>> locks;
  std::vector<SemanticLock*> order;
  for (std::size_t i = 0; i < kInstances; ++i) {
    locks.push_back(std::make_unique<SemanticLock>(t));
    order.push_back(locks.back().get());
  }

  Transaction txn;
  for (std::size_t i = 0; i < kInstances; ++i) {
    txn.lv_mode(order[i], mode);
    const std::size_t n = i + 1;
    if (n == 8 || n == 9 || n == 64 || n == 65) {
      SCOPED_TRACE(n);
      EXPECT_EQ(txn.num_held(), n);
      EXPECT_EQ(held_locks(txn),
                std::vector<SemanticLock*>(order.begin(), order.begin() + n));
      for (std::size_t j = 0; j < kInstances; ++j) {
        EXPECT_EQ(txn.holds(order[j]), j < n);
      }
      txn.lv_mode(order[0], mode);  // already held: no re-lock
      EXPECT_EQ(txn.num_held(), n);
      EXPECT_EQ(order[0]->holders(mode), 1u);
    }
  }
  txn.unlock_all();
  for (auto* lk : order) EXPECT_EQ(lk->holders(mode), 0u);
}

// Early release removes exactly one entry and keeps the others' order,
// whether the held set is still inline or already on the heap.
TEST(TransactionTest, UnlockInstanceOnInlineAndSpilledEntries) {
  const auto t = make_table();
  const int mode = t.resolve_constant(0);
  for (const std::size_t held : {std::size_t{4}, std::size_t{12}}) {
    SCOPED_TRACE(held);
    std::vector<std::unique_ptr<SemanticLock>> locks;
    std::vector<SemanticLock*> order;
    for (std::size_t i = 0; i < held; ++i) {
      locks.push_back(std::make_unique<SemanticLock>(t));
      order.push_back(locks.back().get());
    }
    Transaction txn;
    for (auto* lk : order) txn.lv_mode(lk, mode);

    SemanticLock* released = order[1];
    txn.unlock_instance(released);
    order.erase(order.begin() + 1);
    EXPECT_EQ(released->holders(mode), 0u);
    EXPECT_FALSE(txn.holds(released));
    EXPECT_EQ(held_locks(txn), order);
    for (auto* lk : order) EXPECT_EQ(lk->holders(mode), 1u);

    txn.unlock_instance(released);  // not held: no-op
    EXPECT_EQ(held_locks(txn), order);

    txn.lv_mode(released, mode);  // re-locking appends
    order.push_back(released);
    EXPECT_EQ(held_locks(txn), order);
    txn.unlock_all();
    for (auto* lk : order) EXPECT_EQ(lk->holders(mode), 0u);
  }
}

TEST(TransactionTest, HeldExposesEntries) {
  const auto t = make_table();
  SemanticLock a(t);
  Transaction txn;
  txn.lv(&a, 1);
  const auto held = txn.held();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].lk, &a);
  EXPECT_EQ(held[0].mode, t.resolve_constant(1));
  txn.unlock_all();
}

}  // namespace
}  // namespace semlock
