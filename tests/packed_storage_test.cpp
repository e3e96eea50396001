// Packed word storage (ISSUE 8): the whole mode table lives in one 64-bit
// atomic word. Layout geometry must agree with the ModeTable's conflict
// relation, ineligible tables must fall back to Striped observably, the packed
// protocol must preserve exclusion/quiescence, saturation must divert (not
// miscount), and the futex-word wait policy must sleep on the word itself
// with no ParkingLot allocated.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/lock_mechanism.h"
#include "semlock/packed_layout.h"

namespace semlock {
namespace {

using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::var;

// {add(*)} self-commutes, {size,clear} self-conflicts, they conflict with
// each other: 2 modes, 1 partition, the smallest shape with both a counting
// field that can saturate and a genuinely exclusive field.
ModeTable make_two_mode_table(ModeTableConfig c) {
  c.abstract_values = 2;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {star()})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

TEST(PackedLayoutTest, GeometryMatchesModeTableConflicts) {
  ModeTableConfig c;
  c.abstract_values = 3;
  c.storage = StorageKind::Packed;
  // Three sites incl. a per-value one: several modes.
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("contains", {star()})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  const PackedLayout* l = t.packed_layout();
  ASSERT_NE(l, nullptr);
  ASSERT_EQ(l->num_modes, t.num_modes());
  ASSERT_LE(t.num_modes(), kMaxPackedModes);
  EXPECT_GE(l->bits_per_mode, 4u);
  EXPECT_EQ(l->field_max, (std::uint64_t{1} << l->bits_per_mode) - 1);
  EXPECT_EQ(l->waiters_bit, std::uint64_t{1} << 63);

  // Counter fields: pairwise disjoint, none overlapping W.
  std::uint64_t fields = 0;
  for (int m = 0; m < l->num_modes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    EXPECT_EQ(l->inc[mi], std::uint64_t{1} << l->shift[mi]);
    EXPECT_EQ(l->field_mask[mi], l->field_max << l->shift[mi]);
    EXPECT_EQ(fields & l->field_mask[mi], 0u) << "fields overlap at mode " << m;
    fields |= l->field_mask[mi];
  }
  EXPECT_EQ(fields & l->waiters_bit, 0u) << "counter fields overlap W";

  // conflict_mask[m] is exactly conflicts_clear(m) compiled to one AND:
  // the OR of the conflicting modes' field masks.
  for (int m = 0; m < l->num_modes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    std::uint64_t expect = 0;
    for (const std::int32_t other : t.conflicts_of(m)) {
      expect |= l->field_mask[static_cast<std::size_t>(other)];
    }
    EXPECT_EQ(l->conflict_mask[mi], expect) << "mode " << m;
    // Self-conflicting modes include their own field; self-commuting don't.
    const bool self_in_mask = (l->conflict_mask[mi] & l->field_mask[mi]) != 0;
    EXPECT_EQ(self_in_mask, !t.commutes(m, m)) << "mode " << m;
  }
}

TEST(PackedLayoutTest, TooManyModesFallsBackToStripedObservably) {
  // A per-value site over 9 abstract values yields > kMaxPackedModes
  // canonical modes: the table compiles with no packed layout and a
  // mechanism asked for Packed must report the Striped it actually built.
  ModeTableConfig c;
  c.abstract_values = 9;
  c.storage = StorageKind::Packed;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})})},
      c);
  ASSERT_GT(t.num_modes(), kMaxPackedModes);
  EXPECT_EQ(t.packed_layout(), nullptr);
  LockMechanism m(t);
  EXPECT_EQ(m.storage(), StorageKind::Striped);
  EXPECT_TRUE(m.has_parking_lot());  // futex-word never applies to Striped
  const int mode = t.resolve_constant(0);
  m.lock(mode);
  EXPECT_EQ(m.holders(mode), 1u);
  m.unlock(mode);
  EXPECT_EQ(m.holders(mode), 0u);
}

TEST(PackedStorageTest, ExclusionAndQuiescenceUnderChurn) {
  ModeTableConfig c;
  c.storage = StorageKind::Packed;
  const auto t = make_two_mode_table(c);
  ASSERT_NE(t.packed_layout(), nullptr);
  LockMechanism m(t);
  ASSERT_EQ(m.storage(), StorageKind::Packed);
  const int add_mode = t.resolve_constant(0);
  const int clear_mode = t.resolve_constant(1);
  std::atomic<int> in_clear{0};
  std::atomic<bool> violated{false};
  long counter = 0;
  constexpr int kIters = 3000;
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        m.lock(add_mode);
        if (in_clear.load() != 0) violated.store(true);
        m.unlock(add_mode);
      }
    });
  }
  threads.emplace_back([&] {
    for (int j = 0; j < kIters; ++j) {
      m.lock(clear_mode);
      in_clear.fetch_add(1);
      ++counter;  // protected by the self-conflicting mode
      in_clear.fetch_sub(1);
      m.unlock(clear_mode);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter, kIters);
  EXPECT_EQ(m.holders(add_mode), 0u);
  EXPECT_EQ(m.holders(clear_mode), 0u);
}

TEST(PackedStorageTest, SaturatedFieldDivertsInsteadOfWrapping) {
  // Fill a self-commuting mode's mini-counter to field_max: the next
  // acquisition — though it commutes — must refuse on the fast path rather
  // than wrap into the neighboring field, and one release must reopen it.
  ModeTableConfig c;
  c.storage = StorageKind::Packed;
  const auto t = make_two_mode_table(c);
  const PackedLayout* l = t.packed_layout();
  ASSERT_NE(l, nullptr);
  LockMechanism m(t);
  const int add_mode = t.resolve_constant(0);
  const auto cap = static_cast<std::uint32_t>(l->field_max);
  for (std::uint32_t i = 0; i < cap; ++i) m.lock(add_mode);
  EXPECT_EQ(m.holders(add_mode), cap);
  EXPECT_FALSE(m.try_lock(add_mode)) << "saturated field admitted a holder";
  EXPECT_EQ(m.holders(add_mode), cap) << "refusal must leave no residue";
  m.unlock(add_mode);
  EXPECT_TRUE(m.try_lock(add_mode));
  EXPECT_EQ(m.holders(add_mode), cap);
  for (std::uint32_t i = 0; i < cap; ++i) m.unlock(add_mode);
  EXPECT_EQ(m.holders(add_mode), 0u);
}

TEST(PackedStorageTest, SaturationReleaseWakesBlockedWaiter) {
  // A lock() against a saturated field must park and be woken by the
  // saturation-exit release (old_field == field_max), not just by
  // drop-to-zero. Futex-word policy so the waiter sleeps on the word.
  ModeTableConfig c;
  c.storage = StorageKind::Packed;
  c.wait_policy = runtime::WaitPolicyKind::FutexWord;
  c.grant_policy = runtime::GrantPolicyKind::Free;
  const auto t = make_two_mode_table(c);
  const PackedLayout* l = t.packed_layout();
  ASSERT_NE(l, nullptr);
  LockMechanism m(t);
  const int add_mode = t.resolve_constant(0);
  const auto cap = static_cast<std::uint32_t>(l->field_max);
  for (std::uint32_t i = 0; i < cap; ++i) m.lock(add_mode);

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    m.lock(add_mode);
    acquired.store(true);
    m.unlock(add_mode);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  m.unlock(add_mode);  // field leaves saturation: must wake the waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
  for (std::uint32_t i = 0; i + 1 < cap; ++i) m.unlock(add_mode);
  EXPECT_EQ(m.holders(add_mode), 0u);
}

TEST(FutexWordPolicy, SleepsOnTheWordWithNoParkingLot) {
  ModeTableConfig c;
  c.storage = StorageKind::Packed;
  c.wait_policy = runtime::WaitPolicyKind::FutexWord;
  c.grant_policy = runtime::GrantPolicyKind::Free;  // the word needs Free
  const auto t = make_two_mode_table(c);
  LockMechanism m(t);
  ASSERT_EQ(m.storage(), StorageKind::Packed);
  EXPECT_EQ(m.wait_policy(), runtime::WaitPolicyKind::FutexWord);
  EXPECT_FALSE(m.has_parking_lot());

  const int add_mode = t.resolve_constant(0);
  const int clear_mode = t.resolve_constant(1);
  m.lock(add_mode);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    m.lock(clear_mode);
    acquired.store(true);
    m.unlock(clear_mode);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  m.unlock(add_mode);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(m.holders(add_mode), 0u);
  EXPECT_EQ(m.holders(clear_mode), 0u);
}

TEST(FutexWordPolicy, MutualExclusionStressOnTheWord) {
  // Conflicting churn entirely through the word's wait/notify protocol:
  // no lost wakeups (would hang), no exclusion violation.
  ModeTableConfig c;
  c.storage = StorageKind::Packed;
  c.wait_policy = runtime::WaitPolicyKind::FutexWord;
  const auto t = make_two_mode_table(c);
  LockMechanism m(t);
  const int clear_mode = t.resolve_constant(1);
  long counter = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 3000; ++k) {
        m.lock(clear_mode);
        ++counter;
        m.unlock(clear_mode);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4 * 3000);
  EXPECT_EQ(m.holders(clear_mode), 0u);
}

TEST(FutexWordPolicy, DegradesToSpinThenParkOnUnpackedStorage) {
  // The word to sleep on only exists under Packed: a FutexWord request on
  // Striped (explicit or via fallback) must resolve to SpinThenPark and keep
  // the ParkingLot. So must a packed word under a ticketed grant policy:
  // its cursor lives outside the word, so a waiter sleeping on the word
  // could miss its handoff (docs/RUNTIME_WAITING.md §6).
  struct Case {
    StorageKind storage;
    runtime::GrantPolicyKind grant;
  };
  for (const Case k : {Case{StorageKind::Striped,
                            runtime::GrantPolicyKind::Free},
                       Case{StorageKind::Packed,
                            runtime::GrantPolicyKind::PhaseFair},
                       Case{StorageKind::Packed,
                            runtime::GrantPolicyKind::BoundedBypass}}) {
    ModeTableConfig c;
    c.storage = k.storage;
    c.grant_policy = k.grant;
    c.wait_policy = runtime::WaitPolicyKind::FutexWord;
    const auto t = make_two_mode_table(c);
    LockMechanism m(t);
    const char* name = runtime::grant_policy_name(k.grant);
    EXPECT_EQ(m.storage(), k.storage) << name;
    EXPECT_EQ(m.wait_policy(), runtime::WaitPolicyKind::SpinThenPark) << name;
    EXPECT_TRUE(m.has_parking_lot()) << name;
  }
}

TEST(PackedStorageTest, GrantBarrierPreservesFairnessMachinery) {
  // The grant-policy churn-to-quiescence check on the packed word, which
  // passes the same GrantSlot doorway as striped storage: every fair policy
  // must still exclude, drain, and leave the fast path open.
  for (const runtime::GrantPolicyKind policy :
       {runtime::GrantPolicyKind::PhaseFair,
        runtime::GrantPolicyKind::BoundedBypass}) {
    ModeTableConfig c;
    c.storage = StorageKind::Packed;
    c.grant_policy = policy;
    c.bypass_bound = 2;
    const auto t = make_two_mode_table(c);
    ASSERT_NE(t.packed_layout(), nullptr);
    LockMechanism m(t);
    const int add_mode = t.resolve_constant(0);
    const int clear_mode = t.resolve_constant(1);
    std::atomic<int> in_clear{0};
    std::atomic<bool> violated{false};
    long counter = 0;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&] {
        for (int j = 0; j < kIters; ++j) {
          m.lock(add_mode);
          if (in_clear.load() != 0) violated.store(true);
          m.unlock(add_mode);
        }
      });
    }
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        m.lock(clear_mode);
        in_clear.fetch_add(1);
        ++counter;
        in_clear.fetch_sub(1);
        m.unlock(clear_mode);
      }
    });
    for (auto& th : threads) th.join();
    const char* name = runtime::grant_policy_name(policy);
    EXPECT_FALSE(violated.load()) << name;
    EXPECT_EQ(counter, kIters) << name;
    EXPECT_EQ(m.holders(add_mode), 0u) << name;
    EXPECT_EQ(m.holders(clear_mode), 0u) << name;
    EXPECT_TRUE(m.try_lock(add_mode)) << name;  // barrier reopened
    m.unlock(add_mode);
  }
}

TEST(Footprint, PackedAtLeast1Point9xSmallerThanStriped) {
  // Per-instance footprint of the packed word (with futex-word waits, so no
  // ParkingLot either) must stay at least 1.9x below striped storage on a
  // full-width (8-mode) table with no self-commuting mode, so striping
  // adds nothing and the gap is the counters plus the ParkingLot.
  ModeTableConfig striped_cfg;
  striped_cfg.abstract_values = 7;
  striped_cfg.storage = StorageKind::Striped;
  striped_cfg.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  striped_cfg.grant_policy = runtime::GrantPolicyKind::Free;
  ModeTableConfig packed_cfg = striped_cfg;
  packed_cfg.storage = StorageKind::Packed;
  packed_cfg.wait_policy = runtime::WaitPolicyKind::FutexWord;
  const auto make = [](const ModeTableConfig& c) {
    return ModeTable::compile(
        commute::set_spec(),
        {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
         SymbolicSet({op("size"), op("clear")})},
        c);
  };
  const auto striped_table = make(striped_cfg);
  const auto packed_table = make(packed_cfg);
  ASSERT_EQ(striped_table.num_modes(), kMaxPackedModes);
  ASSERT_NE(packed_table.packed_layout(), nullptr);

  LockMechanism striped(striped_table);
  LockMechanism packed(packed_table);
  ASSERT_EQ(striped.storage(), StorageKind::Striped);
  ASSERT_EQ(packed.storage(), StorageKind::Packed);
  const std::size_t striped_bytes = striped.footprint_bytes();
  const std::size_t packed_bytes = packed.footprint_bytes();
  EXPECT_GE(static_cast<double>(striped_bytes), 1.9 * packed_bytes)
      << "striped " << striped_bytes << " bytes vs packed " << packed_bytes;
}

TEST(Footprint, AccountsForEveryStorageKind) {
  // footprint_bytes is the bench's measurement primitive: it must be
  // nonzero, at least the object itself, and ordered unstriped > packed for
  // one table shape.
  ModeTableConfig c;
  std::size_t unstriped = 0, packed = 0;
  {
    ModeTableConfig cf = c;
    cf.storage = StorageKind::Striped;
    cf.counter_stripes = 0;
    const auto t = make_two_mode_table(cf);
    unstriped = LockMechanism(t).footprint_bytes();
  }
  {
    ModeTableConfig cf = c;
    cf.storage = StorageKind::Packed;
    cf.wait_policy = runtime::WaitPolicyKind::FutexWord;
    cf.grant_policy = runtime::GrantPolicyKind::Free;
    const auto t = make_two_mode_table(cf);
    packed = LockMechanism(t).footprint_bytes();
  }
  EXPECT_GE(unstriped, sizeof(LockMechanism));
  EXPECT_GT(unstriped, packed);
}

}  // namespace
}  // namespace semlock
