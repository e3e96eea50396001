// Packed counter storage: the whole mode table in one 64-bit atomic word
// (see storage_policy.h for the policy overview, packed_layout.h for the
// bit layout, docs/FAST_PATH.md §7 for the protocol).
//
// Per-instance state is exactly this word. Everything shape-dependent —
// field shifts and the per-mode conflict masks — lives in the table-owned
// PackedLayout, shared immutably by all instances; the mechanism reads it
// through its table pointer, so nothing but the word sits in the word's
// part of the mechanism (docs/FAST_PATH.md §7).
// The acquisition protocol (semlock/lock_mechanism.cpp) replaces the striped
// announce/validate/retract dance with a single CAS that checks and claims
// atomically, so the packed fast path has no retract and no rewake.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "semlock/packed_layout.h"

namespace semlock {

class PackedStorage {
 public:
  static constexpr bool kPacked = true;

  PackedStorage() = default;

  // Moved only during LockMechanism construction, strictly before any
  // concurrent use — copying the atomic's value is sound there.
  PackedStorage(PackedStorage&& other) noexcept
      : word_(other.word_.load(std::memory_order_relaxed)) {}

  std::atomic<std::uint64_t>& word() { return word_; }
  const std::atomic<std::uint64_t>& word() const { return word_; }

  std::uint32_t holder_count(const PackedLayout& l, int mode,
                             std::memory_order order) const {
    return static_cast<std::uint32_t>(
        (word_.load(order) & l.field_mask[static_cast<std::size_t>(mode)]) >>
        l.shift[static_cast<std::size_t>(mode)]);
  }

 private:
  std::atomic<std::uint64_t> word_{0};
};

}  // namespace semlock
