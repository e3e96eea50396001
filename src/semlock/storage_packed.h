// Packed counter storage: the whole mode table in one 64-bit atomic word
// (see storage_policy.h for the policy overview, packed_layout.h for the
// bit layout, docs/FAST_PATH.md §7 for the protocol).
//
// Per-instance state is exactly this word. Everything shape-dependent —
// field shifts and the per-mode conflict masks — lives in the table-owned
// PackedLayout, shared immutably by all instances.
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

  explicit PackedStorage(const PackedLayout& layout) : layout_(&layout) {}

  // Moved only during LockMechanism construction, strictly before any
  // concurrent use — copying the atomic's value is sound there.
  PackedStorage(PackedStorage&& other) noexcept
      : layout_(other.layout_),
        word_(other.word_.load(std::memory_order_relaxed)) {}

  const PackedLayout& layout() const { return *layout_; }
  std::atomic<std::uint64_t>& word() { return word_; }
  const std::atomic<std::uint64_t>& word() const { return word_; }

  std::uint32_t holder_count(int mode, std::memory_order order) const {
    const PackedLayout& l = *layout_;
    return static_cast<std::uint32_t>(
        (word_.load(order) & l.field_mask[static_cast<std::size_t>(mode)]) >>
        l.shift[static_cast<std::size_t>(mode)]);
  }

  // All modes share the word, so they share one DCT schedule identity.
  const void* dct_id(int) const { return &word_; }

  bool mode_striped(int) const { return false; }
  std::uint32_t stripes() const { return 1; }

  std::size_t heap_bytes() const { return 0; }

 private:
  const PackedLayout* layout_;
  std::atomic<std::uint64_t> word_{0};
};

}  // namespace semlock
