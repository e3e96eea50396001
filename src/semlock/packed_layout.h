// Bit layout of the Packed storage policy's single 64-bit lock word,
// precomputed once per ModeTable (ModeTable::compile) and shared immutably
// by every instance (docs/FAST_PATH.md §7).
//
// Word layout (least significant bits first):
//
//   [ mode 0 field | mode 1 field | ... | mode M-1 field |  (low bits)
//     ...spare... |
//     W ]                                                     (bit 63)
//
// Each mode field is a `bits_per_mode`-wide holder mini-counter; a field at
// its all-ones value (`field_max`) is SATURATED and further acquisitions of
// that mode divert to the arbitrated/wait tier until a release drops it.
// Bit 63 (W) is the futex-word waiters-present bit: set by waiters before
// they sleep on the word via std::atomic::wait, cleared (then notify_all) by
// the wakeup paths, the classic futex-mutex protocol. The grant barrier is
// not in the word: every storage reads it from the mechanism's GrantSlot
// (docs/RUNTIME_WAITING.md §5).
//
// Eligibility: at most kMaxPackedModes canonical modes. Only W is carved out
// of the word, so every eligible table gets fields of at least 7 bits
// (8 modes x 7 bits + 1 = 57 <= 64). Ineligible tables requested as Packed
// fall back to Striped.
#pragma once

#include <array>
#include <cstdint>

namespace semlock {

inline constexpr int kMaxPackedModes = 8;

struct PackedLayout {
  int num_modes = 0;
  std::uint32_t bits_per_mode = 0;
  // Saturation value of one (unshifted) field: (1 << bits_per_mode) - 1.
  std::uint64_t field_max = 0;
  // Futex-word waiters-present bit (bit 63).
  std::uint64_t waiters_bit = 0;
  // Per-mode field geometry: field m occupies bits
  // [shift[m], shift[m] + bits_per_mode).
  std::array<std::uint32_t, kMaxPackedModes> shift{};
  std::array<std::uint64_t, kMaxPackedModes> inc{};         // 1 << shift[m]
  std::array<std::uint64_t, kMaxPackedModes> field_mask{};  // field_max << shift[m]
  // OR of field_mask over conflicts_of(m) — `word & conflict_mask[m]` is
  // nonzero iff some conflicting mode (possibly m itself, when
  // self-conflicting) is held. This is conflicts_clear(m) as one AND.
  std::array<std::uint64_t, kMaxPackedModes> conflict_mask{};
};

}  // namespace semlock
