// Counter-storage policies for the lock mechanism (ROADMAP item 2).
//
// Per ADT instance the mechanism needs, per canonical mode, "how many
// transactions currently hold this mode". Three representations coexist
// behind LockMechanism, independently selectable per mode table
// (ModeTableConfig::storage):
//
//   Flat    — one std::atomic<uint32_t> per mode (the paper's Fig. 20
//             layout), optionally cache-line padded. Byte-identical to the
//             historical behavior; the baseline every other policy is
//             A/B-ed against.
//   Striped — Flat plus PR 3's BRAVO/SNZI-style striped banks for the
//             self-commuting modes (util/striped_counter.h), engaged when
//             ModeTableConfig::counter_stripes > 0. Best when many
//             commuting holders would otherwise ping-pong one counter line.
//   Packed  — the whole mode table in ONE 64-bit atomic word: per-mode
//             holder mini-counters in bit fields, the conflict check
//             compiled by ModeTable into a single `word & conflict_mask[m]`
//             test, the grant barrier folded into spare bits, and (under
//             the futex-word wait policy) waiters sleeping directly on the
//             word via C++20 std::atomic::wait. Eligible for tables with
//             <= 8 canonical modes (every synthesized ADT in src/adt);
//             ineligible tables quietly fall back to Flat —
//             LockMechanism::storage() reports the representation actually
//             in use. See docs/FAST_PATH.md §7 for the bit layout.
#pragma once

#include <optional>
#include <string_view>

namespace semlock {

enum class StorageKind {
  Flat,
  Striped,
  Packed,
};

// Short stable name ("flat", "striped", "packed") used by benchmark tables,
// JSON output, and the environment knob.
inline const char* storage_kind_name(StorageKind kind) {
  switch (kind) {
    case StorageKind::Flat:
      return "flat";
    case StorageKind::Striped:
      return "striped";
    case StorageKind::Packed:
      return "packed";
  }
  return "unknown";
}

inline std::optional<StorageKind> parse_storage_kind(std::string_view text) {
  if (text == "flat") return StorageKind::Flat;
  if (text == "striped") return StorageKind::Striped;
  if (text == "packed") return StorageKind::Packed;
  return std::nullopt;
}

// Resolves SEMLOCK_STORAGE text: "flat" | "striped" | "packed"; anything
// else warns once on stderr and falls back to Striped (the historical
// default — whether striping actually engages is still governed by
// counter_stripes, so unset stays byte-for-byte compatible). Split out from
// the cached env lookup for testability; defined in mode_table.cpp beside
// the other config-default parsers.
StorageKind storage_from_env_text(const char* text);

// Process-wide default storage policy: SEMLOCK_STORAGE (parsed once), else
// Striped.
StorageKind default_storage();

}  // namespace semlock
