// Counter-storage policies for the lock mechanism (ROADMAP item 2).
//
// Per ADT instance the mechanism needs, per canonical mode, "how many
// transactions currently hold this mode". Two representations coexist
// behind LockMechanism, independently selectable per mode table
// (ModeTableConfig::storage):
//
//   Striped — one std::atomic<uint32_t> per mode (the paper's Fig. 20
//             layout), plus BRAVO/SNZI-style striped banks for the
//             self-commuting modes (util/striped_counter.h) when
//             ModeTableConfig::counter_stripes > 0. With counter_stripes = 0
//             every mode keeps its plain counter. Striping pays when many
//             commuting holders would otherwise ping-pong one counter line.
//   Packed  — the whole mode table in ONE 64-bit atomic word: per-mode
//             holder mini-counters in bit fields, the conflict check
//             compiled by ModeTable into a single `word & conflict_mask[m]`
//             test, and (under the futex-word wait policy) waiters sleeping
//             directly on the word via C++20 std::atomic::wait. Eligible for
//             tables with <= 8 canonical modes (every synthesized ADT in
//             src/adt); ineligible tables quietly fall back to Striped —
//             LockMechanism::storage() reports the representation actually
//             in use. See docs/FAST_PATH.md §7 for the bit layout.
//
// Both storages read the grant barrier from the mechanism's GrantSlot
// (docs/RUNTIME_WAITING.md §5); neither keeps a copy of it.
#pragma once

#include <optional>
#include <string_view>

namespace semlock {

enum class StorageKind {
  Striped,
  Packed,
};

// Short stable name ("striped", "packed") used by benchmark tables, JSON
// output, and the environment knob.
inline const char* storage_kind_name(StorageKind kind) {
  switch (kind) {
    case StorageKind::Striped:
      return "striped";
    case StorageKind::Packed:
      return "packed";
  }
  return "unknown";
}

inline std::optional<StorageKind> parse_storage_kind(std::string_view text) {
  if (text == "striped") return StorageKind::Striped;
  if (text == "packed") return StorageKind::Packed;
  return std::nullopt;
}

// Resolves SEMLOCK_STORAGE text: "striped" | "packed"; anything else
// (including the removed "flat": ask for unstriped counters with
// SEMLOCK_STRIPES=0) warns once on stderr and falls back to Striped, the
// default — whether striping actually engages is governed by
// counter_stripes. Split out from the cached env lookup for testability;
// defined in mode_table.cpp beside the other config-default parsers.
StorageKind storage_from_env_text(const char* text);

// Process-wide default storage policy: SEMLOCK_STORAGE (parsed once), else
// Striped.
StorageKind default_storage();

}  // namespace semlock
