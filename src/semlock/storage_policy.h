// Counter-storage policies for the lock mechanism (ROADMAP item 2).
//
// Per ADT instance the mechanism needs, per canonical mode, "how many
// transactions currently hold this mode". Two representations coexist
// inside LockMechanism, chosen per mode table by ModeTable::compile; each
// compiles its own specialization of the acquisition protocol:
//
//   Striped — one std::atomic<uint32_t> per mode in the mechanism's slab
//             (the paper's Fig. 20 layout), plus a BRAVO/SNZI-style striped
//             counter bank (util/striped_counter.h) with one row per
//             self-commuting mode when ModeTableConfig::counter_stripes > 0
//             (ModeTable::stripe_row). With counter_stripes = 0 every mode
//             keeps its plain counter. Striping pays when many commuting
//             holders would otherwise ping-pong one counter line.
//   Packed  — the whole mode table in ONE 64-bit atomic word of the
//             mechanism: per-mode holder mini-counters in bit fields, the
//             conflict check compiled by ModeTable into a single
//             `word & conflict_mask` test (semlock/packed_layout.h), and
//             (under the futex-word wait policy) waiters sleeping directly
//             on the word via C++20 std::atomic::wait. Possible for tables
//             with <= 8 canonical modes (every synthesized ADT in src/adt).
//             See docs/FAST_PATH.md §7 for the bit layout.
//
// Unless forced, a table packs when it can and has no *reader*: a
// self-commuting mode whose conflicting modes are all self-conflicting (or
// that conflicts with nothing). A reader's holders count on their own stripe
// lines and its check reads only plain writer counters, so stripes pay; two
// self-commuting modes that conflict would instead sum each other's stripe
// rows on every acquisition, so one word pays (docs/FAST_PATH.md §7).
// ModeTableConfig::storage or SEMLOCK_STORAGE force a representation; a
// Packed request over a table of more than 8 modes falls back to Striped.
// LockMechanism::storage() reports the representation actually in use.
//
// Everything shape-dependent (slab offsets, stripe rows, packed records)
// lives in the shared ModeTable; an instance owns only its counters. Both
// representations read the grant barrier from the mechanism's GrantSlot
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

// Name of a process default (default_storage()): the forced kind's, or
// "per-table" when each table chooses.
inline const char* storage_kind_name(std::optional<StorageKind> kind) {
  return kind ? storage_kind_name(*kind) : "per-table";
}

inline std::optional<StorageKind> parse_storage_kind(std::string_view text) {
  if (text == "striped") return StorageKind::Striped;
  if (text == "packed") return StorageKind::Packed;
  return std::nullopt;
}

// Resolves SEMLOCK_STORAGE text: "striped" | "packed" force that kind;
// unset (nullptr) is std::nullopt, each table's own choice; anything else
// (including the removed "flat": ask for unstriped counters with
// SEMLOCK_STRIPES=0) warns once on stderr and forces Striped — whether
// striping actually engages is governed by counter_stripes. Split out from
// the cached env lookup for testability; defined in mode_table.cpp beside
// the other config-default parsers.
std::optional<StorageKind> storage_from_env_text(const char* text);

// Process-wide default storage policy: SEMLOCK_STORAGE (parsed once), else
// std::nullopt (each table chooses).
std::optional<StorageKind> default_storage();

}  // namespace semlock
