// ModeTable: compiles the symbolic sets of an ADT's lock sites into locking
// modes and precomputes everything the runtime lock mechanism needs
// (Sections 5.1–5.3).
//
// One ModeTable is shared, immutably, by every ADT instance of the same
// (ADT class, pointer equivalence class) pair — per-instance state is only
// the counters held by SemanticLock, in the striped or packed storage the
// table selects (semlock/storage_policy.h). Everything derived from the
// conflict graph lives here: the packed records, the stripe rows and the
// slab offsets below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "commute/spec.h"
#include "commute/symbolic.h"
#include "commute/value.h"
#include "runtime/grant_policy.h"
#include "runtime/wait_policy.h"
#include "semlock/mode.h"
#include "semlock/packed_layout.h"
#include "semlock/storage_policy.h"

namespace semlock {

// Process-wide default stripe count of the Striped storage
// (docs/FAST_PATH.md), read once from the environment:
//   SEMLOCK_STRIPES=N        0 disables holder-counter striping; 1..1024
//                            fixes the stripe count. Default: striping on
//                            with a hardware-concurrency-sized power of two.
int default_counter_stripes();
// Whether mechanisms built from this config emit observability events
// (src/obs). Snapshot of the process-wide trace switch (SEMLOCK_TRACE /
// obs::ScopedTraceEnable) at config-creation time; always false when the
// library is built without SEMLOCK_OBS.
bool default_trace_events();

// Testable strict parser behind default_counter_stripes(). Same contract as
// the other runtime knobs (util/env): malformed values warn once on stderr
// and fall back to the automatic count; nullptr (unset) is silent.
int stripes_from_env_text(const char* text);

struct ModeTableConfig {
  // n: number of abstract values of phi (the paper evaluates with 64).
  int abstract_values = 64;
  // N: maximum number of locking modes (Section 5.3, optimization 3). When
  // exceeded, variable arguments are widened to `*` (which merges modes)
  // until the bound holds.
  int max_modes = 256;
  // Optimization 1 of Section 5.3: share a counter between modes with
  // identical F_c rows.
  bool merge_indistinguishable = true;
  // Section 5.2 lock partitioning: split modes into connected components of
  // the conflict graph, each with its own internal lock. Disabling this is
  // exposed only for the ablation benchmark (a single internal lock).
  bool partition = true;
  // Safety cap on a single site's alpha-tuple resolution table.
  int max_tuple_entries = 1 << 16;
  // How a blocked acquisition waits for its conflicting holders (the
  // src/runtime/ waiting subsystem). Defaults to the ambient process policy:
  // a ScopedWaitPolicy override if installed, else SEMLOCK_WAIT_POLICY, else
  // the historical spin-then-yield behavior.
  runtime::WaitPolicyKind wait_policy = runtime::default_wait_policy();
  // SpinThenPark only: backoff rounds spent spinning before the waiter
  // parks on the partition's futex. Higher values favor latency over CPU;
  // 0 parks on the first failed attempt.
  int park_spin_limit = 64;
  // WHO gets the lock next once waiters exist (src/runtime/grant_policy.h):
  // Free is the historical unbounded-bypass behavior; PhaseFair and
  // BoundedBypass bound how often commuting arrivals (including the
  // optimistic tier) may overtake a conflicting waiter. Defaults to the
  // ambient process policy: ScopedGrantPolicy if installed, else
  // SEMLOCK_GRANT_POLICY, else Free.
  runtime::GrantPolicyKind grant_policy = runtime::default_grant_policy();
  // BoundedBypass budget K: commuting arrivals granted past the oldest
  // waiter before the barrier rises (SEMLOCK_BYPASS_BOUND, default 16).
  int bypass_bound = static_cast<int>(runtime::default_bypass_bound());
  // Striped storage only: give every self-commuting mode counter_stripes
  // cache-line-padded stripes (util/striped_counter.h) so commuting holders
  // stop ping-ponging one counter line; conflict checks and holders() sum
  // the stripes. Costs 64 B * counter_stripes per striped mode per
  // instance. 0 turns striping off (SEMLOCK_STRIPES=0): one plain atomic
  // counter per mode, the paper's Fig. 20 layout.
  int counter_stripes = default_counter_stripes();
  // Forces the counter representation of mechanisms built over this table
  // (semlock/storage_policy.h): Striped (per-mode atomics plus the striping
  // above), or Packed (the whole table in one 64-bit word, falling back to
  // Striped when the table has more than kMaxPackedModes modes). Unset, the
  // table chooses: Packed when it fits and has no reader mode, else Striped.
  // Defaults to SEMLOCK_STORAGE when set.
  std::optional<StorageKind> storage = default_storage();
  // Emit binary trace events and conflict/latency metrics from mechanisms
  // built over this table (src/obs, docs/OBSERVABILITY.md). Cached by the
  // LockMechanism at construction; defaults to the ambient trace switch so
  // SEMLOCK_TRACE=1 traces everything without code changes, while tests can
  // turn it on per table.
  bool trace_events = default_trace_events();
};

class ModeTable {
 public:
  // `site_sets[i]` is the symbolic set of lock site i. Sites with equal
  // symbolic structure share modes.
  static ModeTable compile(const commute::AdtSpec& spec,
                           std::vector<commute::SymbolicSet> site_sets,
                           const ModeTableConfig& cfg = ModeTableConfig{});

  const commute::AdtSpec& spec() const { return *spec_; }
  const commute::ValueAbstraction& abstraction() const { return phi_; }
  const ModeTableConfig& config() const { return cfg_; }

  int num_sites() const { return static_cast<int>(sites_.size()); }
  int num_modes() const { return static_cast<int>(modes_.size()); }
  int num_raw_modes() const { return num_raw_modes_; }
  const Mode& mode(int id) const {
    return modes_[static_cast<std::size_t>(id)];
  }

  // F_c over (canonical) modes.
  bool commutes(int m1, int m2) const {
    return fc_[static_cast<std::size_t>(m1) * modes_.size() +
               static_cast<std::size_t>(m2)] != 0;
  }

  // The variables of site `s` that remained after any widening, in the
  // order `resolve` expects their runtime values.
  const std::vector<std::string>& site_variables(int site) const {
    return sites_[static_cast<std::size_t>(site)].variables;
  }
  // The (possibly widened) symbolic set of site `s`.
  const commute::SymbolicSet& site_set(int site) const {
    return sites_[static_cast<std::size_t>(site)].set;
  }

  // Runtime mode lookup for site `s` given the runtime values of
  // site_variables(s), in order. O(k) hashing + one table read.
  int resolve(int site, std::span<const commute::Value> values) const;
  // Shorthand for sites whose set is constant (no variables).
  int resolve_constant(int site) const { return resolve(site, {}); }

  // Lock partitioning.
  int num_partitions() const { return num_partitions_; }
  int partition_of(int mode) const {
    return partition_[static_cast<std::size_t>(mode)];
  }
  // Canonical ids of the modes conflicting with `mode` (all of them live in
  // partition_of(mode); may include `mode` itself if self-conflicting).
  const std::vector<std::int32_t>& conflicts_of(int mode) const {
    return conflicts_[static_cast<std::size_t>(mode)];
  }

  // The packed-word bit layout, or nullptr when this table does not fit in
  // one 64-bit word (more than kMaxPackedModes canonical modes). Computed
  // whenever it fits, whatever storage() says — it is a few hundred bytes
  // per table.
  const PackedLayout* packed_layout() const {
    return packed_ok_ ? &packed_ : nullptr;
  }
  // One mode's packed record, with no eligibility test: only for tables
  // whose storage() is Packed.
  const PackedMode& packed_mode(int mode) const {
    return packed_.modes[static_cast<std::size_t>(mode)];
  }

  // The counter representation mechanisms over this table use: the
  // config's storage if it forces one, else Packed when the table fits and
  // has no reader mode (storage_policy.h); a Packed choice over a table with
  // no packed layout (> kMaxPackedModes canonical modes) falls back to
  // Striped.
  StorageKind storage() const { return storage_; }

  // The mode's row in each instance's striped counter bank, or -1 when the
  // mode counts on its plain counter. A mode has a row exactly when the
  // storage is Striped, counter_stripes > 0 and the mode commutes with
  // itself; rows are numbered 0..stripe_rows()-1 in mode order.
  int stripe_row(int mode) const {
    return stripe_row_[static_cast<std::size_t>(mode)];
  }
  std::uint32_t stripe_rows() const { return stripe_rows_; }

  // The per-instance slab (docs/FAST_PATH.md §8): byte offsets, by mode and
  // by partition, of each mode's holder counter and each partition's
  // internal spinlock in the one heap block a mechanism allocates. With more
  // than one partition each partition starts its own cache line; otherwise
  // the slab is dense. Packed storage keeps its counters in the word
  // (counter_offsets() is empty) and lays out only the spinlocks, densely.
  std::span<const std::uint32_t> counter_offsets() const {
    return counter_offset_;
  }
  std::span<const std::uint32_t> lock_offsets() const { return lock_offset_; }
  std::size_t slab_bytes() const { return slab_bytes_; }
  std::size_t slab_align() const { return slab_align_; }

  // Human-readable dump of modes, F_c and partitions (used by examples and
  // golden tests; reproduces Fig. 19 for the paper's Set example).
  std::string describe() const;

 private:
  struct Site {
    commute::SymbolicSet set;            // after widening
    std::vector<std::string> variables;  // after widening
    std::vector<int> strides;            // mixed-radix strides, size == vars
    std::vector<std::int32_t> lookup;    // tuple index -> canonical mode id
  };

  ModeTable(const commute::AdtSpec& spec, ModeTableConfig cfg)
      : spec_(&spec), cfg_(cfg), phi_(cfg.abstract_values) {}

  const commute::AdtSpec* spec_;
  ModeTableConfig cfg_;
  commute::ValueAbstraction phi_;

  std::vector<Site> sites_;
  std::vector<Mode> modes_;       // canonical modes
  int num_raw_modes_ = 0;         // before indistinguishable merging
  std::vector<char> fc_;          // row-major F_c over canonical modes
  std::vector<std::int32_t> partition_;
  int num_partitions_ = 0;
  std::vector<std::vector<std::int32_t>> conflicts_;
  PackedLayout packed_;
  bool packed_ok_ = false;
  StorageKind storage_ = StorageKind::Striped;
  std::vector<std::int32_t> stripe_row_;
  std::uint32_t stripe_rows_ = 0;
  std::vector<std::uint32_t> counter_offset_;  // empty under Packed storage
  std::vector<std::uint32_t> lock_offset_;
  std::size_t slab_bytes_ = 0;
  std::size_t slab_align_ = 1;
};

}  // namespace semlock
