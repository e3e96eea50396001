// Process-wide aggregation of the per-thread observability data.
//
// Thread-local data (AcquireStats counters, the blocked-by conflict samples
// and wait-latency records gathered by the lock mechanism's contended path)
// is folded into the process-wide registry when a thread exits, and read on
// demand via collect_metrics(), which combines the folded totals with the
// live threads' current state. The combined view answers the questions the
// paper's evaluation (§5) raises but per-thread counters cannot: which
// instances actually contend, which non-commuting mode pairs block whom,
// and where wait time goes.
//
// collect_metrics() is exact at quiescence (all worker threads joined — the
// normal end-of-bench report point). While workers are still running, the
// live threads' plain counters are sampled best-effort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "semlock/acquire_stats.h"
#include "util/stats.h"

namespace semlock::obs {

// One cell of the blocked-by conflict matrix: a waiter that entered the
// contended path for `waiter` observed `holder` held. Only non-commuting
// (waiter, holder) pairs can ever be recorded — the sample walks the mode's
// conflict row — so a non-empty cell is direct evidence of a non-commuting
// pair the workload exercised.
struct BlockedByCell {
  std::int32_t waiter = -1;
  std::int32_t holder = -1;
  std::uint64_t count = 0;
};

// One cell of the attribution matrix: classified contended waits for a
// (waiter mode, holder mode) pair, broken down by AttrClass
// (obs/attribution.h) — counts[c] indexes by AttrClass value.
struct AttributionCell {
  std::int32_t waiter = -1;
  std::int32_t holder = -1;
  std::uint64_t counts[kNumAttrClasses] = {};

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts) sum += c;
    return sum;
  }
};

// Per-ADT-instance contention record; `instance` is the LockMechanism
// address (the same id the trace events carry).
struct InstanceMetrics {
  std::uint64_t instance = 0;
  std::uint64_t contended = 0;  // entries into the contended wait loop
  std::uint64_t waits = 0;      // completed contended acquisitions
  std::uint64_t wait_ns = 0;    // total contended wait wall time
  std::vector<BlockedByCell> blocked_by;
  // Classified waits by AttrClass (indexes by AttrClass value; all zero
  // when attribution was off or nothing contended).
  std::uint64_t attribution[kNumAttrClasses] = {};
};

// One of the longest individual waits observed.
struct WaitSample {
  std::uint64_t wait_ns = 0;
  std::uint64_t instance = 0;
  std::int32_t mode = -1;
};

// One of the longest critical-section holds observed: the grant→release
// span of a single acquisition, with the holder's identity (txn) and lock
// site so the offending code path is nameable from the report alone.
struct HoldSample {
  std::uint64_t hold_ns = 0;
  std::uint64_t instance = 0;
  std::int32_t mode = -1;
  std::uint64_t txn = 0;     // holder's transaction id (0 = outside any)
  std::int32_t site = -1;    // LockSiteArgs::site of the granting lock()
};

// Bounded keep-the-largest set of samples ranked by their `Key` field (the
// "longest waits" and "longest holds" of the reports). Small linear
// structure: K is tiny and insertion is rare (only contended acquisitions
// and paired releases reach it).
template <class Sample, std::uint64_t Sample::*Key>
class TopK {
 public:
  static constexpr std::size_t kKeep = 8;

  void add(const Sample& s) {
    if (samples_.size() < kKeep) {
      samples_.push_back(s);
      return;
    }
    auto min_it = std::min_element(
        samples_.begin(), samples_.end(),
        [](const Sample& a, const Sample& b) { return a.*Key < b.*Key; });
    if (s.*Key > (*min_it).*Key) *min_it = s;
  }

  void merge(const TopK& other) {
    for (const Sample& s : other.samples_) add(s);
  }

  // Descending by Key.
  std::vector<Sample> sorted() const {
    std::vector<Sample> out = samples_;
    std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
      return a.*Key > b.*Key;
    });
    return out;
  }

 private:
  std::vector<Sample> samples_;
};

using TopWaits = TopK<WaitSample, &WaitSample::wait_ns>;
using TopHolds = TopK<HoldSample, &HoldSample::hold_ns>;

struct MetricsSnapshot {
  AcquireStats acquire_totals;               // exact cross-thread sums
  std::vector<InstanceMetrics> instances;    // sorted by contended, desc
  std::vector<BlockedByCell> conflict_matrix;  // summed across instances
  std::vector<AttributionCell> attribution;  // per mode pair, busiest first
  util::Log2Histogram wait_hist;             // contended wait latencies, ns
  std::vector<WaitSample> top_waits;         // descending
  // Hold-time profiler (ISSUE 9): grant→release spans paired online in
  // emit() per (instance, mode), LIFO within the owning thread, so
  // hold_hist.count() == holds_paired exactly — every paired release adds
  // one sample. holds_unmatched counts releases with no retained grant
  // (tracing toggled mid-hold, or the open-hold table overflowed).
  util::Log2Histogram hold_hist;             // paired hold durations, ns
  std::uint64_t holds_paired = 0;
  std::uint64_t holds_unmatched = 0;
  std::vector<HoldSample> top_holds;         // descending

  // JSON for the BENCH_*.json sidecar files and the dump's embedded
  // metrics section (schema in docs/OBSERVABILITY.md).
  std::string to_json() const;
};

// Folds the registry's retired-thread totals with the live threads' current
// state. Implemented in trace.cpp next to the thread registry.
MetricsSnapshot collect_metrics();

}  // namespace semlock::obs
