// Exporters for the observability layer: the binary dump format, the Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing), and the text
// report. Shared by the runtime's exit dump (trace.cpp) and the
// tools/semlock-trace CLI, so both ends of the format live in one place.
//
// Binary dump format v6 (native endianness; produced and consumed on the
// same machine). The loader accepts v6 only; any other version is refused
// as "unsupported dump version N".
//   char[8]  magic "SLTRACE1"
//   u32      version (6)
//   u32      thread count
//   metrics section (MetricsSnapshot, see read/write in export.cpp: acquire
//   totals, per-instance tallies, blocked-by and attribution cells, wait
//   histogram and top waits, then the hold-time profiler block — hold
//   histogram, paired/unmatched counts, top holds)
//   per thread: u32 tid, u32 live, u64 event count,
//               count * Event::kWords u64 words (oldest event first)
// An event's words are its ring words (Event::to_words, obs/event.h); v6's
// type word carries the per-type payload (lock site, blocker mode, class)
// from which lock waits and transaction intervals are derived
// (obs/critical_path.h). v5 appended span sections and packed the type
// word without a payload.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace semlock::obs {

struct TraceDump {
  std::vector<ThreadTrace> threads;
  MetricsSnapshot metrics;
};

// In-process capture: ring snapshots (live + retired) plus collect_metrics().
TraceDump capture();

bool write_dump_file(const TraceDump& dump, const std::string& path,
                     std::string* error = nullptr);
bool load_dump_file(const std::string& path, TraceDump& out,
                    std::string* error = nullptr);

// Chrome trace-event JSON: acquire begin→grant and park→unpark pairs become
// duration ("X") events; everything else becomes instant ("i") events. The
// metrics snapshot rides along under the top-level "semlockMetrics" key
// (Perfetto ignores unknown keys).
std::string to_chrome_json(const TraceDump& dump);

// Plain-text report: event totals, top contended instances, hottest
// non-commuting mode pairs, longest waits, attribution summary.
std::string text_report(const TraceDump& dump);

// Attribution-focused text report: overall true-conflict vs. artifact
// split, then the per-mode-pair breakdown by AttrClass. Backing for the
// `semlock-trace attribution` command.
std::string attribution_report(const TraceDump& dump);

// Hold-time report: the hold histogram's tail quantiles, the paired vs.
// unmatched counts, the top-K longest holds with holder txn and lock site,
// and an offline re-pairing of the retained grant/release events (LIFO per
// thread, same algorithm as the online profiler) so a short schedule can
// cross-check metrics.holds_paired exactly. Backing for `semlock-trace
// holds`.
std::string holds_report(const TraceDump& dump);

// The offline half of that cross-check, exposed for tests: LIFO-pairs
// grant→release per (instance, mode) within each thread's retained events
// and returns the number of pairs formed.
std::uint64_t pair_holds_from_events(const TraceDump& dump);

// Minimal structural JSON validator (strings/escapes/nesting/commas) used by
// `semlock-trace check` so CI can validate the Chrome export without a JSON
// library. Not a full parser — it validates syntax, not schema.
bool validate_json(const std::string& text, std::string* error = nullptr);

}  // namespace semlock::obs
