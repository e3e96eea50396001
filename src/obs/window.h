// Windowed metrics: epoch-rotated per-window deltas of the observability
// tallies (ISSUE 9, tentpole layer 1).
//
// The exit-dump metrics are cumulative-forever; a live service (and ROADMAP
// item 1's adaptive abstraction) needs *rates* — what happened in the last
// second, not since boot. WindowedMetrics runs a low-priority collector
// thread that every SEMLOCK_METRICS_WINDOW_MS:
//
//   1. samples the cumulative tallies that are safely readable mid-run:
//      the per-EventType counters (trace.h event_count_totals — exact and
//      live), the attribution-class totals, and the wait/hold histograms
//      (all folded under per-thread metrics locks by collect_metrics);
//   2. subtracts the previous sample (Log2Histogram::delta for the
//      histograms, plain subtraction for the counters) into a WindowStats;
//   3. publishes it into an N-slot ring of seqlock slots, the same
//      relaxed-payload/version-counter protocol as PR 5's AttrRecord, so
//      any thread can scrape the ring while the collector rotates and a
//      torn slot is detected and skipped, never misread.
//
// Cumulative totals remain exact at quiescence exactly as before — windows
// are an additional view, not a replacement. Everything here compiles away
// under -DSEMLOCK_OBS=OFF (the TU is only built with the option on).
//
// Environment knobs (strict parsing, util/env convention):
//   SEMLOCK_METRICS_WINDOW_MS  rotation cadence, 10..60000 (default 1000)
//   SEMLOCK_METRICS_WINDOWS    ring slots, 2..128 (default 8)
//
// SIGUSR2 resets the window baseline mid-run (the counterpart of SIGUSR1's
// snapshot): the handler only bumps an async-signal-safe counter, and the
// collector drains it at its next tick by rebasing without publishing the
// partial window. docs/OBSERVABILITY.md §10 documents both signals.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.h"
#include "obs/event.h"
#include "util/stats.h"

namespace semlock::obs {

inline constexpr std::uint64_t kDefaultWindowMs = 1000;
inline constexpr std::uint32_t kDefaultWindowSlots = 8;

// Testable strict parsers (tests/env_config_test.cpp). nullptr (unset)
// silently yields the default; malformed text warns once and falls back.
std::uint64_t metrics_window_ms_from_env_text(const char* text);
std::uint32_t metrics_windows_from_env_text(const char* text);

// One completed window: deltas over [start_ns, end_ns).
struct WindowStats {
  std::uint64_t seq = 0;       // rotation number, 1-based, monotonic
  std::uint64_t start_ns = 0;  // steady-clock window bounds
  std::uint64_t end_ns = 0;

  // Event-count deltas (from the exact per-thread counters in trace.cpp).
  std::uint64_t grants = 0;    // kAcquireGrant + kOptimisticHit
  std::uint64_t begins = 0;    // kAcquireBegin
  std::uint64_t contended = 0; // kContendedWait
  std::uint64_t parks = 0;     // kPark
  std::uint64_t diverts = 0;   // kBarrierDivert (grant-policy)
  std::uint64_t handoffs = 0;  // kGrantHandoff
  std::uint64_t releases = 0;  // kRelease

  // Classified contended waits by AttrClass, this window only.
  std::uint64_t attr_classes[kNumAttrClasses] = {};

  // Latency deltas: only this window's samples, so p50/p99/p999 are the
  // window's quantiles, not lifetime ones.
  util::Log2Histogram wait_hist;
  util::Log2Histogram hold_hist;
  std::uint64_t holds_paired = 0;

  double seconds() const {
    return end_ns > start_ns
               ? static_cast<double>(end_ns - start_ns) / 1e9
               : 0.0;
  }
  double acquisitions_per_sec() const {
    const double s = seconds();
    return s > 0.0 ? static_cast<double>(grants) / s : 0.0;
  }
  // Share of this window's classified waits that are abstraction artifacts
  // (phi collision, mode over-approximation, wrapper coarsening) out of all
  // conclusively classified waits (unsampled excluded). 0..100.
  double false_conflict_pct() const;

  // One JSON object per window (schema in docs/OBSERVABILITY.md §10).
  std::string to_json() const;
};

// The rotating collector plus its seqlock-published ring.
class WindowedMetrics {
 public:
  WindowedMetrics(std::uint32_t slots, std::uint64_t window_ms);
  WindowedMetrics(const WindowedMetrics&) = delete;
  WindowedMetrics& operator=(const WindowedMetrics&) = delete;
  ~WindowedMetrics();

  // Starts / stops the collector thread. Idempotent; stop() joins.
  void start();
  void stop();
  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  // One synchronous rotation from the calling thread: sample, delta,
  // publish. The collector calls this on its cadence; tests call it
  // directly for deterministic rotation without a thread.
  void rotate_now();

  // Rebases the baseline to "now", discarding the current partial window
  // without publishing it. The SIGUSR2 drain calls this.
  void reset_window();

  // Seqlock-reads every published slot, newest first. Torn slots (the
  // collector mid-publish) are skipped and counted in torn_reads().
  std::vector<WindowStats> snapshot() const;

  std::uint64_t window_ms() const { return window_ms_; }
  std::uint32_t slots() const { return nslots_; }
  std::uint64_t rotations() const {
    return next_seq_.load(std::memory_order_acquire);
  }
  std::uint64_t torn_reads() const {
    return torn_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t resets() const {
    return resets_.load(std::memory_order_relaxed);
  }

  // {"window_ms": ..., "rotations": ..., "windows": [newest first]}
  std::string to_json() const;

 private:
  struct Slot;
  struct Baseline;

  void publish(const WindowStats& w);
  void collector_loop();
  void drain_reset_requests();

  const std::uint32_t nslots_;
  const std::uint64_t window_ms_;
  std::unique_ptr<Slot[]> ring_;
  std::unique_ptr<Baseline> base_;  // collector-side only
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::atomic<std::uint64_t> torn_reads_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread collector_;
};

// --- SIGUSR2 window reset ---------------------------------------------------

// Async-signal-safe: bumps the pending-reset counter; the collector's next
// tick (or the next rotate_now) drains it. SIGUSR2 calls this when the
// handler is installed.
void request_window_reset() noexcept;

// Installs the SIGUSR2 -> request_window_reset() handler. Called by
// WindowedMetrics::start(); tests may call it directly.
void install_window_reset_signal_handler() noexcept;

// --- process-wide collector -------------------------------------------------

// The lazily created process-wide instance, sized from the env knobs on
// first use. NOT started automatically — the admin endpoint
// (server/admin.h) or an explicit start_window_collector_from_env() call
// starts it, so a process that never asks for live metrics never runs the
// collector thread.
WindowedMetrics& global_windows();

// Starts global_windows() (idempotent) and installs the SIGUSR2 handler.
void start_window_collector_from_env();

}  // namespace semlock::obs
