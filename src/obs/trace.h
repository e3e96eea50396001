// Runtime core of the semantic-lock observability layer (ISSUE 4).
//
// Always compiled into the library unless -DSEMLOCK_OBS=OFF, and runtime-
// gated so a disabled trace costs one relaxed load + branch per hook:
//
//   - the process-wide switch (SEMLOCK_TRACE=1, or ScopedTraceEnable in
//     tests/benches) feeds the default of ModeTableConfig::trace_events;
//   - each LockMechanism caches its table's trace_events flag and emits
//     events/metrics only when it is set;
//   - per-thread state (the SPSC event ring of ring.h, AcquireStats, the
//     conflict/latency accumulators of metrics.h)
//     registers itself with a process-wide registry on first use and
//     retires into it at thread exit, so dumps and metrics include threads
//     that are already gone.
//
// Environment knobs (strictly parsed; malformed values warn once on stderr
// and fall back, matching util/env convention):
//   SEMLOCK_TRACE=0|1        master switch (default 0).
//   SEMLOCK_TRACE_FILE=path  binary dump written at process exit when
//                            tracing is on (default "semlock_trace.bin";
//                            convert with tools/semlock-trace).
//   SEMLOCK_TRACE_EVENTS=N   per-thread ring capacity in events, rounded up
//                            to a power of two (default 8192, range
//                            64..4194304).
//   SEMLOCK_ATTRIBUTION=0|1, SEMLOCK_ATTRIBUTION_SAMPLE=N
//                            conflict-attribution knobs (obs/attribution.h).
//
// On-demand snapshots: SIGUSR1 (installed when SEMLOCK_TRACE=1) sets an
// async-signal-safe counter that the next emit() on any tracing thread
// drains by writing "<trace file>.snapN" plus a ".snapN.metrics.json"
// sidecar — a long bench or server can be inspected mid-run without waiting
// for the atexit dump.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "semlock/acquire_stats.h"

namespace semlock::obs {

// --- configuration ----------------------------------------------------------

inline constexpr std::uint32_t kDefaultRingEvents = 8192;
inline constexpr const char* kDefaultTraceFile = "semlock_trace.bin";

struct TraceConfig {
  bool enabled = false;
  std::uint32_t ring_events = kDefaultRingEvents;
  std::string file = kDefaultTraceFile;

  // Reads SEMLOCK_TRACE / SEMLOCK_TRACE_FILE / SEMLOCK_TRACE_EVENTS.
  static TraceConfig from_env();
};

// Testable strict parsers behind from_env (tests/env_config_test.cpp).
// nullptr (unset) silently yields the default; malformed text warns once on
// stderr naming the variable and falls back.
bool trace_enabled_from_env_text(const char* text);
std::uint32_t trace_ring_events_from_env_text(const char* text);
std::string trace_file_from_env_text(const char* text);

// --- process-wide runtime switch --------------------------------------------

namespace detail {
extern std::atomic<bool> g_runtime_enabled;
extern std::atomic<std::uint64_t> g_next_txn;

struct TxnTls {
  std::uint64_t id = 0;  // 0 until current_txn() assigns one
  std::uint32_t depth = 0;
};
inline TxnTls& txn_tls() noexcept {
  thread_local TxnTls tls;
  return tls;
}
}  // namespace detail

// The ambient default for ModeTableConfig::trace_events and the gate for
// process-level events (transaction epilogues, harness marks).
inline bool runtime_enabled() noexcept {
  return detail::g_runtime_enabled.load(std::memory_order_relaxed);
}
void set_runtime_enabled(bool on) noexcept;

// RAII enable for tests and benches: tables compiled inside the scope trace
// by default, and process-level hooks fire.
class ScopedTraceEnable {
 public:
  ScopedTraceEnable() : prev_(runtime_enabled()) { set_runtime_enabled(true); }
  ScopedTraceEnable(const ScopedTraceEnable&) = delete;
  ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;
  ~ScopedTraceEnable() { set_runtime_enabled(prev_); }

 private:
  bool prev_;
};

// Ring capacity used for threads that emit their first event from now on.
std::uint32_t ring_capacity() noexcept;
void set_ring_capacity(std::uint32_t events) noexcept;

// --- transaction identity ---------------------------------------------------
// An outermost Transaction gets a process-unique id the first time anything
// asks for it (current_txn(), current_owner_id()); events emitted while it is
// open are stamped with it. Nested transactions share the outer id. An
// untraced transaction never asks, so it only bumps the thread-local depth
// and consumes no id.

inline void txn_begin() noexcept { ++detail::txn_tls().depth; }

inline void txn_end() noexcept {
  detail::TxnTls& tls = detail::txn_tls();
  if (tls.depth > 0 && --tls.depth == 0) tls.id = 0;
}

// The open transaction's id, assigned on this first request (0 outside any
// transaction).
inline std::uint64_t current_txn() noexcept {
  detail::TxnTls& tls = detail::txn_tls();
  if (tls.id == 0 && tls.depth > 0) {
    tls.id = detail::g_next_txn.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return tls.id;
}

// Identity of the caller for attribution records: the open transaction id,
// or (outside any transaction) the thread's obs tid with the top bit set so
// the two id spaces never collide.
std::uint64_t current_owner_id() noexcept;
inline constexpr std::uint64_t kThreadOwnerBit = 0x8000000000000000ull;

// "txn 12" / "thread 3" / "?" — shared rendering of the owner-id space for
// chains, reports, and the wait graph.
std::string format_owner(std::uint64_t owner);

// --- emission (callers gate: LockMechanism on its cached trace_events flag,
// --- process-level sites on runtime_enabled()) ------------------------------

// `payload` is the per-type payload of the type word (obs/event.h): the
// lock site of a grant, which the hold-time profiler stamps its HoldSample
// with; the blocker mode of a wait or park; the class of an attribution.
void emit(EventType type, const void* instance, int mode, int payload = -1);

// Exact per-EventType totals across all threads, live and retired. Each
// tracing thread owns a cache line of relaxed atomic counters bumped in
// emit() (single-writer, so the bump is a load+store, not an RMW); readers
// sum them race-free from any thread. This is the safely-scrapeable live
// view the window collector (obs/window.h) rotates against — the plain
// AcquireStats fast-path counters stay exact-at-quiescence only.
std::array<std::uint64_t, kNumEventTypes> event_count_totals();

// The thread's AcquireStats, owned by the obs thread state so the counters
// are folded into the MetricsRegistry at thread exit (merge-on-exit).
// semlock::local_acquire_stats() forwards here when SEMLOCK_OBS is on.
AcquireStats& thread_acquire_stats();

// Metrics hooks for the contended path of the lock mechanism.
void record_blocked_by(const void* instance, int waiter_mode,
                       int holder_mode);
void record_wait(const void* instance, int mode, std::uint64_t wait_ns);
// One classified contended wait (attr_class is an obs::AttrClass index);
// folded into the per-instance and per-mode-pair attribution tallies of
// MetricsSnapshot. Called by obs::record_attribution (obs/attribution.h).
void record_attribution_tally(const void* instance, int waiter_mode,
                              int holder_mode, std::uint32_t attr_class);

// --- snapshots and dumps ----------------------------------------------------

struct ThreadTrace {
  std::uint32_t tid = 0;  // small process-unique thread number
  bool live = false;      // still registered at snapshot time
  std::vector<Event> events;  // oldest first
};

// Retired threads' retained events plus a racy-but-consistent snapshot of
// the live threads' rings, ordered by tid.
std::vector<ThreadTrace> snapshot_traces();

// Human-readable post-mortem for a stalled wait: which conflicting modes
// are held, the transaction that last acquired each, and the tail of the
// per-thread rings filtered to the instance. Called by the StallWatchdog.
std::string stall_forensics(
    const void* instance, int waited_mode,
    const std::vector<std::pair<int, std::uint32_t>>& conflicting_holders,
    std::size_t tail_events = 16);

// Writes the binary trace dump (events + metrics; format in export.h) to
// `path`. Returns false (with a stderr line) on I/O failure.
bool write_dump(const std::string& path);

// --- on-demand mid-run snapshots --------------------------------------------

// Async-signal-safe: bumps the pending-snapshot counter. The next emit() on
// any tracing thread claims it and writes "<trace file>.snapN" (binary dump)
// plus "<trace file>.snapN.metrics.json". SIGUSR1 calls this when the
// handler is installed.
void request_snapshot() noexcept;

// Installs the SIGUSR1 -> request_snapshot() handler. Done automatically at
// startup when SEMLOCK_TRACE=1; tests and benches that enable tracing via
// ScopedTraceEnable call it themselves.
void install_snapshot_signal_handler() noexcept;

// Number of snapshot files written so far (monotonic across the process).
std::uint32_t snapshots_written() noexcept;

// Sets the base path snapshots (and the atexit dump, when enabled) derive
// their names from. Overrides SEMLOCK_TRACE_FILE.
void set_trace_file(const std::string& path);

// Test hook: drops retired-thread data, zeroes the folded global totals and
// the calling thread's own ring/stats/accumulators, and resets the txn
// counter. Other live threads are left untouched.
void reset_for_test();

}  // namespace semlock::obs
