// Shared pieces of the repository benchmark: options, the result record,
// fine-resolution percentiles, the timing decorator over CCBackend, span
// records, closed-loop callers and the per-thread lock statistics ledger.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "semlock/acquire_stats.h"
#include "server/cc_backend.h"
#include "server/request.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports: correctness, operation counts and named metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Sample counts and run shape, printed beside the metrics.
  std::vector<std::pair<std::string, double>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) {
    info.emplace_back(std::move(name), value);
  }
  // Records a violated correctness check (printed to stderr).
  void violation(const std::string& what);
};

// Nearest-rank quantile (rank ceil(q*n)); reorders `xs`. 0 when empty.
double quantile(std::vector<std::uint64_t>& xs, double q);
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

// Steal time the hypervisor charged to this VM so far (/proc/stat), in ms.
double host_steal_ms();

// --- spans -------------------------------------------------------------------
//
// One record per timed call (and per derived interval around it). All spans
// of one request or call share `req`; `parent` is the span name of the
// enclosing span, or -1 for a root.
enum SpanName : std::int16_t {
  kSpanRequest = 0,   // server: intended arrival -> execute returns
  kSpanQueue,         // server: intended arrival -> execute starts
  kSpanExecute,       // cc_backend: CCBackend::execute
  kSpanCia,           // apps: CiaModule::compute_if_absent
};

struct Span {
  std::uint64_t req = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int16_t name = kSpanExecute;
  std::int16_t parent = -1;
  std::uint8_t kind = 0;  // RequestKind, or 1 = insert / 0 = hit for kSpanCia
};

// Writes spans as TSV (header line first). Returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// --- lock statistics ---------------------------------------------------------

// Sums AcquireStats deltas over threads and rounds and turns them into the
// semlock.* and runtime.* per-layer metrics.
struct LockLedger {
  semlock::AcquireStats sum;
  std::uint64_t ops = 0;
  std::vector<double> round_max_wait_us;

  void add_thread(const semlock::AcquireStats& before,
                  const semlock::AcquireStats& after);
  void end_round(std::uint64_t round_ops, std::uint64_t round_max_wait_ns);
  void report(Result* out) const;
};

// Timing decorator over the public CCBackend interface. Records the start
// and end of every execute() by request id (ids must be dense in
// [0, capacity)). When tracing, also writes one kSpanExecute span per call
// and snapshots the calling thread's AcquireStats after each call, so lock
// statistics of threads the benchmark does not own (server workers) can be
// read after they exit.
class TimedBackend final : public semlock::server::CCBackend {
 public:
  static constexpr int kMaxThreads = 8;

  explicit TimedBackend(std::size_t capacity);

  // Points the decorator at a fresh backend and clears the records.
  void reset(semlock::server::CCBackend* inner, bool trace);

  semlock::server::ExecResult execute(
      const semlock::server::Request& r) override;
  semlock::server::CCMode mode() const override { return inner_->mode(); }
  std::int64_t balance_total() const override {
    return inner_->balance_total();
  }
  std::int64_t kv_inserted() const override { return inner_->kv_inserted(); }
  std::int64_t edges_present() const override {
    return inner_->edges_present();
  }
  std::uint64_t digest() const override { return inner_->digest(); }

  const std::vector<std::uint64_t>& starts() const { return start_; }
  const std::vector<std::uint64_t>& ends() const { return end_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Folds the per-thread statistics of the last run into `ledger`. More
  // executing threads than kMaxThreads is a violation recorded in `out`.
  void collect_stats(LockLedger* ledger, std::uint64_t round_ops,
                     Result* out) const;

 private:
  struct alignas(64) Slot {
    semlock::AcquireStats before;
    semlock::AcquireStats last;
  };

  semlock::server::CCBackend* inner_ = nullptr;
  bool trace_ = false;
  std::uint64_t generation_ = 0;
  std::vector<std::uint64_t> start_;
  std::vector<std::uint64_t> end_;
  std::vector<Span> spans_;
  std::atomic<int> threads_{0};
  Slot slots_[kMaxThreads];
};

// Starts `n` threads, releases them together and returns the wall time in
// ns from release until the last one finished. body(i) runs on thread i.
template <typename Body>
std::uint64_t run_callers(int n, Body&& body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(i);
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return now_ns() - t0;
}

// On a shared VM the hypervisor steals a varying few percent of CPU time in
// bursts of up to milliseconds, and lock-holder preemption turns a burst
// into a stall of every caller. End-to-end figures therefore come from the
// rounds it disturbed least: each untraced round records the steal time
// accumulated while it ran (/proc/stat, 10 ms resolution), and the figures
// are medians over the rounds whose steal is at most the rounds' first
// quartile. The selection looks only at steal, never at the figures.
struct RoundFigures {
  double steal_ms = 0.0;
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
// A closed-loop round's figures; call i ran [start[i], end[i]).
RoundFigures round_figures(const std::vector<std::uint64_t>& start,
                           const std::vector<std::uint64_t>& end,
                           double ops_per_s, double steal_ms);
std::vector<RoundFigures> quiet_rounds(std::vector<RoundFigures> rounds);
// Adds ops_per_s, p50_us and p99_us: medians over quiet_rounds(rounds).
void add_round_figures(Result* out, const std::vector<RoundFigures>& rounds);

// Per-layer metrics of a layer the workload does not exercise read 0.
void add_zero_metrics(Result* out, const std::vector<Metric>& names);
extern const std::vector<Metric> kServerLayerMetrics;
extern const std::vector<Metric> kExecSplitMetrics;

// Adds server.exec_ns.{transfer,audit}.{p50,p99} from execute spans.
void add_exec_split(Result* out, const std::vector<Span>& spans);

// Workloads and the single-thread rung ladder. Each fills `out`.
void run_server_open(const Options& opt, Result* out);
void run_txn_hot(const Options& opt, Result* out);
void run_cia_hits(const Options& opt, Result* out);
void run_ladder(std::uint64_t seed, Result* out);

// Median time to ModeTable::compile the tables a workload's system builds:
// the SEMANTIC backend's account and map tables, or the CIA module's table.
enum class Tables { kServer, kCia };
double mode_table_compile_us(Tables tables);

// Shapes shared by the workloads and the ladder.
inline constexpr int kCallers = 3;
// Every run measures at least this many rounds, whatever --seconds says.
inline constexpr int kMinRounds = 4;
inline constexpr int kServerWorkers = 2;
inline constexpr std::int64_t kHotAccounts = 16;
inline constexpr double kHotTheta = 0.99;
inline constexpr std::size_t kCiaHotKeys = 4096;
inline constexpr int kCiaNewPercent = 10;
semlock::server::StoreConfig txn_hot_store();
std::vector<semlock::server::Request> txn_hot_stream(std::uint64_t seed,
                                                     std::size_t n);
// CIA key streams: hot key i and never-seen key j are distinct for all i, j.
std::int64_t cia_hot_key(std::uint64_t seed, std::size_t i);
std::int64_t cia_new_key(std::uint64_t seed, std::size_t j);

}  // namespace perfbench
