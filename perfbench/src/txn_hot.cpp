// txn_hot: 3 closed-loop callers call CCBackend::execute on a SEMANTIC
// backend directly (no server). The stream is the "bank" mix (70% transfer
// in Move mode, 30% audit in Audit mode) over 16 accounts at Zipf theta
// 0.99, so most of the work is lock acquisition and waiting on a few hot
// instances. Each round executes the whole pre-generated stream once on a
// fresh backend, each caller a fixed slice of it.
#include <atomic>
#include <memory>
#include <string>

#include "common.h"
#include "semlock/history.h"

namespace perfbench {

namespace {

using namespace semlock::server;

constexpr std::size_t kOpsPerRound = 600000;
constexpr std::size_t kCheckedOps = 3000;

// Runs stream[0, n) on `backend` from kCallers threads, caller c taking the
// c-th contiguous slice. Returns {wall ns, requests executed}.
std::pair<std::uint64_t, std::uint64_t> run_slices(
    CCBackend* backend, const std::vector<Request>& stream, std::size_t n) {
  std::atomic<std::uint64_t> executed{0};
  const std::uint64_t wall = run_callers(kCallers, [&](int c) {
    const std::size_t lo = n * static_cast<std::size_t>(c) / kCallers;
    const std::size_t hi = n * static_cast<std::size_t>(c + 1) / kCallers;
    for (std::size_t i = lo; i < hi; ++i) backend->execute(stream[i]);
    executed.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  return {wall, executed.load(std::memory_order_relaxed)};
}

}  // namespace

void run_txn_hot(const Options& opt, Result* out) {
  const StoreConfig store = txn_hot_store();
  const std::uint64_t g0 = now_ns();
  const std::vector<Request> stream = txn_hot_stream(opt.seed, kOpsPerRound);
  const double schedule_s = seconds_between(g0, now_ns());
  const std::size_t n = stream.size();
  const std::int64_t expected_balance = store.accounts * store.initial_balance;

  TimedBackend timed(n);
  std::vector<RoundFigures> figures;
  std::vector<double> setup_s, ops_untraced, ops_traced;
  std::vector<Span> spans;
  LockLedger ledger;

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds) * 1000000000ULL;
  for (int round = 0; round < kMinRounds || now_ns() < deadline; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    const std::uint64_t s0 = now_ns();
    std::unique_ptr<CCBackend> backend =
        make_cc_backend(CCMode::kSemantic, store);
    setup_s.push_back(seconds_between(s0, now_ns()));
    timed.reset(backend.get(), traced);

    const double steal0 = host_steal_ms();
    const auto [wall, executed] = run_slices(&timed, stream, n);
    const double steal_ms = host_steal_ms() - steal0;
    out->attempted += n;
    out->failed += n - executed;
    if (executed != n) out->violation("a caller did not finish its slice");
    if (backend->balance_total() != expected_balance) {
      out->violation("balance_total not conserved");
    }
    const double ops = static_cast<double>(n) * 1e9 / static_cast<double>(wall);
    if (!traced) {
      ops_untraced.push_back(ops);
      figures.push_back(
          round_figures(timed.starts(), timed.ends(), ops, steal_ms));
    } else {
      ops_traced.push_back(ops);
      timed.collect_stats(&ledger, n, out);
      spans = timed.spans();
    }
  }

  // Short checked replay, outside the timed rounds.
  {
    semlock::HistoryRecorder recorder;
    std::unique_ptr<CCBackend> checked =
        make_cc_backend(CCMode::kSemantic, store, &recorder);
    if (run_slices(checked.get(), stream, kCheckedOps).second != kCheckedOps) {
      out->violation("checked replay did not execute every request");
    }
    if (checked->balance_total() != expected_balance) {
      out->violation("checked replay: balance_total not conserved");
    }
    const semlock::SerializabilityReport ser =
        semlock::check_conflict_serializability(recorder.snapshot());
    if (!ser.serializable) {
      out->violation("checked replay not serializable: " + ser.to_string());
    }
  }

  out->note("rounds", static_cast<double>(ops_untraced.size() +
                                          ops_traced.size()));
  out->note("calls_per_round", static_cast<double>(n));
  out->add("setup_s", median(setup_s), "s");
  add_round_figures(out, figures);

  if (!opt.trace) return;
  add_zero_metrics(out, kServerLayerMetrics);
  add_exec_split(out, spans);
  ledger.report(out);
  out->add("setup.schedule_s", schedule_s, "s");
  out->add("setup.backend_s", median(setup_s), "s");
  out->add("setup.prefill_s", 0.0, "s");
  out->add("setup.mode_table_us", mode_table_compile_us(Tables::kServer),
           "us");
  out->add("trace.overhead_frac",
           median(ops_untraced) / median(ops_traced) - 1.0, "fraction");
  if (!opt.spans_path.empty() && !write_spans(opt.spans_path, spans)) {
    out->violation("cannot write spans to " + opt.spans_path);
  }
}

}  // namespace perfbench
