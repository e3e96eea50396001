// Tracing overhead (ISSUE 10): what does the observability layer cost when
// compiled in, switched off and switched on?
//
//   off_a / off_b — tracing fully disabled (the shipped default): two
//       IDENTICAL legs, interleaved round-robin with the other. Their
//       disagreement is the measurement noise floor, and CI's bench-smoke
//       asserts the best-of-rounds |off_a - off_b| / off_a < 3% — the
//       compiled-in-but-off configuration must be indistinguishable from
//       itself run twice, i.e. the trace gates cost less than the noise
//       they hide in.
//   on — tracing on: the full recording cost of the op's six events
//       (txn_begin, acquire_begin, optimistic_hit, release, unlock_all,
//       txn_end), informational; a traced run has opted into paying for
//       it. EXPERIMENTS.md §20 has the figures.
//
// The measured op is one Transaction opening and releasing a self-commuting
// mode — the exact shape that crosses every trace gate (the transaction's
// begin/end events, the lock path's event checks) without ever blocking,
// so the numbers are gate and recording cost, not contention.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "obs/trace.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"
#include "util/stats.h"

namespace {

using namespace semlock;
using commute::op;
using commute::SymbolicSet;
using commute::Value;

ModeTable make_table(bool traced) {
  ModeTableConfig c;
  c.abstract_values = 64;
  c.trace_events = traced;
  return ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("containsKey", {commute::var("k")}),
                    op("put", {commute::var("k"), commute::star()})})},
      c);
}

// One timed leg: `ops` transactions over the given lock. Returns ns/op.
double run_leg(SemanticLock& lock, int mode, std::size_t ops) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    Transaction txn;
    txn.lv_mode(&lock, mode);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semlock::bench;

  std::string json_path = "BENCH_trace_overhead.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  print_figure_header("Trace overhead",
                      "tracing cost: compiled-in-but-off vs on");

  // The off legs measure a ~70ns op's noise floor, so each leg must be long
  // enough that a scheduler hiccup cannot move its whole mean: the smoke
  // scale (0.05) shrinks workloads, but never below 100k ops (~7ms) a leg.
  const std::size_t ops = std::max<std::size_t>(
      static_cast<std::size_t>(200'000 * scale_factor()), 100'000);
  constexpr int kRounds = 15;

  // Separate instances so the on leg's obs state never touches the
  // off-legs' lock. The untraced table is compiled before any trace enable
  // so its trace_events default stays off.
  const ModeTable untraced = make_table(false);
  const ModeTable traced = make_table(true);
  SemanticLock lock_off_a(untraced);
  SemanticLock lock_off_b(untraced);
  SemanticLock lock_on(traced);
  const Value vals[1] = {42};
  const int mode_off = untraced.resolve(0, vals);
  const int mode_on = traced.resolve(0, vals);

  util::SeriesTable table("round", "ns/op");
  table.set_series({"off_a", "off_b", "on"});

  std::vector<double> off_a, off_b;
  // Warmup: fault in rings, registries, and the branch predictors on every
  // lock, and run long enough to get past CPU frequency ramp-up — the
  // first measured round must not be the one paying for a cold clock.
  (void)run_leg(lock_off_a, mode_off, ops);
  (void)run_leg(lock_off_b, mode_off, ops);
  {
    obs::ScopedTraceEnable trace_on;
    (void)run_leg(lock_on, mode_on, ops);
  }

  for (int round = 0; round < kRounds; ++round) {
    // Alternate which off leg runs first: the first leg of a round starts
    // with the caches the previous round's traced leg left behind, and
    // that position penalty must not land on the same leg every time.
    double a, b;
    if (round % 2 == 0) {
      a = run_leg(lock_off_a, mode_off, ops);
      b = run_leg(lock_off_b, mode_off, ops);
    } else {
      b = run_leg(lock_off_b, mode_off, ops);
      a = run_leg(lock_off_a, mode_off, ops);
    }
    double on;
    {
      obs::ScopedTraceEnable trace_on;
      on = run_leg(lock_on, mode_on, ops);
    }
    off_a.push_back(a);
    off_b.push_back(b);
    table.add_row(round, {a, b, on});
    std::printf("round %d: off_a=%.2f ns/op  off_b=%.2f  on=%.2f\n", round,
                a, b, on);
  }

  // The CI-asserted delta compares the MINIMUM across rounds: scheduler
  // noise is strictly additive on this op, so the per-leg minimum is the
  // robust estimate of its true cost (medians ride along for context).
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double min_a = *std::min_element(off_a.begin(), off_a.end());
  const double min_b = *std::min_element(off_b.begin(), off_b.end());
  const double delta_pct =
      min_a > 0 ? 100.0 * std::abs(min_a - min_b) / min_a : 0.0;
  util::SeriesTable summary("leg", "ns/op");
  summary.set_series({"min_ns_per_op", "median_ns_per_op", "off_delta_pct"});
  summary.add_row(0, {min_a, median(off_a), delta_pct});
  summary.add_row(1, {min_b, median(off_b), delta_pct});

  std::printf(
      "\ncompiled-in-but-off: best %.2f vs %.2f ns/op (delta %.2f%%, CI "
      "bound 3%%)\n",
      min_a, min_b, delta_pct);
  print_results(table);

  if (!write_bench_json(json_path, "trace_overhead",
                        {{"ns_per_op", &table},
                         {"off_legs_summary", &summary}})) {
    return 1;
  }
  return 0;
}
