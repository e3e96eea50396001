// Fairness under a commuting flood: the adversarial workload behind ISSUE 7.
//
// Three reader threads flood a self-commuting mode R = {contains(*)} while
// one writer thread repeatedly acquires the conflicting mode
// W = {add(*), remove(*)}. Under the historical Free grant policy the
// readers' counters rarely reach zero together, so the writer's worst-case
// wait is unbounded — the medians look fine while max_wait_ns runs away.
// The sweep runs the identical workload under every grant policy
// (runtime::ScopedGrantPolicy) and reports the writer's wait distribution
// (p50/p99/p999/max of the per-acquisition lock latency) next to the reader
// throughput it cost: FIFO caps the tail hardest but serializes the flood,
// PHASE_FAIR and BOUNDED_BYPASS trade between the two.
//
// Emits BENCH_fairness.json (override with --json=PATH).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "runtime/grant_policy.h"
#include "semlock/lock_mechanism.h"
#include "util/stats.h"
#include "util/thread_team.h"

namespace {

using namespace semlock;

constexpr std::size_t kReaders = 3;

ModeTable make_flood_table() {
  using commute::op;
  using commute::star;
  using commute::SymbolicSet;
  // ModeTableConfig defaults pick up the ambient grant policy installed by
  // the ScopedGrantPolicy around each sweep cell.
  ModeTableConfig cfg;
  return ModeTable::compile(
      commute::set_spec(),
      {
          SymbolicSet({op("contains", {star()})}),
          SymbolicSet({op("add", {star()}), op("remove", {star()})}),
      },
      cfg);
}

struct PolicyResult {
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t max_ns = 0;
  double reader_ops_per_ms = 0;
  double writer_ops_per_ms = 0;
};

PolicyResult run_policy(runtime::GrantPolicyKind policy,
                        std::size_t writer_ops,
                        semlock::bench::AcquireTally* tally) {
  runtime::ScopedGrantPolicy scope(policy);
  const ModeTable table = make_flood_table();
  LockMechanism mech(table);
  const int read_mode = table.resolve_constant(0);
  const int write_mode = table.resolve_constant(1);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_ops{0};
  util::Log2Histogram writer_wait;
  std::uint64_t writer_max_ns = 0;

  const auto start = std::chrono::steady_clock::now();
  util::run_team(kReaders + 1, [&](std::size_t tid) {
    auto& stats = local_acquire_stats();
    stats.reset();
    if (tid == 0) {
      // The writer: every acquisition conflicts with the flood. The measured
      // latency includes the uncontended acquire cost, but under contention
      // it is dominated by the wait the grant policy did (or didn't) bound.
      for (std::size_t i = 0; i < writer_ops; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        mech.lock(write_mode);
        const auto waited = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        mech.unlock(write_mode);
        writer_wait.add(waited);
        if (waited > writer_max_ns) writer_max_ns = waited;
      }
      stop.store(true, std::memory_order_release);
    } else {
      // A reader: flood the self-commuting mode until the writer is done,
      // so the conflicting counters stay hot for the writer's whole run.
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        mech.lock(read_mode);
        mech.unlock(read_mode);
        ++ops;
      }
      reader_ops.fetch_add(ops, std::memory_order_relaxed);
    }
    if (tally) tally->collect(stats);
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  PolicyResult r;
  r.p50_ns = writer_wait.p50();
  r.p99_ns = writer_wait.p99();
  r.p999_ns = writer_wait.p999();
  r.max_ns = writer_max_ns;
  r.reader_ops_per_ms =
      static_cast<double>(reader_ops.load(std::memory_order_relaxed)) / ms;
  r.writer_ops_per_ms = static_cast<double>(writer_ops) / ms;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semlock::bench;
  std::string json_path = "BENCH_fairness.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  print_figure_header(
      "Fairness sweep",
      "writer wait tail vs. reader throughput under a commuting flood, per "
      "grant policy");

  const auto writer_ops =
      static_cast<std::size_t>(2'000 * scale_factor()) + 1;
  const runtime::GrantPolicyKind policies[] = {
      runtime::GrantPolicyKind::Free,
      runtime::GrantPolicyKind::PhaseFair,
      runtime::GrantPolicyKind::BoundedBypass,
  };

  std::printf(
      "%zu readers flooding contains(*), 1 writer x %zu add/remove "
      "acquisitions\n"
      "policy rows: 0=free 1=phase-fair 2=bounded-bypass (K=%u)\n\n",
      kReaders, writer_ops,
      static_cast<unsigned>(runtime::default_bypass_bound()));

  util::SeriesTable wait_tbl("policy", "ns");
  wait_tbl.set_series({"p50", "p99", "p999", "max"});
  util::SeriesTable tput_tbl("policy", "ops/ms");
  tput_tbl.set_series({"readers", "writer"});

  for (std::size_t p = 0; p < std::size(policies); ++p) {
    AcquireTally tally;
    // Warm-up cell shakes out first-touch allocation; the measured cell runs
    // the full workload.
    run_policy(policies[p], writer_ops / 10 + 1, nullptr);
    const PolicyResult r = run_policy(policies[p], writer_ops, &tally);
    std::printf("[%s] writer wait p50=%llu p99=%llu p999=%llu max=%llu ns; "
                "readers %.0f ops/ms, writer %.1f ops/ms\n",
                runtime::grant_policy_name(policies[p]),
                static_cast<unsigned long long>(r.p50_ns),
                static_cast<unsigned long long>(r.p99_ns),
                static_cast<unsigned long long>(r.p999_ns),
                static_cast<unsigned long long>(r.max_ns),
                r.reader_ops_per_ms, r.writer_ops_per_ms);
    tally.print(runtime::grant_policy_name(policies[p]));
    wait_tbl.add_row(static_cast<double>(p),
                     {static_cast<double>(r.p50_ns),
                      static_cast<double>(r.p99_ns),
                      static_cast<double>(r.p999_ns),
                      static_cast<double>(r.max_ns)});
    tput_tbl.add_row(static_cast<double>(p),
                     {r.reader_ops_per_ms, r.writer_ops_per_ms});
  }
  std::printf("\n");
  print_results(wait_tbl);
  print_results(tput_tbl);

  if (!write_bench_json(json_path, "fairness",
                        {{"writer_wait_ns", &wait_tbl},
                         {"throughput_ops_per_ms", &tput_tbl}})) {
    return 1;
  }
  return 0;
}
