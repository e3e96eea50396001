// Wait-policy comparison under oversubscription.
//
// The regime the runtime waiting subsystem exists for: more runnable
// threads than hardware contexts (1x / 2x / 4x hardware concurrency). Two
// scenarios, each swept over three ways to wait: spin-yield,
// spin-then-park, and park-now (spin-then-park with park_spin_limit = 0,
// which parks on the first failed attempt):
//
//   compute       — holders compute for the whole critical section. Shows
//                   the policies' bookkeeping cost and wakeup latency
//                   (wait wall time) under plain contention.
//   holder_offcpu — holders sometimes go off-CPU while holding (sleep
//                   standing in for preemption / page fault / I/O under
//                   lock — inevitable once runnable threads exceed cores).
//                   The regime parking exists for: yielding spinners are
//                   the only runnable threads left and burn the whole wait
//                   as CPU; parked waiters leave the core idle.
//
// Five metrics per (threads, policy) cell, all recorded to
// BENCH_oversubscription.json (override path with --json=PATH):
//   throughput_ops_per_ms — wall-clock throughput.
//   cpu_us_per_op      — process CPU per op: the machine-independent signal
//                        on hosts with too few cores for a wall-clock win.
//   parks_per_1k_ops   — how often waiters actually blocked (AcquireStats).
//   wait_cpu_us_per_op — CPU charged to waiters while waiting.
//   wait_us_per_op     — wall time those waits lasted.
//
// Workload: the paper's Set ADT with a striped {add(v),remove(v)} site (16
// alpha stripes, self-conflicting per stripe) plus a {size,clear} site that
// conflicts with everything — i.e. mostly-commuting traffic with a global
// conflict mixed in, the shape Figs. 21-25 share.
//
// `--wait-policy=NAME` restricts the sweep to one policy at its default
// spin budget;
// SEMLOCK_WATCHDOG_MS enables the stall watchdog during the run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "runtime/stall_watchdog.h"
#include "semlock/lock_mechanism.h"
#include "util/rng.h"
#include "util/thread_team.h"

namespace {

using namespace semlock;
using commute::op;
using commute::SymbolicSet;
using commute::Value;
using commute::var;
using runtime::WaitPolicyKind;

constexpr int kStripes = 16;
constexpr unsigned kGlobalConflictPercent = 90;

// The two regimes a waiter can find itself in:
//
//   compute       — the holder computes for its whole critical section. The
//                   contended-but-well-behaved case; measures the policies'
//                   bookkeeping and wakeup latency.
//   holder-offcpu — the holder occasionally goes off-CPU *while holding*
//                   (sleeping stands in for preemption or a page fault /
//                   I/O under lock, which is what actually happens once the
//                   runnable-thread count exceeds the core count). This is
//                   the regime parking exists for: a yielding spinner is the
//                   only runnable thread left, so it burns the entire wait
//                   as CPU; a parked waiter leaves the core idle.
struct Scenario {
  const char* name;
  int work_rounds;          // xorshift rounds inside the critical section
  unsigned sleep_percent;   // chance the holder sleeps inside the section
  int holder_sleep_us;      // how long it sleeps when it does
  std::size_t ops_per_thread;
};

std::uint64_t critical_work(std::uint64_t x, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One column of the sweep. park_now zeroes the spin budget.
struct WaitColumn {
  const char* name;
  WaitPolicyKind policy;
  bool park_now;
};

ModeTable make_table(const WaitColumn& column) {
  ModeTableConfig cfg;
  cfg.abstract_values = kStripes;
  cfg.wait_policy = column.policy;
  if (column.park_now) cfg.park_spin_limit = 0;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      cfg);
}

struct Cell {
  double ops_per_ms = 0.0;
  double cpu_us_per_op = 0.0;
  double parks_per_1k_ops = 0.0;
  // CPU the waiters themselves burned per contended wait vs how long the
  // wait lasted: THE policy discriminator on any host. A spinner's
  // wait-CPU tracks its wait duration; a parked waiter's stays near zero
  // no matter how long the holder keeps the mode.
  double wait_cpu_us_per_op = 0.0;
  double wait_us_per_op = 0.0;
};

Cell run_cell(const ModeTable& table, const Scenario& scenario,
              std::size_t threads, int timed_passes) {
  const std::size_t ops_per_thread = scenario.ops_per_thread;
  // Pre-resolve the per-stripe modes once; the bench measures waiting, not
  // mode resolution.
  std::vector<int> stripe_modes;
  for (int s = 0; s < kStripes; ++s) {
    const Value v[1] = {s};
    stripe_modes.push_back(table.resolve(0, v));
  }
  const int global_mode = table.resolve_constant(1);

  std::vector<double> wall_ms_per_pass;
  double cpu_seconds = 0.0;
  std::uint64_t parks = 0, wait_cpu_ns = 0, wait_ns = 0;
  for (int pass = 0; pass < 1 + timed_passes; ++pass) {
    LockMechanism mechanism(table);
    std::atomic<std::uint64_t> pass_parks{0};
    std::atomic<std::uint64_t> pass_wait_cpu_ns{0};
    std::atomic<std::uint64_t> pass_wait_ns{0};
    const double cpu_before = process_cpu_seconds();
    const auto result = util::run_team(threads, [&](std::size_t tid) {
      auto& stats = local_acquire_stats();
      stats.reset();
      util::Xoshiro256 rng(util::derive_seed(42, tid));
      std::uint64_t sink = tid + 1;
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const int mode =
            rng.chance_percent(kGlobalConflictPercent)
                ? global_mode
                : stripe_modes[rng.next_below(kStripes)];
        mechanism.lock(mode);
        sink = critical_work(sink, scenario.work_rounds);
        if (scenario.sleep_percent != 0 &&
            rng.chance_percent(scenario.sleep_percent)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(scenario.holder_sleep_us));
        }
        mechanism.unlock(mode);
      }
      if (sink == 0) std::abort();  // keep the work observable
      pass_parks.fetch_add(stats.parks);
      pass_wait_cpu_ns.fetch_add(stats.wait_cpu_ns);
      pass_wait_ns.fetch_add(stats.wait_ns);
    });
    const double cpu_after = process_cpu_seconds();
    if (pass >= 1) {  // skip warmup
      wall_ms_per_pass.push_back(result.wall_seconds * 1e3);
      cpu_seconds += cpu_after - cpu_before;
      parks += pass_parks.load();
      wait_cpu_ns += pass_wait_cpu_ns.load();
      wait_ns += pass_wait_ns.load();
    }
  }

  const double timed_ops = static_cast<double>(threads) *
                           static_cast<double>(ops_per_thread) *
                           static_cast<double>(timed_passes);
  Cell cell;
  cell.ops_per_ms =
      timed_ops / (util::mean(wall_ms_per_pass) *
                   static_cast<double>(timed_passes));
  cell.cpu_us_per_op = cpu_seconds * 1e6 / timed_ops;
  cell.parks_per_1k_ops = static_cast<double>(parks) * 1e3 / timed_ops;
  cell.wait_cpu_us_per_op = static_cast<double>(wait_cpu_ns) * 1e-3 /
                            timed_ops;
  cell.wait_us_per_op = static_cast<double>(wait_ns) * 1e-3 / timed_ops;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semlock::bench;

  std::string json_path = "BENCH_oversubscription.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  std::vector<WaitColumn> columns{
      {"spin-yield", WaitPolicyKind::SpinYield, false},
      {"spin-then-park", WaitPolicyKind::SpinThenPark, false},
      {"park-now", WaitPolicyKind::SpinThenPark, true},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--wait-policy=", 0) == 0) {
      const WaitPolicyKind policy = wait_policy_from_args(argc, argv);
      columns = {{runtime::wait_policy_name(policy), policy, false}};
    }
  }

  print_figure_header(
      "Oversubscription",
      "wait policies at 1x/2x/4x hardware concurrency (striped Set + global "
      "conflicts)");
  const auto watchdog = runtime::StallWatchdog::from_env();

  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  constexpr int kTimedPasses = 3;

  const Scenario scenarios[] = {
      {"compute", 8000, 0, 0, static_cast<std::size_t>(3'000 * scale_factor())},
      {"holder_offcpu", 500, 20, 50,
       static_cast<std::size_t>(1'000 * scale_factor())},
  };

  std::vector<std::string> series;
  series.reserve(columns.size());
  for (const WaitColumn& column : columns) series.push_back(column.name);

  // Keep the tables alive until write_bench_json reads them.
  std::vector<std::unique_ptr<util::SeriesTable>> tables;
  std::vector<std::pair<std::string, const util::SeriesTable*>> metrics;
  for (const Scenario& scenario : scenarios) {
    auto make = [&](const char* unit) {
      tables.push_back(std::make_unique<util::SeriesTable>("threads", unit));
      tables.back()->set_series(series);
      return tables.back().get();
    };
    util::SeriesTable* throughput = make("ops/ms");
    util::SeriesTable* cpu = make("cpu us/op");
    util::SeriesTable* park_rate = make("parks/1k ops");
    util::SeriesTable* wait_cpu = make("wait-cpu us/op");
    util::SeriesTable* wait_wall = make("wait us/op");

    for (const std::size_t multiplier : {1u, 2u, 4u}) {
      const std::size_t threads = multiplier * hw;
      std::vector<double> tp_row, cpu_row, park_row, wcpu_row, wwall_row;
      for (const WaitColumn& column : columns) {
        const auto table = make_table(column);
        const Cell cell = run_cell(table, scenario, threads, kTimedPasses);
        tp_row.push_back(cell.ops_per_ms);
        cpu_row.push_back(cell.cpu_us_per_op);
        park_row.push_back(cell.parks_per_1k_ops);
        wcpu_row.push_back(cell.wait_cpu_us_per_op);
        wwall_row.push_back(cell.wait_us_per_op);
      }
      throughput->add_row(static_cast<double>(threads), std::move(tp_row));
      cpu->add_row(static_cast<double>(threads), std::move(cpu_row));
      park_rate->add_row(static_cast<double>(threads), std::move(park_row));
      wait_cpu->add_row(static_cast<double>(threads), std::move(wcpu_row));
      wait_wall->add_row(static_cast<double>(threads), std::move(wwall_row));
    }

    std::printf("== scenario: %s ==\n", scenario.name);
    std::printf("throughput (higher is better):\n");
    print_results(*throughput);
    std::printf("process CPU burned per op (lower is better):\n");
    print_results(*cpu);
    std::printf("parking rate:\n");
    print_results(*park_rate);
    std::printf(
        "CPU burned by waiters while waiting (lower is better; compare "
        "with the wall time the waits lasted, below):\n");
    print_results(*wait_cpu);
    std::printf("wall time spent waiting:\n");
    print_results(*wait_wall);

    const std::string prefix = std::string(scenario.name) + ".";
    metrics.emplace_back(prefix + "throughput_ops_per_ms", throughput);
    metrics.emplace_back(prefix + "cpu_us_per_op", cpu);
    metrics.emplace_back(prefix + "parks_per_1k_ops", park_rate);
    metrics.emplace_back(prefix + "wait_cpu_us_per_op", wait_cpu);
    metrics.emplace_back(prefix + "wait_us_per_op", wait_wall);
  }

  return write_bench_json(json_path, "oversubscription", metrics) ? 0 : 1;
}
