// Per-instance memory footprint of the two counter-storage policies, on one
// shared 8-mode table: 7 per-value {add(v),remove(v)} modes + {size,clear},
// the widest table the packed word accepts (8 modes x 7 bits + W <= 64).
// Every mode conflicts with itself, so neither column has a stripe bank.
//
//   striped  one atomic per mode in the mechanism's slab, waiting under
//            spin-then-park: the footprint includes its one-slot ParkingLot
//   packed   the whole table in the mechanism's word, waiting under
//            futex-word on the word itself: no ParkingLot
//
// Fleets of 1k / 100k / 1M real LockMechanism instances are materialized
// over the table. Three metrics per storage:
//
//   bytes_per_instance  exact, from LockMechanism::footprint_bytes()
//   cold_ops_per_ms     first-touch lock/unlock across the whole fleet —
//                       the working-set effect the packed word exists for
//   contended_ops_per_ms exclusive churn on ONE instance at 1, 2 and 4
//                       threads — guards packed against a contended-path
//                       regression
//
// Emits BENCH_footprint.json and fails when packed is not at least 1.9x
// smaller than striped per instance; the run stamp carries scaling_claims
// so CI can refuse to read single-core numbers as scaling figures.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "semlock/lock_mechanism.h"
#include "util/stats.h"
#include "util/thread_team.h"

namespace {

using namespace semlock;
using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::var;

struct StorageConfig {
  const char* name;
  StorageKind storage;
  runtime::WaitPolicyKind wait_policy;
};

constexpr StorageConfig kConfigs[] = {
    {"striped", StorageKind::Striped, runtime::WaitPolicyKind::SpinThenPark},
    {"packed", StorageKind::Packed, runtime::WaitPolicyKind::FutexWord},
};

// Acceptance bound: packed stays at least this many times smaller than
// striped per instance.
constexpr double kMinFootprintRatio = 1.9;

// 7 per-value {add(v),remove(v)} modes + {size,clear}: 8 canonical modes,
// the widest table the packed word accepts.
ModeTable make_table(const StorageConfig& sc) {
  ModeTableConfig cfg;
  cfg.abstract_values = 7;
  cfg.storage = sc.storage;
  cfg.wait_policy = sc.wait_policy;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      cfg);
}

struct FleetResult {
  double bytes_per_instance = 0;
  double cold_ops_per_ms = 0;
};

FleetResult fleet_cell(const ModeTable& table, std::size_t instances) {
  std::vector<std::unique_ptr<LockMechanism>> fleet;
  fleet.reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    fleet.push_back(std::make_unique<LockMechanism>(table));
  }
  FleetResult r;
  r.bytes_per_instance =
      static_cast<double>(fleet.front()->footprint_bytes());
  // Cold sweep: one uncontended lock/unlock of the exclusive {size,clear}
  // mode on every instance — each acquisition touches a distinct
  // instance's counters, so throughput tracks the storage's cache
  // footprint rather than the acquire path alone.
  const int mode = table.resolve_constant(1);
  const auto start = std::chrono::steady_clock::now();
  for (auto& m : fleet) {
    m->lock(mode);
    m->unlock(mode);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  r.cold_ops_per_ms = ms > 0 ? static_cast<double>(instances) / ms : 0.0;
  return r;
}

// Churn on one instance, 99% on add(0) and thread 0's 1% on {size,clear}:
// both modes conflict with themselves, so every acquisition excludes the
// others. Packed must stay within noise of striped here while being much
// smaller.
double contended_cell(const ModeTable& table, std::size_t threads,
                      std::size_t ops) {
  LockMechanism mech(table);
  const commute::Value v0[1] = {0};
  const int add_mode = table.resolve(0, v0);
  const int clear_mode = table.resolve_constant(1);
  const auto start = std::chrono::steady_clock::now();
  util::run_team(threads, [&](std::size_t tid) {
    for (std::size_t i = 0; i < ops; ++i) {
      const int mode = (i % 100 < 99 || tid != 0) ? add_mode : clear_mode;
      mech.lock(mode);
      mech.unlock(mode);
    }
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return ms > 0 ? static_cast<double>(threads * ops) / ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semlock::bench;
  std::string json_path = "BENCH_footprint.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  print_figure_header(
      "Storage footprint",
      "bytes/instance and throughput per counter representation");

  const std::size_t counts[] = {
      1'000,
      static_cast<std::size_t>(100'000 * scale_factor()),
      static_cast<std::size_t>(1'000'000 * scale_factor()),
  };

  util::SeriesTable bytes_tbl("instances", "bytes/instance");
  util::SeriesTable cold_tbl("instances", "ops/ms");
  std::vector<std::string> names;
  for (const auto& sc : kConfigs) names.emplace_back(sc.name);
  bytes_tbl.set_series(names);
  cold_tbl.set_series(names);

  double striped_bytes = 0, packed_bytes = 0;
  for (const std::size_t n : counts) {
    std::vector<double> bytes_cells, cold_cells;
    for (const auto& sc : kConfigs) {
      const ModeTable table = make_table(sc);
      const FleetResult r = fleet_cell(table, n);
      bytes_cells.push_back(r.bytes_per_instance);
      cold_cells.push_back(r.cold_ops_per_ms);
      if (sc.storage == StorageKind::Striped) {
        striped_bytes = r.bytes_per_instance;
      } else {
        packed_bytes = r.bytes_per_instance;
      }
    }
    bytes_tbl.add_row(static_cast<double>(n), bytes_cells);
    cold_tbl.add_row(static_cast<double>(n), cold_cells);
  }
  std::printf("bytes per instance:\n");
  print_results(bytes_tbl);
  std::printf("cold first-touch sweep:\n");
  print_results(cold_tbl);
  std::printf("striped/packed footprint ratio: %.2fx (acceptance: >= %.1fx)\n",
              packed_bytes > 0 ? striped_bytes / packed_bytes : 0.0,
              kMinFootprintRatio);

  util::SeriesTable churn_tbl("threads", "ops/ms");
  churn_tbl.set_series(names);
  const auto ops = static_cast<std::size_t>(100'000 * scale_factor());
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<double> cells;
    for (const auto& sc : kConfigs) {
      cells.push_back(contended_cell(make_table(sc), t, ops));
    }
    churn_tbl.add_row(static_cast<double>(t), cells);
  }
  std::printf("contended churn (one instance):\n");
  print_results(churn_tbl);

  if (!write_bench_json(json_path, "footprint",
                        {{"bytes_per_instance", &bytes_tbl},
                         {"cold_ops_per_ms", &cold_tbl},
                         {"contended_ops_per_ms", &churn_tbl}})) {
    return 1;
  }
  if (packed_bytes <= 0 || striped_bytes < kMinFootprintRatio * packed_bytes) {
    std::fprintf(stderr,
                 "FOOTPRINT REGRESSION: striped %.0f vs packed %.0f "
                 "bytes/instance (< %.1fx)\n",
                 striped_bytes, packed_bytes, kMinFootprintRatio);
    return 1;
  }
  return 0;
}
