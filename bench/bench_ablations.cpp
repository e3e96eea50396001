// Ablation benchmarks for the design choices DESIGN.md calls out, all on
// the ComputeIfAbsent workload (the most synchronization-bound benchmark):
//
//   1. Lock partitioning on/off (Section 5.2): without partitioning all
//      modes share one internal lock — the mechanism itself becomes the
//      bottleneck even though the modes commute.
//   2. Abstract-value count (phi range 1..64, Section 5.1): n=1 degrades to
//      instance-exclusive locking; larger n approaches per-key striping.
//   3. Symbolic-set refinement (Section 4) vs generic lock(+) (Section 3):
//      lock(+) makes every transaction conflict (the 2PL shape).
//   4. Counter cache-line padding (ModeTableConfig::pad_counters).
#include <memory>

#include "adt/striped_hash_map.h"
#include "apps/harness.h"
#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "semlock/semantic_lock.h"

namespace {

using namespace semlock;
using commute::Value;

// Minimal ComputeIfAbsent over a semantic lock with a configurable table.
class AblationCia {
 public:
  AblationCia(const ModeTableConfig& cfg, bool refined)
      : table_(ModeTable::compile(commute::map_spec(), sites(refined), cfg)),
        lock_(table_),
        refined_(refined),
        map_(256) {}

  void compute_if_absent(Value key) {
    int mode;
    if (refined_) {
      const Value vals[1] = {key};
      mode = lock_.lock_site(0, vals);
    } else {
      mode = table_.resolve_constant(0);
      lock_.lock(mode);
    }
    if (!map_.contains_key(key)) {
      map_.put(key, std::make_shared<std::vector<char>>(128));
    }
    lock_.unlock(mode);
  }

 private:
  static std::vector<commute::SymbolicSet> sites(bool refined) {
    using commute::op;
    using commute::star;
    using commute::var;
    if (refined) {
      return {commute::SymbolicSet({op("containsKey", {var("k")}),
                                    op("put", {var("k"), star()})})};
    }
    // lock(+): the Section 3 generic set.
    return {commute::SymbolicSet(
        {op("get", {star()}), op("put", {star(), star()}),
         op("remove", {star()}), op("containsKey", {star()}), op("size"),
         op("clear")})};
  }

  ModeTable table_;
  SemanticLock lock_;
  bool refined_;
  adt::StripedHashMap<Value, std::shared_ptr<std::vector<char>>> map_;
};

double run_variant(const ModeTableConfig& cfg, bool refined,
                   std::size_t threads, std::size_t ops) {
  apps::SweepConfig sweep;
  sweep.ops_per_thread = ops;
  return apps::measure<AblationCia>(
      sweep, threads,
      [&] { return std::make_unique<AblationCia>(cfg, refined); },
      [&](AblationCia& m, std::size_t, util::Xoshiro256& rng,
          std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          m.compute_if_absent(
              static_cast<Value>(rng.next_below(1 << 18)));
        }
      });
}

}  // namespace

int main() {
  using namespace semlock::bench;
  const auto ops =
      static_cast<std::size_t>(30'000 * scale_factor());

  print_figure_header("Ablations",
                      "design-choice ablations on ComputeIfAbsent");

  {
    semlock::util::SeriesTable t("threads", "ops/ms");
    t.set_series({"partitioned", "single-mechanism"});
    for (const std::size_t threads : default_threads()) {
      ModeTableConfig on;
      on.abstract_values = 64;
      ModeTableConfig off = on;
      off.partition = false;
      t.add_row(static_cast<double>(threads),
                {run_variant(on, true, threads, ops),
                 run_variant(off, true, threads, ops)});
    }
    std::printf("--- Ablation 1: lock partitioning (Section 5.2)\n");
    print_results(t);
  }

  {
    semlock::util::SeriesTable t("threads", "ops/ms");
    t.set_series({"n=1", "n=4", "n=16", "n=64"});
    for (const std::size_t threads : default_threads()) {
      std::vector<double> row;
      for (const int n : {1, 4, 16, 64}) {
        ModeTableConfig cfg;
        cfg.abstract_values = n;
        row.push_back(run_variant(cfg, true, threads, ops));
      }
      t.add_row(static_cast<double>(threads), row);
    }
    std::printf("--- Ablation 2: abstract-value count (phi range)\n");
    print_results(t);
  }

  {
    semlock::util::SeriesTable t("threads", "ops/ms");
    t.set_series({"refined (Sec.4)", "lock(+) (Sec.3)"});
    for (const std::size_t threads : default_threads()) {
      ModeTableConfig cfg;
      cfg.abstract_values = 64;
      t.add_row(static_cast<double>(threads),
                {run_variant(cfg, true, threads, ops),
                 run_variant(cfg, false, threads, ops)});
    }
    std::printf("--- Ablation 3: symbolic-set refinement\n");
    print_results(t);
  }

  {
    semlock::util::SeriesTable t("threads", "ops/ms");
    t.set_series({"packed counters", "padded counters"});
    for (const std::size_t threads : default_threads()) {
      ModeTableConfig packed;
      packed.abstract_values = 64;
      ModeTableConfig padded = packed;
      padded.pad_counters = true;
      t.add_row(static_cast<double>(threads),
                {run_variant(packed, true, threads, ops),
                 run_variant(padded, true, threads, ops)});
    }
    std::printf("--- Ablation 4: counter cache-line padding\n");
    print_results(t);
  }
  return 0;
}
