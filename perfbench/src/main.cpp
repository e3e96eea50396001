// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload (server_open, txn_hot or cia_hits) for about S seconds
// of measured rounds, checks its outputs, and prints as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 1
// adds the traced rounds, the single-thread rung ladder and the per-layer
// metrics, and writes the last traced round's spans to PATH. Exits 1 when a
// check fails, 2 on bad arguments or a thread budget the host cannot hold.
#include <sched.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Result;

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (flag == "--workload" && value != nullptr) {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, &v)) {
      opt->seed = v;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, &v) && v >= 1 &&
               v <= 3600) {
      opt->seconds = static_cast<int>(v);
    } else if (flag == "--trace" && parse_u64(value, &v) && v <= 1) {
      opt->trace = v == 1;
    } else if (flag == "--spans" && value != nullptr) {
      opt->spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", flag.c_str());
      return false;
    }
    ++i;
  }
  if (!have_workload || !have_seed) {
    std::fprintf(stderr, "perfbench: --workload and --seed are required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;

  void (*run)(const Options&, Result*) = nullptr;
  int threads = 0;
  if (opt.workload == "server_open") {
    run = perfbench::run_server_open;
    threads = perfbench::kServerWorkers + 1;  // workers + dispatcher
  } else if (opt.workload == "txn_hot") {
    run = perfbench::run_txn_hot;
    threads = perfbench::kCallers;
  } else if (opt.workload == "cia_hits") {
    run = perfbench::run_cia_hits;
    threads = perfbench::kCallers;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  // Busy threads must leave one CPU for the rest of the host: with every
  // CPU taken, the tail follows the scheduler, not the system under test.
  const int nproc = online_cpus();
  if (threads > nproc - 1) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d busy threads; refusing on %d CPUs "
                 "(at most nproc - 1 = %d)\n",
                 opt.workload.c_str(), threads, nproc, nproc - 1);
    return 2;
  }
  std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %d, \"trace\": %d, \"nproc\": %d, "
              "\"busy_threads\": %d, \"build_type\": \"%s\"}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, nproc, threads,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Result result;
  const double steal0 = perfbench::host_steal_ms();
  run(opt, &result);
  const double steal_ms = perfbench::host_steal_ms() - steal0;
  if (opt.trace) {
    perfbench::run_ladder(opt.seed, &result);
    result.add("host.steal_ms", steal_ms, "ms");
  }

  std::printf("{\"info\": {\"host.steal_ms\": %.17g", steal_ms);
  for (const auto& [name, value] : result.info) {
    std::printf(", \"%s\": %.17g", name.c_str(), value);
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
