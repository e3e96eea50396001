// semlock-server CLI: run one open-loop traffic replay against one
// concurrency-control mode and print the service report.
//
// All configuration comes from the SEMLOCK_SERVER_* environment knobs
// (src/server/config.h; strict parsing, loud fallbacks). Typical runs:
//
//   export SEMLOCK_SERVER_MODE=semantic SEMLOCK_SERVER_RATE=20000
//   SEMLOCK_SERVER_DURATION_MS=1000 build/tools/semlock-server
//
//   SEMLOCK_SERVER_MODE=occ SEMLOCK_SERVER_CHECKED=1 build/tools/semlock-server
//     (records every committed operation and runs the conflict-
//      serializability oracle over the merged history; exits 2 on violation)
//
// Flags:
//   --unpaced    dispatch as fast as admission control allows instead of
//                pacing to the schedule's intended arrivals (drain/stress).
//   --repeat=N   replay the schedule N times (1..1000000), back to back.
//                With SEMLOCK_METRICS_PORT set this is how you keep the
//                process under load long enough to scrape /metrics — the
//                CI metrics-endpoint-smoke job runs exactly that.
//
// When SEMLOCK_METRICS_PORT is set (1..65535), an admin endpoint serving
// /metrics, /metrics.json, and /healthz starts on 127.0.0.1:<port> for the
// lifetime of the process, and the window collector rotates on
// SEMLOCK_METRICS_WINDOW_MS (docs/SERVER.md).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "semlock/history.h"
#include "server/config.h"
#include "server/server.h"
#include "server/traffic_gen.h"

#if defined(SEMLOCK_OBS)
#include "server/admin.h"
#endif

using namespace semlock;
using namespace semlock::server;

int main(int argc, char** argv) {
  bool paced = true;
  long repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--unpaced") == 0) {
      paced = false;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      char* end = nullptr;
      repeat = std::strtol(argv[i] + 9, &end, 10);
      if (end == argv[i] + 9 || *end != '\0' || repeat < 1 ||
          repeat > 1000000) {
        std::fprintf(stderr, "bad --repeat value: %s\n", argv[i] + 9);
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--unpaced] [--repeat=N]\n", argv[0]);
      return 2;
    }
  }

  const ServerConfig cfg = server_config_from_env();
  const std::vector<Request> schedule = generate_schedule(cfg.traffic);

  HistoryRecorder recorder;
  std::unique_ptr<CCBackend> backend = make_cc_backend(
      cfg.mode, cfg.traffic.store, cfg.checked ? &recorder : nullptr);
  Server srv(cfg, backend.get());

#if defined(SEMLOCK_OBS)
  // Lives until main returns; nullptr (and no listener) unless
  // SEMLOCK_METRICS_PORT is set to a valid port.
  const std::unique_ptr<AdminEndpoint> admin = start_admin_endpoint_from_env();
#endif

  std::printf("semlock-server: mode=%s workers=%d shards=%d queue_cap=%d%s\n",
              backend->name(), srv.workers(), srv.shards(),
              cfg.queue_capacity, cfg.checked ? " [checked]" : "");
  std::printf(
      "schedule: %zu requests over %" PRIu64 " ms (rate %.0f rps, "
      "theta %.2f, burst x%d, %s, x%ld)\n",
      schedule.size(), cfg.traffic.duration_ms, cfg.traffic.rate_rps,
      cfg.traffic.zipf_theta, cfg.traffic.burst_factor,
      paced ? "paced" : "unpaced", repeat);

  ServerReport total;
  for (long pass = 0; pass < repeat; ++pass) {
    const ServerReport r = srv.run(schedule, paced);
    if (r.completed + r.shed != r.offered) {
      std::fprintf(stderr, "FAIL: %" PRIu64 " requests lost (pass %ld)\n",
                   r.offered - r.completed - r.shed, pass + 1);
      return 1;
    }
    total.offered += r.offered;
    total.completed += r.completed;
    total.shed += r.shed;
    total.retries += r.retries;
    total.wall_seconds += r.wall_seconds;
    total.observed_sum += r.observed_sum;
    total.latency_ns.merge(r.latency_ns);
    if (r.max_queue_depth > total.max_queue_depth) {
      total.max_queue_depth = r.max_queue_depth;
    }
    total.last_retry_after_ns = r.last_retry_after_ns;
  }
  const ServerReport& r = total;

  std::printf("completed: %" PRIu64 " / %" PRIu64 "  (shed %" PRIu64
              ", occ retries %" PRIu64 ")\n",
              r.completed, r.offered, r.shed, r.retries);
  std::printf("throughput: %.0f req/s over %.3f s\n", r.throughput_rps(),
              r.wall_seconds);
  std::printf("latency (from intended arrival): p50 < %.1f us, p99 < %.1f us, "
              "p999 < %.1f us\n",
              static_cast<double>(r.latency_ns.p50()) / 1e3,
              static_cast<double>(r.latency_ns.p99()) / 1e3,
              static_cast<double>(r.latency_ns.p999()) / 1e3);
  std::printf("queues: max depth %" PRIu64 "; last retry-after hint %.1f us\n",
              r.max_queue_depth,
              static_cast<double>(r.last_retry_after_ns) / 1e3);
  std::printf("store: balance_total=%" PRId64 " kv_inserted=%" PRId64
              " edges=%" PRId64 " digest=%016" PRIx64 "\n",
              backend->balance_total(), backend->kv_inserted(),
              backend->edges_present(), backend->digest());

  if (cfg.checked) {
    const SerializabilityReport rep =
        check_conflict_serializability(recorder.snapshot());
    std::printf("serializability: %s (%zu precedence edges)\n",
                rep.serializable ? "OK" : "VIOLATION",
                rep.precedence_edges);
    if (!rep.serializable) {
      std::fprintf(stderr, "%s\n", rep.to_string().c_str());
      return 2;
    }
  }
  return 0;
}
