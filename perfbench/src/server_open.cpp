// server_open: Server::run over the SEMANTIC backend with 2 workers, the
// "mixed" request mix, Zipf theta 0.6 and no bursts. One pre-generated
// schedule is replayed each round twice on fresh backends: paced at a fixed
// 500k req/s (latency from each request's intended arrival), then unpaced
// (drain throughput). Shard queues hold the whole stream, so nothing is shed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "common.h"
#include "semlock/history.h"
#include "server/server.h"
#include "server/traffic_gen.h"

namespace perfbench {

namespace {

using namespace semlock::server;

constexpr double kRate = 500000.0;
constexpr std::uint64_t kScheduleMs = 300;
constexpr std::uint64_t kCheckedMs = 20;
// Latency is read per window of intended arrival (1000 requests at kRate),
// in the quietest decile of windows: in an open loop a stall only adds
// latency, and even a round with no steal holds sub-millisecond stalls. A
// tail the server itself adds shows in every window.
constexpr std::uint64_t kWindowNs = 2000000;
constexpr double kQuietDecile = 0.10;
constexpr int kShards = 16;
// Our latency of a request can read below the server's own by the anchor's
// offset and the gap between the decorator's clock read and the server's.
constexpr double kBucketSlackNs = 2000.0;

std::size_t max_shard_load(const std::vector<Request>& schedule) {
  std::vector<std::size_t> load(kShards, 0);
  for (const Request& r : schedule) ++load[shard_of(r, kShards)];
  return *std::max_element(load.begin(), load.end());
}

// Checks drain accounting and the store invariants after one replay, and
// counts what was not completed as failed.
void check_replay(const ServerReport& rep, const CCBackend& backend,
                  std::int64_t expected_balance, std::int64_t expected_kv,
                  const char* what, Result* out) {
  out->attempted += rep.offered;
  out->failed += rep.offered - rep.completed;
  if (rep.completed + rep.shed != rep.offered) {
    out->violation(std::string(what) + ": completed + shed != offered");
  }
  if (rep.shed != 0) {
    out->violation(std::string(what) + ": " + std::to_string(rep.shed) +
                   " requests shed");
  }
  if (backend.balance_total() != expected_balance) {
    out->violation(std::string(what) + ": balance_total not conserved");
  }
  if (backend.kv_inserted() != expected_kv) {
    out->violation(std::string(what) +
                   ": kv_inserted != distinct ComputeIfAbsent keys");
  }
}

// A fine-resolution percentile must fall inside the power-of-two bucket the
// server's own histogram reports for the same percentile.
void check_bucket(double fine_ns, std::uint64_t upper, const char* what,
                  Result* out) {
  const double ub = static_cast<double>(upper);
  if (fine_ns > ub || fine_ns + kBucketSlackNs < ub / 2.0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s %.0f ns outside the server's bucket (%.0f, %.0f] ns",
                  what, fine_ns, ub / 2.0, ub);
    out->violation(buf);
  }
}

}  // namespace

void run_server_open(const Options& opt, Result* out) {
  TrafficConfig tc;
  tc.rate_rps = kRate;
  tc.duration_ms = kScheduleMs;
  tc.zipf_theta = 0.6;
  tc.burst_factor = 1;
  parse_traffic_mix("mixed", &tc.mix);
  tc.seed = opt.seed;

  const std::uint64_t g0 = now_ns();
  const std::vector<Request> schedule = generate_schedule(tc);
  const double schedule_s = seconds_between(g0, now_ns());
  const std::size_t n = schedule.size();

  ServerConfig sc;
  sc.workers = kServerWorkers;
  sc.shards = kShards;
  sc.queue_capacity = static_cast<int>(max_shard_load(schedule));
  sc.mode = CCMode::kSemantic;
  sc.traffic = tc;

  const std::int64_t expected_balance =
      tc.store.accounts * tc.store.initial_balance;
  std::set<std::int64_t> cia_keys;
  for (const Request& r : schedule) {
    if (r.kind == RequestKind::kComputeIfAbsent) cia_keys.insert(r.a);
  }
  const auto expected_kv = static_cast<std::int64_t>(cia_keys.size());

  std::vector<std::size_t> window_begin;
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule[i].arrival_ns >= window_begin.size() * kWindowNs) {
      window_begin.push_back(i);
    }
  }
  window_begin.push_back(n);

  TimedBackend timed(n);
  std::vector<std::uint64_t> lat(n), window, queue_wait(n), service(n);
  std::vector<double> setup_s, p50_us, p99_us, rps_traced;
  std::vector<RoundFigures> drains;  // untraced drain replays
  std::vector<double> qw50, qw99, svc50, svc99, busy, depth, shed;
  std::vector<double> pooled_p99_us;
  std::vector<Span> spans;
  LockLedger ledger;

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds) * 1000000000ULL;
  for (int round = 0; round < kMinRounds || now_ns() < deadline; ++round) {
    const bool traced = opt.trace && round % 2 == 1;

    // (a) Paced open loop at the fixed rate.
    std::uint64_t s0 = now_ns();
    std::unique_ptr<CCBackend> paced = make_cc_backend(CCMode::kSemantic,
                                                       tc.store);
    setup_s.push_back(seconds_between(s0, now_ns()));
    timed.reset(paced.get(), traced);
    Server paced_srv(sc, &timed);
    const ServerReport rep = paced_srv.run(schedule, /*paced=*/true);
    check_replay(rep, *paced, expected_balance, expected_kv, "paced", out);

    // Intended arrivals are relative to the server's dispatch start, which
    // is not visible from outside; no request starts executing before its
    // arrival, so the smallest (start - arrival) anchors them.
    const auto& st = timed.starts();
    const auto& en = timed.ends();
    std::uint64_t anchor = UINT64_MAX;
    for (std::size_t i = 0; i < n; ++i) {
      anchor = std::min(anchor, st[i] - schedule[i].arrival_ns);
    }
    for (std::size_t i = 0; i < n; ++i) {
      lat[i] = en[i] - anchor - schedule[i].arrival_ns;
    }
    if (!traced) {
      for (std::size_t w = 0; w + 1 < window_begin.size(); ++w) {
        const auto first = static_cast<std::ptrdiff_t>(window_begin[w]);
        const auto last = static_cast<std::ptrdiff_t>(window_begin[w + 1]);
        window.assign(lat.begin() + first, lat.begin() + last);
        p50_us.push_back(quantile(window, 0.50) / 1e3);
        p99_us.push_back(quantile(window, 0.99) / 1e3);
      }
    }
    const double p50 = quantile(lat, 0.50);
    const double p99 = quantile(lat, 0.99);
    check_bucket(p50, rep.latency_ns.p50(), "p50", out);
    check_bucket(p99, rep.latency_ns.p99(), "p99", out);
    if (traced) {
      pooled_p99_us.push_back(p99 / 1e3);
      double busy_ns = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        queue_wait[i] = st[i] - anchor - schedule[i].arrival_ns;
        service[i] = en[i] - st[i];
        busy_ns += static_cast<double>(service[i]);
      }
      qw50.push_back(quantile(queue_wait, 0.50) / 1e3);
      qw99.push_back(quantile(queue_wait, 0.99) / 1e3);
      svc50.push_back(quantile(service, 0.50));
      svc99.push_back(quantile(service, 0.99));
      busy.push_back(busy_ns / (kServerWorkers * rep.wall_seconds * 1e9));
      depth.push_back(static_cast<double>(rep.max_queue_depth));
      shed.push_back(static_cast<double>(rep.shed));
      timed.collect_stats(&ledger, n, out);
      spans.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t due = anchor + schedule[i].arrival_ns;
        Span req = timed.spans()[i];
        req.name = kSpanRequest;
        req.start_ns = due;
        spans.push_back(req);
        Span queue = req;
        queue.name = kSpanQueue;
        queue.parent = kSpanRequest;
        queue.end_ns = st[i];
        spans.push_back(queue);
        Span exec = timed.spans()[i];
        exec.parent = kSpanRequest;
        spans.push_back(exec);
      }
    }

    // (b) Unpaced drain of the same schedule on a fresh backend.
    s0 = now_ns();
    std::unique_ptr<CCBackend> drain = make_cc_backend(CCMode::kSemantic,
                                                       tc.store);
    setup_s.push_back(seconds_between(s0, now_ns()));
    if (traced) timed.reset(drain.get(), true);
    Server drain_srv(sc, traced ? static_cast<CCBackend*>(&timed)
                                : drain.get());
    const double steal0 = host_steal_ms();
    const ServerReport drep = drain_srv.run(schedule, /*paced=*/false);
    const double steal_ms = host_steal_ms() - steal0;
    check_replay(drep, *drain, expected_balance, expected_kv, "drain", out);
    if (traced) {
      rps_traced.push_back(drep.throughput_rps());
      timed.collect_stats(&ledger, n, out);
    } else {
      drains.push_back(RoundFigures{steal_ms, drep.throughput_rps(), 0.0, 0.0});
    }
  }

  // Short checked replay, outside the timed rounds: every committed
  // operation is recorded and the history must be conflict-serializable.
  {
    TrafficConfig ctc = tc;
    ctc.duration_ms = kCheckedMs;
    ctc.seed = opt.seed + 1;
    const std::vector<Request> cs = generate_schedule(ctc);
    ServerConfig csc = sc;
    csc.queue_capacity = static_cast<int>(max_shard_load(cs));
    semlock::HistoryRecorder recorder;
    std::unique_ptr<CCBackend> checked =
        make_cc_backend(CCMode::kSemantic, tc.store, &recorder);
    const ServerReport crep = Server(csc, checked.get()).run(cs, false);
    if (crep.completed != crep.offered) {
      out->violation("checked replay did not complete every request");
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

  std::vector<double> rps_untraced, quiet_rps;
  for (const RoundFigures& f : drains) rps_untraced.push_back(f.ops_per_s);
  for (const RoundFigures& f : quiet_rounds(drains)) {
    quiet_rps.push_back(f.ops_per_s);
  }
  out->note("rounds", static_cast<double>(drains.size() + rps_traced.size()));
  out->note("requests_per_round", static_cast<double>(n));
  out->note("latency_windows", static_cast<double>(p99_us.size()));
  out->note("requests_per_window", static_cast<double>(n) / static_cast<double>(
                                       window_begin.size() - 1));
  out->add("setup_s", median(setup_s), "s");
  out->note("quiet_rounds", static_cast<double>(quiet_rps.size()));
  out->add("ops_per_s", median(quiet_rps), "1/s");
  out->add("p50_us", quantile(p50_us, kQuietDecile), "us");
  out->add("p99_us", quantile(p99_us, kQuietDecile), "us");

  if (!opt.trace) return;
  out->add("server.queue_wait_us.p50", median(qw50), "us");
  out->add("server.queue_wait_us.p99", median(qw99), "us");
  out->add("server.service_ns.p50", median(svc50), "ns");
  out->add("server.service_ns.p99", median(svc99), "ns");
  out->add("server.busy_frac", median(busy), "fraction");
  out->add("server.max_queue_depth", median(depth), "count");
  out->add("server.shed", median(shed), "count");
  out->add("server.latency_us.pooled_p99", median(pooled_p99_us), "us");
  add_exec_split(out, spans);
  ledger.report(out);
  out->add("setup.schedule_s", schedule_s, "s");
  out->add("setup.backend_s", median(setup_s), "s");
  out->add("setup.prefill_s", 0.0, "s");
  out->add("setup.mode_table_us", mode_table_compile_us(Tables::kServer),
           "us");
  out->add("trace.overhead_frac",
           median(rps_untraced) / median(rps_traced) - 1.0, "fraction");
  if (!opt.spans_path.empty() && !write_spans(opt.spans_path, spans)) {
    out->violation("cannot write spans to " + opt.spans_path);
  }
}

}  // namespace perfbench
