// semlock-server subsystem tests: deterministic traffic generation and shard
// routing, bounded-queue backpressure (shed-with-retry-after), drain-and-
// shutdown conservation (no lost or double-executed requests — this file is
// part of the TSan job), and the serializability oracle over concurrent
// checked runs of every non-serial mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "semlock/history.h"
#include "semlock/lock_mechanism.h"
#include "server/cc_backend.h"
#include "server/config.h"
#include "server/server.h"
#include "server/shard_queue.h"
#include "server/traffic_gen.h"
#include "server/zipf.h"
#include "util/rng.h"

#if defined(SEMLOCK_OBS)
#include "obs/trace.h"
#endif

namespace semlock::server {
namespace {

StoreConfig small_store() {
  StoreConfig s;
  s.accounts = 64;
  s.kv_keys = 1024;
  s.nodes = 32;
  s.abstract_values = 16;
  return s;
}

TrafficConfig small_traffic(std::uint64_t seed = 7) {
  TrafficConfig t;
  t.rate_rps = 200000.0;
  t.duration_ms = 20;
  t.zipf_theta = 0.8;  // hot keys: make modes actually contend
  t.store = small_store();
  t.seed = seed;
  parse_traffic_mix("mixed", &t.mix);
  return t;
}

bool streams_equal(const std::vector<Request>& a,
                   const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].kind != b[i].kind || a[i].a != b[i].a ||
        a[i].b != b[i].b || a[i].amount != b[i].amount ||
        a[i].arrival_ns != b[i].arrival_ns) {
      return false;
    }
  }
  return true;
}

TEST(TrafficGen, ScheduleIsDeterministicSortedAndDenselyNumbered) {
  const TrafficConfig cfg = small_traffic();
  const auto s1 = generate_schedule(cfg);
  const auto s2 = generate_schedule(cfg);
  ASSERT_FALSE(s1.empty());
  EXPECT_TRUE(streams_equal(s1, s2));
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].id, i);
    if (i > 0) {
      EXPECT_GE(s1[i].arrival_ns, s1[i - 1].arrival_ns);
    }
    EXPECT_LT(s1[i].arrival_ns, cfg.duration_ms * 1000000ull);
  }

  TrafficConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_FALSE(streams_equal(s1, generate_schedule(other)));
}

TEST(TrafficGen, KeysStayInsideTheirKeyspaces) {
  const TrafficConfig cfg = small_traffic();
  for (const Request& r : generate_schedule(cfg)) {
    switch (r.kind) {
      case RequestKind::kComputeIfAbsent:
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, cfg.store.kv_keys);
        break;
      case RequestKind::kTransfer:
      case RequestKind::kAudit:
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, cfg.store.accounts);
        EXPECT_GE(r.b, 0);
        EXPECT_LT(r.b, cfg.store.accounts);
        EXPECT_NE(r.a, r.b);
        break;
      case RequestKind::kInsertEdge:
      case RequestKind::kRemoveEdge:
      case RequestKind::kDegree:
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, cfg.store.nodes);
        EXPECT_GE(r.b, 0);
        EXPECT_LT(r.b, cfg.store.nodes);
        break;
    }
  }
}

TEST(TrafficGen, PartlyOpenModelRespectsHorizonAndDeterminism) {
  TrafficConfig cfg = small_traffic();
  cfg.think_users = 8;
  cfg.think_ms = 0.05;
  const auto s1 = generate_schedule(cfg);
  ASSERT_FALSE(s1.empty());
  EXPECT_TRUE(streams_equal(s1, generate_schedule(cfg)));
  for (std::size_t i = 1; i < s1.size(); ++i) {
    EXPECT_GE(s1[i].arrival_ns, s1[i - 1].arrival_ns);
  }
  EXPECT_LT(s1.back().arrival_ns, cfg.duration_ms * 1000000ull);
}

TEST(TrafficGen, BurstsRaiseTheArrivalCount) {
  TrafficConfig base = small_traffic();
  base.burst_factor = 1;
  TrafficConfig bursty = base;
  bursty.burst_factor = 8;
  bursty.burst_period_ms = 4;
  // Square wave at 8x for half the time: ~4.5x the arrivals.
  EXPECT_GT(generate_schedule(bursty).size(),
            2 * generate_schedule(base).size());
}

TEST(TrafficGen, ShardRoutingIsDeterministicAndInRange) {
  const auto schedule = generate_schedule(small_traffic());
  for (const Request& r : schedule) {
    const std::uint32_t s = shard_of(r, 16);
    EXPECT_LT(s, 16u);
    EXPECT_EQ(s, shard_of(r, 16));  // pure function of the request
  }
  // Same primary key, same kind => same shard (session affinity).
  Request a = schedule.front();
  Request b = a;
  b.id += 1;
  b.arrival_ns += 12345;
  EXPECT_EQ(shard_of(a, 64), shard_of(b, 64));
}

TEST(Zipf, SamplesStayInRangeAndSkewTowardHotKeys) {
  util::Xoshiro256 rng(3);
  const ZipfSampler zipf(1000, 0.9);
  std::uint64_t rank0 = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = zipf.next_rank(rng);
    ASSERT_LT(r, 1000u);
    if (r == 0) ++rank0;
    ASSERT_LT(zipf.next_key(rng), 1000u);
  }
  // Rank 0 of a theta=0.9 Zipfian over 1000 keys carries ~12% of the mass;
  // a uniform sampler would give 0.1%.
  EXPECT_GT(rank0, 1000u);
}

TEST(CCModes, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_cc_mode("semantic"), CCMode::kSemantic);
  EXPECT_EQ(parse_cc_mode("serial"), CCMode::kSerial);
  EXPECT_EQ(parse_cc_mode("global"), CCMode::kGlobalLock);
  EXPECT_EQ(parse_cc_mode("2pl"), CCMode::kTwoPL);
  EXPECT_EQ(parse_cc_mode("occ"), CCMode::kOcc);
  EXPECT_FALSE(parse_cc_mode("SEMANTIC"));
  EXPECT_FALSE(parse_cc_mode(""));
  EXPECT_FALSE(parse_cc_mode("mvcc"));
}

TEST(TrafficMixes, NamedMixesSumToOneHundred) {
  for (const char* name : {"kv", "bank", "graph", "mixed"}) {
    TrafficMix mix;
    ASSERT_TRUE(parse_traffic_mix(name, &mix)) << name;
    int sum = 0;
    for (int p : mix.pct) sum += p;
    EXPECT_EQ(sum, 100) << name;
  }
  TrafficMix mix;
  EXPECT_FALSE(parse_traffic_mix("everything", &mix));
  EXPECT_FALSE(parse_traffic_mix(nullptr, &mix));
}

TEST(ShardQueueTest, BoundedPushPopAndWatermark) {
  ShardQueue q(4);
  Request r;
  for (std::uint64_t i = 0; i < 4; ++i) {
    r.id = i;
    EXPECT_TRUE(q.try_push(r));
  }
  r.id = 99;
  EXPECT_FALSE(q.try_push(r));  // full: shed
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.high_watermark(), 4u);

  Request out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out.id, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop(&out));
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.high_watermark(), 4u);  // watermark survives the drain
}

TEST(ShardQueueTest, OneProducerOneConsumerStressKeepsFifoAndAccounting) {
  constexpr std::uint64_t kRequests = 100000;
  constexpr std::size_t kCapacity = 8;
  ShardQueue q(kCapacity);
  std::vector<std::uint64_t> accepted;
  std::vector<std::uint64_t> popped;
  accepted.reserve(kRequests);
  popped.reserve(kRequests);
  std::uint64_t shed = 0;
  std::atomic<bool> filled{false};
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    // Start once the producer has shed, so the queue has been full and the
    // watermark must read the capacity exactly.
    while (!filled.load(std::memory_order_acquire)) std::this_thread::yield();
    Request r;
    for (;;) {
      if (q.try_pop(&r)) {
        popped.push_back(r.id);
      } else if (done.load(std::memory_order_acquire) && q.depth() == 0) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });
  Request r;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    r.id = i;
    if (q.try_push(r)) {
      accepted.push_back(i);
    } else {
      ++shed;
      filled.store(true, std::memory_order_release);
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_GT(shed, 0u);
  EXPECT_EQ(accepted.size() + shed, kRequests);
  EXPECT_EQ(popped, accepted);  // FIFO, and each accepted request once
  EXPECT_EQ(q.high_watermark(), kCapacity);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.try_pop(&r));
}

// Counts executions per request id — the direct witness that drain-and-
// shutdown neither loses nor double-executes.
class CountingBackend final : public CCBackend {
 public:
  explicit CountingBackend(std::size_t n) : seen(n) {}
  ExecResult execute(const Request& r) override {
    seen[static_cast<std::size_t>(r.id)].fetch_add(
        1, std::memory_order_relaxed);
    return ExecResult{};
  }
  CCMode mode() const override { return CCMode::kTwoPL; }  // multi-worker
  std::int64_t balance_total() const override { return 0; }
  std::int64_t kv_inserted() const override { return 0; }
  std::int64_t edges_present() const override { return 0; }
  std::uint64_t digest() const override { return 0; }

  std::vector<std::atomic<std::uint32_t>> seen;
};

void expect_each_ran_once(const CountingBackend& backend) {
  for (std::size_t i = 0; i < backend.seen.size(); ++i) {
    EXPECT_EQ(backend.seen[i].load(std::memory_order_relaxed), 1u)
        << "request " << i;
  }
}

// Runs `srv` on its own thread and gives it a minute: a server that cannot
// drain aborts the binary instead of hanging the suite.
ServerReport run_within_timeout(Server& srv,
                                const std::vector<Request>& schedule,
                                bool paced) {
  constexpr auto kLimit = std::chrono::seconds(60);
  std::promise<ServerReport> promise;
  std::future<ServerReport> report = promise.get_future();
  std::thread runner([&] { promise.set_value(srv.run(schedule, paced)); });
  if (report.wait_for(kLimit) != std::future_status::ready) {
    std::fprintf(stderr, "Server::run (%s) did not finish within 60 s\n",
                 paced ? "paced" : "unpaced");
    std::abort();
  }
  runner.join();
  return report.get();
}

TEST(ServerTest, DrainAndShutdownExecutesEveryAcceptedRequestExactlyOnce) {
  const auto schedule = generate_schedule(small_traffic());
  ServerConfig cfg;
  cfg.workers = 4;  // several workers race the stop flag at drain
  cfg.shards = 8;
  cfg.queue_capacity = static_cast<int>(schedule.size());  // no sheds
  CountingBackend backend(schedule.size());
  Server srv(cfg, &backend);
  const ServerReport r = srv.run(schedule, /*paced=*/false);

  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.completed, schedule.size());
  EXPECT_EQ(r.completed + r.shed, r.offered);
  expect_each_ran_once(backend);
  EXPECT_EQ(r.latency_ns.count(), r.completed);
}

TEST(ServerTest, PacedRunPastThePauseWindowExecutesEveryRequestOnce) {
  // One arrival every 500us: every gap outlasts an idle worker's pause
  // window (256 sweeps, a few us), so the workers reach the yield fallback
  // between requests, and the dispatcher sleeps, yields and pause-spins
  // before each arrival.
  std::vector<Request> schedule;
  for (std::uint64_t i = 0; i < 200; ++i) {
    Request r;
    r.id = i;
    r.a = static_cast<std::int64_t>(i);  // spread over the shards
    r.arrival_ns = i * 500'000;
    schedule.push_back(r);
  }
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  cfg.queue_capacity = static_cast<int>(schedule.size());
  CountingBackend backend(schedule.size());
  Server srv(cfg, &backend);
  const ServerReport r = run_within_timeout(srv, schedule, /*paced=*/true);

  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.completed, r.offered);
  expect_each_ran_once(backend);
}

TEST(ServerTest, OversubscribedWorkersFinishPacedAndUnpacedRuns) {
  // Twice as many workers as hardware threads: idle workers that spin
  // without ever yielding would starve the dispatcher and each other.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto schedule = generate_schedule(small_traffic());
  ServerConfig cfg;
  cfg.workers = static_cast<int>(2 * hw);
  cfg.shards = cfg.workers;
  cfg.queue_capacity = static_cast<int>(schedule.size());
  for (const bool paced : {true, false}) {
    CountingBackend backend(schedule.size());
    Server srv(cfg, &backend);
    ASSERT_EQ(srv.workers(), cfg.workers);
    const ServerReport r = run_within_timeout(srv, schedule, paced);
    EXPECT_EQ(r.shed, 0u) << (paced ? "paced" : "unpaced");
    EXPECT_EQ(r.completed, r.offered) << (paced ? "paced" : "unpaced");
    expect_each_ran_once(backend);
  }
}

TEST(ServerTest, OverloadShedsWithRetryAfterAndConservesAccounting) {
  const auto schedule = generate_schedule(small_traffic());
  ASSERT_GT(schedule.size(), 100u);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.shards = 1;        // one queue: depth pressure is maximal
  cfg.queue_capacity = 2;  // unpaced dispatch must outrun the worker
  cfg.mode = CCMode::kGlobalLock;
  auto backend = make_cc_backend(cfg.mode, small_store());
  Server srv(cfg, backend.get());
  const ServerReport r = srv.run(schedule, /*paced=*/false);

  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.last_retry_after_ns, 0u);
  EXPECT_EQ(r.completed + r.shed, r.offered);
  EXPECT_LE(r.max_queue_depth, 2u);
}

// Service time is `service` for requests routed to the hot shard and ~0
// elsewhere, so the hot shard's owning worker warms its EMA to about
// `service` while the other worker never executes and stays at the 1us seed.
class HotShardBackend final : public CCBackend {
 public:
  HotShardBackend(std::uint32_t hot_shard, std::uint32_t shards,
                  std::chrono::microseconds service)
      : hot_shard_(hot_shard), shards_(shards), service_(service) {}
  ExecResult execute(const Request& r) override {
    if (shard_of(r, shards_) == hot_shard_) {
      std::this_thread::sleep_for(service_);
    }
    return ExecResult{};
  }
  CCMode mode() const override { return CCMode::kTwoPL; }  // multi-worker
  std::int64_t balance_total() const override { return 0; }
  std::int64_t kv_inserted() const override { return 0; }
  std::int64_t edges_present() const override { return 0; }
  std::uint64_t digest() const override { return 0; }

 private:
  std::uint32_t hot_shard_;
  std::uint32_t shards_;
  std::chrono::microseconds service_;
};

// `n` requests that all route to shard 0 of 2, intended every 50us.
std::vector<Request> hot_shard_schedule(std::uint64_t n) {
  Request proto;
  proto.kind = RequestKind::kComputeIfAbsent;
  while (shard_of(proto, 2) != 0) ++proto.a;
  std::vector<Request> schedule;
  schedule.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Request r = proto;
    r.id = i;
    r.arrival_ns = i * 50'000;
    schedule.push_back(r);
  }
  return schedule;
}

TEST(ServerTest, RetryAfterHintQuotesTheOwningWorkersPace) {
  // All arrivals target one shard of two, every 50us for 40ms: offered load
  // is ~4x the hot worker's ~200us service rate, so the depth-2 queue sheds
  // throughout the run — including at the end, when the owning worker's EMA
  // is fully warm. The hint on the final shed must be (depth + 1) x the
  // OWNING worker's EMA: >= 2 x ~200us even if a pop races the depth read.
  // A hint diluted by the idle worker's 1us seed (the old pool average)
  // tops out near 3 x 100us and fails the lower bound.
  const auto schedule = hot_shard_schedule(800);

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 2;
  HotShardBackend backend(/*hot_shard=*/0, /*shards=*/2,
                          std::chrono::microseconds(200));
  Server srv(cfg, &backend);
  const ServerReport r = srv.run(schedule, /*paced=*/true);

  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.completed + r.shed, r.offered);
  EXPECT_GE(r.last_retry_after_ns, 390'000u);
  // Loose sanity ceiling: sleep overshoot inflates the EMA a little, but the
  // hint must stay in "queue depth x service time" territory.
  EXPECT_LE(r.last_retry_after_ns, 20'000'000u);
}

TEST(ServerTest, UnpacedRetryAfterHintQuotesTheOwningWorkersPace) {
  // Unpaced, the dispatcher outruns the hot worker from the first request,
  // so that worker stays backlogged and its EMA follows the gap between its
  // completions, at least the 50us sleep. Intended arrivals lie far past an
  // unpaced replay's clock and must not enter that pace.
  //
  // The hint can quote a pace only if the owning worker ran while the
  // dispatcher still shed. A worker that shares the dispatcher's CPU, on a
  // host that does not balance threads across CPUs, may not run at all
  // during the ~10 ms a spinning dispatcher takes over 600k requests. So
  // the run repeats until the worker completed more than the queue and one
  // request in flight can hold when dispatch ends.
  const auto schedule = hot_shard_schedule(600'000);
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 2;
  const std::uint64_t after_dispatch =
      static_cast<std::uint64_t>(cfg.queue_capacity) + 1;
  ServerReport r;
  for (int attempt = 0; attempt < 20 && r.completed <= after_dispatch;
       ++attempt) {
    HotShardBackend backend(/*hot_shard=*/0, /*shards=*/2,
                            std::chrono::microseconds(50));
    Server srv(cfg, &backend);
    r = srv.run(schedule, /*paced=*/false);
    ASSERT_EQ(r.completed + r.shed, r.offered);
  }
  ASSERT_GT(r.completed, after_dispatch)
      << "the hot worker never ran while the dispatcher shed";
  EXPECT_GE(r.last_retry_after_ns, 100'000u);
  EXPECT_LE(r.last_retry_after_ns, 20'000'000u);
}

TEST(ServerTest, SerialModeClampsToOneWorker) {
  ServerConfig cfg;
  cfg.workers = 8;
  cfg.shards = 8;
  auto backend = make_cc_backend(CCMode::kSerial, small_store());
  Server srv(cfg, backend.get());
  EXPECT_EQ(srv.workers(), 1);

  auto parallel = make_cc_backend(CCMode::kSemantic, small_store());
  Server psrv(cfg, parallel.get());
  EXPECT_EQ(psrv.workers(), 8);
}

#if defined(SEMLOCK_OBS)
// The SEMANTIC backend compiles its tables with the default config, so each
// table chooses its storage: the account table (Move and Audit conflict and
// both self-commute) packs, and the map table (a reader mode, and 128 modes)
// stays striped. Traced mechanisms name themselves in their events, which is
// how the test finds the locks a request took.
TEST(ServerTest, SemanticAccountLocksPackAndMapLocksStayStriped) {
  obs::ScopedTraceEnable enable;
  auto backend = make_cc_backend(CCMode::kSemantic, small_store());
  const auto storages_of = [&](RequestKind kind) {
    obs::reset_for_test();
    backend->execute(Request{.kind = kind, .a = 1, .b = 2, .amount = 5});
    std::set<StorageKind> storages;
    for (const obs::ThreadTrace& t : obs::snapshot_traces()) {
      for (const obs::Event& e : t.events) {
        if (e.type != obs::EventType::kAcquireBegin) continue;
        storages.insert(
            reinterpret_cast<const LockMechanism*>(e.instance)->storage());
      }
    }
    return storages;
  };
  // SEMLOCK_STORAGE, when set, forces its kind wherever the table fits.
  const StorageKind account = default_storage().value_or(StorageKind::Packed);
  EXPECT_EQ(storages_of(RequestKind::kTransfer),
            std::set<StorageKind>{account});
  EXPECT_EQ(storages_of(RequestKind::kAudit), std::set<StorageKind>{account});
  EXPECT_EQ(storages_of(RequestKind::kComputeIfAbsent),
            std::set<StorageKind>{StorageKind::Striped});
  EXPECT_EQ(storages_of(RequestKind::kDegree),
            std::set<StorageKind>{StorageKind::Striped});
  obs::reset_for_test();
}
#endif

TEST(ServerTest, WorkersNeverExceedShards) {
  ServerConfig cfg;
  cfg.workers = 16;
  cfg.shards = 3;
  auto backend = make_cc_backend(CCMode::kTwoPL, small_store());
  Server srv(cfg, backend.get());
  EXPECT_EQ(srv.workers(), 3);
}

TEST(ServerTest, BalanceConservationAcrossConcurrentModes) {
  TrafficConfig traffic = small_traffic();
  parse_traffic_mix("bank", &traffic.mix);
  const auto schedule = generate_schedule(traffic);
  const std::int64_t expected =
      traffic.store.accounts * traffic.store.initial_balance;
  for (const CCMode mode : {CCMode::kSemantic, CCMode::kGlobalLock,
                            CCMode::kTwoPL, CCMode::kOcc}) {
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.shards = 8;
    cfg.queue_capacity = static_cast<int>(schedule.size());
    auto backend = make_cc_backend(mode, traffic.store);
    Server srv(cfg, backend.get());
    const ServerReport r = srv.run(schedule, /*paced=*/false);
    EXPECT_EQ(r.completed, r.offered) << cc_mode_name(mode);
    EXPECT_EQ(backend->balance_total(), expected) << cc_mode_name(mode);
  }
}

// The acceptance gate of the subsystem: with history recording on, a
// concurrent run of every non-serial mode must produce a conflict-
// serializable history. Under TSan this is also the data-race check for
// the commuting SEMANTIC fast path and the OCC commit protocol.
TEST(ServerTest, CheckedConcurrentRunsAreSerializable) {
  const auto schedule = generate_schedule(small_traffic(11));
  for (const CCMode mode : {CCMode::kSemantic, CCMode::kGlobalLock,
                            CCMode::kTwoPL, CCMode::kOcc}) {
    HistoryRecorder recorder;
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.shards = 8;
    cfg.queue_capacity = static_cast<int>(schedule.size());
    auto backend = make_cc_backend(mode, small_store(), &recorder);
    Server srv(cfg, backend.get());
    const ServerReport r = srv.run(schedule, /*paced=*/false);
    EXPECT_EQ(r.completed, r.offered) << cc_mode_name(mode);
    const SerializabilityReport rep =
        check_conflict_serializability(recorder.snapshot());
    EXPECT_TRUE(rep.serializable)
        << cc_mode_name(mode) << ": " << rep.to_string();
  }
}

// SEMANTIC keeps each balance in its account lock's instance cell and TWO_PL
// beside its account's mutex, where SERIAL keeps them in the flat store. A
// concurrent checked run of the bank mix must still be serializable over
// one recorded instance per account, and end on SERIAL's exact store:
// transfers commute, so the final balances do not depend on the
// interleaving.
TEST(ServerTest, CheckedBankRunsMatchSerialWhereverBalancesLive) {
  TrafficConfig traffic = small_traffic(31);
  parse_traffic_mix("bank", &traffic.mix);
  const auto schedule = generate_schedule(traffic);
  std::set<std::int64_t> accounts;
  for (const Request& r : schedule) {
    accounts.insert(r.a);
    accounts.insert(r.b);
  }
  const auto run = [&](CCMode mode, int workers, HistoryRecorder* recorder) {
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.shards = 8;
    cfg.queue_capacity = static_cast<int>(schedule.size());
    auto backend = make_cc_backend(mode, traffic.store, recorder);
    Server srv(cfg, backend.get());
    const ServerReport r = srv.run(schedule, /*paced=*/false);
    EXPECT_EQ(r.completed, r.offered) << cc_mode_name(mode);
    return backend;
  };
  const auto serial = run(CCMode::kSerial, 1, nullptr);
  ASSERT_EQ(serial->balance_total(),
            traffic.store.accounts * traffic.store.initial_balance);
  for (const CCMode mode : {CCMode::kSemantic, CCMode::kTwoPL}) {
    HistoryRecorder recorder;
    const auto backend = run(mode, 4, &recorder);
    const std::vector<HistoryEvent> history = recorder.snapshot();
    const SerializabilityReport rep = check_conflict_serializability(history);
    EXPECT_TRUE(rep.serializable)
        << cc_mode_name(mode) << ": " << rep.to_string();
    std::set<const void*> instances;
    for (const HistoryEvent& e : history) instances.insert(e.instance);
    EXPECT_EQ(instances.size(), accounts.size()) << cc_mode_name(mode);
    EXPECT_EQ(backend->balance_total(), serial->balance_total())
        << cc_mode_name(mode);
    EXPECT_EQ(backend->digest(), serial->digest()) << cc_mode_name(mode);
  }
}

TEST(ServerTest, IdenticalStreamYieldsIdenticalFinalStateAcrossModes) {
  // The final store is order-independent across shard interleavings: every
  // pair of requests whose operations do NOT commute (same-source edge ops,
  // same-key CIA) shares a primary key, hence a shard, hence FIFO order,
  // while cross-shard writes commute (transfers, pred-degree updates). So
  // the full-store digest must match bit-for-bit across modes — the
  // cross-mode differential analogue of differential_test.cpp.
  const auto schedule = generate_schedule(small_traffic(23));
  std::uint64_t reference = 0;
  bool first = true;
  for (const CCMode mode :
       {CCMode::kSerial, CCMode::kSemantic, CCMode::kGlobalLock,
        CCMode::kTwoPL, CCMode::kOcc}) {
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.shards = 4;
    cfg.queue_capacity = static_cast<int>(schedule.size());
    auto backend = make_cc_backend(mode, small_store());
    Server srv(cfg, backend.get());
    const ServerReport r = srv.run(schedule, /*paced=*/false);
    ASSERT_EQ(r.completed, r.offered) << cc_mode_name(mode);
    if (first) {
      reference = backend->digest();
      first = false;
    } else {
      EXPECT_EQ(backend->digest(), reference) << cc_mode_name(mode);
    }
  }
}

}  // namespace
}  // namespace semlock::server
