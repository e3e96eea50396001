#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "server/shard_queue.h"
#include "server/traffic_gen.h"
#include "util/align.h"
#include "util/spinlock.h"

#if defined(SEMLOCK_OBS)
#include "server/admin.h"
#endif

namespace semlock::server {

namespace {

using Clock = std::chrono::steady_clock;

// Costs on a 4-vCPU Xeon KVM guest: PAUSE 20–24 ns, steady_clock::now()
// 41–45 ns, sched_yield 320–365 ns. An idle worker pauses between empty
// sweeps and yields only after this many sweeps without a request. 256
// sweeps took about 6–8 µs there, roughly two mean inter-arrival gaps per
// worker in perfbench's server_open (2 workers, 500k req/s); an
// oversubscribed server, whose gaps outlast the window, yields every sweep
// past it.
constexpr std::uint32_t kPauseSweeps = 256;
// The paced dispatcher sleeps while the next arrival is more than 100 µs
// away (sleep_for overshoots by tens of µs), yields while it is more than
// 4 µs away (about ten sched_yields), and pause-spins through the last 4 µs
// so a push lands within a clock read and a PAUSE of its arrival.
constexpr std::uint64_t kSleepAheadNs = 100000;
constexpr std::uint64_t kYieldAheadNs = 4000;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// Each worker writes its state on every request, so each state starts a
// cache line of its own: back-to-back heap blocks would let one worker's
// histogram tail share a line with the next worker's counters.
struct alignas(util::kCacheLineSize) WorkerState {
  // Atomic so the admin endpoint's health provider can read completion
  // progress while the worker runs. Single writer (the owning worker), so
  // updates are load+store, never an RMW — no fast-path cost.
  std::atomic<std::uint64_t> completed{0};
  std::uint64_t retries = 0;
  std::int64_t observed_sum = 0;
  util::Log2Histogram latency_ns;
  // Exponential moving average of service time (the worker's backlogged
  // pace), published for the dispatcher's retry-after hints. Seeded at 1us
  // so the first hints are sane before any sample lands.
  std::atomic<std::uint64_t> ema_service_ns{1000};
};
static_assert(alignof(WorkerState) == util::kCacheLineSize);

}  // namespace

Server::Server(const ServerConfig& cfg, CCBackend* backend)
    : backend_(backend),
      workers_(cfg.workers < 1 ? 1 : cfg.workers),
      shards_(cfg.shards < 1 ? 1 : cfg.shards),
      queue_capacity_(cfg.queue_capacity < 1 ? 1 : cfg.queue_capacity) {
  if (backend_->mode() == CCMode::kSerial) workers_ = 1;
  if (workers_ > shards_) workers_ = shards_;
}

ServerReport Server::run(const std::vector<Request>& schedule, bool paced) {
  ServerReport report;
  report.offered = schedule.size();

  std::vector<std::unique_ptr<ShardQueue>> queues;
  queues.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    queues.push_back(std::make_unique<ShardQueue>(
        static_cast<std::size_t>(queue_capacity_)));
  }

  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    states.push_back(std::make_unique<WorkerState>());
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start_tp;  // written before go, read after (acq/rel)

  // Live dispatch progress for the admin endpoint's health provider.
  // Single writer (the dispatcher), load+store only.
  std::atomic<std::uint64_t> offered_live{0};
  std::atomic<std::uint64_t> shed_live{0};

#if defined(SEMLOCK_OBS)
  // /healthz and semlock_server_* scrape through this for the duration of
  // the run; every captured local outlives the clear below.
  set_admin_stats_provider([&, this]() {
    HealthSample s;
    s.server_running = true;
    s.cc_backend = backend_->name();
    s.workers = workers_;
    s.shards = shards_;
    s.offered = offered_live.load(std::memory_order_relaxed);
    s.shed = shed_live.load(std::memory_order_relaxed);
    for (const auto& st : states) {
      s.completed += st->completed.load(std::memory_order_relaxed);
    }
    s.queue_capacity = static_cast<std::uint64_t>(queue_capacity_);
    s.queue_depths.reserve(queues.size());
    for (const auto& q : queues) {
      const std::uint64_t d = q->depth();
      s.queue_depths.push_back(d);
      s.queue_depth_total += d;
      if (d > s.queue_depth_max) s.queue_depth_max = d;
      if (q->high_watermark() > s.queue_high_watermark) {
        s.queue_high_watermark = q->high_watermark();
      }
    }
    return s;
  });
#endif

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads.emplace_back([&, w] {
      WorkerState& st = *states[static_cast<std::size_t>(w)];
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point start = start_tp;
      std::uint64_t ema = st.ema_service_ns.load(std::memory_order_relaxed);
      // The clock is read once per request, after execute. The service time
      // fed to the EMA is the gap since this worker's previous completion
      // while it is backlogged; after an empty sweep the request cannot have
      // started before its intended arrival either.
      std::uint64_t last_done = 0;
      // Empty sweeps since the last request, capped at kPauseSweeps; a
      // worker that has run nothing yet counts as idle.
      std::uint32_t empty_sweeps = 1;
      Request r;
      for (;;) {
        bool any = false;
        for (int s = w; s < shards_; s += workers_) {
          if (!queues[static_cast<std::size_t>(s)]->try_pop(&r)) continue;
          any = true;
          const ExecResult res = backend_->execute(r);
          const std::uint64_t t1 = ns_since(start);
          st.completed.store(st.completed.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
          st.retries += res.retries;
          st.observed_sum += res.observed;
          st.latency_ns.add(t1 > r.arrival_ns ? t1 - r.arrival_ns : 0);
          const bool idle = empty_sweeps > 0;
          const std::uint64_t begun =
              idle && r.arrival_ns > last_done ? r.arrival_ns : last_done;
          // An unpaced replay can run a request before its intended
          // arrival; that request gives no service sample.
          if (t1 > begun) {
            ema = ema - ema / 16 + (t1 - begun) / 16;
            st.ema_service_ns.store(ema, std::memory_order_relaxed);
          }
          last_done = t1;
          empty_sweeps = 0;
        }
        if (!any) {
          if (stop.load(std::memory_order_acquire)) {
            // stop is set only after the final dispatch, so empty-once
            // after observing it means drained for good.
            bool drained = true;
            for (int s = w; s < shards_; s += workers_) {
              if (queues[static_cast<std::size_t>(s)]->depth() != 0) {
                drained = false;
                break;
              }
            }
            if (drained) break;
          }
          if (empty_sweeps < kPauseSweeps) {
            ++empty_sweeps;
            util::cpu_relax();
          } else {
            std::this_thread::yield();
          }
        }
      }
    });
  }

  while (ready.load(std::memory_order_acquire) < workers_) {
    std::this_thread::yield();
  }
  start_tp = Clock::now();
  go.store(true, std::memory_order_release);

  for (const Request& r : schedule) {
    if (paced) {
      for (;;) {
        const std::uint64_t now = ns_since(start_tp);
        if (now >= r.arrival_ns) break;
        const std::uint64_t ahead = r.arrival_ns - now;
        if (ahead > kSleepAheadNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(ahead - 50000));
        } else if (ahead > kYieldAheadNs) {
          std::this_thread::yield();
        } else {
          util::cpu_relax();
        }
      }
    }
    const std::uint32_t shard =
        shard_of(r, static_cast<std::uint32_t>(shards_));
    offered_live.store(offered_live.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    ShardQueue& q = *queues[shard];
    if (!q.try_push(r)) {
      // Admission control: shed with a retry-after hint — the time this
      // shard needs to work off its current depth at its recent pace. The
      // pace is the OWNING worker's EMA (worker w owns shards ≡ w mod W):
      // averaging across all workers lets the idle ones dilute a hot
      // shard's hint, under-reporting exactly the backlog being shed.
      const std::uint64_t ema =
          states[shard % static_cast<std::uint32_t>(workers_)]
              ->ema_service_ns.load(std::memory_order_relaxed);
      report.shed += 1;
      shed_live.store(report.shed, std::memory_order_relaxed);
      report.last_retry_after_ns =
          (static_cast<std::uint64_t>(q.depth()) + 1) * ema;
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
#if defined(SEMLOCK_OBS)
  // The provider captures this frame's locals by reference; detach it
  // before they go out of scope.
  clear_admin_stats_provider();
#endif
  report.wall_seconds =
      static_cast<double>(ns_since(start_tp)) / 1e9;

  for (const auto& st : states) {
    report.completed += st->completed.load(std::memory_order_relaxed);
    report.retries += st->retries;
    report.observed_sum += st->observed_sum;
    report.latency_ns.merge(st->latency_ns);
  }
  for (const auto& q : queues) {
    if (q->high_watermark() > report.max_queue_depth) {
      report.max_queue_depth = q->high_watermark();
    }
  }
  return report;
}

}  // namespace semlock::server
