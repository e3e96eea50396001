#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "server/traffic_gen.h"

namespace perfbench {

using semlock::AcquireStats;
using semlock::server::CCBackend;
using semlock::server::ExecResult;
using semlock::server::Request;
using semlock::server::RequestKind;

void Result::violation(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double quantile(std::vector<std::uint64_t>& xs, double q) {
  if (xs.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank < 1) rank = 1;
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), nth, xs.end());
  return static_cast<double>(*nth);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank < 1) rank = 1;
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), nth, xs.end());
  return *nth;
}

double host_steal_ms() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...",
  // in clock ticks.
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  std::istringstream fields(line);
  std::string label;
  std::uint64_t v[8] = {};
  fields >> label;
  for (auto& x : v) fields >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) * 1000.0 / static_cast<double>(hz)
                : 0.0;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  static const char* const kNames[] = {"request", "server.queue",
                                       "cc_backend.execute",
                                       "apps.compute_if_absent"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "req\tname\tparent\tstart_ns\tend_ns\tkind\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%s\t%llu\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.req), kNames[s.name],
                 s.parent < 0 ? "-" : kNames[s.parent],
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned>(s.kind));
  }
  return std::fclose(f) == 0;
}

// --- LockLedger --------------------------------------------------------------

void LockLedger::add_thread(const AcquireStats& before,
                            const AcquireStats& after) {
  sum.acquisitions += after.acquisitions - before.acquisitions;
  sum.contended += after.contended - before.contended;
  sum.parks += after.parks - before.parks;
  sum.optimistic_hits += after.optimistic_hits - before.optimistic_hits;
  sum.retracts += after.retracts - before.retracts;
  sum.wait_ns += after.wait_ns - before.wait_ns;
  sum.wait_cpu_ns += after.wait_cpu_ns - before.wait_cpu_ns;
  sum.diverted += after.diverted - before.diverted;
  sum.handoffs += after.handoffs - before.handoffs;
}

void LockLedger::end_round(std::uint64_t round_ops,
                           std::uint64_t round_max_wait_ns) {
  ops += round_ops;
  round_max_wait_us.push_back(static_cast<double>(round_max_wait_ns) / 1e3);
}

void LockLedger::report(Result* out) const {
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const AcquireStats& s = sum;
  out->add("semlock.acq_per_op", per(s.acquisitions, ops), "count");
  out->add("semlock.contended_frac", per(s.contended, s.acquisitions),
           "fraction");
  out->add("semlock.optimistic_hit_frac", per(s.optimistic_hits,
                                              s.acquisitions),
           "fraction");
  out->add("semlock.retract_frac", per(s.retracts, s.acquisitions),
           "fraction");
  out->add("runtime.wait_ns_per_op", per(s.wait_ns, ops), "ns");
  out->add("runtime.max_wait_us", median(round_max_wait_us), "us");
  out->add("runtime.wait_cpu_frac", per(s.wait_cpu_ns, s.wait_ns),
           "fraction");
  out->add("runtime.parks_per_kop", 1000.0 * per(s.parks, ops), "count");
  out->add("runtime.diverted_per_kop", 1000.0 * per(s.diverted, ops),
           "count");
  out->add("runtime.handoffs_per_kop", 1000.0 * per(s.handoffs, ops),
           "count");
}

// --- TimedBackend ------------------------------------------------------------

TimedBackend::TimedBackend(std::size_t capacity)
    : start_(capacity), end_(capacity), spans_(capacity) {}

void TimedBackend::reset(CCBackend* inner, bool trace) {
  inner_ = inner;
  trace_ = trace;
  ++generation_;
  std::fill(start_.begin(), start_.end(), 0);
  std::fill(end_.begin(), end_.end(), 0);
  threads_.store(0, std::memory_order_relaxed);
}

ExecResult TimedBackend::execute(const Request& r) {
  if (!trace_) {
    const std::uint64_t t0 = now_ns();
    const ExecResult res = inner_->execute(r);
    const std::uint64_t t1 = now_ns();
    start_[r.id] = t0;
    end_[r.id] = t1;
    return res;
  }
  // Traced: claim a statistics slot on this thread's first call of the run.
  thread_local const TimedBackend* owner = nullptr;
  thread_local std::uint64_t owner_generation = 0;
  thread_local int slot = -1;
  if (owner != this || owner_generation != generation_) {
    owner = this;
    owner_generation = generation_;
    slot = threads_.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxThreads) {
      slots_[slot].before = semlock::local_acquire_stats();
    }
  }
  const std::uint64_t t0 = now_ns();
  const ExecResult res = inner_->execute(r);
  const std::uint64_t t1 = now_ns();
  start_[r.id] = t0;
  end_[r.id] = t1;
  Span& s = spans_[r.id];
  s.req = r.id;
  s.start_ns = t0;
  s.end_ns = t1;
  s.name = kSpanExecute;
  s.parent = -1;
  s.kind = static_cast<std::uint8_t>(r.kind);
  if (slot < kMaxThreads) slots_[slot].last = semlock::local_acquire_stats();
  return res;
}

void TimedBackend::collect_stats(LockLedger* ledger, std::uint64_t round_ops,
                                 Result* out) const {
  const int n = threads_.load(std::memory_order_relaxed);
  if (n > kMaxThreads) {
    out->violation("more executing threads than statistics slots");
  }
  std::uint64_t max_wait = 0;
  for (int i = 0; i < n && i < kMaxThreads; ++i) {
    ledger->add_thread(slots_[i].before, slots_[i].last);
    max_wait = std::max(max_wait, slots_[i].last.max_wait_ns);
  }
  ledger->end_round(round_ops, max_wait);
}

// --- quiet rounds ------------------------------------------------------------

RoundFigures round_figures(const std::vector<std::uint64_t>& start,
                           const std::vector<std::uint64_t>& end,
                           double ops_per_s, double steal_ms) {
  std::vector<std::uint64_t> lat(start.size());
  for (std::size_t i = 0; i < lat.size(); ++i) lat[i] = end[i] - start[i];
  RoundFigures f;
  f.steal_ms = steal_ms;
  f.ops_per_s = ops_per_s;
  f.p50_us = quantile(lat, 0.50) / 1e3;
  f.p99_us = quantile(lat, 0.99) / 1e3;
  return f;
}

std::vector<RoundFigures> quiet_rounds(std::vector<RoundFigures> rounds) {
  std::vector<double> steal;
  for (const RoundFigures& r : rounds) steal.push_back(r.steal_ms);
  const double limit = quantile(steal, 0.25);
  std::erase_if(rounds,
                [limit](const RoundFigures& r) { return r.steal_ms > limit; });
  return rounds;
}

void add_round_figures(Result* out, const std::vector<RoundFigures>& rounds) {
  const std::vector<RoundFigures> quiet = quiet_rounds(rounds);
  std::vector<double> ops, p50, p99, steal;
  for (const RoundFigures& r : quiet) {
    ops.push_back(r.ops_per_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    steal.push_back(r.steal_ms);
  }
  out->note("quiet_rounds", static_cast<double>(quiet.size()));
  out->note("quiet_rounds.max_steal_ms", quantile(steal, 1.0));
  out->add("ops_per_s", median(ops), "1/s");
  out->add("p50_us", median(p50), "us");
  out->add("p99_us", median(p99), "us");
}

// --- zero-valued metrics of unexercised layers -------------------------------

const std::vector<Metric> kServerLayerMetrics = {
    {"server.queue_wait_us.p50", 0, "us"},
    {"server.queue_wait_us.p99", 0, "us"},
    {"server.service_ns.p50", 0, "ns"},
    {"server.service_ns.p99", 0, "ns"},
    {"server.busy_frac", 0, "fraction"},
    {"server.max_queue_depth", 0, "count"},
    {"server.shed", 0, "count"},
    {"server.latency_us.pooled_p99", 0, "us"},
};

const std::vector<Metric> kExecSplitMetrics = {
    {"server.exec_ns.transfer.p50", 0, "ns"},
    {"server.exec_ns.transfer.p99", 0, "ns"},
    {"server.exec_ns.audit.p50", 0, "ns"},
    {"server.exec_ns.audit.p99", 0, "ns"},
};

void add_zero_metrics(Result* out, const std::vector<Metric>& names) {
  for (const Metric& m : names) out->add(m.name, 0.0, m.unit);
}

void add_exec_split(Result* out, const std::vector<Span>& spans) {
  std::vector<std::uint64_t> transfer, audit;
  for (const Span& s : spans) {
    if (s.name != kSpanExecute) continue;
    const auto kind = static_cast<RequestKind>(s.kind);
    const std::uint64_t ns = s.end_ns - s.start_ns;
    if (kind == RequestKind::kTransfer) transfer.push_back(ns);
    if (kind == RequestKind::kAudit) audit.push_back(ns);
  }
  out->add("server.exec_ns.transfer.p50", quantile(transfer, 0.50), "ns");
  out->add("server.exec_ns.transfer.p99", quantile(transfer, 0.99), "ns");
  out->add("server.exec_ns.audit.p50", quantile(audit, 0.50), "ns");
  out->add("server.exec_ns.audit.p99", quantile(audit, 0.99), "ns");
}

// --- workload shapes ---------------------------------------------------------

semlock::server::StoreConfig txn_hot_store() {
  semlock::server::StoreConfig store;
  store.accounts = kHotAccounts;
  // The bank mix never touches the kv table or the graph.
  store.kv_keys = 1;
  store.nodes = 1;
  return store;
}

std::vector<Request> txn_hot_stream(std::uint64_t seed, std::size_t n) {
  semlock::server::TrafficConfig tc;
  semlock::server::parse_traffic_mix("bank", &tc.mix);
  tc.store = txn_hot_store();
  tc.zipf_theta = kHotTheta;
  tc.rate_rps = 1e6;  // arrival times are unused by closed-loop callers
  tc.duration_ms = n / 1000 + n / 10000 + 10;
  tc.seed = seed;
  std::vector<Request> stream = semlock::server::generate_schedule(tc);
  while (stream.size() < n) {  // Poisson count fell short: widen and redo
    tc.duration_ms += tc.duration_ms / 10 + 1;
    stream = semlock::server::generate_schedule(tc);
  }
  stream.resize(n);  // ids stay dense: they are positions in arrival order
  return stream;
}

namespace {
// SplitMix64's finalizer: a bijection on 64-bit words.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kNewKeyBase = std::uint64_t{1} << 40;
}  // namespace

std::int64_t cia_hot_key(std::uint64_t seed, std::size_t i) {
  return static_cast<std::int64_t>(mix64((seed << 41) + i));
}

std::int64_t cia_new_key(std::uint64_t seed, std::size_t j) {
  return static_cast<std::int64_t>(mix64((seed << 41) + kNewKeyBase + j));
}

}  // namespace perfbench
