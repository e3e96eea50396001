// Causal spans under the DCT scheduler (ISSUE 10): the same seed must
// produce the same span streams, and — the acceptance check for blocker
// capture — the blocker identity sampled online at park time must equal the
// offline reconstruction from the raw event stream, on every scheduled
// workload including Packed storage under the futex-word wait policy. Only
// built when both -DSEMLOCK_DCT=ON and SEMLOCK_OBS are enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "commute/builtin_specs.h"
#include "dct/scheduler.h"
#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;

struct WorkloadConfig {
  StorageKind storage = StorageKind::Striped;
  int counter_stripes = 0;
  runtime::WaitPolicyKind wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  int park_spin_limit = 0;
  const char* name = "unstriped/park-now";
};

// Three transactions on one semantic lock, each acquiring a mode that is
// granted by exactly ONE transaction over the whole schedule: the hub mode
// {size, clear} conflicts with both add modes, the add modes commute with
// each other. Uniqueness is what makes the offline reconstruction exact
// regardless of timestamp ties — for any blocker_mode there is only one
// candidate owner.
dct::ScheduleResult run_span_workload(std::uint64_t seed,
                                      const WorkloadConfig& cfg) {
  // The lock-path spans gate on the table's trace_events flag, but the
  // Transaction exec/commit spans are process-level sites: they need the
  // process-wide switch on too.
  obs::ScopedTraceEnable trace_on;
  struct State {
    ModeTable table;
    SemanticLock lock;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("add", {commute::var("v")}),
                            op("remove", {commute::var("v")})}),
               SymbolicSet({op("size"), op("clear")})},
              c)),
          lock(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = cfg.wait_policy;
  c.park_spin_limit = cfg.park_spin_limit;
  c.storage = cfg.storage;
  c.counter_stripes = cfg.counter_stripes;
  c.trace_events = true;
  auto state = std::make_shared<State>(c);
  const Value v0[1] = {0};
  const Value v1[1] = {1};
  const int modes[3] = {state->table.resolve_constant(1),  // hub
                        state->table.resolve(0, v0),       // add(0)
                        state->table.resolve(0, v1)};      // add(1)

  std::vector<std::function<void()>> threads;
  for (int t = 0; t < 3; ++t) {
    const int mode = modes[t];
    threads.push_back([state, mode] {
      Transaction txn;
      txn.lv_mode(&state->lock, mode);
    });
  }
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::Random;
  opts.seed = seed;
  return dct::Scheduler(opts).run(std::move(threads));
}

// A span stream reduced to its schedule-determined parts: timestamps are
// wall-clock and instance fields are heap addresses, so timestamps are
// dropped and instances normalized to first-appearance order.
using SpanSig =
    std::tuple<std::uint32_t, std::uint64_t, std::int32_t, std::int32_t,
               std::uint32_t, std::uint64_t, std::uint64_t>;

std::vector<std::vector<SpanSig>> span_signatures() {
  std::map<std::uint64_t, std::uint64_t> instance_ids;
  auto norm = [&](std::uint64_t instance) -> std::uint64_t {
    if (instance == 0) return 0;
    return instance_ids.emplace(instance, instance_ids.size() + 1)
        .first->second;
  };
  std::vector<std::vector<SpanSig>> out;
  for (const obs::ThreadSpans& t : obs::snapshot_spans()) {
    if (t.spans.empty()) continue;
    std::vector<SpanSig> sig;
    sig.reserve(t.spans.size());
    for (const obs::Span& s : t.spans) {
      sig.emplace_back(static_cast<std::uint32_t>(s.kind), s.txn, s.mode,
                       s.blocker_mode, s.attr_class, s.blocker,
                       norm(s.instance));
    }
    out.push_back(std::move(sig));
  }
  return out;
}

TEST(DctSpan, SameSeedProducesSameSpanStreams) {
  const WorkloadConfig cfg;
  obs::reset_for_test();
  obs::set_attribution_enabled(true);
  const dct::ScheduleResult a = run_span_workload(4242, cfg);
  ASSERT_FALSE(a.hung()) << a.to_string();
  const auto sig_a = span_signatures();

  obs::reset_for_test();
  const dct::ScheduleResult b = run_span_workload(4242, cfg);
  ASSERT_FALSE(b.hung()) << b.to_string();
  const auto sig_b = span_signatures();
  obs::set_attribution_enabled(false);

  // Same seed → same schedule → same txn ids, same waits, same blockers.
  ASSERT_EQ(a.steps, b.steps);
  ASSERT_FALSE(sig_a.empty());
  ASSERT_EQ(sig_a.size(), sig_b.size());
  for (std::size_t i = 0; i < sig_a.size(); ++i) {
    EXPECT_EQ(sig_a[i], sig_b[i]) << "thread " << i;
  }
}

// The tentpole acceptance criterion: for every lock-wait span that captured
// a blocker online, replaying the event stream offline must name the SAME
// owner — proving the park-time read of the grant record is causally
// consistent with the event order the schedule fixed.
TEST(DctSpan, OnlineBlockerCaptureEqualsOfflineReconstruction) {
  const WorkloadConfig workloads[3] = {
      {},
      {.counter_stripes = default_counter_stripes(),
       .park_spin_limit = 64,
       .name = "striped/spin-then-park"},
      {.storage = StorageKind::Packed,
       .wait_policy = runtime::WaitPolicyKind::FutexWord,
       .park_spin_limit = 64,
       .name = "packed/futex-word"},
  };
  obs::set_attribution_enabled(true);
  std::size_t captured_waits = 0;
  for (const WorkloadConfig& cfg : workloads) {
    for (const std::uint64_t seed : {11u, 222u, 3333u, 44444u}) {
      obs::reset_for_test();
      const dct::ScheduleResult r = run_span_workload(seed, cfg);
      ASSERT_FALSE(r.hung()) << cfg.name << " seed " << seed << "\n"
                             << r.to_string();
      const obs::TraceDump dump = obs::capture();
      for (const obs::ReconstructedBlocker& rb :
           obs::reconstruct_blockers(dump)) {
        ++captured_waits;
        EXPECT_EQ(rb.online, rb.offline)
            << cfg.name << " seed " << seed << ": waiter "
            << obs::format_owner(rb.waiter) << " waited mode " << rb.mode
            << " — online says " << obs::format_owner(rb.online)
            << ", events say " << obs::format_owner(rb.offline);
      }
    }
  }
  obs::set_attribution_enabled(false);
  // The schedules must actually have exercised blocked waits, or the
  // equality above proved nothing.
  EXPECT_GT(captured_waits, 0u);
}

// Same check against the analyzer's own consumption path: the critical-path
// chains rendered from the dump name owners that exist in the schedule.
TEST(DctSpan, CriticalPathChainsNameScheduleOwners) {
  const WorkloadConfig cfg;
  obs::set_attribution_enabled(true);
  obs::reset_for_test();
  const dct::ScheduleResult r = run_span_workload(11, cfg);
  ASSERT_FALSE(r.hung()) << r.to_string();
  const obs::TraceDump dump = obs::capture();
  obs::set_attribution_enabled(false);

  const obs::CriticalPathStats stats = obs::analyze_critical_paths(dump);
  // Three transactions ran, all with exec spans.
  EXPECT_EQ(stats.txns, 3u);
  const std::string report = obs::critical_path_report(dump);
  EXPECT_NE(report.find("transactions: 3"), std::string::npos) << report;
}

}  // namespace
}  // namespace semlock
