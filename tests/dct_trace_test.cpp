// Tracing under the DCT scheduler (src/dct + src/obs): the same seed must
// produce the same schedule AND the same per-thread event streams, so a
// trace attached to a bug report is replayable evidence, not a one-off.
// Only built when both -DSEMLOCK_DCT=ON and SEMLOCK_OBS are enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "commute/builtin_specs.h"
#include "dct/scheduler.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;

// The per-thread event stream reduced to its schedule-determined parts:
// event type, payload and mode. Timestamps are wall-clock and vary run to
// run, so they are deliberately excluded from the signature.
std::vector<std::vector<std::uint64_t>> trace_signatures() {
  std::vector<std::vector<std::uint64_t>> out;
  for (const obs::ThreadTrace& t : obs::snapshot_traces()) {
    if (t.events.empty()) continue;  // main thread emits nothing here
    std::vector<std::uint64_t> sig;
    sig.reserve(t.events.size());
    for (const obs::Event& e : t.events) {
      sig.push_back(obs::pack_type_word(e.type, e.payload, e.mode));
    }
    out.push_back(std::move(sig));
  }
  return out;
}

// Lock/unlock over a self-conflicting mode with tracing on; every contended
// acquisition emits begin/wait/park/grant/release events.
dct::ScheduleResult run_traced_workload(std::uint64_t seed) {
  struct State {
    ModeTable table;
    LockMechanism mech;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(commute::set_spec(),
                                   {SymbolicSet({op("size"), op("clear")})},
                                   c)),
          mech(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  auto state = std::make_shared<State>(c);
  const int mode = state->table.resolve_constant(0);

  std::vector<std::function<void()>> threads;
  for (int t = 0; t < 3; ++t) {
    threads.push_back([state, mode] {
      for (int i = 0; i < 2; ++i) {
        state->mech.lock(mode);
        state->mech.unlock(mode);
      }
    });
  }
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::Random;
  opts.seed = seed;
  return dct::Scheduler(opts).run(std::move(threads));
}

TEST(DctTrace, SameSeedProducesSameEventStreams) {
  obs::reset_for_test();
  const dct::ScheduleResult a = run_traced_workload(12345);
  ASSERT_FALSE(a.hung()) << a.to_string();
  const auto sig_a = trace_signatures();

  obs::reset_for_test();
  const dct::ScheduleResult b = run_traced_workload(12345);
  ASSERT_FALSE(b.hung()) << b.to_string();
  const auto sig_b = trace_signatures();

  // Same seed → same schedule → same per-thread event streams. Threads are
  // registered in first-emit order, which the schedule fixes, so the
  // tid-ordered signatures line up one-to-one.
  ASSERT_EQ(a.steps, b.steps);
  ASSERT_FALSE(sig_a.empty());
  ASSERT_EQ(sig_a.size(), sig_b.size());
  for (std::size_t i = 0; i < sig_a.size(); ++i) {
    EXPECT_EQ(sig_a[i], sig_b[i]) << "thread " << i;
  }
}

TEST(DctTrace, DifferentSeedsMayDivergeButAlwaysBalance) {
  // Whatever the schedule, the event stream stays well-formed: every thread
  // emits exactly as many releases as acquisitions won, and park/unpark
  // pair up.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    obs::reset_for_test();
    const dct::ScheduleResult r = run_traced_workload(seed);
    ASSERT_FALSE(r.hung()) << r.to_string();
    for (const obs::ThreadTrace& t : obs::snapshot_traces()) {
      if (t.events.empty()) continue;
      std::uint64_t begins = 0, wins = 0, releases = 0, parks = 0,
                    unparks = 0;
      for (const obs::Event& e : t.events) {
        switch (e.type) {
          case obs::EventType::kAcquireBegin: ++begins; break;
          case obs::EventType::kAcquireGrant:
          case obs::EventType::kOptimisticHit: ++wins; break;
          case obs::EventType::kRelease: ++releases; break;
          case obs::EventType::kPark: ++parks; break;
          case obs::EventType::kUnpark: ++unparks; break;
          default: break;
        }
      }
      EXPECT_EQ(begins, 2u) << "seed " << seed;
      EXPECT_EQ(wins, begins) << "seed " << seed;
      EXPECT_EQ(releases, begins) << "seed " << seed;
      EXPECT_EQ(parks, unparks) << "seed " << seed;
    }
  }
}

TEST(DctTrace, HoldPairingIsExactOnScheduledReplays) {
  // Acceptance check for the hold-time profiler (ISSUE 9): on a DCT-driven
  // schedule — where grants and releases interleave across threads in a
  // seed-determined order — the online pairing count, the hold histogram,
  // and the offline re-pairing of the retained events all agree exactly.
  for (const std::uint64_t seed : {7u, 1234u, 99999u}) {
    obs::reset_for_test();
    const dct::ScheduleResult r = run_traced_workload(seed);
    ASSERT_FALSE(r.hung()) << r.to_string();

    const obs::MetricsSnapshot snap = obs::collect_metrics();
    // 3 threads × 2 lock/unlock rounds each.
    EXPECT_EQ(snap.holds_paired, 6u) << "seed " << seed;
    EXPECT_EQ(snap.hold_hist.count(), snap.holds_paired) << "seed " << seed;
    EXPECT_EQ(snap.holds_unmatched, 0u) << "seed " << seed;
    EXPECT_EQ(obs::pair_holds_from_events(obs::capture()), snap.holds_paired)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace semlock
