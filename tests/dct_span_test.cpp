// Derived spans under the DCT scheduler (ISSUE 10): on every scheduled
// workload, including Packed storage under the futex-word wait policy, the
// same seed must derive the same lock waits and transactions from the
// event stream, every derived blocker must be the one transaction the
// schedule granted the blocker mode, and the critical-path report must give
// the answers pinned below. Only built when both -DSEMLOCK_DCT=ON and
// SEMLOCK_OBS are enabled.
#include <gtest/gtest.h>

#include <algorithm>
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
// each other. Uniqueness is what lets the blocker check name the right
// owner independently of the derivation — for any blocker mode there is
// only one candidate.
dct::ScheduleResult run_span_workload(std::uint64_t seed,
                                      const WorkloadConfig& cfg) {
  // The lock-path events gate on the table's trace_events flag, but the
  // Transaction begin/end events are process-level sites: they need the
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

std::vector<WorkloadConfig> workloads() {
  return {{},
          {.counter_stripes = default_counter_stripes(),
           .park_spin_limit = 64,
           .name = "striped/spin-then-park"},
          {.storage = StorageKind::Packed,
           .wait_policy = runtime::WaitPolicyKind::FutexWord,
           .park_spin_limit = 64,
           .name = "packed/futex-word"}};
}
constexpr std::uint64_t kSeeds[4] = {11, 222, 3333, 44444};

// Runs one workload x seed and returns its dump with every timestamp
// replaced by its rank among all the dump's events. DCT runs one virtual
// thread at a time, so the ranks are the order the schedule fixed; the
// wall-clock gaps between them are noise that would otherwise decide which
// of three transactions land in the p99 tail.
obs::TraceDump run_ranked(std::uint64_t seed, const WorkloadConfig& cfg) {
  obs::reset_for_test();
  const dct::ScheduleResult r = run_span_workload(seed, cfg);
  EXPECT_FALSE(r.hung()) << cfg.name << " seed " << seed << "\n"
                         << r.to_string();
  obs::TraceDump dump = obs::capture();
  std::vector<std::uint64_t> ts;
  for (const obs::ThreadTrace& t : dump.threads) {
    for (const obs::Event& e : t.events) ts.push_back(e.ts_ns);
  }
  std::sort(ts.begin(), ts.end());
  for (obs::ThreadTrace& t : dump.threads) {
    for (obs::Event& e : t.events) {
      e.ts_ns = static_cast<std::uint64_t>(
          std::lower_bound(ts.begin(), ts.end(), e.ts_ns) - ts.begin());
    }
  }
  return dump;
}

// The derived streams reduced to their schedule-determined parts: instance
// fields are heap addresses, so they are normalized to first-appearance
// order; the ranked timestamps stay.
using WaitSig = std::tuple<std::uint64_t, std::uint64_t, std::int32_t,
                           std::uint64_t, std::uint64_t, std::int32_t,
                           std::uint64_t, std::uint64_t, std::uint32_t>;
using TxnSig = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

std::pair<std::vector<WaitSig>, std::vector<TxnSig>> derived_signature(
    const obs::TraceDump& dump) {
  std::map<std::uint64_t, std::uint64_t> instance_ids;
  const obs::DerivedSpans spans = obs::derive_spans(dump);
  std::vector<WaitSig> waits;
  for (const obs::LockWait& w : spans.waits) {
    const std::uint64_t inst =
        instance_ids.emplace(w.instance, instance_ids.size() + 1)
            .first->second;
    waits.emplace_back(w.waiter, inst, w.mode, w.start_ns, w.end_ns,
                       w.blocker_mode, w.capture_ns, w.blocker, w.attr_class);
  }
  std::vector<TxnSig> txns;
  for (const obs::TxnInterval& x : spans.txns) {
    txns.emplace_back(x.txn, x.begin_ns, x.end_ns);
  }
  return {waits, txns};
}

TEST(DctSpan, SameSeedDerivesTheSameStreams) {
  obs::set_attribution_enabled(true);
  for (const WorkloadConfig& cfg : workloads()) {
    for (const std::uint64_t seed : kSeeds) {
      const auto a = derived_signature(run_ranked(seed, cfg));
      const auto b = derived_signature(run_ranked(seed, cfg));
      EXPECT_EQ(a.first, b.first) << cfg.name << " seed " << seed;
      EXPECT_EQ(a.second, b.second) << cfg.name << " seed " << seed;
      EXPECT_EQ(a.second.size(), 3u) << cfg.name << " seed " << seed;
    }
  }
  obs::set_attribution_enabled(false);
}

// Each mode is granted by one transaction over the whole schedule, so the
// owner a derived wait must name is known without the derivation's rule:
// that transaction, or nobody when the sample saw the mode held before its
// grant landed (a T1 announcement not yet validated).
TEST(DctSpan, EveryDerivedBlockerIsTheTransactionGrantedTheBlockerMode) {
  obs::set_attribution_enabled(true);
  std::size_t named = 0;
  for (const WorkloadConfig& cfg : workloads()) {
    for (const std::uint64_t seed : kSeeds) {
      const obs::TraceDump dump = run_ranked(seed, cfg);
      for (const obs::LockWait& w : obs::derive_spans(dump).waits) {
        if (w.blocker_mode < 0) continue;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> grants;
        for (const obs::ThreadTrace& t : dump.threads) {
          for (const obs::Event& e : t.events) {
            if ((e.type == obs::EventType::kAcquireGrant ||
                 e.type == obs::EventType::kOptimisticHit) &&
                e.instance == w.instance && e.mode == w.blocker_mode) {
              grants.emplace_back(e.txn, e.ts_ns);
            }
          }
        }
        ASSERT_EQ(grants.size(), 1u) << cfg.name << " seed " << seed;
        const auto [owner, granted_at] = grants.front();
        EXPECT_EQ(w.blocker, granted_at <= w.capture_ns ? owner : 0)
            << cfg.name << " seed " << seed << ": waiter "
            << obs::format_owner(w.waiter) << " waited mode " << w.mode
            << " on mode " << w.blocker_mode << " granted to "
            << obs::format_owner(owner);
        if (w.blocker != 0) ++named;
      }
    }
  }
  obs::set_attribution_enabled(false);
  // The schedules must actually have exercised blocked waits with a
  // granted blocker, or the equality above proved nothing.
  EXPECT_GT(named, 0u);
}

// The critical-path answers, timings and addresses aside: transactions,
// tail transactions, tail groups (mode, class, waits) and the longest
// chains' owners. Recorded from the span-ring analyzer (dump v5) on the
// same ranked clock; the derived spans must reproduce them.
std::string critical_path_answers(const obs::TraceDump& dump) {
  const obs::CriticalPathStats s = obs::analyze_critical_paths(dump);
  std::string out = "txns " + std::to_string(s.txns) + " tail " +
                    std::to_string(s.tail_txns) + " |";
  for (const obs::TailGroup& g : s.groups) {
    out += " (mode " + std::to_string(g.mode) + " class " +
           std::to_string(g.attr_class) + " waits " +
           std::to_string(g.waits) + ")";
  }
  out += " |";
  for (const std::string& chain : s.chains) {
    // "txn 3 -(12ns on 0x5f.. mode 1 unsampled)-> ?" -> "txn 3 -(mode 1
    // unsampled)-> ?"
    std::string stripped;
    for (std::size_t i = 0; i < chain.size();) {
      if (chain.compare(i, 2, "-(") == 0) {
        stripped += "-(";
        i = chain.find(' ', chain.find(" on 0x", i) + 6) + 1;
      } else {
        stripped += chain[i++];
      }
    }
    out += " [" + stripped + "]";
  }
  return out;
}

TEST(DctSpan, CriticalPathGivesThePinnedAnswers) {
  // Per workload, per seed in kSeeds order; each string starts with
  // "txns 3 tail 2 |".
  const char* const kPinned[3][4] = {
      {"(mode 1 class 5 waits 1) | [txn 3 -(mode 1 unsampled)-> ?]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> ?]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]"},
      {"(mode 1 class 5 waits 1) | [txn 3 -(mode 1 unsampled)-> ?]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> ?]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]"},
      {"(mode 0 class 5 waits 1) | [txn 2 -(mode 0 unsampled)-> txn 1]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 1]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]",
       "(mode 4 class 5 waits 1) | [txn 3 -(mode 4 unsampled)-> txn 2]"},
  };
  obs::set_attribution_enabled(true);
  const std::vector<WorkloadConfig> cfgs = workloads();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const WorkloadConfig& cfg = cfgs[i];
    for (std::size_t s = 0; s < 4; ++s) {
      const obs::TraceDump dump = run_ranked(kSeeds[s], cfg);
      EXPECT_EQ(critical_path_answers(dump),
                std::string("txns 3 tail 2 | ") + kPinned[i][s])
          << cfg.name << " seed " << kSeeds[s];
      EXPECT_NE(obs::critical_path_report(dump).find("transactions: 3"),
                std::string::npos);
    }
  }
  obs::set_attribution_enabled(false);
}

}  // namespace
}  // namespace semlock
