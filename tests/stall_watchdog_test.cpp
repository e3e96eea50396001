// StallWatchdog: a deliberately held-forever conflicting mode must surface
// as a stall report carrying (mode, partition, wait duration, holder
// counts) — diagnostics in place of the timeout aborts OS2PL forbids.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "runtime/stall_watchdog.h"
#include "runtime/wait_registry.h"
#include "semlock/lock_mechanism.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

#if defined(SEMLOCK_OBS)
#include "obs/attribution.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#endif

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using commute::var;
using runtime::StallReport;
using runtime::StallWatchdog;
using runtime::WaitPolicyKind;

ModeTable make_table(int park_spin_limit) {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = park_spin_limit;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

struct ReportCollector {
  std::mutex mu;
  std::vector<StallReport> reports;

  StallWatchdog::Callback callback() {
    return [this](const StallReport& r) {
      const std::lock_guard<std::mutex> guard(mu);
      reports.push_back(r);
    };
  }
};

TEST(StallWatchdog, ReportsHeldForeverConflictingMode) {
  const auto t = make_table(/*park_spin_limit=*/0);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int held_mode = t.resolve(0, v0);       // held "forever"
  const int starved_mode = t.resolve_constant(1);
  ASSERT_FALSE(t.commutes(held_mode, starved_mode));

  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(40);
  options.repeat_interval = std::chrono::milliseconds(100);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.watch(m);
  watchdog.start();
  EXPECT_TRUE(watchdog.running());

  m.lock(held_mode);  // never released while the waiter starves
  std::thread starved([&] {
    m.lock(starved_mode);
    m.unlock(starved_mode);
  });

  // The starved waiter must be reported within a few threshold periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (watchdog.stalls_reported() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(watchdog.stalls_reported(), 1u);

  m.unlock(held_mode);
  starved.join();
  watchdog.stop();
  EXPECT_FALSE(watchdog.running());

  const std::lock_guard<std::mutex> guard(collector.mu);
  ASSERT_FALSE(collector.reports.empty());
  const StallReport& r = collector.reports.front();
  EXPECT_EQ(r.mode, starved_mode);
  EXPECT_EQ(r.partition, t.partition_of(starved_mode));
  EXPECT_GE(r.wait_ns,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    options.threshold)
                    .count()));
  EXPECT_EQ(r.mechanism, &m);  // watched: holder detail present
  bool saw_holder = false;
  for (const auto& [mode, holders] : r.conflicting_holders) {
    if (mode == held_mode) {
      saw_holder = true;
      EXPECT_EQ(holders, 1u);
    }
  }
  EXPECT_TRUE(saw_holder);
  EXPECT_FALSE(r.to_string().empty());
}

// An unwatched mechanism is still reported (mode/partition/duration) but
// without dereferencing it for holder counts.
TEST(StallWatchdog, UnwatchedMechanismReportedWithoutHolderDetail) {
  const auto t = make_table(/*park_spin_limit=*/64);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int held_mode = t.resolve(0, v0);
  const int starved_mode = t.resolve_constant(1);

  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(40);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.start();

  m.lock(held_mode);
  std::thread starved([&] {
    m.lock(starved_mode);
    m.unlock(starved_mode);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (watchdog.stalls_reported() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  m.unlock(held_mode);
  starved.join();
  watchdog.stop();

  const std::lock_guard<std::mutex> guard(collector.mu);
  ASSERT_FALSE(collector.reports.empty());
  const StallReport& r = collector.reports.front();
  EXPECT_EQ(r.mechanism, nullptr);
  EXPECT_TRUE(r.conflicting_holders.empty());
  EXPECT_EQ(r.mode, starved_mode);
}

TEST(StallWatchdog, NoFalseReportsWhenUncontended) {
  const auto t = make_table(/*park_spin_limit=*/0);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(5);
  options.threshold = std::chrono::milliseconds(20);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.watch(m);
  watchdog.start();
  for (int i = 0; i < 100; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  watchdog.stop();
  EXPECT_EQ(watchdog.stalls_reported(), 0u);
}

// A waiter that keeps RETRYING — short wait episodes under alternating
// modes, each one re-published with a fresh seq and start time — must still
// cross the stall threshold on its cumulative wait. A dedup keyed on the
// episode seq restarts the clock every retry and never reports this waiter;
// the watchdog chains temporally-adjacent episodes in the same slot on the
// same mechanism instead (the partial-release retry pattern).
TEST(StallWatchdog, ChainedRetryEpisodesCrossThresholdCumulatively) {
  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(120);
  options.repeat_interval = std::chrono::milliseconds(50);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.start();

  // Direct WaitScope publication: 30 episodes of ~20ms each, none remotely
  // near the 120ms threshold on its own, alternating the waited mode to
  // prove the chain keys on the waiter, not on (mode, seq).
  const int fake_mechanism = 0;
  std::atomic<bool> done{false};
  std::thread retrier([&] {
    for (int i = 0; i < 30 && watchdog.stalls_reported() == 0; ++i) {
      runtime::WaitScope scope(&fake_mechanism, i % 2, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.store(true, std::memory_order_release);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  retrier.join();
  watchdog.stop();

  EXPECT_GE(watchdog.stalls_reported(), 1u);
  const std::lock_guard<std::mutex> guard(collector.mu);
  ASSERT_FALSE(collector.reports.empty());
  const StallReport& r = collector.reports.front();
  // The cumulative wait crossed the threshold even though the reported
  // episode itself is far younger.
  EXPECT_GE(r.cumulative_wait_ns,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    options.threshold)
                    .count()));
  EXPECT_LT(r.wait_ns, r.cumulative_wait_ns);
  // The rendered report names the chained total.
  EXPECT_NE(r.to_string().find("across retried episodes"), std::string::npos);
}

// Episodes separated by longer than the chain gap are independent waits —
// a thread that locks briefly now and then must never accumulate into a
// phantom stall. (15 nominal-20ms episodes would sum to 300ms, far past the
// 120ms threshold if the reset were missing; each one alone has a 6x margin
// below it, so scheduler overshoot cannot fake a report.)
TEST(StallWatchdog, GappedEpisodesDoNotChain) {
  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(120);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.start();

  const int fake_mechanism = 0;
  for (int i = 0; i < 15; ++i) {
    {
      runtime::WaitScope scope(&fake_mechanism, 0, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Idle gap > 4 * poll: the next episode must start a fresh track.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  watchdog.stop();
  EXPECT_EQ(watchdog.stalls_reported(), 0u);
}

TEST(StallWatchdog, FromEnvDisabledWithoutVariable) {
  ASSERT_EQ(std::getenv("SEMLOCK_WATCHDOG_MS"), nullptr);
  EXPECT_EQ(StallWatchdog::from_env(), nullptr);
}

#if defined(SEMLOCK_OBS)
// With tracing on, a stall report on a watched mechanism carries the
// observability post-mortem: the held conflicting mode, the transaction
// that acquired it, and the instance address.
TEST(StallWatchdog, ForensicsNameHolderTransactionAndMode) {
  obs::reset_for_test();
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  SemanticLock lk(t);
  const Value v0[1] = {0};
  const int held_mode = t.resolve(0, v0);
  const int starved_mode = t.resolve_constant(1);

  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(40);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.watch(lk.mechanism());
  watchdog.start();

  // The holder is a real Transaction so the grant event carries its id.
  Transaction holder;
  holder.lv_mode(&lk, held_mode);
  std::thread starved([&] {
    Transaction txn;
    txn.lv_mode(&lk, starved_mode);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (watchdog.stalls_reported() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string forensics;
  {
    const std::lock_guard<std::mutex> guard(collector.mu);
    ASSERT_FALSE(collector.reports.empty());
    forensics = collector.reports.front().forensics;
    // The forensic text also flows into the rendered report.
    EXPECT_NE(collector.reports.front().to_string().find("stall forensics"),
              std::string::npos);
  }
  holder.unlock_all();
  starved.join();
  watchdog.stop();

  ASSERT_FALSE(forensics.empty());
  char instance_hex[32];
  std::snprintf(instance_hex, sizeof(instance_hex), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&lk.mechanism())));
  EXPECT_NE(forensics.find(instance_hex), std::string::npos) << forensics;
  EXPECT_NE(forensics.find("waited mode " + std::to_string(starved_mode)),
            std::string::npos)
      << forensics;
  EXPECT_NE(forensics.find("mode " + std::to_string(held_mode) +
                           ": holders=1"),
            std::string::npos)
      << forensics;
  EXPECT_NE(forensics.find("last acquired by txn"), std::string::npos)
      << forensics;
}
// A transitive stall: txn A waits on a mode held by txn B, which is itself
// waiting on a mode held by txn C (on another lock). The stall report for
// A's wait must carry the FULL blocker chain from the live wait-for graph —
// txn A -> txn B -> txn C — because the root cause is the end of the chain,
// not A's immediate holder.
TEST(StallWatchdog, ForensicsCarryThreeDeepBlockerChain) {
  obs::reset_for_test();
  obs::set_attribution_enabled(true);
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
  SemanticLock lk1(t);
  SemanticLock lk2(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);
  const int starved = t.resolve_constant(1);
  ASSERT_FALSE(t.commutes(held, starved));

  ReportCollector collector;
  StallWatchdog::Options options;
  options.poll = std::chrono::milliseconds(10);
  options.threshold = std::chrono::milliseconds(40);
  options.repeat_interval = std::chrono::milliseconds(50);
  StallWatchdog watchdog(options, collector.callback());
  watchdog.watch(lk1.mechanism());
  watchdog.start();

  std::atomic<std::uint64_t> a_id{0}, b_id{0}, c_id{0};
  std::atomic<bool> c_holding{false}, b_holding{false}, release_c{false};

  // Looks for an edge whose waiter matches `owner` in the live graph.
  const auto waiter_published = [](std::uint64_t owner) {
    for (const obs::WaitGraphEdge& e : obs::snapshot_waitgraph()) {
      if (e.waiter == owner) return true;
    }
    return false;
  };

  std::thread tc([&] {
    Transaction txn;
    txn.lv_mode(&lk2, held);
    c_id.store(obs::current_txn(), std::memory_order_release);
    c_holding.store(true, std::memory_order_release);
    while (!release_c.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread tb([&] {
    while (!c_holding.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Transaction txn;
    txn.lv_mode(&lk1, held);
    b_id.store(obs::current_txn(), std::memory_order_release);
    b_holding.store(true, std::memory_order_release);
    txn.lv_mode(&lk2, starved);  // blocks on C
  });
  std::thread ta([&] {
    // Start only once B is published as blocked on C, so the graph holds
    // the full two-hop tail before A's edge appears.
    while (!b_holding.load(std::memory_order_acquire) ||
           !waiter_published(b_id.load(std::memory_order_acquire))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Transaction txn;
    a_id.store(obs::current_txn(), std::memory_order_release);
    txn.lv_mode(&lk1, starved);  // blocks on B
  });

  // Wait for a report on lk1 whose forensics carry the chain.
  std::string chain_forensics;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      const std::lock_guard<std::mutex> guard(collector.mu);
      for (const StallReport& r : collector.reports) {
        if (r.mechanism == &lk1.mechanism() &&
            r.forensics.find("wait-for chain: ") != std::string::npos) {
          chain_forensics = r.forensics;
          break;
        }
      }
    }
    if (!chain_forensics.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  release_c.store(true, std::memory_order_release);
  tc.join();
  tb.join();
  ta.join();
  watchdog.stop();

  ASSERT_FALSE(chain_forensics.empty());
  const std::string expected =
      "wait-for chain: " +
      obs::format_owner(a_id.load(std::memory_order_acquire)) + " -> " +
      obs::format_owner(b_id.load(std::memory_order_acquire)) + " -> " +
      obs::format_owner(c_id.load(std::memory_order_acquire));
  EXPECT_NE(chain_forensics.find(expected), std::string::npos)
      << "forensics: " << chain_forensics << "\nexpected: " << expected;
  obs::set_attribution_enabled(false);
}
#endif  // SEMLOCK_OBS

}  // namespace
}  // namespace semlock
