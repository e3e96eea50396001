// The observability layer (src/obs): ring overwrite semantics, event
// emission from the lock mechanism, the blocked-by conflict matrix, exact
// merge-on-exit acquire totals, the Chrome exporter, and dump round-trips.
// Only built with SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::Event;
using obs::EventType;

ModeTable make_traced_table() {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {commute::var("v")}),
                    op("remove", {commute::var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

std::vector<Event> all_events() {
  std::vector<Event> out;
  for (const obs::ThreadTrace& t : obs::snapshot_traces()) {
    out.insert(out.end(), t.events.begin(), t.events.end());
  }
  return out;
}

std::uint64_t count_events(const std::vector<Event>& events, EventType type,
                          const void* instance = nullptr) {
  std::uint64_t n = 0;
  for (const Event& e : events) {
    if (e.type != type) continue;
    if (instance != nullptr &&
        e.instance != reinterpret_cast<std::uint64_t>(instance)) {
      continue;
    }
    ++n;
  }
  return n;
}

TEST(EventRing, TypeWordRoundTripsModeAndPayload) {
  auto round_trip = [](EventType type, std::int32_t mode,
                       std::int32_t payload) {
    Event e;
    e.type = type;
    e.mode = mode;
    e.payload = payload;
    std::uint64_t w[Event::kWords];
    e.to_words(w);
    EXPECT_EQ(w[3], obs::pack_type_word(type, payload, mode));
    return Event::from_words(w);
  };
  const Event a = round_trip(EventType::kRetract, -7, -1);
  EXPECT_EQ(a.type, EventType::kRetract);
  EXPECT_EQ(a.mode, -7);
  EXPECT_EQ(a.payload, -1);
  const Event b = round_trip(EventType::kAttribution, 123456, 4);
  EXPECT_EQ(b.type, EventType::kAttribution);
  EXPECT_EQ(b.mode, 123456);
  EXPECT_EQ(b.payload, 4);
  // The payload is an int16: its extremes survive, and the highest type
  // keeps its bits clear of the payload's.
  const Event c = round_trip(EventType::kTxnEnd, -1, -32768);
  EXPECT_EQ(c.type, EventType::kTxnEnd);
  EXPECT_EQ(c.payload, -32768);
  EXPECT_EQ(round_trip(EventType::kPark, 0, 32767).payload, 32767);
}

TEST(EventRing, RetainsEverythingBelowCapacity) {
  obs::Ring<Event> ring(64);
  EXPECT_EQ(ring.capacity(), 64u);
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.ts_ns = static_cast<std::uint64_t>(i);
    e.type = EventType::kRelease;
    e.mode = i;
    ring.append(e);
  }
  const std::vector<Event> got = ring.snapshot();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].ts_ns,
              static_cast<std::uint64_t>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i)].mode, i);
  }
}

TEST(EventRing, WraparoundOverwritesOldest) {
  obs::Ring<Event> ring(64);
  constexpr int kTotal = 200;
  for (int i = 0; i < kTotal; ++i) {
    Event e;
    e.ts_ns = static_cast<std::uint64_t>(i);
    e.type = EventType::kMark;
    e.mode = i;
    ring.append(e);
  }
  EXPECT_EQ(ring.appended(), static_cast<std::uint64_t>(kTotal));
  const std::vector<Event> got = ring.snapshot();
  // The ring retains the last `capacity` events; the snapshot's torn-slot
  // filter conservatively assumes the writer may be mid-append of the next
  // index, so one boundary slot is dropped — 63 of 64 survive, oldest first.
  ASSERT_EQ(got.size(), 63u);
  EXPECT_EQ(got.front().mode, kTotal - 63);
  EXPECT_EQ(got.back().mode, kTotal - 1);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mode, got[i - 1].mode + 1);
  }
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  obs::Ring<Event> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  obs::Ring<Event> tiny(1);  // clamped to the minimum
  EXPECT_EQ(tiny.capacity(), obs::Ring<Event>::kMinCapacity);
}

TEST(ObsTrace, MechanismEmitsWhenTableTraced) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  m.lock(mode);
  m.unlock(mode);

  const std::vector<Event> events = all_events();
  EXPECT_EQ(count_events(events, EventType::kAcquireBegin, &m), 1u);
  EXPECT_EQ(count_events(events, EventType::kRelease, &m), 1u);
  // Uncontended: the acquisition is won either optimistically or granted.
  EXPECT_EQ(count_events(events, EventType::kOptimisticHit, &m) +
                count_events(events, EventType::kAcquireGrant, &m),
            1u);
}

TEST(ObsTrace, UntracedTableEmitsNothing) {
  obs::reset_for_test();
  ModeTableConfig c;
  c.abstract_values = 4;
  c.trace_events = false;
  const auto t = ModeTable::compile(
      commute::set_spec(), {SymbolicSet({op("size"), op("clear")})}, c);
  LockMechanism m(t);
  const int mode = t.resolve_constant(0);
  m.lock(mode);
  m.unlock(mode);
  EXPECT_FALSE(m.traced());
  EXPECT_TRUE(all_events().empty());
}

TEST(ObsTrace, ScopedEnableFlipsTheTableDefault) {
  EXPECT_FALSE(obs::runtime_enabled());
  EXPECT_FALSE(ModeTableConfig{}.trace_events);
  {
    obs::ScopedTraceEnable enable;
    EXPECT_TRUE(obs::runtime_enabled());
    EXPECT_TRUE(ModeTableConfig{}.trace_events);
  }
  EXPECT_FALSE(obs::runtime_enabled());
  EXPECT_FALSE(ModeTableConfig{}.trace_events);
}

TEST(ObsTrace, TransactionStampsEventsWithUniqueTxnIds) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  SemanticLock lk(t);
  const int mode = t.resolve_constant(1);

  {
    Transaction txn;
    txn.lv_mode(&lk, mode);
    EXPECT_NE(obs::current_txn(), 0u);
  }
  EXPECT_EQ(obs::current_txn(), 0u);
  {
    Transaction txn;
    txn.lv_mode(&lk, mode);
  }

  std::vector<std::uint64_t> acquire_txns;
  for (const Event& e : all_events()) {
    if (e.instance != reinterpret_cast<std::uint64_t>(&lk.mechanism())) {
      continue;
    }
    if (e.type == EventType::kOptimisticHit ||
        e.type == EventType::kAcquireGrant) {
      acquire_txns.push_back(e.txn);
    }
  }
  ASSERT_EQ(acquire_txns.size(), 2u);
  EXPECT_NE(acquire_txns[0], 0u);
  EXPECT_NE(acquire_txns[1], 0u);
  EXPECT_NE(acquire_txns[0], acquire_txns[1]);
}

TEST(ObsTrace, NestedTransactionsShareTheOuterTxnId) {
  obs::reset_for_test();
  Transaction outer;
  const std::uint64_t id = obs::current_txn();
  ASSERT_NE(id, 0u);
  {
    Transaction inner;
    EXPECT_EQ(obs::current_txn(), id);
  }
  EXPECT_EQ(obs::current_txn(), id);
}

// Ids are assigned on first use: untraced transactions that nothing asks
// for an id consume none, so the next transaction that asks gets id 1.
TEST(ObsTrace, UntracedTransactionsConsumeNoTxnIds) {
  const bool was_enabled = obs::runtime_enabled();
  obs::set_runtime_enabled(false);
  obs::reset_for_test();
  ModeTableConfig c;
  c.abstract_values = 4;
  c.trace_events = false;
  const auto t = ModeTable::compile(
      commute::set_spec(), {SymbolicSet({op("size"), op("clear")})}, c);
  SemanticLock lk(t);
  const int mode = t.resolve_constant(0);
  for (int i = 0; i < 1000; ++i) {
    Transaction txn;
    txn.lv_mode(&lk, mode);
  }
  {
    Transaction txn;
    EXPECT_EQ(obs::current_txn(), 1u);
    EXPECT_EQ(obs::current_owner_id(), 1u);
  }
  EXPECT_EQ(obs::current_txn(), 0u);  // outside a transaction: none
  obs::set_runtime_enabled(was_enabled);
}

TEST(ObsTrace, ConflictMatrixContainsExactlyExercisedNonCommutingPairs) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);            // add(0)
  const int starved = t.resolve_constant(1);    // {size, clear}
  ASSERT_FALSE(t.commutes(held, starved));

  m.lock(held);
  std::thread waiter([&] {
    m.lock(starved);
    m.unlock(starved);
  });
  // Give the waiter time to fail the fast path and sample its blockers.
  while (obs::collect_metrics().conflict_matrix.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m.unlock(held);
  waiter.join();

  const obs::MetricsSnapshot snap = obs::collect_metrics();
  ASSERT_FALSE(snap.conflict_matrix.empty());
  bool saw_starved_blocked_by_held = false;
  for (const obs::BlockedByCell& cell : snap.conflict_matrix) {
    // Every recorded pair must be genuinely non-commuting: the sampler
    // walks conflicts_of(mode), so commuting pairs cannot appear.
    EXPECT_FALSE(t.commutes(cell.waiter, cell.holder))
        << "waiter " << cell.waiter << " holder " << cell.holder;
    EXPECT_GT(cell.count, 0u);
    if (cell.waiter == starved && cell.holder == held) {
      saw_starved_blocked_by_held = true;
    }
  }
  EXPECT_TRUE(saw_starved_blocked_by_held);

  // The contended instance is ranked, and the wait was recorded.
  ASSERT_FALSE(snap.instances.empty());
  EXPECT_EQ(snap.instances.front().instance,
            reinterpret_cast<std::uint64_t>(&m));
  EXPECT_GT(snap.instances.front().contended, 0u);
  EXPECT_GT(snap.instances.front().waits, 0u);
  EXPECT_GT(snap.wait_hist.count(), 0u);
  ASSERT_FALSE(snap.top_waits.empty());
  EXPECT_EQ(snap.top_waits.front().instance,
            reinterpret_cast<std::uint64_t>(&m));
}

TEST(ObsTrace, AcquireTotalsExactAfterThreadExit) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);  // add(0) self-commutes: no blocking

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 100;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kOpsPerThread; ++j) {
        m.lock(mode);
        m.unlock(mode);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Merge-on-exit: the workers are gone, yet their counters are folded into
  // the registry — the totals are exact, not "whoever is still alive".
  const obs::MetricsSnapshot snap = obs::collect_metrics();
  EXPECT_EQ(snap.acquire_totals.acquisitions,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

TEST(ObsTrace, ChromeExportIsValidJsonWithDurationEvents) {
  obs::TraceDump dump;
  obs::ThreadTrace tt;
  tt.tid = 3;
  tt.live = false;
  Event begin;
  begin.ts_ns = 1000;
  begin.instance = 0xabc;
  begin.txn = 7;
  begin.type = EventType::kAcquireBegin;
  begin.mode = 2;
  Event grant = begin;
  grant.ts_ns = 3500;
  grant.type = EventType::kAcquireGrant;
  Event release = grant;
  release.ts_ns = 9000;
  release.type = EventType::kRelease;
  tt.events = {begin, grant, release};
  dump.threads.push_back(tt);

  const std::string json = obs::to_chrome_json(dump);
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error;
  // begin→grant paired into one complete ("X") duration event of 2.5 us.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos) << json;
  // The release stays an instant event.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"instance\": \"0xabc\""), std::string::npos);
  EXPECT_NE(json.find("\"txn\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"semlockMetrics\""), std::string::npos);
}

TEST(ObsTrace, ValidateJsonRejectsMalformedInput) {
  EXPECT_TRUE(obs::validate_json("{\"a\": [1, 2.5, \"x\", true, null]}"));
  EXPECT_FALSE(obs::validate_json("{"));
  EXPECT_FALSE(obs::validate_json("{\"a\":}"));
  EXPECT_FALSE(obs::validate_json("{} trailing"));
  EXPECT_FALSE(obs::validate_json("{\"a\" 1}"));
  EXPECT_FALSE(obs::validate_json("[1, 2,]"));
  EXPECT_FALSE(obs::validate_json("\"unterminated"));
}

TEST(ObsTrace, DumpRoundTripsThroughFile) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  std::thread worker([&] {
    for (int i = 0; i < 20; ++i) {
      m.lock(mode);
      m.unlock(mode);
    }
  });
  worker.join();

  const obs::TraceDump dump = obs::capture();
  ASSERT_FALSE(dump.threads.empty());

  const std::string path =
      testing::TempDir() + "/semlock_obs_roundtrip.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;

  obs::TraceDump loaded;
  ASSERT_TRUE(obs::load_dump_file(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.threads.size(), dump.threads.size());
  for (std::size_t i = 0; i < dump.threads.size(); ++i) {
    EXPECT_EQ(loaded.threads[i].tid, dump.threads[i].tid);
    ASSERT_EQ(loaded.threads[i].events.size(), dump.threads[i].events.size());
    for (std::size_t j = 0; j < dump.threads[i].events.size(); ++j) {
      const Event& a = dump.threads[i].events[j];
      const Event& b = loaded.threads[i].events[j];
      EXPECT_EQ(a.ts_ns, b.ts_ns);
      EXPECT_EQ(a.instance, b.instance);
      EXPECT_EQ(a.txn, b.txn);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.mode, b.mode);
    }
  }
  EXPECT_EQ(loaded.metrics.acquire_totals.acquisitions,
            dump.metrics.acquire_totals.acquisitions);
  // Both the text report and the chrome export render the loaded dump.
  EXPECT_FALSE(obs::text_report(loaded).empty());
  EXPECT_TRUE(obs::validate_json(obs::to_chrome_json(loaded)));
  std::remove(path.c_str());
}

TEST(ObsTrace, LoadRejectsGarbageFile) {
  const std::string path = testing::TempDir() + "/semlock_obs_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a trace dump", f);
  std::fclose(f);
  obs::TraceDump dump;
  std::string error;
  EXPECT_FALSE(obs::load_dump_file(path, dump, &error));
  EXPECT_NE(error.find("not a semlock trace dump"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTrace, MetricsJsonIsStructurallyValid) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const int mode = t.resolve_constant(1);
  m.lock(mode);
  m.unlock(mode);
  const std::string json = obs::collect_metrics().to_json();
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"conflict_matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_hist_ns\""), std::string::npos);
}

// --- the hold-time profiler (ISSUE 9) ---------------------------------------

TEST(ObsHolds, PairsEveryGrantWithItsRelease) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  constexpr int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }

  const obs::MetricsSnapshot snap = obs::collect_metrics();
  // Online pairing is exact by construction: every paired release added one
  // histogram sample, so the two counts cannot diverge.
  EXPECT_EQ(snap.holds_paired, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(snap.hold_hist.count(), snap.holds_paired);
  EXPECT_EQ(snap.holds_unmatched, 0u);
  ASSERT_FALSE(snap.top_holds.empty());
  EXPECT_EQ(snap.top_holds.front().instance,
            reinterpret_cast<std::uint64_t>(&m));
  EXPECT_EQ(snap.top_holds.front().mode, mode);

  // The offline re-pairing of the retained events agrees exactly (nothing
  // wrapped in this short run).
  const obs::TraceDump dump = obs::capture();
  EXPECT_EQ(obs::pair_holds_from_events(dump),
            static_cast<std::uint64_t>(kOps));
  const std::string report = obs::holds_report(dump);
  EXPECT_NE(report.find("matches paired count exactly"), std::string::npos)
      << report;
}

TEST(ObsHolds, NestedModesPairLifoAndCarryTheLockSite) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  // Two commuting modes (adds on distinct abstract values) — the mechanism
  // is not reentrant, so nested acquisition must not conflict.
  const Value v0[1] = {0};
  const Value v1[1] = {1};
  const int outer = t.resolve(0, v0);  // add(0)
  const int inner = t.resolve(0, v1);  // add(1)
  ASSERT_NE(outer, inner);

  LockSiteArgs args;
  args.site = 42;
  m.lock(outer, &args);
  m.lock(inner, &args);
  m.unlock(inner);   // pairs with the inner grant (LIFO per instance+mode)
  m.unlock(outer);

  const obs::MetricsSnapshot snap = obs::collect_metrics();
  EXPECT_EQ(snap.holds_paired, 2u);
  EXPECT_EQ(snap.hold_hist.count(), 2u);
  EXPECT_EQ(snap.holds_unmatched, 0u);
  ASSERT_EQ(snap.top_holds.size(), 2u);
  for (const obs::HoldSample& h : snap.top_holds) {
    EXPECT_EQ(h.site, 42);
    EXPECT_EQ(h.instance, reinterpret_cast<std::uint64_t>(&m));
  }
  // The outer hold strictly contains the inner one.
  std::uint64_t outer_ns = 0, inner_ns = 0;
  for (const obs::HoldSample& h : snap.top_holds) {
    if (h.mode == outer) outer_ns = h.hold_ns;
    if (h.mode == inner) inner_ns = h.hold_ns;
  }
  EXPECT_GE(outer_ns, inner_ns);
}

TEST(ObsHolds, ReleaseWithoutGrantCountsUnmatchedNotMispaired) {
  obs::reset_for_test();
  // Emit a bare release event (no prior grant) straight through emit() —
  // the shape tracing sees when enabled mid-hold.
  obs::emit(obs::EventType::kRelease, reinterpret_cast<const void*>(0x1234),
            3);
  const obs::MetricsSnapshot snap = obs::collect_metrics();
  EXPECT_EQ(snap.holds_paired, 0u);
  EXPECT_EQ(snap.hold_hist.count(), 0u);
  EXPECT_EQ(snap.holds_unmatched, 1u);
}

TEST(ObsHolds, DumpRoundTripCarriesTheHoldBlock) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  for (int i = 0; i < 6; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }

  const obs::TraceDump dump = obs::capture();
  const std::string path = testing::TempDir() + "/semlock_holds_rt.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;
  obs::TraceDump loaded;
  ASSERT_TRUE(obs::load_dump_file(path, loaded, &error)) << error;
  EXPECT_EQ(loaded.metrics.holds_paired, 6u);
  EXPECT_EQ(loaded.metrics.hold_hist.count(), 6u);
  EXPECT_EQ(loaded.metrics.holds_unmatched, 0u);
  ASSERT_FALSE(loaded.metrics.top_holds.empty());
  EXPECT_EQ(loaded.metrics.top_holds.front().instance,
            reinterpret_cast<std::uint64_t>(&m));
  // Hold data rides in the metrics JSON and both text reports.
  const std::string json = loaded.metrics.to_json();
  EXPECT_TRUE(obs::validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"holds_paired\": 6"), std::string::npos) << json;
  EXPECT_NE(obs::text_report(loaded).find("hold"), std::string::npos);
  EXPECT_FALSE(obs::holds_report(loaded).empty());
  std::remove(path.c_str());
}

TEST(ObsTrace, StallForensicsNamesHolderAndInstance) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);
  m.lock(held);

  char expect_instance[32];
  std::snprintf(expect_instance, sizeof(expect_instance), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&m)));
  const std::string text = obs::stall_forensics(
      &m, t.resolve_constant(1), {{held, 1u}});
  EXPECT_NE(text.find(expect_instance), std::string::npos) << text;
  EXPECT_NE(text.find("mode " + std::to_string(held)), std::string::npos)
      << text;
  EXPECT_NE(text.find("holders=1"), std::string::npos) << text;
  m.unlock(held);
}

}  // namespace
}  // namespace semlock
