// Causal transaction tracing: transaction intervals, lock waits and their
// blockers derived offline from the event stream (obs/critical_path.h),
// blocker refresh at park, the live wait-for graph (snapshot / cycles /
// JSON / DOT / chain) and the WaitRegistry slot it shares with the
// watchdog, the v6 dump round-trip and the refusal of every other version,
// the tail critical-path analyzer, and the Chrome flow events binding a
// waiter's parked slice to the release that woke it. Only built with
// SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "runtime/wait_registry.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::AttrClass;
using obs::Event;
using obs::EventType;

ModeTable make_table(bool traced = true) {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = traced;
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

// The lock waits derived from the current capture on `lk`'s mechanism.
std::vector<obs::LockWait> waits_on(const SemanticLock* lk) {
  const std::uint64_t instance =
      reinterpret_cast<std::uint64_t>(&lk->mechanism());
  std::vector<obs::LockWait> out;
  for (const obs::LockWait& w : obs::derive_spans(obs::capture()).waits) {
    if (w.instance == instance) out.push_back(w);
  }
  return out;
}

// Polls until `pred` holds or 10 s pass.
template <class Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(TxnEvents, TransactionEmitsBeginAndEndOnlyWhenEnabled) {
  obs::reset_for_test();
  obs::set_runtime_enabled(false);
  { Transaction txn; }
  EXPECT_TRUE(all_events().empty());

  obs::ScopedTraceEnable trace_on;
  const auto t = make_table();
  SemanticLock lk(t);
  std::uint64_t txn_id = 0;
  {
    Transaction txn;
    txn.lv_mode(&lk, t.resolve_constant(1));
    txn_id = obs::current_txn();
    Transaction nested;  // shares the outer id and interval
  }
  std::vector<std::uint64_t> begins, ends;
  for (const Event& e : all_events()) {
    if (e.type == EventType::kTxnBegin) begins.push_back(e.ts_ns);
    if (e.type == EventType::kTxnEnd) ends.push_back(e.ts_ns);
    if (e.type == EventType::kTxnBegin || e.type == EventType::kTxnEnd) {
      EXPECT_EQ(e.txn, txn_id);
      EXPECT_EQ(e.instance, 0u);
    }
  }
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_STREQ(obs::event_name(EventType::kTxnBegin), "txn_begin");
  EXPECT_STREQ(obs::event_name(EventType::kTxnEnd), "txn_end");

  // One interval per id: the outer begin to the outer end.
  const obs::DerivedSpans spans = obs::derive_spans(obs::capture());
  ASSERT_EQ(spans.txns.size(), 1u);
  EXPECT_EQ(spans.txns[0].txn, txn_id);
  EXPECT_EQ(spans.txns[0].begin_ns, begins.front());
  EXPECT_EQ(spans.txns[0].end_ns, ends.back());
  EXPECT_TRUE(spans.waits.empty());
}

TEST(TxnEvents, FormatOwnerRendersBothIdSpaces) {
  EXPECT_EQ(obs::format_owner(12), "txn 12");
  EXPECT_EQ(obs::format_owner(obs::kThreadOwnerBit | 3), "thread 3");
  EXPECT_EQ(obs::format_owner(0), "?");
}

// A holder transaction keeps a conflicting mode while a waiter blocks.
// While blocked, the live wait-for graph names the waiter -> holder edge
// (and the watchdog chain renders it); after the grant, the lock wait
// derived from the events names the holder.
TEST(DerivedSpan, ContendedWaitNamesBlockerAndWaitGraphEdge) {
  obs::reset_for_test();
  obs::set_attribution_enabled(true);
  const auto t = make_table();
  SemanticLock lk(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);
  const int starved = t.resolve_constant(1);
  ASSERT_FALSE(t.commutes(held, starved));
  const std::uint64_t instance =
      reinterpret_cast<std::uint64_t>(&lk.mechanism());

  Transaction holder;
  holder.lv_mode(&lk, held);
  const std::uint64_t holder_id = obs::current_txn();
  ASSERT_NE(holder_id, 0u);

  std::atomic<std::uint64_t> waiter_id{0};
  std::thread waiter([&] {
    Transaction txn;
    waiter_id.store(obs::current_txn(), std::memory_order_release);
    txn.lv_mode(&lk, starved);
  });

  // Wait until the waiter's edge shows up in the live graph.
  std::vector<obs::WaitGraphEdge> edges;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    edges = obs::snapshot_waitgraph();
    if (!edges.empty() && edges.front().blocker == holder_id) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.front().instance, instance);
  EXPECT_EQ(edges.front().mode, starved);
  EXPECT_EQ(edges.front().waiter,
            waiter_id.load(std::memory_order_acquire));
  EXPECT_EQ(edges.front().blocker, holder_id);
  EXPECT_GT(edges.front().since_ns, 0u);

  // The exposition formats render the same edge, cycle-free.
  EXPECT_TRUE(obs::waitgraph_cycles(edges).empty());
  const std::string json = obs::waitgraph_json();
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"schema\": \"semlock-waitgraph-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cycles\": []"), std::string::npos) << json;
  const std::string dot = obs::waitgraph_dot();
  EXPECT_NE(dot.find("digraph waitfor"), std::string::npos) << dot;
  EXPECT_NE(dot.find(obs::format_owner(holder_id)), std::string::npos)
      << dot;
  const std::string chain = obs::waitgraph_chain(&lk.mechanism(), starved);
  EXPECT_NE(chain.find("wait-for chain: "), std::string::npos) << chain;
  EXPECT_NE(chain.find(obs::format_owner(holder_id)), std::string::npos)
      << chain;

  holder.unlock_all();
  waiter.join();

  // The edge is gone once the wait is granted...
  EXPECT_TRUE(obs::snapshot_waitgraph().empty());
  EXPECT_EQ(obs::waitgraph_chain(&lk.mechanism(), starved), "");

  // ...and the waiter's derived lock wait names the holder.
  const std::vector<obs::LockWait> waits = waits_on(&lk);
  ASSERT_EQ(waits.size(), 1u);
  const obs::LockWait& w = waits.front();
  EXPECT_EQ(w.mode, starved);
  EXPECT_EQ(w.waiter, waiter_id.load(std::memory_order_acquire));
  EXPECT_EQ(w.blocker, holder_id);
  EXPECT_EQ(w.blocker_mode, held);
  EXPECT_LE(w.start_ns, w.capture_ns);
  EXPECT_LT(w.attr_class, static_cast<std::uint32_t>(obs::kNumAttrClasses));
  EXPECT_LE(w.start_ns, w.end_ns);
  obs::set_attribution_enabled(false);
}

// A waiter blocked by mode A re-parks on mode B after A's release. Its
// derived wait names B, and B's class or unsampled, never the class its
// entry classification gave A: A commutes with B, and only B conflicts with
// the waiter for real.
TEST(DerivedSpan, BlockerRefreshTakesTheFinalBlockersClass) {
  obs::reset_for_test();
  obs::ScopedTraceEnable trace_on;
  obs::set_attribution_enabled(true);
  obs::set_attribution_sample_every(1);
  ModeTableConfig c;
  c.abstract_values = 4;  // alpha(k) = k mod 4: keys 0 and 4 collide
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  const ModeTable t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("put", {commute::var("k"), commute::star()})}),
       SymbolicSet({op("containsKey", {commute::var("k")})}),
       SymbolicSet({op("size")})},
      c);
  SemanticLock lk(t);
  const Value k0[1] = {0};
  const Value k4[1] = {4};
  const int waited = t.resolve(0, k0);  // put(0, *)
  const int mode_a = t.resolve(1, k4);  // containsKey(4): a phi collision
  const int mode_b = t.resolve_constant(2);  // size: a true conflict
  ASSERT_FALSE(t.commutes(waited, mode_a));
  ASSERT_FALSE(t.commutes(waited, mode_b));
  ASSERT_TRUE(t.commutes(mode_a, mode_b));
  const std::uint64_t instance =
      reinterpret_cast<std::uint64_t>(&lk.mechanism());
  auto parked_on = [&](int blocker_mode) {
    for (const Event& e : all_events()) {
      if (e.type == EventType::kPark && e.instance == instance &&
          e.payload == blocker_mode) {
        return true;
      }
    }
    return false;
  };

  auto holder_a = std::make_unique<Transaction>();
  holder_a->lv(&lk, 1, k4);
  std::atomic<bool> b_held{false};
  std::atomic<bool> release_b{false};
  std::atomic<std::uint64_t> b_id{0};
  std::thread waiter([&] {
    Transaction txn;
    txn.lv(&lk, 0, k0);
  });
  ASSERT_TRUE(eventually([&] { return parked_on(mode_a); }));
  std::thread holder_b([&] {
    Transaction txn;
    txn.lv(&lk, 2);
    b_id.store(obs::current_txn(), std::memory_order_release);
    b_held.store(true, std::memory_order_release);
    while (!release_b.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(eventually([&] { return b_held.load(); }));
  holder_a.reset();  // releases A and wakes the waiter, which finds B
  ASSERT_TRUE(eventually([&] { return parked_on(mode_b); }));
  release_b.store(true, std::memory_order_release);
  holder_b.join();
  waiter.join();
  obs::set_attribution_enabled(false);

  // The entry classification blamed A's phi collision...
  bool classified_a = false;
  for (const Event& e : all_events()) {
    if (e.type == EventType::kAttribution && e.mode == mode_a) {
      classified_a = true;
      EXPECT_EQ(e.payload, static_cast<int>(AttrClass::kPhiCollision));
    }
  }
  EXPECT_TRUE(classified_a);
  // ...but the wait ended blocked by B.
  const std::vector<obs::LockWait> waits = waits_on(&lk);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].mode, waited);
  EXPECT_EQ(waits[0].blocker_mode, mode_b);
  EXPECT_EQ(waits[0].blocker, b_id.load());
  EXPECT_NE(waits[0].attr_class,
            static_cast<std::uint32_t>(AttrClass::kPhiCollision));
  EXPECT_EQ(waits[0].attr_class,
            static_cast<std::uint32_t>(AttrClass::kUnsampled));
}

// The wait-for graph has no table of its own: a traced wait's edge lives in
// the WaitRegistry slot the watchdog samples, and an untraced wait's slot
// carries no waiter, so it stays out of the graph.
TEST(WaitGraph, SharesTheWatchdogSlot) {
  obs::reset_for_test();
  const auto traced_table = make_table(true);
  const auto untraced_table = make_table(false);
  SemanticLock traced(traced_table);
  SemanticLock untraced(untraced_table);
  const Value v0[1] = {0};
  const int held = traced_table.resolve(0, v0);
  const int starved = traced_table.resolve_constant(1);
  ASSERT_FALSE(traced_table.commutes(held, starved));
  const std::uintptr_t traced_id =
      reinterpret_cast<std::uintptr_t>(&traced.mechanism());
  const std::uintptr_t untraced_id =
      reinterpret_cast<std::uintptr_t>(&untraced.mechanism());

  // Registry waits and graph edges on the two mechanisms.
  auto registry_waits = [&] {
    std::vector<runtime::WaitRegistry::ActiveWait> out;
    runtime::WaitRegistry::instance().for_each_active(
        [&](const runtime::WaitRegistry::ActiveWait& w) {
          if (w.mechanism == traced_id || w.mechanism == untraced_id) {
            out.push_back(w);
          }
        });
    return out;
  };
  auto graph_edges = [&] {
    std::vector<obs::WaitGraphEdge> out;
    for (const obs::WaitGraphEdge& e : obs::snapshot_waitgraph()) {
      if (e.instance == traced_id || e.instance == untraced_id) {
        out.push_back(e);
      }
    }
    return out;
  };

  Transaction holder;
  holder.lv_mode(&traced, held);
  holder.lv_mode(&untraced, held);
  std::thread traced_waiter([&] {
    Transaction txn;
    txn.lv_mode(&traced, starved);
  });
  std::thread untraced_waiter([&] {
    Transaction txn;
    txn.lv_mode(&untraced, starved);
  });

  std::vector<runtime::WaitRegistry::ActiveWait> waits;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    waits = registry_waits();
    if (waits.size() == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(waits.size(), 2u);
  const std::vector<obs::WaitGraphEdge> edges = graph_edges();
  ASSERT_EQ(edges.size(), 1u);
  const obs::WaitGraphEdge& edge = edges.front();
  EXPECT_EQ(edge.instance, traced_id);
  bool saw_traced = false;
  for (const runtime::WaitRegistry::ActiveWait& w : waits) {
    EXPECT_EQ(w.mode, starved);
    if (w.mechanism != traced_id) {
      EXPECT_EQ(w.waiter, 0u);  // untraced: in the registry only
      continue;
    }
    saw_traced = true;
    EXPECT_EQ(edge.mode, w.mode);
    EXPECT_EQ(edge.since_ns, w.start_ns);
    EXPECT_EQ(edge.waiter, w.waiter);
    EXPECT_NE(w.waiter, 0u);
  }
  EXPECT_TRUE(saw_traced);

  holder.unlock_all();
  traced_waiter.join();
  untraced_waiter.join();
  EXPECT_TRUE(registry_waits().empty());
  EXPECT_TRUE(graph_edges().empty());
}

TEST(WaitGraph, CycleDetectionFindsTheLoopAndSkipsTheTail) {
  // Synthetic functional graph: 7 -> 3 -> 5 -> 3-cycle start... actually
  // A(3) -> B(5) -> C(9) -> A(3) plus the acyclic feeder D(7) -> A(3).
  auto edge = [](std::uint64_t waiter, std::uint64_t blocker) {
    obs::WaitGraphEdge e;
    e.waiter = waiter;
    e.blocker = blocker;
    e.instance = 0xABC;
    e.mode = 1;
    return e;
  };
  const std::vector<obs::WaitGraphEdge> edges = {
      edge(5, 9), edge(3, 5), edge(9, 3), edge(7, 3)};
  const auto cycles = obs::waitgraph_cycles(edges);
  ASSERT_EQ(cycles.size(), 1u);
  // Rotated to start from the smallest owner id: 3 -> 5 -> 9.
  EXPECT_EQ(cycles[0], (std::vector<std::uint64_t>{3, 5, 9}));

  // No cycle without the back edge.
  const std::vector<obs::WaitGraphEdge> acyclic = {
      edge(5, 9), edge(3, 5), edge(7, 3)};
  EXPECT_TRUE(obs::waitgraph_cycles(acyclic).empty());
}

// Every event field, the payload included, survives a file round trip.
TEST(Dump, V6RoundTripsEventPayloads) {
  obs::TraceDump dump;
  obs::ThreadTrace tt;
  tt.tid = 3;
  tt.events.push_back(Event{100, 0xBEEF, 7, EventType::kContendedWait, 2, 3});
  tt.events.push_back(Event{150, 0xBEEF, 7, EventType::kAttribution, 3, 2});
  tt.events.push_back(Event{900, 0xBEEF, 7, EventType::kAcquireGrant, 2, 42});
  tt.events.push_back(Event{950, 0, 7, EventType::kTxnEnd, -1, -1});
  dump.threads.push_back(tt);
  const std::string path = testing::TempDir() + "/semlock_v6_rt.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;
  obs::TraceDump loaded;
  ASSERT_TRUE(obs::load_dump_file(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.threads.size(), 1u);
  EXPECT_EQ(loaded.threads[0].tid, 3u);
  const std::vector<Event>& got = loaded.threads[0].events;
  ASSERT_EQ(got.size(), tt.events.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ts_ns, tt.events[i].ts_ns);
    EXPECT_EQ(got[i].instance, tt.events[i].instance);
    EXPECT_EQ(got[i].txn, tt.events[i].txn);
    EXPECT_EQ(got[i].type, tt.events[i].type);
    EXPECT_EQ(got[i].mode, tt.events[i].mode);
    EXPECT_EQ(got[i].payload, tt.events[i].payload);
  }
  std::remove(path.c_str());
}

// Only the version every writer emits loads: v5 (the span-section format)
// and a version from the future are both refused by name.
TEST(Dump, OnlyTheCurrentVersionLoads) {
  obs::TraceDump dump;
  obs::ThreadTrace tt;
  tt.tid = 1;
  tt.events.push_back(Event{10, 0xA, 0, EventType::kMark, 0, -1});
  dump.threads.push_back(tt);
  const std::string path = testing::TempDir() + "/semlock_dump_version.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;
  obs::TraceDump v6;
  ASSERT_TRUE(obs::load_dump_file(path, v6, &error)) << error;
  ASSERT_EQ(v6.threads.size(), 1u);
  EXPECT_EQ(v6.threads[0].events.size(), 1u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  ASSERT_GT(bytes.size(), 16u);
  for (const std::uint32_t version : {5u, 7u}) {
    std::string v = bytes;
    std::memcpy(&v[8], &version, sizeof(version));  // version follows magic
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(v.data(), 1, v.size(), out), v.size());
    std::fclose(out);
    obs::TraceDump refused;
    EXPECT_FALSE(obs::load_dump_file(path, refused, &error));
    EXPECT_NE(error.find("unsupported dump version " +
                         std::to_string(version)),
              std::string::npos)
        << error;
  }
  std::remove(path.c_str());
}

// Synthetic dump for the analyzer: ten ~100ns transactions and one 10x
// outlier that spent most of its time blocked on a phi collision.
obs::TraceDump make_tail_dump() {
  obs::TraceDump dump;
  obs::ThreadTrace fast;
  fast.tid = 1;
  auto ev = [](obs::ThreadTrace& t, std::uint64_t ts, std::uint64_t txn,
               EventType type, std::uint64_t instance = 0, int mode = -1,
               int payload = -1) {
    t.events.push_back(Event{ts, instance, txn, type, mode, payload});
  };
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ev(fast, i * 1000, i, EventType::kTxnBegin);
    // txn 1 also takes mode 3 of 0xABC: the outlier's blocker.
    if (i == 1) ev(fast, i * 1000 + 10, i, EventType::kAcquireGrant, 0xABC, 3);
    ev(fast, i * 1000 + 100 + i, i, EventType::kTxnEnd);
  }
  dump.threads.push_back(fast);
  // txn 11: latency 10100ns, 8900ns of it blocked on 0xABC mode 2 by txn 1.
  obs::ThreadTrace slow;
  slow.tid = 2;
  ev(slow, 20000, 11, EventType::kTxnBegin);
  ev(slow, 20100, 11, EventType::kContendedWait, 0xABC, 2, 3);
  ev(slow, 20150, 11, EventType::kAttribution, 0xABC, 3,
     static_cast<int>(AttrClass::kPhiCollision));
  ev(slow, 29000, 11, EventType::kAcquireGrant, 0xABC, 2);
  ev(slow, 30100, 11, EventType::kTxnEnd);
  dump.threads.push_back(slow);
  return dump;
}

TEST(CriticalPath, NamesTheTailGroupAndItsShare) {
  const obs::TraceDump dump = make_tail_dump();
  const obs::CriticalPathStats stats = obs::analyze_critical_paths(dump);
  EXPECT_EQ(stats.txns, 11u);
  ASSERT_GE(stats.tail_txns, 1u);
  EXPECT_GT(stats.p99_threshold_ns, 0u);
  ASSERT_FALSE(stats.groups.empty());
  const obs::TailGroup& g = stats.groups.front();
  EXPECT_EQ(g.instance, 0xABCu);
  EXPECT_EQ(g.mode, 2);
  EXPECT_EQ(g.attr_class, static_cast<std::uint32_t>(AttrClass::kPhiCollision));
  EXPECT_EQ(g.blocked_ns, 8900u);
  EXPECT_EQ(g.waits, 1u);
  EXPECT_GT(g.share_of_tail_latency, 0.0);
  EXPECT_LE(g.share_of_tail_latency, 1.0);

  // The worst chain starts from the outlier and names its blocker.
  ASSERT_FALSE(stats.chains.empty());
  EXPECT_NE(stats.chains.front().find("txn 11"), std::string::npos);
  EXPECT_NE(stats.chains.front().find("phi collision"), std::string::npos);
  EXPECT_NE(stats.chains.front().find("txn 1"), std::string::npos);

  // The acceptance headline: the report names at least one (instance,
  // mode, attribution class) group with its share of p99+ tail latency.
  const std::string report = obs::critical_path_report(dump);
  EXPECT_NE(report.find("transactions: 11"), std::string::npos) << report;
  EXPECT_NE(report.find("0xabc mode 2 phi collision"), std::string::npos)
      << report;
  EXPECT_NE(report.find("% of p99+ tail latency"), std::string::npos)
      << report;
  EXPECT_NE(report.find("longest blocking chains"), std::string::npos)
      << report;
}

TEST(CriticalPath, EmptyDumpReportsGracefully) {
  obs::TraceDump dump;
  const obs::CriticalPathStats stats = obs::analyze_critical_paths(dump);
  EXPECT_EQ(stats.txns, 0u);
  EXPECT_NE(obs::critical_path_report(dump).find("no transactions"),
            std::string::npos);
}

// The derivation's blocker rule on a synthetic stream: the latest grant of
// the last sampled blocker mode at or before the sample, by another owner.
TEST(DerivedSpan, BlockerIsTheLatestQualifyingGrantBeforeTheLastSample) {
  obs::TraceDump dump;
  obs::ThreadTrace grants;
  grants.tid = 1;
  auto grant = [&](std::uint64_t ts, std::uint64_t txn, int mode) {
    grants.events.push_back(
        Event{ts, 0xABC, txn, EventType::kAcquireGrant, mode, -1});
  };
  // txn 9 then txn 7 take mode 3 before the sample at t=100; a mode-1 grant
  // and a post-sample grant must not count.
  grant(40, 9, 3);
  grant(50, 7, 3);
  grant(60, 8, 1);
  grant(200, 6, 3);
  dump.threads.push_back(grants);

  obs::ThreadTrace waiter;
  waiter.tid = 2;
  auto ev = [&](std::uint64_t ts, EventType type, int mode, int payload) {
    waiter.events.push_back(Event{ts, 0xABC, 2, type, mode, payload});
  };
  ev(30, EventType::kContendedWait, 2, 1);  // entry sample: mode 1
  ev(35, EventType::kAttribution, 1, static_cast<int>(AttrClass::kSelfMode));
  ev(36, EventType::kAttribution, 3,
     static_cast<int>(AttrClass::kTrueConflict));
  ev(90, EventType::kAcquireGrant, 3, -1);   // the waiter's own: skipped
  ev(100, EventType::kPark, 2, 3);           // refreshed: mode 3 at t=100
  ev(250, EventType::kPark, 2, -1);          // found nothing: keeps t=100
  ev(300, EventType::kAcquireGrant, 2, -1);
  dump.threads.push_back(waiter);

  obs::DerivedSpans spans = obs::derive_spans(dump);
  ASSERT_EQ(spans.waits.size(), 1u);
  obs::LockWait w = spans.waits[0];
  EXPECT_EQ(w.waiter, 2u);
  EXPECT_EQ(w.instance, 0xABCu);
  EXPECT_EQ(w.mode, 2);
  EXPECT_EQ(w.start_ns, 30u);
  EXPECT_EQ(w.end_ns, 300u);
  EXPECT_EQ(w.blocker_mode, 3);
  EXPECT_EQ(w.capture_ns, 100u);
  EXPECT_EQ(w.blocker, 7u);
  EXPECT_EQ(w.attr_class,
            static_cast<std::uint32_t>(AttrClass::kTrueConflict));

  // A bare-mechanism grant (txn == 0) names the emitting thread's sentinel,
  // the owner-id space of current_owner_id().
  dump.threads[0].events[1].txn = 0;
  spans = obs::derive_spans(dump);
  ASSERT_EQ(spans.waits.size(), 1u);
  EXPECT_EQ(spans.waits[0].blocker, obs::kThreadOwnerBit | 1);

  // A wait whose grant is not retained is dropped.
  dump.threads[1].events.pop_back();
  EXPECT_TRUE(obs::derive_spans(dump).waits.empty());
}

TEST(ChromeExport, FlowEventsBindParkedSliceToItsWakingRelease) {
  obs::TraceDump dump;
  // Holder (tid 1): grant then release of mode 3 on instance 0xA.
  obs::ThreadTrace holder;
  holder.tid = 1;
  obs::Event e;
  e.instance = 0xA;
  e.txn = 5;
  e.ts_ns = 100;
  e.type = obs::EventType::kAcquireGrant;
  e.mode = 3;
  holder.events.push_back(e);
  e.ts_ns = 400;
  e.type = obs::EventType::kRelease;
  holder.events.push_back(e);
  dump.threads.push_back(holder);
  // Waiter (tid 2): parked on the same instance across that release.
  obs::ThreadTrace waiter;
  waiter.tid = 2;
  e.txn = 6;
  e.mode = 2;
  e.ts_ns = 150;
  e.type = obs::EventType::kPark;
  waiter.events.push_back(e);
  e.ts_ns = 450;
  e.type = obs::EventType::kUnpark;
  waiter.events.push_back(e);
  dump.threads.push_back(waiter);

  const std::string json = obs::to_chrome_json(dump);
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error << "\n" << json;
  // One flow: "s" on the releasing holder's track, "f" (bp:"e") landing on
  // the waiter's unpark, sharing id 1.
  EXPECT_NE(json.find("\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                      "\"ph\": \"s\", \"id\": 1, \"pid\": 1, \"tid\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                      "\"ph\": \"f\", \"bp\": \"e\", \"id\": 1, "
                      "\"pid\": 1, \"tid\": 2"),
            std::string::npos)
      << json;

  // No flow when the release happens outside the parked window.
  obs::TraceDump no_wake = dump;
  no_wake.threads[0].events[1].ts_ns = 500;  // release after the unpark
  const std::string json2 = obs::to_chrome_json(no_wake);
  EXPECT_TRUE(obs::validate_json(json2, &error)) << error;
  EXPECT_EQ(json2.find("unblocked-by"), std::string::npos) << json2;
}

}  // namespace
}  // namespace semlock
