// The conflict-attribution profiler (src/obs/attribution): the classifier's
// decision tree on hand-built snapshots, the seqlock grant records, the
// executed-ops table, the sampling gate, and two end-to-end workloads that
// pin the headline acceptance behaviors — a forced phi collision is blamed
// on the abstraction, a genuine same-key conflict never is. Also the
// on-demand snapshot path (request_snapshot / SIGUSR1) that makes the
// profile inspectable mid-run. Only built with SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <array>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>

#include "commute/builtin_specs.h"
#include "obs/attribution.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semlock/lock_mechanism.h"
#include "semlock/mode_table.h"
#include "semlock/sem_adt.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::AttrClass;
using obs::AttrSnapshot;

// Set-spec table with a keyed site 0 {add(v), remove(v)} and a constant
// site 1 {size, clear}; add/remove commute iff keys differ, size/clear
// never commute with either.
ModeTable make_table(int abstract_values) {
  ModeTableConfig c;
  c.abstract_values = abstract_values;
  c.trace_events = true;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {commute::var("v")}),
                    op("remove", {commute::var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

AttrSnapshot snap_keyed(Value v, std::uint64_t logical = 0,
                        std::uint64_t owner = 1) {
  AttrSnapshot s;
  s.valid = true;
  s.owner = owner;
  s.logical_instance = logical;
  s.site = 0;
  s.nvals = 1;
  s.vals[0] = v;
  return s;
}

AttrSnapshot snap_const(std::uint64_t owner = 1) {
  AttrSnapshot s;
  s.valid = true;
  s.owner = owner;
  s.site = 1;
  s.nvals = 0;
  return s;
}

// --- the classifier's decision tree, rule by rule ---------------------------

TEST(ClassifyWait, ConcreteNonCommutingPairIsTrueConflict) {
  const auto t = make_table(4);
  const Value v5[1] = {5};
  const int keyed = t.resolve(0, v5);
  const int konst = t.resolve_constant(1);
  // size/clear vs add(5): never commute, concretely or otherwise — the
  // wait is semantically required.
  EXPECT_EQ(obs::classify_wait(t, konst, snap_const(), keyed,
                               snap_keyed(5, 0, 2), 0),
            AttrClass::kTrueConflict);
}

TEST(ClassifyWait, SameModeConcreteConflictIsSelfMode) {
  const auto t = make_table(4);
  const Value v5[1] = {5};
  const int keyed = t.resolve(0, v5);
  // add(5) vs remove(5): the key-differs atom fails on equal keys, and
  // both sides sit in the same mode — the degenerate same-key conflict.
  EXPECT_EQ(obs::classify_wait(t, keyed, snap_keyed(5), keyed,
                               snap_keyed(5, 0, 2), 0),
            AttrClass::kSelfMode);
}

TEST(ClassifyWait, AlphaMergedCommutingKeysArePhiCollision) {
  const auto t = make_table(2);
  const Value v1[1] = {1};
  const int m = t.resolve(0, v1);
  // Keys 1 and 3 commute concretely (they differ) but share alpha class
  // 1 mod 2: the conflict was manufactured by phi.
  EXPECT_EQ(
      obs::classify_wait(t, m, snap_keyed(1), m, snap_keyed(3, 0, 2), 0),
      AttrClass::kPhiCollision);
}

TEST(ClassifyWait, DistinctLogicalInstancesAreWrapperCoarsening) {
  const auto t = make_table(2);
  const Value v1[1] = {1};
  const int m = t.resolve(0, v1);
  EXPECT_EQ(obs::classify_wait(t, m, snap_keyed(1, /*logical=*/7), m,
                               snap_keyed(3, /*logical=*/9, 2), 0),
            AttrClass::kWrapperCoarsening);
  // The wrapper rule fires first: even a same-key pair is blamed on the
  // Section 3.4 collapse when the sides belong to different logical
  // instances — on separate instances the ops cannot actually conflict.
  const Value v5[1] = {5};
  const int keyed = t.resolve(0, v5);
  EXPECT_EQ(obs::classify_wait(t, keyed, snap_keyed(5, 7), keyed,
                               snap_keyed(5, 9, 2), 0),
            AttrClass::kWrapperCoarsening);
}

TEST(ClassifyWait, MissingRecordIsSelfModeOnlyForTheSameMode) {
  const auto t = make_table(4);
  const Value v5[1] = {5};
  const int keyed = t.resolve(0, v5);
  const int konst = t.resolve_constant(1);
  const AttrSnapshot invalid;  // never written / torn / bare-mode caller
  // Same mode: the conflict is self-evident without any record.
  EXPECT_EQ(obs::classify_wait(t, keyed, snap_keyed(5), keyed, invalid, 0),
            AttrClass::kSelfMode);
  // Different modes: counted honestly as unsampled, not guessed.
  EXPECT_EQ(obs::classify_wait(t, konst, snap_const(), keyed, invalid, 0),
            AttrClass::kUnsampled);
  EXPECT_EQ(
      obs::classify_wait(t, konst, invalid, keyed, snap_keyed(5, 0, 2), 0),
      AttrClass::kUnsampled);
}

TEST(ClassifyWait, ExecMaskRestrictionYieldsModeOverapprox) {
  const auto t = make_table(4);
  const Value v5[1] = {5};
  const int keyed = t.resolve(0, v5);
  const int konst = t.resolve_constant(1);
  // The holder locked {add(v), remove(v)} but its owner only ever executed
  // `contains` against this instance: every op that conflicts with the
  // waiter was locked, never run — a tighter symbolic set dissolves the
  // wait.
  const int ci = t.spec().method_index("contains");
  ASSERT_GE(ci, 0);
  EXPECT_EQ(obs::classify_wait(t, konst, snap_const(), keyed,
                               snap_keyed(5, 0, 2), 1ull << ci),
            AttrClass::kModeOverapprox);
}

TEST(ClassifyWait, AbstractlyDisjointKeysAreModeOverapprox) {
  // With n=16, keys 1 and 3 land in distinct alpha classes, so both the
  // concrete and the abstract check pass: a wait between these modes came
  // from above the phi layer (mode-bound merging), not from phi.
  const auto t = make_table(16);
  const Value v1[1] = {1};
  const Value v3[1] = {3};
  const int m1 = t.resolve(0, v1);
  const int m3 = t.resolve(0, v3);
  EXPECT_EQ(
      obs::classify_wait(t, m1, snap_keyed(1), m3, snap_keyed(3, 0, 2), 0),
      AttrClass::kModeOverapprox);
}

TEST(AttrClassNames, StableForCommittedArtifacts) {
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kTrueConflict),
               "true_conflict");
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kPhiCollision),
               "phi_collision");
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kModeOverapprox),
               "mode_overapprox");
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kWrapperCoarsening),
               "wrapper_coarsening");
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kSelfMode), "self_mode");
  EXPECT_STREQ(obs::attr_class_key(AttrClass::kUnsampled), "unsampled");
  EXPECT_STREQ(obs::attr_class_name(AttrClass::kPhiCollision),
               "phi collision");
}

// --- the seqlock grant record -----------------------------------------------

TEST(AttrRecord, GrantReadRoundTrip) {
  obs::AttrRecord rec;
  EXPECT_FALSE(obs::attr_read(rec).valid);  // never written
  const Value vals[2] = {11, -3};
  LockSiteArgs args;
  args.site = 0;
  args.values = std::span<const Value>(vals, 2);
  args.logical_instance = 42;
  obs::attr_record_grant(rec, 99, &args);
  const AttrSnapshot s = obs::attr_read(rec);
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.owner, 99u);
  EXPECT_EQ(s.logical_instance, 42u);
  EXPECT_EQ(s.site, 0);
  EXPECT_EQ(s.nvals, 2u);
  EXPECT_EQ(s.vals[0], 11);
  EXPECT_EQ(s.vals[1], -3);
}

TEST(AttrRecord, BareModeGrantInvalidatesTheRecord) {
  obs::AttrRecord rec;
  const Value vals[1] = {7};
  LockSiteArgs args;
  args.site = 0;
  args.values = std::span<const Value>(vals, 1);
  obs::attr_record_grant(rec, 1, &args);
  ASSERT_TRUE(obs::attr_read(rec).valid);
  // A later grant that locked by bare mode id must not leave the previous
  // grant's arguments around to be misattributed to the new holder.
  obs::attr_record_grant(rec, 2, nullptr);
  const AttrSnapshot s = obs::attr_read(rec);
  EXPECT_FALSE(s.valid);
}

TEST(AttrRecord, MidWriteReadsAsInvalid) {
  obs::AttrRecord rec;
  rec.seq.store(1, std::memory_order_relaxed);  // writer claimed, mid-write
  EXPECT_FALSE(obs::attr_read(rec).valid);
}

// --- executed-ops table -----------------------------------------------------

TEST(ExecutedOps, MaskAccumulatesPerOwnerAndInstance) {
  obs::reset_executed_ops();
  int anchor = 0;
  const void* inst = &anchor;
  EXPECT_EQ(obs::executed_ops_mask(inst, 1), 0u);
  obs::note_executed_op(inst, 1, 0);
  obs::note_executed_op(inst, 1, 3);
  EXPECT_EQ(obs::executed_ops_mask(inst, 1), (1ull << 0) | (1ull << 3));
  // A different owner against the same instance is unknown (mask 0), which
  // classifies conservatively.
  EXPECT_EQ(obs::executed_ops_mask(inst, 2), 0u);
  // Out-of-range method indices are ignored, not truncated into bits.
  obs::note_executed_op(inst, 1, -1);
  obs::note_executed_op(inst, 1, 64);
  EXPECT_EQ(obs::executed_ops_mask(inst, 1), (1ull << 0) | (1ull << 3));
  obs::reset_executed_ops();
  EXPECT_EQ(obs::executed_ops_mask(inst, 1), 0u);
}

// --- gates ------------------------------------------------------------------

TEST(AttributionGates, SampleEveryNKeepsOneInN) {
  obs::set_attribution_sample_every(4);
  // The wait counter is thread-local; a fresh thread starts at zero.
  int hits = 0;
  std::thread([&] {
    for (int i = 0; i < 16; ++i) {
      if (obs::attribution_should_sample()) ++hits;
    }
  }).join();
  EXPECT_EQ(hits, 4);
  obs::set_attribution_sample_every(0);  // clamped: 0 would divide by zero
  EXPECT_EQ(obs::attribution_sample_every(), 1u);
  EXPECT_TRUE(obs::attribution_should_sample());
}

TEST(OwnerIdentity, ThreadSentinelAndTxnIdNeverCollide) {
  // Outside any transaction the owner is the thread id with the top bit
  // set; inside it is the (small, top-bit-clear) transaction id.
  EXPECT_NE(obs::current_owner_id() & (1ull << 63), 0u);
  {
    Transaction txn;
    ASSERT_NE(obs::current_txn(), 0u);
    EXPECT_EQ(obs::current_owner_id(), obs::current_txn());
  }
}

// --- end-to-end workloads ---------------------------------------------------

std::array<std::uint64_t, obs::kNumAttrClasses> class_totals() {
  std::array<std::uint64_t, obs::kNumAttrClasses> out{};
  for (const obs::AttributionCell& cell : obs::collect_metrics().attribution) {
    for (std::size_t c = 0; c < obs::kNumAttrClasses; ++c) {
      out[c] += cell.counts[c];
    }
  }
  return out;
}

std::uint64_t at(const std::array<std::uint64_t, obs::kNumAttrClasses>& a,
                 AttrClass c) {
  return a[static_cast<std::size_t>(c)];
}

// Two threads hammer a SemMap through fixed keys; returns the summed
// per-class tallies. The in-CS spin and the yields make overlapping holds
// (and thus blocked waits) happen even on a single core — same technique
// as bench_attribution_sweep.
std::array<std::uint64_t, obs::kNumAttrClasses> run_two_key_workload(
    int abstract_values, std::int64_t key_a, std::int64_t key_b, int ops) {
  SemMap<std::int64_t, std::int64_t> map(abstract_values);
  auto worker = [&map, ops](std::int64_t key) {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < ops; ++i) {
      {
        auto g = map.acquire(MapIntent::UpdateKey,
                             static_cast<commute::Value>(key));
        map.put(key, i);
        for (int spin = 0; spin < 200; ++spin) sink = sink + spin;
        if (i % 32 == 0) std::this_thread::yield();
      }
      if (i % 32 == 16) std::this_thread::yield();
    }
  };
  std::thread ta(worker, key_a);
  std::thread tb(worker, key_b);
  ta.join();
  tb.join();
  return class_totals();
}

// The attribution report and the metrics JSON over a snapshot with
// attribution cells: totals, the genuine/artifact split, per mode pair and
// per instance, and one JSON key per class.
TEST(AttributionReport, SummarizesCellsAndInstances) {
  obs::TraceDump dump;
  EXPECT_NE(obs::attribution_report(dump).find("no classified waits"),
            std::string::npos);
  auto cls = [](AttrClass c) { return static_cast<std::size_t>(c); };
  obs::AttributionCell cell;
  cell.waiter = 2;
  cell.holder = 3;
  cell.counts[cls(AttrClass::kPhiCollision)] = 6;
  cell.counts[cls(AttrClass::kTrueConflict)] = 2;
  cell.counts[cls(AttrClass::kUnsampled)] = 1;
  dump.metrics.attribution.push_back(cell);
  obs::InstanceMetrics im;
  im.instance = 0xABC;
  for (std::size_t c = 0; c < obs::kNumAttrClasses; ++c) {
    im.attribution[c] = cell.counts[c];
  }
  dump.metrics.instances.push_back(im);

  const std::string report = obs::attribution_report(dump);
  for (const char* line :
       {"classified waits: 8 (+ 1 unsampled)",
        "genuine semantic conflicts: 2 (25.0%)",
        "abstraction artifacts:      6 (75.0%)", "phi collision      6 (66.7%)",
        "mode 2 <- mode 3: 9", "0xabc:  true_conflict 2  phi_collision 6  "
                               "unsampled 1"}) {
    EXPECT_NE(report.find(line), std::string::npos) << line << "\n" << report;
  }

  const std::string json = dump.metrics.to_json();
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"attribution\": {\"true_conflict\": 2, "
                      "\"self_mode\": 0, \"phi_collision\": 6, "
                      "\"mode_overapprox\": 0, \"wrapper_coarsening\": 0, "
                      "\"unsampled\": 1}"),
            std::string::npos)
      << json;
}

TEST(AttributionIntegration, AlphaMergedDisjointKeysBlameThePhiCollision) {
  obs::ScopedTraceEnable trace_on;
  obs::set_attribution_enabled(true);
  obs::set_attribution_sample_every(1);

  // Keys 1 and 3 never concretely collide but share alpha class 1 mod 2:
  // every cross-thread wait is the abstraction's fault. Scheduling decides
  // how many waits occur, so retry until enough were classified.
  std::array<std::uint64_t, obs::kNumAttrClasses> counts{};
  std::uint64_t classified = 0;
  for (int round = 0; round < 20 && classified < 20; ++round) {
    obs::reset_for_test();
    counts = run_two_key_workload(/*abstract_values=*/2, 1, 3, 4000);
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    classified = total - at(counts, AttrClass::kUnsampled);
  }
  ASSERT_GT(classified, 0u);

  // >= 90% of classified waits are PHI_COLLISION...
  EXPECT_GE(at(counts, AttrClass::kPhiCollision) * 10, classified * 9)
      << "phi=" << at(counts, AttrClass::kPhiCollision)
      << " classified=" << classified;
  // ...and none can be a genuine cross-key conflict or a wrapper artifact.
  EXPECT_EQ(at(counts, AttrClass::kTrueConflict), 0u);
  EXPECT_EQ(at(counts, AttrClass::kWrapperCoarsening), 0u);
  EXPECT_EQ(at(counts, AttrClass::kModeOverapprox), 0u);
}

TEST(AttributionIntegration, SameKeyContentionIsNeverPhiCollision) {
  obs::ScopedTraceEnable trace_on;
  obs::set_attribution_enabled(true);
  obs::set_attribution_sample_every(1);

  // Both threads update key 7 under a wide abstraction: the conflicts are
  // real (put/put on one key), so the profiler must not blame phi.
  std::array<std::uint64_t, obs::kNumAttrClasses> counts{};
  std::uint64_t classified = 0;
  for (int round = 0; round < 20 && classified < 20; ++round) {
    obs::reset_for_test();
    counts = run_two_key_workload(/*abstract_values=*/64, 7, 7, 4000);
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    classified = total - at(counts, AttrClass::kUnsampled);
  }
  ASSERT_GT(classified, 0u);

  EXPECT_EQ(at(counts, AttrClass::kPhiCollision), 0u);
  EXPECT_EQ(at(counts, AttrClass::kTrueConflict), 0u);  // one mode in play
  // The same-key conflicts surface as SELF_MODE (same mode on both sides).
  EXPECT_GT(at(counts, AttrClass::kSelfMode), 0u);
}

TEST(AttributionIntegration, DisablingTheGateStopsClassification) {
  obs::ScopedTraceEnable trace_on;
  obs::set_attribution_enabled(false);
  obs::reset_for_test();
  const auto counts = run_two_key_workload(/*abstract_values=*/2, 1, 3, 500);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, 0u);
  obs::set_attribution_enabled(true);
}

// --- on-demand snapshots ----------------------------------------------------

TEST(Snapshots, RequestIsDrainedAtTheNextEmitPollPoint) {
  obs::reset_for_test();
  const std::string base = testing::TempDir() + "/semlock_attr_snap.bin";
  obs::set_trace_file(base);
  const auto t = make_table(4);
  LockMechanism m(t);
  const int mode = t.resolve_constant(1);

  const std::uint32_t before = obs::snapshots_written();
  obs::request_snapshot();
  m.lock(mode);  // the emit() poll point claims the pending request
  m.unlock(mode);
  const std::uint32_t after = obs::snapshots_written();
  ASSERT_EQ(after, before + 1);

  const std::string snap = base + ".snap" + std::to_string(after);
  obs::TraceDump dump;
  std::string error;
  EXPECT_TRUE(obs::load_dump_file(snap, dump, &error)) << snap << ": "
                                                       << error;
  // The metrics sidecar rides along for check-clean JSON tooling.
  std::FILE* f = std::fopen((snap + ".metrics.json").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(snap.c_str());
  std::remove((snap + ".metrics.json").c_str());
}

TEST(Snapshots, Sigusr1TriggersASnapshotWithoutStoppingTheRun) {
  obs::reset_for_test();
  const std::string base = testing::TempDir() + "/semlock_attr_sig.bin";
  obs::set_trace_file(base);
  obs::install_snapshot_signal_handler();
  const auto t = make_table(4);
  LockMechanism m(t);
  const int mode = t.resolve_constant(1);

  const std::uint32_t before = obs::snapshots_written();
  ASSERT_EQ(std::raise(SIGUSR1), 0);  // handler only bumps a counter
  // The run keeps going; a later traced operation drains the request.
  for (int i = 0; i < 4; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }
  const std::uint32_t after = obs::snapshots_written();
  ASSERT_EQ(after, before + 1);

  const std::string snap = base + ".snap" + std::to_string(after);
  obs::TraceDump dump;
  std::string error;
  EXPECT_TRUE(obs::load_dump_file(snap, dump, &error)) << snap << ": "
                                                       << error;
  std::remove(snap.c_str());
  std::remove((snap + ".metrics.json").c_str());
}

}  // namespace
}  // namespace semlock
