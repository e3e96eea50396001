#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/mode_table.h"
#include "table_cases.h"

namespace semlock {
namespace {

using commute::cst;
using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

using test::cfg;
using test::TableCase;
using test::table_cases;

TEST(ModeTable, ComputeIfAbsentStripesIntoPartitions) {
  // The Fig. 21 "Ours" structure: the refined set {containsKey(k),put(k,*)}
  // with 64 abstract values yields 64 modes, pairwise commuting across
  // different alphas, each self-conflicting; lock partitioning splits them
  // into 64 independent mechanisms — lock striping synthesized from
  // commutativity.
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("containsKey", {var("k")}), op("put", {var("k"), star()})})},
      cfg(64));
  EXPECT_EQ(t.num_modes(), 64);
  EXPECT_EQ(t.num_partitions(), 64);
  for (int m = 0; m < t.num_modes(); ++m) {
    ASSERT_EQ(t.conflicts_of(m).size(), 1u);
    EXPECT_EQ(t.conflicts_of(m)[0], m);  // self-conflict only
    EXPECT_FALSE(t.commutes(m, m));
    for (int m2 = 0; m2 < t.num_modes(); ++m2) {
      if (m2 != m) {
        EXPECT_TRUE(t.commutes(m, m2));
      }
    }
  }
}

TEST(ModeTable, ReadOnlySiteCollapsesToOneMode) {
  // {get(k)} commutes with everything, so every alpha-instance has the same
  // F_c row and the indistinguishable-mode merge collapses them all: a
  // read-only site needs no striping at all.
  const auto t = ModeTable::compile(
      commute::map_spec(), {SymbolicSet({op("get", {var("k")})})}, cfg(8));
  EXPECT_EQ(t.num_raw_modes(), 8);
  EXPECT_EQ(t.num_modes(), 1);
  EXPECT_TRUE(t.conflicts_of(0).empty());
}

TEST(ModeTable, ResolveIsPhiConsistent) {
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      cfg(8));
  const auto& phi = t.abstraction();
  for (Value k = 0; k < 100; ++k) {
    const Value vals1[1] = {k};
    const Value vals2[1] = {k + 8};  // same alpha under modulus 8
    EXPECT_EQ(t.resolve(0, vals1), t.resolve(0, vals2));
    const Value vals3[1] = {k + 3};
    if (phi.alpha_of(k) != phi.alpha_of(k + 3)) {
      EXPECT_NE(t.resolve(0, vals1), t.resolve(0, vals3));
    }
  }
}

TEST(ModeTable, SharedModesAcrossIdenticalSites) {
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
       SymbolicSet({op("get", {var("j")}),
                    op("put", {var("j"), star()})})},  // same structure
      cfg(8));
  EXPECT_EQ(t.num_modes(), 8);  // not 16: structurally equal modes dedup
  const Value v[1] = {3};
  EXPECT_EQ(t.resolve(0, v), t.resolve(1, v));
}

TEST(ModeTable, CacheEdenMergeCollapsesWriterModes) {
  // The Fig. 23 eden structure: the Put site {size(),clear(),put(k,*)}
  // conflicts with everything, so all its alpha-instances share one F_c row
  // and merge into a single writer mode (Section 5.3, optimization 1).
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
       SymbolicSet({op("size"), op("clear"), op("put", {var("k"), star()})})},
      cfg(8));
  EXPECT_EQ(t.num_raw_modes(), 16);
  EXPECT_EQ(t.num_modes(), 9);  // 8 striped get/put modes + 1 merged writer
  // All tuples of site 1 resolve to the same canonical mode.
  const Value a[1] = {0};
  const int writer = t.resolve(1, a);
  for (Value k = 1; k < 8; ++k) {
    const Value v[1] = {k};
    EXPECT_EQ(t.resolve(1, v), writer);
  }
  // The writer conflicts with every mode (including itself).
  EXPECT_EQ(t.conflicts_of(writer).size(), 9u);
  EXPECT_EQ(t.num_partitions(), 1);  // writer connects everything
}

TEST(ModeTable, MaxModesWidensTrailingVariables) {
  // Graph-style two-variable sets blow up to n^2 modes; the bound N forces
  // widening of the trailing argument (Section 5.3, optimization 3).
  const auto t = ModeTable::compile(
      commute::multimap_spec(),
      {SymbolicSet({op("getAll", {var("k")})}),
       SymbolicSet({op("put", {var("k"), var("v")})}),
       SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
      cfg(64, /*max_modes=*/256));
  EXPECT_LE(t.num_modes(), 256);
  EXPECT_EQ(t.num_modes(), 192);  // 64 getAll + 64 put(k,*) + 64 rem(k,*)
  EXPECT_EQ(t.site_variables(1).size(), 1u);  // v widened away
  EXPECT_EQ(t.site_set(1).to_string(), "{put(k,*)}");
  EXPECT_EQ(t.num_partitions(), 64);  // striping by source node survives
}

TEST(ModeTable, UnboundedKeepsPairStriping) {
  const auto t = ModeTable::compile(
      commute::multimap_spec(),
      {SymbolicSet({op("put", {var("k"), var("v")})}),
       SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
      cfg(4));
  EXPECT_EQ(t.num_modes(), 32);  // 16 put + 16 removeEntry
  // put(a,b) conflicts only with removeEntry(a,b).
  const Value v[2] = {1, 2};
  const int put_mode = t.resolve(0, v);
  const int rem_mode = t.resolve(1, v);
  ASSERT_EQ(t.conflicts_of(put_mode).size(), 1u);
  EXPECT_EQ(t.conflicts_of(put_mode)[0], rem_mode);
  EXPECT_EQ(t.partition_of(put_mode), t.partition_of(rem_mode));
}

TEST(ModeTable, ConstantSites) {
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {star()})}), SymbolicSet({op("size")})},
      cfg(16));
  EXPECT_EQ(t.num_modes(), 2);
  const int add_mode = t.resolve_constant(0);
  const int size_mode = t.resolve_constant(1);
  EXPECT_NE(add_mode, size_mode);
  EXPECT_TRUE(t.commutes(add_mode, add_mode));    // adds commute
  EXPECT_TRUE(t.commutes(size_mode, size_mode));  // sizes commute
  EXPECT_FALSE(t.commutes(add_mode, size_mode));
}

TEST(ModeTable, ConstantArgsInteractWithPhi) {
  // {add(5)} with 2 abstract values: conflicts only with the alpha of 5.
  const auto t = ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {cst(5)})}),
       SymbolicSet({op("remove", {var("j")})})},
      cfg(2));
  const int add5 = t.resolve_constant(0);
  const Value v5[1] = {5};
  const Value v6[1] = {6};
  const int rem_same = t.resolve(1, v5);
  const int rem_other = t.resolve(1, v6);
  EXPECT_FALSE(t.commutes(add5, rem_same));
  EXPECT_TRUE(t.commutes(add5, rem_other));
}

TEST(ModeTable, PartitioningDisabledIsSingleMechanism) {
  ModeTableConfig c = cfg(16);
  c.partition = false;
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      c);
  EXPECT_EQ(t.num_partitions(), 1);
  EXPECT_EQ(t.num_modes(), 16);
}

TEST(ModeTable, MergeDisabledKeepsRawModes) {
  ModeTableConfig c = cfg(8);
  c.merge_indistinguishable = false;
  const auto t = ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("size"), op("clear"), op("put", {var("k"), star()})})},
      c);
  EXPECT_EQ(t.num_modes(), 8);  // no collapse
}

TEST(ModeTable, TupleCapPreWidens) {
  ModeTableConfig c = cfg(64);
  c.max_tuple_entries = 64;  // 64^2 would exceed: widen second var up front
  const auto t = ModeTable::compile(
      commute::multimap_spec(),
      {SymbolicSet({op("put", {var("k"), var("v")})})}, c);
  EXPECT_EQ(t.site_variables(0).size(), 1u);  // v widened pre-enumeration
  EXPECT_EQ(t.num_raw_modes(), 64);
  // puts commute with everything here, so all alpha modes merge into one.
  EXPECT_EQ(t.num_modes(), 1);
}

TEST(ModeTable, RejectsEmptyAndUnknown) {
  EXPECT_THROW(
      ModeTable::compile(commute::set_spec(), {SymbolicSet{}}, cfg(2)),
      std::invalid_argument);
  EXPECT_THROW(ModeTable::compile(commute::set_spec(),
                                  {SymbolicSet({op("frobnicate", {})})},
                                  cfg(2)),
               std::invalid_argument);
  EXPECT_THROW(ModeTable::compile(commute::set_spec(),
                                  {SymbolicSet({op("add", {})})}, cfg(2)),
               std::invalid_argument);  // arity mismatch
}

TEST(ModeTable, ConflictsShareAPartition) {
  const auto t = ModeTable::compile(
      commute::multimap_spec(),
      {SymbolicSet({op("getAll", {var("k")})}),
       SymbolicSet({op("put", {var("k"), var("v")})})},
      cfg(8));
  for (int m = 0; m < t.num_modes(); ++m) {
    for (const auto other : t.conflicts_of(m)) {
      EXPECT_EQ(t.partition_of(m), t.partition_of(other));
    }
  }
}

TEST(ModeTable, DescribeMentionsModesAndSites) {
  const auto t = ModeTable::compile(
      commute::set_spec(), {SymbolicSet({op("add", {star()})})}, cfg(2));
  const std::string d = t.describe();
  EXPECT_NE(d.find("ModeTable for ADT Set"), std::string::npos);
  EXPECT_NE(d.find("{add(*)}"), std::string::npos);
  EXPECT_NE(d.find("F_c"), std::string::npos);
}

// --- Compiled-table oracle --------------------------------------------------
// The tables of tests/table_cases.h are checked against the definition of a
// compiled table, and pinned by a digest of everything the runtime reads
// from it.

// 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
};

// Digest of what the runtime reads from a table: describe() (sites, mode
// numbering, partitions, F_c), every site's full lookup table, every
// conflict list and the packed layout.
std::uint64_t table_digest(const ModeTable& t) {
  Fnv1a f;
  const std::string d = t.describe();
  f.bytes(d.data(), d.size());
  const int n = t.abstraction().size();
  for (int s = 0; s < t.num_sites(); ++s) {
    const std::size_t k = t.site_variables(s).size();
    std::size_t entries = 1;
    for (std::size_t i = 0; i < k; ++i) entries *= static_cast<std::size_t>(n);
    std::vector<Value> vals(k);
    for (std::size_t idx = 0; idx < entries; ++idx) {
      std::size_t rem = idx;
      for (std::size_t i = 0; i < k; ++i) {
        vals[i] = static_cast<Value>(rem % static_cast<std::size_t>(n));
        rem /= static_cast<std::size_t>(n);
      }
      f.value(static_cast<std::int32_t>(t.resolve(s, vals)));
    }
  }
  f.value(static_cast<std::int32_t>(t.num_partitions()));
  for (int m = 0; m < t.num_modes(); ++m) {
    const auto& c = t.conflicts_of(m);
    f.value(static_cast<std::uint64_t>(c.size()));
    for (const std::int32_t j : c) f.value(j);
  }
  if (const PackedLayout* l = t.packed_layout()) {
    f.value(static_cast<std::int32_t>(l->num_modes));
    f.value(l->bits_per_mode);
    f.value(l->field_max);
    f.value(l->waiters_bit);
    for (int m = 0; m < l->num_modes; ++m) {
      const PackedMode& r = l->modes[static_cast<std::size_t>(m)];
      f.value(r.shift);
      f.value(r.inc);
      f.value(r.field_mask);
      f.value(r.conflict_mask);
    }
  }
  return f.h;
}

// Digests recorded from a compile that called modes_commute on every pair of
// raw modes; the table must stay byte-identical to that definition.
std::uint64_t recorded_digest(const std::string& name) {
  static const std::map<std::string, std::uint64_t> digests = {
      {"server_account", 0x7a60b749735bd2e6ull},
      {"server_map", 0x8206f3069ed0f0b9ull},
      {"cia", 0x82428dd4078f9f4bull},
      {"cache_eden", 0x934a27ff904857adull},
      {"cache_longterm", 0xac15ab5aeee77675ull},
      {"gossip_table", 0xaaf92b0dc1ba9849ull},
      {"gossip_group", 0xdd29a4a8d65d0c10ull},
      {"intruder_map", 0xbaab925f7b3b9671ull},
      {"intruder_set", 0x3707598e7ce257daull},
      {"pool_queue", 0xcb95e314b497f356ull},
      {"sem_set", 0x54c894d0d1066a96ull},
      {"bench_set_readers_writers", 0x8dbfb559b7396834ull},
      {"bench_set_keyed", 0x4dad318994637506ull},
      {"constant_args", 0xb8126a3d9a0474ccull},
      {"constant_sites", 0x55d2dadc2fe6849cull},
      {"read_only", 0x743fa9384026da65ull},
      {"shared_sites", 0x4cd11e2058a07dedull},
      {"eden_n8", 0x2e3ae45bc2b5a7c3ull},
      {"pair_unbounded_n4", 0xed2d6980bca822a6ull},
      {"pair_bounded_n16_N256", 0xd446ad60f457caa9ull},
      {"getall_put_n8", 0x23f0da1d624aeca7ull},
      {"repeated_variable_n4", 0x830826ab14352015ull},
      {"merge_off", 0x86cdf737a9e9fc18ull},
      {"partition_off", 0x89e1735c3cbb5c05ull},
      {"tuple_cap", 0xa3eee463de2c2e7aull},
      {"sem_map_n1", 0x3cb6d47fecf0e319ull},
      {"set_consts_n1", 0xdaefb218ef11a6e9ull},
      {"graph_n1", 0x4d936a19222cd2c4ull},
      {"sem_map_n4", 0x150854331c3ab8dull},
      {"set_consts_n4", 0xc90997776f468c96ull},
      {"graph_n4", 0x5157eb060ea10b5aull},
      {"sem_map_n16", 0xa43efdd79a88e6a5ull},
      {"set_consts_n16", 0xba1df4b6be9aa416ull},
      {"graph_n16", 0x1dc322540ef750beull},
      {"sem_map_n64", 0xb8627dfe8ea401a0ull},
      {"set_consts_n64", 0x90d8e481a147851dull},
      {"graph_n64", 0xcbb771c4a7203704ull},
      {"sem_map_n85", 0x802acec8f3592005ull},
      {"set_consts_n85", 0xee93e7216178f7a0ull},
      {"graph_n85", 0x6efe977f0d790f9full},
      {"sem_map_n86", 0x2b014d90b5c7f387ull},
      {"set_consts_n86", 0xb36f413213bb2814ull},
      {"graph_n86", 0xea8b94fa32e2c8ffull},
      {"sem_map_n128", 0x7c251f90027da47eull},
      {"set_consts_n128", 0x1301b28ebeaa1448ull},
      {"graph_n128", 0xd9c5a751a445baedull},
      {"sem_map_n256", 0x486eb6f9cf77248eull},
      {"set_consts_n256", 0xe59789a3b9fc4569ull},
      {"graph_n256", 0xb9e3c81c276e2319ull},
  };
  const auto it = digests.find(name);
  return it == digests.end() ? 0 : it->second;
}

class CompiledTableOracle : public ::testing::TestWithParam<TableCase> {};

TEST_P(CompiledTableOracle, MatchesDefinitionAndRecordedDigest) {
  const TableCase& c = GetParam();
  const auto t = ModeTable::compile(*c.spec, c.sites, c.config);
  const int nc = t.num_modes();
  // (a) F_c is modes_commute over the canonical modes.
  int mismatches = 0;
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      if (t.commutes(i, j) !=
          modes_commute(*c.spec, t.abstraction(), t.mode(i), t.mode(j))) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // (b) conflicts_of(i) lists every non-commuting j, ascending.
  for (int i = 0; i < nc; ++i) {
    std::vector<std::int32_t> expect;
    for (int j = 0; j < nc; ++j) {
      if (!t.commutes(i, j)) expect.push_back(j);
    }
    EXPECT_EQ(t.conflicts_of(i), expect) << "mode " << i;
  }
  // (c) Partitions are the connected components of the conflict graph,
  // numbered by their lowest mode (one partition when partitioning is off).
  std::vector<int> component(static_cast<std::size_t>(nc), -1);
  int components = 0;
  for (int root = 0; root < nc; ++root) {
    if (component[static_cast<std::size_t>(root)] >= 0) continue;
    std::vector<int> stack = {root};
    component[static_cast<std::size_t>(root)] = components;
    while (!stack.empty()) {
      const int m = stack.back();
      stack.pop_back();
      for (int o = 0; o < nc; ++o) {
        if ((!t.commutes(m, o) || !t.commutes(o, m)) &&
            component[static_cast<std::size_t>(o)] < 0) {
          component[static_cast<std::size_t>(o)] = components;
          stack.push_back(o);
        }
      }
    }
    ++components;
  }
  if (c.config.partition) {
    EXPECT_EQ(t.num_partitions(), components);
    for (int m = 0; m < nc; ++m) {
      EXPECT_EQ(t.partition_of(m), component[static_cast<std::size_t>(m)])
          << "mode " << m;
    }
  } else {
    EXPECT_EQ(t.num_partitions(), 1);
    for (int m = 0; m < nc; ++m) EXPECT_EQ(t.partition_of(m), 0);
  }
  // (d) The table is byte-identical to the pairwise compile's.
  const std::uint64_t digest = table_digest(t);
  EXPECT_EQ(digest, recorded_digest(c.name))
      << c.name << " digest 0x" << std::hex << digest;
}

// Left to choose, a table packs exactly when it has at most kMaxPackedModes
// modes and no reader (storage_policy.h). Of these tables that is the
// server's account table and seven test tables; every app table, and every
// small table with a reader, stays striped. A forced storage wins either way.
TEST_P(CompiledTableOracle, StorageIsPackedWithoutReadersUnlessForced) {
  const TableCase& c = GetParam();
  static const std::set<std::string> packed = {
      "server_account", "constant_sites", "shared_sites", "set_consts_n1",
      "set_consts_n256", "graph_n1",      "graph_n128",   "graph_n256"};
  ModeTableConfig config = c.config;
  config.storage = std::nullopt;
  const auto chosen = ModeTable::compile(*c.spec, c.sites, config);
  EXPECT_EQ(chosen.storage(), packed.contains(c.name) ? StorageKind::Packed
                                                      : StorageKind::Striped);
  config.storage = StorageKind::Striped;
  EXPECT_EQ(ModeTable::compile(*c.spec, c.sites, config).storage(),
            StorageKind::Striped);
  config.storage = StorageKind::Packed;
  const auto forced = ModeTable::compile(*c.spec, c.sites, config);
  EXPECT_EQ(forced.storage(), forced.packed_layout() != nullptr
                                  ? StorageKind::Packed
                                  : StorageKind::Striped);
}

// A mode has a stripe row exactly when the storage is Striped, stripes are
// on and the mode commutes with itself; the rows number those modes 0, 1, ...
// in mode order, and stripe_rows() counts them. Checked for the table's own
// storage choice and for both forced ones, with stripes on and off.
TEST_P(CompiledTableOracle, StripeRowsFollowTheirDefinition) {
  const TableCase& c = GetParam();
  for (const std::optional<StorageKind> storage :
       {std::optional<StorageKind>{}, std::optional{StorageKind::Striped},
        std::optional{StorageKind::Packed}}) {
    for (const int stripes : {0, 4}) {
      ModeTableConfig config = c.config;
      config.storage = storage;
      config.counter_stripes = stripes;
      const auto t = ModeTable::compile(*c.spec, c.sites, config);
      const bool striped = t.storage() == StorageKind::Striped;
      std::int32_t next = 0;
      for (int m = 0; m < t.num_modes(); ++m) {
        const bool has_row = striped && stripes > 0 && t.commutes(m, m);
        EXPECT_EQ(t.stripe_row(m), has_row ? next : -1)
            << c.name << " " << storage_kind_name(storage) << " stripes "
            << stripes << " mode " << m;
        if (has_row) ++next;
      }
      EXPECT_EQ(t.stripe_rows(), static_cast<std::uint32_t>(next)) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTables, CompiledTableOracle,
                         ::testing::ValuesIn(table_cases()), test::case_name);

}  // namespace
}  // namespace semlock
