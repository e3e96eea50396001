// The mode tables the tests build by name: the tables the server backend,
// the apps and the ADT wrappers build, the benches' set tables, the
// configurations of mode_table_test's unit tests, and three families across
// the attribution sweep's abstraction points. mode_table_test pins each by
// a digest of everything the runtime reads from it; lock_mechanism_test
// checks each one's per-instance slab layout.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "commute/builtin_specs.h"
#include "commute/spec.h"
#include "commute/symbolic.h"
#include "semlock/mode_table.h"

namespace semlock::test {

using commute::cst;
using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::var;

inline ModeTableConfig cfg(int n, int max_modes = 1 << 20) {
  ModeTableConfig c;
  c.abstract_values = n;
  c.max_modes = max_modes;
  return c;
}

// The gossip router's group map (src/apps/gossip_router.cpp), rebuilt here
// because the apps keep it private.
inline const commute::AdtSpec& group_map_spec() {
  static const commute::AdtSpec spec = [] {
    commute::AdtSpec::Builder b("GroupMap");
    b.method("put", 2).method("remove", 1).method("forEach", 0);
    b.commute("put", "put", commute::CommCondition::differ(0, 0));
    b.commute("put", "remove", commute::CommCondition::differ(0, 0));
    b.commute("remove", "remove", commute::CommCondition::always());
    b.commute("forEach", "forEach", commute::CommCondition::always());
    return b.build();
  }();
  return spec;
}

struct TableCase {
  std::string name;
  const commute::AdtSpec* spec;
  std::vector<SymbolicSet> sites;
  ModeTableConfig config;
};

inline void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

inline std::string case_name(const ::testing::TestParamInfo<TableCase>& param) {
  return param.param.name;
}

inline std::vector<SymbolicSet> sem_map_sites() {
  return {SymbolicSet({op("get", {var("k")}), op("containsKey", {var("k")})}),
          SymbolicSet(
              {op("put", {var("k"), star()}), op("remove", {var("k")})}),
          SymbolicSet({op("get", {var("k")}), op("containsKey", {var("k")}),
                       op("put", {var("k"), star()}),
                       op("remove", {var("k")})}),
          SymbolicSet({op("size"), op("clear"), op("put", {star(), star()}),
                       op("remove", {star()})})};
}

inline std::vector<SymbolicSet> graph_sites() {
  return {SymbolicSet({op("getAll", {var("k")})}),
          SymbolicSet({op("put", {var("k"), var("v")})}),
          SymbolicSet({op("removeEntry", {var("k"), var("v")})})};
}

// Constants beside variables: {add(5)} meets the alpha of 5, and a site that
// uses one variable twice dedups against none of the others.
inline std::vector<SymbolicSet> set_const_sites() {
  return {SymbolicSet({op("add", {cst(5)})}),
          SymbolicSet({op("remove", {var("j")})}),
          SymbolicSet({op("contains", {var("v")}), op("add", {cst(3)})}),
          SymbolicSet({op("add", {var("j")}), op("remove", {var("j")})})};
}

inline std::vector<TableCase> table_cases() {
  const auto& map = commute::map_spec();
  const auto& set = commute::set_spec();
  const auto& mm = commute::multimap_spec();
  const auto& pool = commute::pool_spec();
  std::vector<TableCase> cases = {
      {"server_account", &commute::account_spec(),
       {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
        SymbolicSet({op("balance")})},
       ModeTableConfig{}},
      {"server_map", &map,
       {SymbolicSet({op("get", {var("k")})}),
        SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
       cfg(64, 256)},
      {"cia", &map,
       {SymbolicSet(
           {op("containsKey", {var("key")}), op("put", {var("key"), star()})})},
       cfg(64, 256)},
      {"cache_eden", &map,
       {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
        SymbolicSet({op("size"), op("clear"), op("put", {var("k"), star()})})},
       cfg(64, 256)},
      {"cache_longterm", &commute::weakmap_spec(),
       {SymbolicSet({op("get", {var("k")})}), SymbolicSet({op("putAll")})},
       cfg(64, 256)},
      {"gossip_table", &map,
       {SymbolicSet({op("get", {var("g")}), op("put", {var("g"), star()})}),
        SymbolicSet({op("get", {var("g")})})},
       cfg(64, 256)},
      {"gossip_group", &group_map_spec(),
       {SymbolicSet({op("put", {var("a"), star()})}),
        SymbolicSet({op("remove", {var("a")})}), SymbolicSet({op("forEach")})},
       cfg(64, 256)},
      {"intruder_map", &map,
       {SymbolicSet({op("get", {var("fid")}), op("put", {var("fid"), star()}),
                     op("remove", {var("fid")})})},
       cfg(64, 256)},
      {"intruder_set", &set, {SymbolicSet({op("add", {star()})})},
       ModeTableConfig{}},
      {"pool_queue", &pool,
       {SymbolicSet({op("enqueue", {star()})}), SymbolicSet({op("dequeue")})},
       ModeTableConfig{}},
      {"sem_set", &set,
       {SymbolicSet({op("contains", {var("v")})}),
        SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
        SymbolicSet({op("add", {star()})}),
        SymbolicSet({op("size"), op("clear"), op("add", {star()}),
                     op("remove", {star()})})},
       cfg(64, 256)},
      {"bench_set_readers_writers", &set,
       {SymbolicSet({op("contains", {star()})}),
        SymbolicSet({op("add", {star()}), op("remove", {star()})})},
       ModeTableConfig{}},
      {"bench_set_keyed", &set,
       {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
        SymbolicSet({op("size"), op("clear")})},
       cfg(64, 256)},
      // The configurations of the unit tests above.
      {"constant_args", &set,
       {SymbolicSet({op("add", {cst(5)})}),
        SymbolicSet({op("remove", {var("j")})})},
       cfg(2)},
      {"constant_sites", &set,
       {SymbolicSet({op("add", {star()})}), SymbolicSet({op("size")})},
       cfg(16)},
      {"read_only", &map, {SymbolicSet({op("get", {var("k")})})}, cfg(8)},
      {"shared_sites", &map,
       {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
        SymbolicSet({op("get", {var("j")}), op("put", {var("j"), star()})})},
       cfg(8)},
      {"eden_n8", &map,
       {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
        SymbolicSet({op("size"), op("clear"), op("put", {var("k"), star()})})},
       cfg(8)},
      {"pair_unbounded_n4", &mm,
       {SymbolicSet({op("put", {var("k"), var("v")})}),
        SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
       cfg(4)},
      {"pair_bounded_n16_N256", &mm,
       {SymbolicSet({op("put", {var("k"), var("v")})}),
        SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
       cfg(16, 256)},
      {"getall_put_n8", &mm,
       {SymbolicSet({op("getAll", {var("k")})}),
        SymbolicSet({op("put", {var("k"), var("v")})})},
       cfg(8)},
      {"repeated_variable_n4", &mm,
       {SymbolicSet({op("put", {var("k"), var("k")})}),
        SymbolicSet({op("put", {var("k"), var("j")})}),
        SymbolicSet({op("removeEntry", {var("j"), var("k")})})},
       cfg(4)},
  };
  {
    ModeTableConfig c = cfg(8);
    c.merge_indistinguishable = false;
    cases.push_back(
        {"merge_off", &map,
         {SymbolicSet({op("size"), op("clear"), op("put", {var("k"), star()})}),
          SymbolicSet({op("get", {var("k")})})},
         c});
  }
  {
    ModeTableConfig c = cfg(16);
    c.partition = false;
    cases.push_back(
        {"partition_off", &map,
         {SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
         c});
  }
  {
    ModeTableConfig c = cfg(64);
    c.max_tuple_entries = 64;
    cases.push_back({"tuple_cap", &mm,
                     {SymbolicSet({op("put", {var("k"), var("v")})}),
                      SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
                     c});
  }
  // The attribution sweep's abstraction points, across the widening cliff;
  // graph_n64 is the graph module's table.
  for (const int n : {1, 4, 16, 64, 85, 86, 128, 256}) {
    const std::string suffix = "_n" + std::to_string(n);
    cases.push_back({"sem_map" + suffix, &map, sem_map_sites(), cfg(n, 256)});
    cases.push_back(
        {"set_consts" + suffix, &set, set_const_sites(), cfg(n, 256)});
    cases.push_back({"graph" + suffix, &mm, graph_sites(), cfg(n, 256)});
  }
  return cases;
}

}  // namespace semlock::test
