// Microbenchmarks (google-benchmark): the raw cost of the semantic-locking
// runtime — uncontended acquire/release vs std::mutex, keyed acquisition
// and account transactions with their balances across threads, mode
// resolution, and mode-table compilation, and the map under the CIA shape.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "adt/striped_hash_map.h"
#include "commute/builtin_specs.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"
#include "server/zipf.h"
#include "util/rng.h"

namespace {

using namespace semlock;
using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

ModeTable cia_table(int n) {
  ModeTableConfig cfg;
  cfg.abstract_values = n;
  return ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("containsKey", {var("k")}),
                    op("put", {var("k"), star()})})},
      cfg);
}

void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    benchmark::DoNotOptimize(&m);
    m.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_SemanticLockUncontended(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock lock(table);
  const Value vals[1] = {42};
  for (auto _ : state) {
    const int mode = lock.lock_site(0, vals);
    benchmark::DoNotOptimize(mode);
    lock.unlock(mode);
  }
}
BENCHMARK(BM_SemanticLockUncontended);

void BM_SemanticLockModeKnown(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock lock(table);
  const Value vals[1] = {42};
  const int mode = table.resolve(0, vals);
  for (auto _ : state) {
    lock.lock(mode);
    benchmark::DoNotOptimize(&lock);
    lock.unlock(mode);
  }
}
BENCHMARK(BM_SemanticLockModeKnown);

// Read-heavy acquisition of one self-commuting mode across threads — the
// headline microbench of the ISSUE 3 fast path. With striped holder
// counters the series scales with threads; one shared counter line
// (`striped` == 0, counter_stripes = 0) flatlines it.
ModeTable self_commuting_table(int stripes) {
  ModeTableConfig cfg;
  cfg.storage = StorageKind::Striped;
  cfg.counter_stripes = stripes;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("contains", {star()})}),
       SymbolicSet({op("add", {star()}), op("remove", {star()})})},
      cfg);
}

void BM_SelfCommutingAcquire(benchmark::State& state) {
  static const ModeTable striped_table = self_commuting_table(64);
  static const ModeTable unstriped_table = self_commuting_table(0);
  const ModeTable& table =
      state.range(0) != 0 ? striped_table : unstriped_table;
  static SemanticLock* lock = nullptr;
  if (state.thread_index() == 0) lock = new SemanticLock(table);
  const int mode = table.resolve_constant(0);
  for (auto _ : state) {
    lock->lock(mode);
    benchmark::DoNotOptimize(lock);
    lock->unlock(mode);
  }
  if (state.thread_index() == 0) {
    delete lock;
    lock = nullptr;
  }
}
BENCHMARK(BM_SelfCommutingAcquire)
    ->ArgName("striped")
    ->Arg(1)
    ->Arg(0)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// lock_site + unlock on the CIA table's keyed site over uniformly random
// keys, with every thread on one shared instance: the semantic lock alone,
// without the map. Threads on different keys hold modes of different
// partitions, whose counters and spinlocks sit on lines of their own.
void BM_KeyedLockSite(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  static SemanticLock* lock = nullptr;
  if (state.thread_index() == 0) lock = new SemanticLock(table);
  util::Xoshiro256 rng(0x6b657965 + static_cast<std::uint64_t>(
                                        state.thread_index()));
  std::vector<Value> keys(4096);
  for (auto& k : keys) k = static_cast<Value>(rng.next());
  std::size_t i = 0;
  for (auto _ : state) {
    const Value vals[1] = {keys[i++ & (keys.size() - 1)]};
    const int mode = lock->lock_site(0, vals);
    benchmark::DoNotOptimize(mode);
    lock->unlock(mode);
  }
  if (state.thread_index() == 0) {
    delete lock;
    lock = nullptr;
  }
}
BENCHMARK(BM_KeyedLockSite)->Threads(1)->Threads(3)->UseRealTime();

// The map alone under perfbench cia_hits' shape: one 256-stripe map
// prefilled with 4096 keys, every thread drawing 90% contains_key hits and
// 10% misses that put a new key. A thread removes its own new key 1024
// inserts later, so the map stays within 4096 + 1024 keys per thread.
void BM_StripedMapCiaShape(benchmark::State& state) {
  using Map = adt::StripedHashMap<Value, Value>;
  constexpr std::int32_t kHot = 4096;
  constexpr Value kWindow = 1024;
  static Map* map = nullptr;
  if (state.thread_index() == 0) {
    map = new Map(/*num_stripes=*/256);
    for (Value k = 0; k < kHot; ++k) map->put(k, k);
  }
  util::Xoshiro256 rng(0x63696173 + static_cast<std::uint64_t>(
                                        state.thread_index()));
  std::vector<std::int32_t> draws(4096);  // a hot key, or -1 for a new one
  for (auto& d : draws) {
    d = rng.chance_percent(10)
            ? -1
            : static_cast<std::int32_t>(rng.next_below(kHot));
  }
  const Value base = static_cast<Value>(state.thread_index() + 1) << 40;
  Value fresh = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::int32_t d = draws[i++ & (draws.size() - 1)];
    const Value key = d >= 0 ? d : base + fresh;
    const bool hit = map->contains_key(key);
    benchmark::DoNotOptimize(hit);
    if (!hit) {
      map->put(key, key);
      if (fresh >= kWindow) map->remove(base + fresh - kWindow);
      ++fresh;
    }
  }
  if (state.thread_index() == 0) {
    delete map;
    map = nullptr;
  }
}
BENCHMARK(BM_StripedMapCiaShape)->Threads(1)->Threads(3)->UseRealTime();

// The server's account path (perfbench txn_hot): a Transaction locks 2 of 16
// account locks with lv_ordered and runs the request body under them, the
// accounts drawn at Zipf 0.99: 70% in Move = {deposit(*),withdraw(*)}, two
// fetch_add, and 30% in Audit = {balance()}, two loads. Move and Audit
// self-commute and conflict, so the default table packs; `striped` forces
// striped storage, which stripes both modes. `cell` keeps each balance in its
// lock's instance cell, on the packed word's line, as the server does;
// cell:0 keeps them in one separate array, eight to a line. All arms in one
// binary see the same host state.
ModeTable account_table(bool striped) {
  ModeTableConfig cfg;
  if (striped) cfg.storage = StorageKind::Striped;
  return ModeTable::compile(
      commute::account_spec(),
      {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
       SymbolicSet({op("balance")})},
      cfg);
}

void BM_AccountTxnOrdered(benchmark::State& state) {
  constexpr std::uint64_t kAccounts = 16;
  static const ModeTable default_table = account_table(false);
  static const ModeTable striped_table = account_table(true);
  const ModeTable& table = state.range(0) != 0 ? striped_table : default_table;
  const bool in_cell = state.range(1) != 0;
  static std::vector<std::unique_ptr<SemanticLock>>* locks = nullptr;
  static std::vector<std::atomic<std::int64_t>>* balances = nullptr;
  if (state.thread_index() == 0) {
    locks = new std::vector<std::unique_ptr<SemanticLock>>();
    for (std::uint64_t i = 0; i < kAccounts; ++i) {
      locks->push_back(std::make_unique<SemanticLock>(table));
    }
    balances = new std::vector<std::atomic<std::int64_t>>(kAccounts);
  }
  // Draws are made before timing: the Zipf sampler's pow() would cost more
  // than the two locks. They are indices, since only thread 0 builds the
  // locks, and the others may read them only inside the timed loop.
  struct Draw {
    std::uint64_t a;
    std::uint64_t b;
    int mode;
  };
  const int move = table.resolve_constant(0);
  const int audit = table.resolve_constant(1);
  const server::ZipfSampler zipf(kAccounts, 0.99);
  util::Xoshiro256 rng(0x61636374 + static_cast<std::uint64_t>(
                                        state.thread_index()));
  std::vector<Draw> draws(4096);
  for (Draw& d : draws) {
    const std::uint64_t a = zipf.next_key(rng);
    std::uint64_t b = zipf.next_key(rng);
    if (b == a) b = (a + 1) % kAccounts;
    d = {a, b, rng.chance_percent(30) ? audit : move};
  }
  const auto balance = [in_cell](SemanticLock* lock, std::uint64_t i)
      -> std::atomic<std::int64_t>& {
    return in_cell ? lock->cell() : (*balances)[i];
  };
  std::size_t i = 0;
  for (auto _ : state) {
    const Draw& d = draws[i++ & (draws.size() - 1)];
    SemanticLock* a = (*locks)[d.a].get();
    SemanticLock* b = (*locks)[d.b].get();
    Transaction txn;
    Transaction::DynTarget targets[2] = {{a, d.mode}, {b, d.mode}};
    txn.lv_ordered(targets);
    std::atomic<std::int64_t>& from = balance(a, d.a);
    std::atomic<std::int64_t>& to = balance(b, d.b);
    if (d.mode == move) {
      from.fetch_add(-1, std::memory_order_acq_rel);
      to.fetch_add(1, std::memory_order_acq_rel);
    } else {
      benchmark::DoNotOptimize(from.load(std::memory_order_acquire) +
                               to.load(std::memory_order_acquire));
    }
    txn.unlock_all();
  }
  if (state.thread_index() == 0) {
    std::int64_t total = 0;
    for (std::uint64_t k = 0; k < kAccounts; ++k) {
      total += balance((*locks)[k].get(), k).load();
    }
    if (total != 0) state.SkipWithError("transfers did not conserve money");
    delete locks;
    locks = nullptr;
    delete balances;
    balances = nullptr;
  }
}
BENCHMARK(BM_AccountTxnOrdered)
    ->ArgNames({"striped", "cell"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

void BM_ModeResolve(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  Value k = 0;
  for (auto _ : state) {
    const Value vals[1] = {k++};
    benchmark::DoNotOptimize(table.resolve(0, vals));
  }
}
BENCHMARK(BM_ModeResolve);

void BM_TransactionLvUnlockAll(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock a(table), b(table);
  const Value vals[1] = {7};
  for (auto _ : state) {
    Transaction txn;
    txn.lv(&a, 0, vals);
    txn.lv(&b, 0, vals);
    txn.unlock_all();
  }
}
BENCHMARK(BM_TransactionLvUnlockAll);

// LVn-heavy transaction shapes: lock N distinct instances, each lv paying
// one holds() membership test against everything locked so far. Exercises
// the inline-scan -> hash-index crossover in Transaction::holds (quadratic
// in N without the index).
void BM_TransactionLvManyInstances(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  static const ModeTable table = [] {
    ModeTableConfig cfg;
    cfg.abstract_values = 1;
    return ModeTable::compile(commute::set_spec(),
                              {SymbolicSet({op("add", {star()})})}, cfg);
  }();
  const int mode = table.resolve_constant(0);
  std::vector<std::unique_ptr<SemanticLock>> locks;
  locks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    locks.push_back(std::make_unique<SemanticLock>(table));
  }
  for (auto _ : state) {
    Transaction txn;
    for (auto& lk : locks) txn.lv_mode(lk.get(), mode);
    txn.unlock_all();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TransactionLvManyInstances)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_ModeTableCompile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cia_table(n));
  }
}
BENCHMARK(BM_ModeTableCompile)->Arg(4)->Arg(16)->Arg(64);

// The SEMANTIC server backend's map table (src/server/cc_backend.cpp): n
// keyed read modes beside n keyed update modes, under the mode bound N.
void BM_ModeTableCompileServerMap(benchmark::State& state) {
  ModeTableConfig cfg;
  cfg.abstract_values = static_cast<int>(state.range(0));
  cfg.max_modes = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModeTable::compile(
        commute::map_spec(),
        {SymbolicSet({op("get", {var("k")})}),
         SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
        cfg));
  }
}
BENCHMARK(BM_ModeTableCompileServerMap)
    ->ArgNames({"n", "N"})
    ->Args({64, 256})
    ->Args({256, 1024});

// The graph module's table (src/apps/graph_module.cpp): two-variable sites
// that the mode bound N widens to per-source striping, one re-enumeration
// per widened variable.
void BM_ModeTableCompileGraph(benchmark::State& state) {
  ModeTableConfig cfg;
  cfg.abstract_values = 64;
  cfg.max_modes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModeTable::compile(
        commute::multimap_spec(),
        {SymbolicSet({op("getAll", {var("k")})}),
         SymbolicSet({op("put", {var("k"), var("v")})}),
         SymbolicSet({op("removeEntry", {var("k"), var("v")})})},
        cfg));
  }
}
BENCHMARK(BM_ModeTableCompileGraph)->ArgName("N")->Arg(256);

}  // namespace

BENCHMARK_MAIN();
