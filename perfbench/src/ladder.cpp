// The single-thread rung ladder: each rung times one call into one module's
// public functions, uncontended, from the benchmark's own code, so that an
// end-to-end change can be traced to a layer. Two op shapes are closed by a
// residual: the cia_hits op (lock_site + contains_key [+ put]) and the
// txn_hot op (Transaction + lv_ordered + the request body).
#include <memory>

#include "adt/striped_hash_map.h"
#include "apps/compute_if_absent.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "common.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using semlock::ModeTable;
using semlock::ModeTableConfig;
using semlock::SemanticLock;
using semlock::Transaction;
using semlock::commute::op;
using semlock::commute::star;
using semlock::commute::SymbolicSet;
using semlock::commute::Value;
using semlock::commute::var;

constexpr int kBatches = 7;
constexpr std::size_t kOps = 200000;
constexpr std::size_t kInsertOps = 20000;

// Keeps results of timed calls observable.
volatile std::int64_t g_sink = 0;

// Median ns per call over kBatches batches of `ops` calls fn(i), after one
// untimed warm-up batch (warm-up calls get indices past the timed ones).
template <typename Fn>
double ns_per_op(std::size_t ops, Fn&& fn) {
  for (std::size_t i = 0; i < ops; ++i) fn(kBatches * ops + i);
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const std::size_t base = static_cast<std::size_t>(b) * ops;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops; ++i) fn(base + i);
    per_op.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(ops));
  }
  return median(per_op);
}

// The tables the SEMANTIC backend and the CIA module compile (same symbolic
// sets, same configuration).
ModeTable account_table() {
  return ModeTable::compile(
      semlock::commute::account_spec(),
      {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
       SymbolicSet({op("balance")})},
      ModeTableConfig{});
}

ModeTable server_map_table() {
  ModeTableConfig cfg;
  cfg.abstract_values = 64;
  return ModeTable::compile(
      semlock::commute::map_spec(),
      {SymbolicSet({op("get", {var("k")})}),
       SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      cfg);
}

ModeTable cia_table() {
  ModeTableConfig cfg;
  cfg.abstract_values = 64;
  return ModeTable::compile(
      semlock::commute::map_spec(),
      {SymbolicSet({op("containsKey", {var("key")}),
                    op("put", {var("key"), star()})})},
      cfg);
}

}  // namespace

double mode_table_compile_us(Tables tables) {
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    if (tables == Tables::kServer) {
      const ModeTable a = account_table();
      const ModeTable m = server_map_table();
      g_sink = g_sink + a.num_modes() + m.num_modes();
    } else {
      const ModeTable c = cia_table();
      g_sink = g_sink + c.num_modes();
    }
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

void run_ladder(std::uint64_t seed, Result* out) {
  using Payload = std::shared_ptr<std::vector<char>>;
  const std::size_t total = (kBatches + 1) * kOps;
  semlock::util::Xoshiro256 rng(seed ^ 0x6c61646465720000ULL);
  std::vector<Value> hot(total);
  for (auto& k : hot) k = cia_hot_key(seed, rng.next_below(kCiaHotKeys));
  std::size_t next_new = 0;

  // semlock: resolve, lock/unlock with the mode known, lock_site + unlock.
  const ModeTable cia = cia_table();
  std::vector<int> modes(total);
  for (std::size_t i = 0; i < total; ++i) {
    const Value v[1] = {hot[i]};
    modes[i] = cia.resolve(0, v);
  }
  const double resolve_ns = ns_per_op(kOps, [&](std::size_t i) {
    const Value v[1] = {hot[i]};
    g_sink = g_sink + cia.resolve(0, v);
  });
  SemanticLock cia_lock(cia);
  const double lock_unlock_ns = ns_per_op(kOps, [&](std::size_t i) {
    cia_lock.lock(modes[i]);
    cia_lock.unlock(modes[i]);
  });
  const double lock_site_ns = ns_per_op(kOps, [&](std::size_t i) {
    const Value v[1] = {hot[i]};
    cia_lock.unlock(cia_lock.lock_site(0, v));
  });

  // semlock: Transaction + lv + epilogue on the server's keyed map site.
  const ModeTable map = server_map_table();
  SemanticLock map_lock(map);
  const double txn_lv_ns = ns_per_op(kOps, [&](std::size_t i) {
    const Value v[1] = {hot[i]};
    Transaction txn;
    txn.lv(&map_lock, 1, v);
  });

  // semlock: Transaction + lv_ordered over 2 accounts, on the txn_hot
  // stream's accounts and modes.
  const std::vector<semlock::server::Request> stream =
      txn_hot_stream(seed, total);
  const ModeTable accounts = account_table();
  const int move_mode = accounts.resolve_constant(0);
  const int audit_mode = accounts.resolve_constant(1);
  std::vector<std::unique_ptr<SemanticLock>> account_locks;
  for (std::int64_t a = 0; a < kHotAccounts; ++a) {
    account_locks.push_back(std::make_unique<SemanticLock>(accounts));
  }
  const double txn_ordered_ns = ns_per_op(kOps, [&](std::size_t i) {
    const semlock::server::Request& r = stream[i];
    const int mode = r.kind == semlock::server::RequestKind::kTransfer
                         ? move_mode
                         : audit_mode;
    Transaction txn;
    Transaction::DynTarget targets[2] = {
        {account_locks[static_cast<std::size_t>(r.a)].get(), mode},
        {account_locks[static_cast<std::size_t>(r.b)].get(), mode}};
    txn.lv_ordered(targets);
  });

  // cc_backend: the whole txn_hot op on a SEMANTIC backend, and its body
  // alone on a SERIAL backend (the same store with no synchronization).
  using semlock::server::CCMode;
  std::unique_ptr<semlock::server::CCBackend> semantic =
      semlock::server::make_cc_backend(CCMode::kSemantic, txn_hot_store());
  std::unique_ptr<semlock::server::CCBackend> serial =
      semlock::server::make_cc_backend(CCMode::kSerial, txn_hot_store());
  const double txn_op_ns = ns_per_op(kOps, [&](std::size_t i) {
    g_sink = g_sink + semantic->execute(stream[i]).observed;
  });
  const double body_ns = ns_per_op(kOps, [&](std::size_t i) {
    g_sink = g_sink + serial->execute(stream[i]).observed;
  });

  // adt: StripedHashMap as the CIA module builds it, prefilled hot keys.
  semlock::adt::StripedHashMap<Value, Payload> hmap(256);
  for (std::size_t i = 0; i < kCiaHotKeys; ++i) {
    hmap.put(cia_hot_key(seed, i), Payload{});
  }
  const double contains_ns = ns_per_op(kOps, [&](std::size_t i) {
    g_sink = g_sink + hmap.contains_key(hot[i]);
  });
  // Payloads shaped like the module's (128 bytes) are made before timing,
  // so the rung is the map's own insert.
  std::vector<Payload> payloads((kBatches + 1) * kInsertOps);
  for (auto& p : payloads) p = std::make_shared<std::vector<char>>(128);
  const double put_ns = ns_per_op(kInsertOps, [&](std::size_t i) {
    g_sink = g_sink + hmap.put(cia_new_key(seed, next_new++),
                               std::move(payloads[i]));
  });

  // apps: compute_if_absent on the hit path and on the insert path.
  std::unique_ptr<semlock::apps::CiaModule> module =
      semlock::apps::make_cia_module(semlock::apps::Strategy::Ours,
                                     semlock::apps::CiaParams{});
  for (std::size_t i = 0; i < kCiaHotKeys; ++i) {
    module->compute_if_absent(cia_hot_key(seed, i));
  }
  const double cia_hit_ns = ns_per_op(kOps, [&](std::size_t i) {
    module->compute_if_absent(hot[i]);
  });
  const double cia_insert_ns = ns_per_op(kInsertOps, [&](std::size_t) {
    module->compute_if_absent(cia_new_key(seed, next_new++));
  });

  out->add("semlock.resolve_ns", resolve_ns, "ns");
  out->add("semlock.lock_unlock_ns", lock_unlock_ns, "ns");
  out->add("semlock.lock_site_ns", lock_site_ns, "ns");
  out->add("semlock.txn_lv_ns", txn_lv_ns, "ns");
  out->add("semlock.txn_ordered_ns", txn_ordered_ns, "ns");
  out->add("adt.contains_ns", contains_ns, "ns");
  out->add("adt.put_ns", put_ns, "ns");
  out->add("apps.cia_hit_ns", cia_hit_ns, "ns");
  out->add("apps.cia_insert_ns", cia_insert_ns, "ns");
  out->add("cc_backend.body_ns", body_ns, "ns");
  out->add("ladder.txn_op_ns", txn_op_ns, "ns");

  // Residuals: (whole op - sum of its rungs) / whole op.
  const double share_new = kCiaNewPercent / 100.0;
  const double cia_op =
      (1.0 - share_new) * cia_hit_ns + share_new * cia_insert_ns;
  const double cia_rungs = lock_site_ns + contains_ns + share_new * put_ns;
  out->add("ladder.residual_frac.cia", (cia_op - cia_rungs) / cia_op,
           "fraction");
  out->add("ladder.residual_frac.txn",
           (txn_op_ns - txn_ordered_ns - body_ns) / txn_op_ns, "fraction");
}

}  // namespace perfbench
