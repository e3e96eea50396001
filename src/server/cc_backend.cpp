#include "server/cc_backend.h"

#include <atomic>
#include <memory>
#include <vector>

#include "baseline/global_lock.h"
#include "baseline/occ.h"
#include "baseline/two_pl.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"
#include "util/align.h"
#include "util/spinlock.h"

namespace semlock::server {

const char* cc_mode_name(CCMode m) {
  switch (m) {
    case CCMode::kSemantic: return "SEMANTIC";
    case CCMode::kSerial: return "SERIAL";
    case CCMode::kGlobalLock: return "GLOBAL_LOCK";
    case CCMode::kTwoPL: return "TWO_PL";
    case CCMode::kOcc: return "OCC";
  }
  return "?";
}

std::optional<CCMode> parse_cc_mode(std::string_view text) {
  if (text == "semantic") return CCMode::kSemantic;
  if (text == "serial") return CCMode::kSerial;
  if (text == "global") return CCMode::kGlobalLock;
  if (text == "2pl") return CCMode::kTwoPL;
  if (text == "occ") return CCMode::kOcc;
  return std::nullopt;
}

namespace {

using commute::Value;

// Flattened cell index space shared by every backend: the same Request
// always addresses the same logical record in every mode. Accounts lead the
// flat store when a backend keeps its balances there (`flat_accounts`);
// otherwise the store starts at the kv table and the backend keeps each
// balance beside its account's lock.
struct Layout {
  Layout(const StoreConfig& cfg, bool flat_accounts)
      : A(cfg.accounts),
        K(cfg.kv_keys),
        N(cfg.nodes),
        base(flat_accounts ? cfg.accounts : 0) {}

  std::size_t total() const {
    return static_cast<std::size_t>(base + K + N * N + 2 * N);
  }
  static std::size_t acct(std::int64_t i) {
    return static_cast<std::size_t>(i);
  }
  std::size_t kv(std::int64_t k) const {
    return static_cast<std::size_t>(base + k);
  }
  std::size_t edge(std::int64_t a, std::int64_t b) const {
    return static_cast<std::size_t>(base + K + a * N + b);
  }
  std::size_t succ(std::int64_t a) const {
    return static_cast<std::size_t>(base + K + N * N + a);
  }
  std::size_t pred(std::int64_t b) const {
    return static_cast<std::size_t>(base + K + N * N + N + b);
  }

  std::int64_t A, K, N;
  std::int64_t base;  // index of the first kv cell
};

// The value ComputeIfAbsent installs: any nonzero pure function of the key
// (zero encodes "absent").
std::int64_t cia_value(std::int64_t key) { return key + 1; }

// Logical operations the bodies perform, mapped once to (spec, method) for
// the checked mode's history events. Cells are recorded as individual ADT
// instances: accounts under account_spec, kv/edge cells as registers,
// degree cells as counters — the finest-grained truth the serializability
// oracle can be held to.
enum class LogOp : std::uint8_t {
  kKvGet,      // register readCell
  kKvPut,      // register write(v)
  kWithdraw,   // account withdraw(amt)
  kDeposit,    // account deposit(amt)
  kBalance,    // account balance()
  kEdgeGet,    // register readCell
  kEdgePut,    // register write(v)
  kDegInc,     // counter inc()
  kDegDec,     // counter dec()
  kDegRead,    // counter read()
};

struct SpecIds {
  const commute::AdtSpec* account = &commute::account_spec();
  int deposit = account->method_index("deposit");
  int withdraw = account->method_index("withdraw");
  int balance = account->method_index("balance");
  const commute::AdtSpec* reg = &commute::register_spec();
  int write = reg->method_index("write");
  int read_cell = reg->method_index("readCell");
  const commute::AdtSpec* counter = &commute::counter_spec();
  int inc = counter->method_index("inc");
  int dec = counter->method_index("dec");
  int read = counter->method_index("read");
};

const SpecIds& spec_ids() {
  static const SpecIds ids;
  return ids;
}

struct LogEntry {
  const void* inst;
  LogOp op;
  Value arg;
};

void record_entry(HistoryRecorder* rec, std::uint64_t txn, const void* inst,
                  LogOp op, Value arg) {
  const SpecIds& ids = spec_ids();
  const commute::AdtSpec* spec = nullptr;
  int method = -1;
  std::vector<Value> args;
  switch (op) {
    case LogOp::kKvGet:
    case LogOp::kEdgeGet:
      spec = ids.reg;
      method = ids.read_cell;
      break;
    case LogOp::kKvPut:
    case LogOp::kEdgePut:
      spec = ids.reg;
      method = ids.write;
      args = {arg};
      break;
    case LogOp::kWithdraw:
      spec = ids.account;
      method = ids.withdraw;
      args = {arg};
      break;
    case LogOp::kDeposit:
      spec = ids.account;
      method = ids.deposit;
      args = {arg};
      break;
    case LogOp::kBalance:
      spec = ids.account;
      method = ids.balance;
      break;
    case LogOp::kDegInc:
      spec = ids.counter;
      method = ids.inc;
      break;
    case LogOp::kDegDec:
      spec = ids.counter;
      method = ids.dec;
      break;
    case LogOp::kDegRead:
      spec = ids.counter;
      method = ids.read;
      break;
  }
  rec->record(txn, inst, spec, method, std::move(args));
}

// One request body, generic over the storage discipline. `St` provides
//   cell(c) / account(i): a handle to flat cell c or to account i's balance
//   load(h) / store(h, v) / add(h, delta) / note(h, op, arg)
// so the identical logic runs over the pessimistic backends' atomic cells
// (note = record inline, locks held) and OCC's buffered read/write sets
// (note = append to the attempt's op log, recorded at commit). Where a
// balance lives is the storage's business, not the body's.
template <typename St>
ExecResult run_body(const Request& r, const Layout& L, St& st) {
  ExecResult res;
  switch (r.kind) {
    case RequestKind::kComputeIfAbsent: {
      const auto c = st.cell(L.kv(r.a));
      const std::int64_t cur = st.load(c);
      st.note(c, LogOp::kKvGet, 0);
      if (cur == 0) {
        const std::int64_t v = cia_value(r.a);
        st.store(c, v);
        st.note(c, LogOp::kKvPut, v);
        res.observed = 1;
      }
      break;
    }
    case RequestKind::kTransfer: {
      const auto from = st.account(r.a);
      const auto to = st.account(r.b);
      st.add(from, -r.amount);
      st.note(from, LogOp::kWithdraw, r.amount);
      st.add(to, r.amount);
      st.note(to, LogOp::kDeposit, r.amount);
      break;
    }
    case RequestKind::kAudit: {
      const auto a = st.account(r.a);
      const auto b = st.account(r.b);
      res.observed = st.load(a) + st.load(b);
      st.note(a, LogOp::kBalance, 0);
      st.note(b, LogOp::kBalance, 0);
      break;
    }
    case RequestKind::kInsertEdge: {
      const auto e = st.cell(L.edge(r.a, r.b));
      const std::int64_t cur = st.load(e);
      st.note(e, LogOp::kEdgeGet, 0);
      if (cur == 0) {
        const auto succ = st.cell(L.succ(r.a));
        const auto pred = st.cell(L.pred(r.b));
        st.store(e, 1);
        st.note(e, LogOp::kEdgePut, 1);
        st.add(succ, 1);
        st.note(succ, LogOp::kDegInc, 0);
        st.add(pred, 1);
        st.note(pred, LogOp::kDegInc, 0);
        res.observed = 1;
      }
      break;
    }
    case RequestKind::kRemoveEdge: {
      const auto e = st.cell(L.edge(r.a, r.b));
      const std::int64_t cur = st.load(e);
      st.note(e, LogOp::kEdgeGet, 0);
      if (cur != 0) {
        const auto succ = st.cell(L.succ(r.a));
        const auto pred = st.cell(L.pred(r.b));
        st.store(e, 0);
        st.note(e, LogOp::kEdgePut, 0);
        st.add(succ, -1);
        st.note(succ, LogOp::kDegDec, 0);
        st.add(pred, -1);
        st.note(pred, LogOp::kDegDec, 0);
        res.observed = 1;
      }
      break;
    }
    case RequestKind::kDegree: {
      const auto succ = st.cell(L.succ(r.a));
      res.observed = st.load(succ);
      st.note(succ, LogOp::kDegRead, 0);
      break;
    }
  }
  return res;
}

// --- Pessimistic backends (atomic cells) -------------------------------------
//
// Cells are atomics because the SEMANTIC mode legitimately runs commuting
// operations concurrently (two transfers depositing into the same hot
// account hold the same self-commuting Move mode at once); fetch_add makes
// that linearizable, exactly the "linearizable ADT under a semantic lock"
// contract of Section 2.2. The serialized modes pay a relaxed-atomic cost
// that is noise next to their locking.
//
// Where a balance lives is each backend's account(i). SERIAL and
// GLOBAL_LOCK keep it in the flat store (the default below); TWO_PL keeps it
// beside the account's mutex, and SEMANTIC in its account lock's instance
// cell, so a section's data sits on the line its acquisition wrote.
template <typename Derived>
class AtomicStoreBackend : public CCBackend {
 public:
  std::int64_t balance_total() const override {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < layout_.A; ++i) {
      sum += self().account(i).load(std::memory_order_relaxed);
    }
    return sum;
  }
  std::int64_t kv_inserted() const override {
    std::int64_t n = 0;
    for (std::int64_t k = 0; k < layout_.K; ++k) {
      n += cells_[layout_.kv(k)].load(std::memory_order_relaxed) != 0;
    }
    return n;
  }
  std::int64_t edges_present() const override {
    std::int64_t n = 0;
    for (std::int64_t a = 0; a < layout_.N; ++a) {
      for (std::int64_t b = 0; b < layout_.N; ++b) {
        n += cells_[layout_.edge(a, b)].load(std::memory_order_relaxed) != 0;
      }
    }
    return n;
  }
  // The balances in account order, then the flat cells past them: the same
  // sequence whatever the backend's layout.
  std::uint64_t digest() const override {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::int64_t v) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    };
    for (std::int64_t i = 0; i < layout_.A; ++i) {
      mix(self().account(i).load(std::memory_order_relaxed));
    }
    for (std::size_t c = layout_.kv(0); c < layout_.total(); ++c) {
      mix(cells_[c].load(std::memory_order_relaxed));
    }
    return h;
  }

  // Account i's balance in the flat store; a backend that keeps balances
  // elsewhere hides this with its own.
  std::atomic<std::int64_t>& account(std::int64_t i) const {
    return cells_[Layout::acct(i)];
  }

 protected:
  AtomicStoreBackend(const StoreConfig& cfg, HistoryRecorder* recorder,
                     bool flat_accounts)
      : layout_(cfg, flat_accounts),
        cells_(std::make_unique<std::atomic<std::int64_t>[]>(
            layout_.total())),
        recorder_(recorder) {}

  // Derived calls this once its accounts exist.
  void fund_accounts(std::int64_t initial_balance) {
    for (std::int64_t i = 0; i < layout_.A; ++i) {
      self().account(i).store(initial_balance, std::memory_order_relaxed);
    }
  }

  // Runs the body with locks already held by the caller.
  ExecResult locked_body(const Request& r) {
    Storage st{&self(), cells_.get(), recorder_,
               recorder_ ? recorder_->begin_txn() : 0};
    return run_body(r, layout_, st);
  }

  Layout layout_;

 private:
  struct Storage {
    const Derived* self;
    std::atomic<std::int64_t>* cells;
    HistoryRecorder* rec;
    std::uint64_t txn;

    using Cell = std::atomic<std::int64_t>*;
    Cell cell(std::size_t c) const { return &cells[c]; }
    Cell account(std::int64_t i) const { return &self->account(i); }
    static std::int64_t load(Cell c) {
      return c->load(std::memory_order_acquire);
    }
    static void store(Cell c, std::int64_t v) {
      c->store(v, std::memory_order_release);
    }
    static void add(Cell c, std::int64_t d) {
      c->fetch_add(d, std::memory_order_acq_rel);
    }
    void note(Cell c, LogOp op, Value arg) const {
      if (rec) record_entry(rec, txn, c, op, arg);
    }
  };

  const Derived& self() const { return static_cast<const Derived&>(*this); }

  std::unique_ptr<std::atomic<std::int64_t>[]> cells_;
  HistoryRecorder* recorder_;
};

class SerialBackend final : public AtomicStoreBackend<SerialBackend> {
 public:
  SerialBackend(const StoreConfig& cfg, HistoryRecorder* recorder)
      : AtomicStoreBackend(cfg, recorder, /*flat_accounts=*/true) {
    fund_accounts(cfg.initial_balance);
  }
  CCMode mode() const override { return CCMode::kSerial; }
  // Precondition: a single executor (the server clamps SERIAL to 1 worker).
  ExecResult execute(const Request& r) override { return locked_body(r); }
};

class GlobalLockBackend final : public AtomicStoreBackend<GlobalLockBackend> {
 public:
  GlobalLockBackend(const StoreConfig& cfg, HistoryRecorder* recorder)
      : AtomicStoreBackend(cfg, recorder, /*flat_accounts=*/true) {
    fund_accounts(cfg.initial_balance);
  }
  CCMode mode() const override { return CCMode::kGlobalLock; }
  ExecResult execute(const Request& r) override {
    baseline::GlobalSection section(global_);
    return locked_body(r);
  }

 private:
  baseline::GlobalLock global_;
};

class TwoPLBackend final : public AtomicStoreBackend<TwoPLBackend> {
 public:
  TwoPLBackend(const StoreConfig& cfg, HistoryRecorder* recorder)
      : AtomicStoreBackend(cfg, recorder, /*flat_accounts=*/false),
        accounts_(std::make_unique<Account[]>(
            static_cast<std::size_t>(cfg.accounts))) {
    fund_accounts(cfg.initial_balance);
  }

  CCMode mode() const override { return CCMode::kTwoPL; }

  ExecResult execute(const Request& r) override {
    // One standard lock per ADT instance (the paper's 2PL baseline): the kv
    // Map and the graph's three containers are each ONE instance — their
    // locks serialize whole tables — while each account is its own
    // instance, locked in address order like Fig. 12's dynamic ordering.
    baseline::TwoPLTxn txn;
    switch (r.kind) {
      case RequestKind::kComputeIfAbsent:
        txn.acquire(&kv_lock_);
        break;
      case RequestKind::kTransfer:
      case RequestKind::kAudit: {
        baseline::InstanceLock* pair[2] = {
            &accounts_[static_cast<std::size_t>(r.a)].lock,
            &accounts_[static_cast<std::size_t>(r.b)].lock};
        txn.acquire_ordered(pair);
        break;
      }
      case RequestKind::kInsertEdge:
      case RequestKind::kRemoveEdge:
        txn.acquire(&edge_lock_);
        txn.acquire(&succ_lock_);
        txn.acquire(&pred_lock_);
        break;
      case RequestKind::kDegree:
        txn.acquire(&succ_lock_);
        break;
    }
    return locked_body(r);
  }

  std::atomic<std::int64_t>& account(std::int64_t i) const {
    return accounts_[static_cast<std::size_t>(i)].balance;
  }

 private:
  // An account's mutex and balance, alone on their line: the same
  // co-location SEMANTIC gets from its lock's instance cell.
  struct alignas(util::kCacheLineSize) Account {
    baseline::InstanceLock lock;
    std::atomic<std::int64_t> balance{0};
  };

  std::unique_ptr<Account[]> accounts_;
  baseline::InstanceLock kv_lock_;
  baseline::InstanceLock edge_lock_;
  baseline::InstanceLock succ_lock_;
  baseline::InstanceLock pred_lock_;
};

class SemanticBackend final : public AtomicStoreBackend<SemanticBackend> {
 public:
  SemanticBackend(const StoreConfig& cfg, HistoryRecorder* recorder)
      : AtomicStoreBackend(cfg, recorder, /*flat_accounts=*/false),
        account_table_(make_account_table()),
        map_table_(make_map_table(cfg.abstract_values)),
        kv_lock_(map_table_),
        edge_lock_(map_table_),
        succ_lock_(map_table_),
        pred_lock_(map_table_) {
    move_mode_ = account_table_.resolve_constant(0);
    audit_mode_ = account_table_.resolve_constant(1);
    account_locks_.reserve(static_cast<std::size_t>(cfg.accounts));
    for (std::int64_t i = 0; i < cfg.accounts; ++i) {
      account_locks_.push_back(std::make_unique<SemanticLock>(account_table_));
    }
    fund_accounts(cfg.initial_balance);
  }

  CCMode mode() const override { return CCMode::kSemantic; }

  ExecResult execute(const Request& r) override {
    Transaction txn;  // OS2PL prologue/epilogue: releases on scope exit
    switch (r.kind) {
      case RequestKind::kComputeIfAbsent: {
        const Value vals[1] = {r.a};
        txn.lv(&kv_lock_, kUpdateSite, vals);
        break;
      }
      case RequestKind::kTransfer:
      case RequestKind::kAudit: {
        const int mode =
            r.kind == RequestKind::kTransfer ? move_mode_ : audit_mode_;
        Transaction::DynTarget targets[2] = {
            {account_locks_[static_cast<std::size_t>(r.a)].get(), mode},
            {account_locks_[static_cast<std::size_t>(r.b)].get(), mode}};
        txn.lv_ordered(targets);
        break;
      }
      case RequestKind::kInsertEdge:
      case RequestKind::kRemoveEdge: {
        // Static container order (edge, succ, pred) on keyed update modes;
        // same order for insert and remove, so no cross-kind deadlock.
        const Value eid[1] = {r.a * layout_.N + r.b};
        const Value src[1] = {r.a};
        const Value dst[1] = {r.b};
        txn.lv(&edge_lock_, kUpdateSite, eid);
        txn.lv(&succ_lock_, kUpdateSite, src);
        txn.lv(&pred_lock_, kUpdateSite, dst);
        break;
      }
      case RequestKind::kDegree: {
        const Value src[1] = {r.a};
        txn.lv(&succ_lock_, kReadSite, src);
        break;
      }
    }
    return locked_body(r);
  }

  // The balance is the account instance's data, kept in its lock's cell.
  std::atomic<std::int64_t>& account(std::int64_t i) const {
    return account_locks_[static_cast<std::size_t>(i)]->cell();
  }

 private:
  // Lock sites mirroring what the synthesis infers for these bodies
  // (tests/synth_golden_test pins the shapes): a read mode {get(k)} that
  // self-commutes, and the check-then-act update mode {get(k), put(k,*)}.
  static constexpr int kReadSite = 0;
  static constexpr int kUpdateSite = 1;

  static ModeTable make_account_table() {
    using commute::op;
    using commute::star;
    using commute::SymbolicSet;
    return ModeTable::compile(
        commute::account_spec(),
        {
            // Move: deposit/withdraw commute, so transfers touching the
            // same hot account still run in parallel — the semantic win.
            SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
            SymbolicSet({op("balance")}),
        },
        ModeTableConfig{});
  }

  static ModeTable make_map_table(int abstract_values) {
    using commute::op;
    using commute::star;
    using commute::SymbolicSet;
    using commute::var;
    ModeTableConfig cfg;
    cfg.abstract_values = abstract_values;
    return ModeTable::compile(
        commute::map_spec(),
        {
            SymbolicSet({op("get", {var("k")})}),
            SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})}),
        },
        cfg);
  }

  ModeTable account_table_;
  ModeTable map_table_;
  std::vector<std::unique_ptr<SemanticLock>> account_locks_;
  SemanticLock kv_lock_;
  SemanticLock edge_lock_;
  SemanticLock succ_lock_;
  SemanticLock pred_lock_;
  int move_mode_ = 0;
  int audit_mode_ = 0;
};

// --- OCC ---------------------------------------------------------------------

class OccBackend final : public CCBackend {
 public:
  OccBackend(const StoreConfig& cfg, HistoryRecorder* recorder)
      : layout_(cfg, /*flat_accounts=*/true),
        cells_(layout_.total()),
        recorder_(recorder) {
    for (std::int64_t i = 0; i < layout_.A; ++i) {
      cells_[Layout::acct(i)].val.store(cfg.initial_balance,
                                        std::memory_order_relaxed);
    }
  }

  CCMode mode() const override { return CCMode::kOcc; }

  ExecResult execute(const Request& r) override {
    thread_local baseline::OccTxn txn;
    thread_local std::uint64_t backoff_state = 0x9e3779b97f4a7c15ULL;
    thread_local std::vector<LogEntry> oplog;

    std::uint32_t aborts = 0;
    for (;;) {
      txn.reset();
      oplog.clear();
      Storage st{&cells_, &txn, recorder_ ? &oplog : nullptr};
      ExecResult res = run_body(r, layout_, st);
      bool committed;
      if (recorder_) {
        // Checked mode: commit and history append are one critical section,
        // so event sequence numbers are exactly commit order and the oracle
        // never sees a half-committed interleaving. Aborted attempts are
        // retried without recording anything.
        std::scoped_lock lk(checked_commit_lock_);
        committed = txn.commit();
        if (committed) {
          const std::uint64_t id = recorder_->begin_txn();
          for (const LogEntry& e : oplog) {
            record_entry(recorder_, id, e.inst, e.op, e.arg);
          }
        }
      } else {
        committed = txn.commit();
      }
      if (committed) {
        res.retries = aborts;
        return res;
      }
      ++aborts;
      backoff_state ^= backoff_state << 13;
      backoff_state ^= backoff_state >> 7;
      backoff_state ^= backoff_state << 17;
      const std::uint32_t cap = 1u << (aborts < 10 ? aborts : 10);
      for (std::uint32_t i = backoff_state % cap; i > 0; --i) {
        util::cpu_relax();
      }
    }
  }

  std::int64_t balance_total() const override {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < layout_.A; ++i) {
      sum += cells_[Layout::acct(i)].val.load(std::memory_order_relaxed);
    }
    return sum;
  }
  std::int64_t kv_inserted() const override {
    std::int64_t n = 0;
    for (std::int64_t k = 0; k < layout_.K; ++k) {
      n += cells_[layout_.kv(k)].val.load(std::memory_order_relaxed) != 0;
    }
    return n;
  }
  std::int64_t edges_present() const override {
    std::int64_t n = 0;
    for (std::int64_t a = 0; a < layout_.N; ++a) {
      for (std::int64_t b = 0; b < layout_.N; ++b) {
        n += cells_[layout_.edge(a, b)].val.load(std::memory_order_relaxed) !=
             0;
      }
    }
    return n;
  }
  std::uint64_t digest() const override {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& c : cells_) {
      h ^= static_cast<std::uint64_t>(c.val.load(std::memory_order_relaxed));
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  struct Storage {
    std::vector<baseline::OccCell>* cells;
    baseline::OccTxn* txn;
    std::vector<LogEntry>* oplog;  // null when unchecked

    using Cell = baseline::OccCell*;
    Cell cell(std::size_t c) const { return &(*cells)[c]; }
    Cell account(std::int64_t i) const { return cell(Layout::acct(i)); }
    std::int64_t load(Cell c) { return txn->read(c); }
    void store(Cell c, std::int64_t v) { txn->write(c, v); }
    void add(Cell c, std::int64_t d) { txn->write(c, txn->read(c) + d); }
    void note(Cell c, LogOp op, Value arg) {
      if (oplog) oplog->push_back(LogEntry{c, op, arg});
    }
  };

  Layout layout_;
  std::vector<baseline::OccCell> cells_;
  HistoryRecorder* recorder_;
  util::Spinlock checked_commit_lock_;
};

}  // namespace

std::unique_ptr<CCBackend> make_cc_backend(CCMode mode, const StoreConfig& cfg,
                                           HistoryRecorder* recorder) {
  switch (mode) {
    case CCMode::kSemantic:
      return std::make_unique<SemanticBackend>(cfg, recorder);
    case CCMode::kSerial:
      return std::make_unique<SerialBackend>(cfg, recorder);
    case CCMode::kGlobalLock:
      return std::make_unique<GlobalLockBackend>(cfg, recorder);
    case CCMode::kTwoPL:
      return std::make_unique<TwoPLBackend>(cfg, recorder);
    case CCMode::kOcc:
      return std::make_unique<OccBackend>(cfg, recorder);
  }
  return nullptr;
}

}  // namespace semlock::server
