#include "apps/compute_if_absent.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "adt/striped_hash_map.h"
#include "baseline/global_lock.h"
#include "baseline/two_pl.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "semlock/semantic_lock.h"
#include "util/align.h"
#include "util/spinlock.h"

namespace semlock::apps {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Ours: return "Ours";
    case Strategy::Global: return "Global";
    case Strategy::TwoPL: return "2PL";
    case Strategy::Manual: return "Manual";
    case Strategy::V8: return "V8";
  }
  return "?";
}

namespace {

using commute::Value;

// The "pure computation" of the benchmark: allocate payload_bytes and touch
// them (the paper emulates the computed value by allocating 128 bytes).
using Payload = std::shared_ptr<std::vector<char>>;
Payload compute_payload(std::size_t bytes) {
  auto p = std::make_shared<std::vector<char>>(bytes);
  (*p)[0] = 1;
  (*p)[bytes - 1] = 2;
  return p;
}

// --- Ours ------------------------------------------------------------------
class CiaOurs final : public CiaModule {
 public:
  explicit CiaOurs(const CiaParams& params)
      : params_(params),
        table_(ModeTable::compile(
            commute::map_spec(),
            // Site 0: the refined symbolic set the compiler infers for the
            // atomic section (Fig. 2-style output; verified by
            // tests/synthesis_bench_test).
            {commute::SymbolicSet({
                commute::op("containsKey", {commute::var("key")}),
                commute::op("put", {commute::var("key"), commute::star()}),
            })},
            ModeTableConfig{.abstract_values = params.abstract_values})),
        lock_(table_),
        map_(/*num_stripes=*/256) {}

  void compute_if_absent(Value key) override {
    // Generated form: map.lock({containsKey(key),put(key,*)}); body;
    // map.unlockAll();
    const Value vals[1] = {key};
    const int mode = lock_.lock_site(0, vals);
    if (!map_.contains_key(key)) {
      map_.put(key, compute_payload(params_.payload_bytes));
    }
    lock_.unlock(mode);
  }

  std::size_t map_size() const override { return map_.size(); }

 private:
  CiaParams params_;
  ModeTable table_;
  SemanticLock lock_;
  adt::StripedHashMap<Value, Payload> map_;
};

// --- Global ------------------------------------------------------------------
class CiaGlobal final : public CiaModule {
 public:
  explicit CiaGlobal(const CiaParams& params) : params_(params) {}

  void compute_if_absent(Value key) override {
    baseline::GlobalSection guard(global_);
    if (!map_.count(key)) map_.emplace(key, compute_payload(params_.payload_bytes));
  }

  std::size_t map_size() const override { return map_.size(); }

 private:
  CiaParams params_;
  baseline::GlobalLock global_;
  std::unordered_map<Value, Payload> map_;
};

// --- 2PL ---------------------------------------------------------------------
class CiaTwoPL final : public CiaModule {
 public:
  explicit CiaTwoPL(const CiaParams& params) : params_(params) {}

  void compute_if_absent(Value key) override {
    baseline::TwoPLTxn txn;
    txn.acquire(&map_lock_);  // single ADT instance -> one lock
    if (!map_.count(key)) map_.emplace(key, compute_payload(params_.payload_bytes));
  }

  std::size_t map_size() const override { return map_.size(); }

 private:
  CiaParams params_;
  baseline::InstanceLock map_lock_;
  std::unordered_map<Value, Payload> map_;
};

// --- Manual (lock striping, 64 locks) ---------------------------------------
class CiaManual final : public CiaModule {
 public:
  explicit CiaManual(const CiaParams& params)
      : params_(params),
        stripes_(params.manual_stripes),
        map_(/*num_stripes=*/256) {}

  void compute_if_absent(Value key) override {
    util::Spinlock& stripe =
        stripes_[static_cast<std::size_t>(key) % stripes_.size()].value;
    CountedGuard guard(stripe);
    if (!map_.contains_key(key)) {
      map_.put(key, compute_payload(params_.payload_bytes));
    }
  }

  std::size_t map_size() const override { return map_.size(); }

 private:
  CiaParams params_;
  std::vector<util::CacheLinePadded<util::Spinlock>> stripes_;
  adt::StripedHashMap<Value, Payload> map_;
};

// --- V8 ----------------------------------------------------------------------
// Hand-crafted computeIfAbsent in the style of Doug Lea's
// ConcurrentHashMapV8: the factory runs under the key's stripe lock, in the
// same map the other strategies use.
class CiaV8 final : public CiaModule {
 public:
  explicit CiaV8(const CiaParams& params) : params_(params), map_(256) {}

  void compute_if_absent(Value key) override {
    map_.compute_if_absent(
        key, [&] { return compute_payload(params_.payload_bytes); });
  }

  std::size_t map_size() const override { return map_.size(); }

 private:
  CiaParams params_;
  adt::StripedHashMap<Value, Payload> map_;
};

}  // namespace

std::unique_ptr<CiaModule> make_cia_module(Strategy strategy,
                                           const CiaParams& params) {
  switch (strategy) {
    case Strategy::Ours: return std::make_unique<CiaOurs>(params);
    case Strategy::Global: return std::make_unique<CiaGlobal>(params);
    case Strategy::TwoPL: return std::make_unique<CiaTwoPL>(params);
    case Strategy::Manual: return std::make_unique<CiaManual>(params);
    case Strategy::V8: return std::make_unique<CiaV8>(params);
  }
  return nullptr;
}

}  // namespace semlock::apps
