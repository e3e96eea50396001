// Transaction-side bookkeeping for the OS2PL protocol (Sections 2.3 and 3).
//
// A Transaction plays the role of the generated prologue/epilogue plus the
// thread-local LOCAL_SET: it remembers which ADT instances are locked (and in
// which mode), skips re-locking (the LV macro of Fig. 5), orders
// same-equivalence-class instances dynamically by unique id (Fig. 12), and
// releases everything at the end of the atomic section — or earlier, for the
// early-release optimization of Appendix A.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "obs/hooks.h"
#include "semlock/semantic_lock.h"

namespace semlock {

class Transaction {
 public:
  Transaction() {
    // Open the thread's transaction scope: every event emitted while this
    // (outermost) transaction is open carries its id, assigned on first use,
    // which is what lets forensics name the holder.
    SEMLOCK_OBS_TXN_BEGIN();
#if defined(SEMLOCK_OBS)
    exec_start_ns_ = SEMLOCK_OBS_SPAN_CLOCK();
#endif
  }
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  ~Transaction() {
#if defined(SEMLOCK_OBS)
    // Exec span ends where the epilogue begins; the commit span covers
    // unlock_all. Recorded before TXN_END so the spans carry this txn's id.
    const std::uint64_t commit_start_ns =
        exec_start_ns_ != 0 ? ::semlock::obs::span_now_ns() : 0;
    const int released = static_cast<int>(size_);
#endif
    unlock_all();
#if defined(SEMLOCK_OBS)
    if (exec_start_ns_ != 0) {
      ::semlock::obs::record_txn_spans(exec_start_ns_, commit_start_ns,
                                       ::semlock::obs::span_now_ns(),
                                       released);
    }
#endif
    SEMLOCK_OBS_TXN_END();
  }

  // LV(x) of Fig. 5: lock `lk` in the mode resolved for (site, values)
  // unless this transaction already holds it. Null `lk` is a no-op, like
  // the null check in LV.
  void lv(SemanticLock* lk, int site,
          std::span<const commute::Value> values = {}) {
    if (lk == nullptr || holds(lk)) return;
    add_entry(lk, lk->lock_site(site, values));
  }

  // Mode-level LV for callers that resolved the mode themselves.
  void lv_mode(SemanticLock* lk, int mode) {
    if (lk == nullptr || holds(lk)) return;
    lk->lock(mode);
    add_entry(lk, mode);
  }

  // LV2/LVn (Fig. 12): lock several same-equivalence-class instances in
  // ascending unique-id order. Each element pairs an instance with the mode
  // to acquire. Null instances are skipped.
  struct DynTarget {
    SemanticLock* lk = nullptr;
    int mode = 0;
  };
  void lv_ordered(std::span<DynTarget> targets);

  // Membership test behind every LV: a linear scan is fastest while the
  // LOCAL_SET is small (the common case — generated prologues lock a
  // handful of instances), but the LVn-heavy shapes of Fig. 12 can hold
  // hundreds, turning each atomic section into an O(N^2) scan. Past
  // kInlineHeldScan entries the set is mirrored into a hash index.
  bool holds(const SemanticLock* lk) const {
    if (index_live_) return index_.count(lk) != 0;
    for (const auto& e : entries()) {
      if (e.lk == lk) return true;
    }
    return false;
  }

  struct HeldEntry {
    SemanticLock* lk;
    int mode;
  };
  // The instances/modes currently held, in acquisition order (introspection
  // for protocol checks).
  std::vector<HeldEntry> held() const {
    const auto e = entries();
    return std::vector<HeldEntry>(e.begin(), e.end());
  }

  std::size_t num_held() const { return size_; }

  // Early lock release for one instance (Appendix A): unlocks every mode
  // this transaction holds on `lk`. No-op if none are held.
  void unlock_instance(SemanticLock* lk);

  // The epilogue: release everything.
  void unlock_all();

 private:
  // Held entries kept in the object itself: an untraced transaction over at
  // most this many instances never touches the heap.
  static constexpr std::size_t kInlineEntries = 8;
  // Largest held-set size still served by the linear scan.
  static constexpr std::size_t kInlineHeldScan = 64;

  std::span<const HeldEntry> entries() const { return {data_, size_}; }

  void add_entry(SemanticLock* lk, int mode) {
    if (size_ == capacity_) grow();
    data_[size_++] = HeldEntry{lk, mode};
    if (index_live_) {
      index_.insert(lk);
    } else if (size_ > kInlineHeldScan) {
      index_.reserve(size_ * 2);
      for (const auto& e : entries()) index_.insert(e.lk);
      index_live_ = true;
    }
  }

  // Moves the held set to a heap array of twice the capacity.
  void grow();

  // The held set, in acquisition order: data_[0, size_) lives in inline_
  // until it outgrows kInlineEntries, then in heap_, which is kept for reuse
  // after unlock_all. An instance appears at most once.
  HeldEntry inline_[kInlineEntries] = {};
  std::unique_ptr<HeldEntry[]> heap_;
  HeldEntry* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineEntries;
  // Hash mirror of the held instances; live once the set outgrows the
  // linear scan, reset by unlock_all.
  std::unordered_set<const SemanticLock*> index_;
  bool index_live_ = false;
#if defined(SEMLOCK_OBS)
  // Span-clock stamp of construction; 0 = span recording was off, so the
  // destructor records nothing.
  std::uint64_t exec_start_ns_ = 0;
#endif
};

}  // namespace semlock
