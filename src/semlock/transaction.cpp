#include "semlock/transaction.h"

#include <algorithm>

namespace semlock {

void Transaction::lv_ordered(std::span<DynTarget> targets) {
  // Sort by unique id; duplicates (aliasing variables) collapse through the
  // holds() check in lv_mode.
  std::sort(targets.begin(), targets.end(),
            [](const DynTarget& a, const DynTarget& b) {
              const auto ida = a.lk ? a.lk->unique_id() : 0;
              const auto idb = b.lk ? b.lk->unique_id() : 0;
              return ida < idb;
            });
  for (const auto& t : targets) lv_mode(t.lk, t.mode);
}

void Transaction::grow() {
  const std::size_t capacity = capacity_ * 2;
  auto bigger = std::make_unique<HeldEntry[]>(capacity);
  std::copy(data_, data_ + size_, bigger.get());
  heap_ = std::move(bigger);
  data_ = heap_.get();
  capacity_ = capacity;
}

void Transaction::unlock_instance(SemanticLock* lk) {
  for (const auto& e : entries()) {
    if (e.lk == lk) e.lk->unlock(e.mode);
  }
  size_ = static_cast<std::size_t>(
      std::remove_if(data_, data_ + size_,
                     [&](const HeldEntry& e) { return e.lk == lk; }) -
      data_);
  if (index_live_) index_.erase(lk);
}

void Transaction::unlock_all() {
  for (const auto& e : entries()) e.lk->unlock(e.mode);
  if (size_ != 0) {
    // Epilogue marker: one event per non-empty release, with the number of
    // instances released in the mode field. Emitted after the unlocks so a
    // reader sees release events inside the [begin, unlock_all] interval.
    SEMLOCK_OBS_EVENT(kUnlockAll, nullptr, static_cast<int>(size_));
  }
  size_ = 0;
  if (index_live_) {
    index_.clear();
    index_live_ = false;
  }
}

}  // namespace semlock
