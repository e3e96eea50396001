// SemanticLock: the per-ADT-instance synchronization facade (Section 2.2).
//
// An "ADT with semantic locking" pairs a linearizable data structure with one
// of these. Transactions address it through the `lock(site, values...)` /
// `unlock` API; the symbolic-set semantics live in the shared ModeTable.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "semlock/lock_mechanism.h"
#include "semlock/mode_table.h"

namespace semlock {

class SemanticLock {
 public:
  explicit SemanticLock(const ModeTable& table)
      : mechanism_(table) {}

  const ModeTable& table() const { return mechanism_.table(); }

  // Resolves lock site `site` under the runtime `values` of its symbolic
  // variables and acquires the resulting mode. Returns the mode id, which
  // the caller passes back to unlock (or hands to a Transaction). The
  // (site, values) context rides along for the conflict-attribution
  // profiler; it costs nothing when attribution is off.
  int lock_site(int site, std::span<const commute::Value> values) {
    const int mode = table().resolve(site, values);
    const LockSiteArgs args{site, values, 0};
    mechanism_.lock(mode, &args);
    return mode;
  }

  // Direct mode-level interface (used when the mode is known statically,
  // i.e. constant symbolic sets).
  void lock(int mode, const LockSiteArgs* args = nullptr) {
    mechanism_.lock(mode, args);
  }
  bool try_lock(int mode, const LockSiteArgs* args = nullptr) {
    return mechanism_.try_lock(mode, args);
  }
  void unlock(int mode) { mechanism_.unlock(mode); }

  std::uint32_t holders(int mode) const { return mechanism_.holders(mode); }

  // The instance's one word of data on its lock's line
  // (LockMechanism::cell): an ADT with a single int64 of state, such as a
  // bank account, keeps it here, paired with its lock as in Section 2.2.
  std::atomic<std::int64_t>& cell() { return mechanism_.cell(); }

  // The underlying mechanism — the instance identity that trace events and
  // the StallWatchdog report (tests and forensics match against its address).
  const LockMechanism& mechanism() const { return mechanism_; }

  // Unique ADT-instance identifier used for the dynamic lock ordering of
  // same-equivalence-class instances (Fig. 12 `unique`).
  std::uintptr_t unique_id() const {
    return reinterpret_cast<std::uintptr_t>(this);
  }

 private:
  LockMechanism mechanism_;
};

}  // namespace semlock
