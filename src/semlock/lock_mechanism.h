// The runtime locking mechanism of Fig. 20.
//
// Per ADT instance, the mechanism tracks, per (canonical) locking mode, the
// number of transactions currently holding that mode. HOW those counts are
// represented is a storage policy (semlock/storage_policy.h) chosen per
// mode table: Striped (one atomic per mode, the paper's layout, plus striped
// banks for self-commuting modes when counter_stripes > 0) or Packed (the
// whole table in one 64-bit word with compiled conflict masks). Acquisition
// runs through three tiers (docs/FAST_PATH.md):
//
//   T1 (optimistic): the Fig. 20 pre-check (skip a visibly held conflict
//      without writing anything), then announce by incrementing C_l,
//      seq_cst fence, validate that the conflicting counters are clear;
//      retract + replay the wakeup handshake on failure, with a few
//      randomized-backoff retries. Lock-free — the common commuting
//      acquisition never touches the partition spinlock. Packed storage
//      fuses announce+validate into one CAS, so the packed fast path has no
//      retract and no rewake.
//   T2 (arbitrated): the same protocol under the partition's internal
//      spinlock, so conflicting waiters make progress in turn.
//   T3 (waiting): between T2 attempts, spin/yield/park per the table's wait
//      policy. Under the futex-word policy (Packed storage, Free grants),
//      waiters sleep directly on the lock word via std::atomic::wait
//      instead of the ParkingLot.
//
// `unlock(l)` decrements C_l and, when that was the mode's last hold and the
// wait policy can park, wakes the released mode's conflict partition.
//
// Lock partitioning (Section 5.2) gives each connected component of the
// conflict graph its own internal lock, so commuting mode families never
// contend on mechanism metadata — this is what turns the synthesized
// synchronization into, e.g., key striping for ComputeIfAbsent. The same
// partitioning scopes wakeups: a release bumps only its own partition's
// ParkingLot generation, so waiters in unrelated conflict components never
// stampede (src/runtime/parking_lot.h documents the no-lost-wakeup
// handshake; ModeTableConfig::wait_policy selects how waiters wait).
//
// Under a non-Free grant policy (ModeTableConfig::grant_policy,
// src/runtime/grant_policy.h) every bypass tier additionally consults the
// partition's barrier before acquiring: once a conflicting waiter has
// queued (PhaseFair) or exhausted its bypass budget (BoundedBypass),
// new arrivals — including T1 — divert to the wait path and grants hand off
// through a ticket cursor, bounding how long a commuting flood can starve a
// conflicting waiter (docs/RUNTIME_WAITING.md §5). The barrier lives only in
// the partition's GrantSlot, and both storages pass the same doorway check
// (fast_path_admitted) before they acquire.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "commute/value.h"
#include "runtime/grant_policy.h"
#include "runtime/parking_lot.h"
#include "runtime/wait_policy.h"
#include "semlock/acquire_stats.h"
#include "semlock/mode_table.h"
#include "semlock/storage_packed.h"
#include "semlock/storage_policy.h"
#include "semlock/storage_striped.h"
#include "util/align.h"
#include "util/spinlock.h"

namespace semlock {

#if defined(SEMLOCK_OBS)
namespace obs {
struct AttrRecord;
}  // namespace obs
#endif

// Optional call-site context for an acquisition, used by the conflict-
// attribution profiler (src/obs/attribution.h): the mode table's lock site
// and the concrete argument values the site was resolved against. `values`
// must stay alive for the duration of the lock()/try_lock() call (callers
// pass their own argument storage). `logical_instance`, when nonzero,
// identifies the logical ADT instance within a coarser physical lock — a
// caller multiplexing several logical maps behind one mechanism (the §3.4
// global-wrapper collapse) tags each with a distinct id so waits between
// different logical instances can be attributed to wrapper coarsening.
// Plain data with no obs dependency; passing it costs nothing when
// attribution is off.
struct LockSiteArgs {
  std::int32_t site = -1;
  std::span<const commute::Value> values;
  std::uint64_t logical_instance = 0;
};

// Counted RAII acquisition of any BasicLockable with try_lock — used by the
// Manual baselines so the contention benchmark observes every strategy
// through the same thread-local counters.
template <typename Lockable>
class CountedGuard {
 public:
  explicit CountedGuard(Lockable& l) : lock_(&l) {
    auto& stats = local_acquire_stats();
    ++stats.acquisitions;
    if (lock_->try_lock()) return;
    ++stats.contended;
    lock_->lock();
  }
  CountedGuard(const CountedGuard&) = delete;
  CountedGuard& operator=(const CountedGuard&) = delete;
  ~CountedGuard() { lock_->unlock(); }

 private:
  Lockable* lock_;
};

// Shared-mode variant for std::shared_mutex-style locks.
template <typename SharedLockable>
class CountedSharedGuard {
 public:
  explicit CountedSharedGuard(SharedLockable& l) : lock_(&l) {
    auto& stats = local_acquire_stats();
    ++stats.acquisitions;
    if (lock_->try_lock_shared()) return;
    ++stats.contended;
    lock_->lock_shared();
  }
  CountedSharedGuard(const CountedSharedGuard&) = delete;
  CountedSharedGuard& operator=(const CountedSharedGuard&) = delete;
  ~CountedSharedGuard() { lock_->unlock_shared(); }

 private:
  SharedLockable* lock_;
};

class LockMechanism {
 public:
  // `table` must outlive the mechanism; it is shared by all instances of the
  // same (ADT class, pointer class).
  explicit LockMechanism(const ModeTable& table);
  ~LockMechanism();

  LockMechanism(const LockMechanism&) = delete;
  LockMechanism& operator=(const LockMechanism&) = delete;

  // Blocks until no other transaction holds a mode conflicting with `mode`,
  // then registers the caller as a holder. (Fig. 20 `lock`.) `args`, when
  // given, carries the call site's concrete argument values for the
  // conflict-attribution profiler; it is ignored unless this mechanism is
  // traced and attribution is on.
  void lock(int mode, const LockSiteArgs* args = nullptr);

  // Non-blocking variant: returns false instead of waiting. Runs the same
  // pre-check as lock() and charges refused attempts to the contended/wait
  // counters.
  bool try_lock(int mode, const LockSiteArgs* args = nullptr);

  // Releases one hold on `mode` and, when that was the mode's last hold,
  // wakes the waiters parked on its conflict partition. (Fig. 20 `unlock`.)
  void unlock(int mode);

  // Number of transactions currently holding `mode` (approximate under
  // concurrency; exact when quiescent — striped modes sum their stripes,
  // which is exact mod 2^32, see util/striped_counter.h).
  std::uint32_t holders(int mode) const {
    return holder_count(mode, std::memory_order_acquire);
  }

  const ModeTable& table() const { return *table_; }

  // The counter representation actually in use: the config's storage kind,
  // except that a Packed request over a table with no packed layout (> 8
  // canonical modes) falls back to Striped.
  StorageKind storage() const { return storage_kind_; }

  // Total per-instance memory of this mechanism: the object itself plus
  // every heap allocation it owns (counter storage, partition locks,
  // ParkingLot, grant slots, attribution records). Logical bytes as
  // requested from the allocator; bench_footprint compares the storage
  // policies with it.
  std::size_t footprint_bytes() const;

  // Waiting-subsystem observability (tests, watchdog, benches). The
  // ParkingLot exists unless waiters sleep on the packed word itself
  // (Packed storage under the futex-word policy and Free grants); callers
  // in that configuration must not ask for it.
  const runtime::ParkingLot& parking_lot() const { return *parking_; }
  bool has_parking_lot() const { return parking_ != nullptr; }
  runtime::WaitPolicyKind wait_policy() const { return policy_; }
  runtime::GrantPolicyKind grant_policy() const { return grant_policy_; }
  std::uint32_t bypass_bound() const { return bypass_bound_; }

  // True when this mechanism emits src/obs trace events and metrics
  // (ModeTableConfig::trace_events; always false without SEMLOCK_OBS). The
  // StallWatchdog consults this before asking obs for forensics.
  bool traced() const { return trace_; }
  bool mode_striped(int mode) const;
  std::uint32_t stripes() const;

 private:
  // Per-partition grant state (docs/RUNTIME_WAITING.md §5), allocated only
  // when the table's grant policy is not Free — with the default Free policy
  // grant_slots_ is nullptr and every fast path is the unmodified PR 3 code.
  //
  // The barrier word is the one field the lock-free tiers read: 0 = open
  // (commuting arrivals may acquire without queueing), 1 = BoundedBypass
  // counting (arrivals charge `bypasses` and the K-th raises the barrier),
  // 2 = closed (arrivals divert to the wait path). It is the only copy of
  // the barrier, for every storage. The ticket cursor
  // (next_ticket/granted/phase_end) is written only under the partition's
  // internal spinlock; waiters read it lock-free in the park re-validation,
  // which is sound because eligibility is monotone — a ticket never becomes
  // ineligible again before its grant.
  // `waiting`/`phase_remaining` are plain ints touched exclusively under the
  // internal lock.
  struct alignas(util::kCacheLineSize) GrantSlot {
    std::atomic<std::uint32_t> barrier{0};
    std::atomic<std::uint32_t> bypasses{0};
    std::atomic<std::uint64_t> next_ticket{0};
    std::atomic<std::uint64_t> granted{0};
    std::atomic<std::uint64_t> phase_end{0};
    std::uint32_t waiting = 0;
    std::uint32_t phase_remaining = 0;
  };

  // Outcome of one acquisition attempt: Blocked means a conflict,
  // saturation or the grant barrier stood in the way (diversions are
  // charged to stats); Contended means only a racing announcement or CAS
  // churn did, so an arbitrated retry may land.
  enum class Attempt { Acquired, Blocked, Contended };

  using StorageVariant = std::variant<StripedStorage, PackedStorage>;

  static StorageVariant make_storage(const ModeTable& table, StorageKind kind);

  // --- storage-generic algorithm (defined in lock_mechanism.cpp; each
  // member template is instantiated there for the two policies, with
  // `if constexpr (Storage::kPacked)` carrying the packed-word variants of
  // the protocol steps). ----------------------------------------------------
  template <class Storage>
  void lock_impl(Storage& s, int mode, const LockSiteArgs* args);
  template <class Storage>
  bool try_lock_impl(Storage& s, int mode, const LockSiteArgs* args);
  template <class Storage>
  void unlock_impl(Storage& s, int mode);
  template <class Storage>
  void lock_contended(Storage& s, int mode, int partition,
                      AcquireStats& stats, const LockSiteArgs* args);

  template <class Storage>
  bool conflicts_clear(const Storage& s, int mode) const;
  // Validation once our own announcement is already counted: `self_allow`
  // holds of `mode` itself are ours, not a conflict (a self-conflicting mode
  // appears in its own conflicts_of row). The optimistic tier validates with
  // seq_cst loads (free on x86) to close the Dekker argument against the
  // seq_cst announce RMW. (Packed storage never announces transiently, so
  // its conflicts_clear ignores self_allow and is one masked load.)
  template <class Storage>
  bool conflicts_clear_impl(const Storage& s, int mode,
                            std::uint32_t self_allow,
                            std::memory_order order) const;

  // One acquisition attempt of tiers T1/T2. With `doorway` the attempt
  // honors the grant barrier and, on striped storage, runs the Fig. 20
  // pre-check before announcing. The ticketed arbitrated tier passes false:
  // its caller has pre-checked and its turn came, so its own barrier must
  // not divert it.
  template <class Storage>
  Attempt try_acquire(Storage& s, int mode, int partition, AcquireStats& stats,
                      bool doorway);

  // The announce/validate/retract step, striped storage only. Returns
  // true when `mode` was acquired; on failure the announcement has been
  // retracted and, if it might have parked a conflicting waiter, the
  // partition rewoken.
  template <class Storage>
  bool announce_validate(Storage& s, int mode, int partition,
                         AcquireStats& stats);

  // Packed equivalent of announce_validate: one bounded CAS-loop attempt.
  // Returns Contended on CAS churn without a visible blocker.
  static Attempt packed_try_acquire(PackedStorage& s, int mode);
  // Sleep on the packed word until it differs from `observed` (futex-word
  // policy; cooperative under DCT).
  static void packed_word_wait(PackedStorage& s, std::uint64_t observed);

  // Doorway check for the bypass tiers (T1, try_lock) of both storages: may
  // this arrival acquire without a ticket? Charges stats.diverted and emits
  // kBarrierDivert when it says no. Lock-free; an arrival that passed the
  // check before the barrier rose may still acquire (the "doorway race"),
  // which is why the certified bypass bound is K plus an in-flight
  // allowance, not exactly K.
  bool fast_path_admitted(int partition, AcquireStats& stats, int mode);
  // Takes a ticket and raises the GrantSlot barrier per policy. Called once
  // per contended acquisition, under the partition's internal lock.
  std::uint64_t enqueue_waiter(int partition);
  // May the holder of `ticket` attempt the arbitrated grant now? Lock-free
  // and monotone (see GrantSlot).
  bool waiter_eligible(int partition, std::uint64_t ticket) const;
  // Bookkeeping after a ticketed grant, under the internal lock: advances
  // the cursor, re-arms or drops the barrier, and returns whether the caller
  // must wake the partition so the next eligible waiter re-validates.
  bool grant_complete(int partition);
  // Wake every waiter of `partition`: ParkingLot unpark, or the futex-word
  // clear-waiters-bit + notify protocol for packed words.
  template <class Storage>
  void wake_partition(Storage& s, int partition);

  std::uint32_t holder_count(int mode, std::memory_order order) const;

  const ModeTable* table_;
  StorageKind storage_kind_;
  StorageVariant storage_;
  std::unique_ptr<util::Spinlock[]> partition_locks_;
  // Null only for Packed storage under the futex-word policy (Free grants),
  // where waiters sleep on the lock word itself and the per-partition slots
  // would be dead weight at "millions of instances" scale.
  std::unique_ptr<runtime::ParkingLot> parking_;
  runtime::WaitPolicyKind policy_;
  std::uint32_t spin_limit_;
  // False under SpinYield: unlock skips the wakeup fence entirely, keeping
  // the historical release path (one relaxed RMW) intact.
  bool can_park_;
  bool trace_;
  // Packed + futex-word + Free: waiters sleep on the word (parking_ is null).
  bool futex_word_;
  runtime::GrantPolicyKind grant_policy_;
  std::uint32_t bypass_bound_;
  // One slot per conflict partition; nullptr under the Free policy.
  std::unique_ptr<GrantSlot[]> grant_slots_;
#if defined(SEMLOCK_OBS)
  // One seqlock-protected last-acquirer record per mode, allocated only when
  // this mechanism traces (nullptr otherwise). Written at every grant that
  // carries LockSiteArgs; read by the attribution classifier when a waiter
  // blocks against the mode. (src/obs/attribution.h.)
  std::unique_ptr<obs::AttrRecord[]> attr_records_;
#endif
};

}  // namespace semlock
