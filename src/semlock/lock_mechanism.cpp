#include "semlock/lock_mechanism.h"

#include <new>

#include "dct/hooks.h"
#include "runtime/wait_registry.h"
#include "util/align.h"

#if defined(SEMLOCK_DCT)
#include "dct/starvation.h"
// Grant hook for the DCT no-starvation oracle: every grant on a partition
// bumps the bypass count of the wait episodes still queued there. Compiles
// to nothing outside the harness.
#define LM_DCT_GRANT(partition) \
  ::semlock::dct::starvation_on_grant(this, (partition))
#else
#define LM_DCT_GRANT(partition) ((void)0)
#endif

#if defined(SEMLOCK_OBS)
#include "obs/attribution.h"
#include "obs/trace.h"
// Mechanism-level trace hook: gated on this mechanism's cached
// ModeTableConfig::trace_events flag (trace_), not the global switch, so
// per-table overrides work and the disabled cost is one predictable branch.
#define LM_OBS_EVENT(type, mode)                                     \
  do {                                                               \
    if (trace_) [[unlikely]]                                         \
      ::semlock::obs::emit(::semlock::obs::EventType::type, this,    \
                           (mode));                                  \
  } while (0)
// Grant hook, same gate: the grant event carries the caller's lock site
// (the hold-time profiler's site, and a derived blocker's), and the
// conflict-attribution profiler's last-acquirer record of the mode is
// refreshed with this caller's identity and concrete argument values.
#define LM_OBS_GRANT(type, mode, args)                                \
  do {                                                                \
    if (trace_) [[unlikely]] {                                        \
      ::semlock::obs::emit(::semlock::obs::EventType::type, this,     \
                           (mode), (args) != nullptr ? (args)->site   \
                                                     : -1);           \
      if (attr_records_ != nullptr && obs::attribution_enabled()) {   \
        obs::attr_record_grant(                                       \
            attr_records_[static_cast<std::size_t>(mode)],            \
            obs::current_owner_id(), (args));                         \
      }                                                               \
    }                                                                 \
  } while (0)
#else
// The hooks still consume their operands, so parameters that only feed them
// do not trip -Wunused-parameter in an obs-less build.
#define LM_OBS_EVENT(type, mode) ((void)(mode))
#define LM_OBS_GRANT(type, mode, args) ((void)(mode), (void)(args))
#endif

namespace semlock {

namespace {

// Bounded retries for the lock-free optimistic tier before falling back to
// the spinlock-arbitrated wait path. Small on purpose: a validation failure
// means a conflicting mode is actually held, and repeated announce/retract
// cycles only disturb that holder's cache lines.
constexpr int kOptimisticAttempts = 4;

// Bounded CAS retries inside one packed acquisition attempt before reporting
// Contended. A CAS failure here is not a conflict — a commuting neighbor
// moved the word — so a couple of immediate retries usually land; past that
// the caller backs off or arbitrates.
constexpr int kPackedCasRetries = 4;

// Randomized backoff between optimistic retries: two racing conflicting
// announcers that failed against each other must not re-announce in
// lockstep. SplitMix64 per thread; only the pause count is randomized, never
// control flow, so DCT replay stays deterministic.
std::uint32_t backoff_jitter() noexcept {
  thread_local std::uint64_t state = [] {
    return 0x9E3779B97F4A7C15ull *
           (0x2545F4914F6CDD1Dull +
            reinterpret_cast<std::uintptr_t>(&state));
  }();
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(z >> 32);
}

void backoff_pause(int attempt) noexcept {
  const std::uint32_t ceiling = 8u << (attempt < 8 ? attempt : 8);
  const std::uint32_t spins = backoff_jitter() & (ceiling - 1);
  for (std::uint32_t i = 0; i < spins; ++i) util::cpu_relax();
}

// The futex-word policy degrades to SpinThenPark unless the storage is
// Packed — only a packed table has a single word to sleep on — and the
// grant policy is Free. A ticketed policy's cursor lives outside the word,
// so a sleeper whose turn comes can find the word back at the value it
// slept on: the handoff cleared W and notified before it slept, the holder
// released without W, and a later waiter set W again. The ParkingLot's
// generation counter sees every wakeup and has no such ABA. Resolved once
// here so every consumer (parking allocation, can_park_, the public
// wait_policy() accessor) agrees on the effective policy.
runtime::WaitPolicyKind effective_wait_policy(const ModeTable& table) {
  const runtime::WaitPolicyKind p = table.config().wait_policy;
  if (p == runtime::WaitPolicyKind::FutexWord &&
      (table.storage() != StorageKind::Packed ||
       table.config().grant_policy != runtime::GrantPolicyKind::Free)) {
    return runtime::WaitPolicyKind::SpinThenPark;
  }
  return p;
}

bool uses_futex_word(const ModeTable& table) {
  return table.storage() == StorageKind::Packed &&
         effective_wait_policy(table) == runtime::WaitPolicyKind::FutexWord;
}

}  // namespace

AcquireStats& local_acquire_stats() {
#if defined(SEMLOCK_OBS)
  // The counters live inside the obs thread state so they are merged into
  // the process-wide MetricsRegistry when the thread exits — cross-thread
  // totals stay exact instead of losing whatever exited early.
  return obs::thread_acquire_stats();
#else
  thread_local AcquireStats stats;
  return stats;
#endif
}

LockMechanism::LockMechanism(const ModeTable& table)
    : table_(&table),
      packed_(table.storage() == StorageKind::Packed),
#if defined(SEMLOCK_OBS)
      trace_(table.config().trace_events),
#else
      trace_(false),
#endif
      can_park_(effective_wait_policy(table) !=
                runtime::WaitPolicyKind::SpinYield),
      futex_word_(uses_futex_word(table)),
      ticketed_(table.config().grant_policy != runtime::GrantPolicyKind::Free),
      slab_(static_cast<std::byte*>(::operator new(
                table.slab_bytes(), std::align_val_t{table.slab_align()})),
            SlabFree{std::align_val_t{table.slab_align()}}),
      bank_(table.stripe_rows() > 0
                ? std::make_unique<util::StripedCounterBank>(
                      table.stripe_rows(),
                      static_cast<std::uint32_t>(
                          table.config().counter_stripes))
                : nullptr),
      parking_(can_park_ && !futex_word_
                   ? std::make_unique<runtime::ParkingLot>(
                         table.num_partitions())
                   : nullptr),
      policy_(effective_wait_policy(table)),
      grant_policy_(table.config().grant_policy),
      spin_limit_(table.config().park_spin_limit > 0
                      ? static_cast<std::uint32_t>(
                            table.config().park_spin_limit)
                      : 0),
      bypass_bound_(table.config().bypass_bound > 0
                        ? static_cast<std::uint32_t>(
                              table.config().bypass_bound)
                        : 1) {
  for (const std::uint32_t offset : table.counter_offsets()) {
    ::new (slab_.get() + offset) std::atomic<std::uint32_t>(0);
  }
  for (const std::uint32_t offset : table.lock_offsets()) {
    ::new (slab_.get() + offset) util::Spinlock;
  }
  if (ticketed_) {
    grant_slots_ = std::make_unique<GrantSlot[]>(
        static_cast<std::size_t>(table.num_partitions()));
  }
#if defined(SEMLOCK_OBS)
  if (trace_) {
    attr_records_ = std::make_unique<obs::AttrRecord[]>(
        static_cast<std::size_t>(table.num_modes()));
  }
#endif
}

// Out of line: obs::AttrRecord is incomplete in the header.
LockMechanism::~LockMechanism() = default;

std::uint32_t LockMechanism::holder_count(int mode,
                                          std::memory_order order) const {
  if (packed_) {
    const PackedMode& r = table_->packed_mode(mode);
    return static_cast<std::uint32_t>((word_.load(order) & r.field_mask) >>
                                      r.shift);
  }
  return striped_holders(mode, order);
}

// The striped counter operations are `inline` so that GCC inlines them into
// the fast-path templates below; out of line they cost three calls per
// acquisition.
inline std::uint32_t LockMechanism::striped_holders(
    int mode, std::memory_order order) const {
  const int row = table_->stripe_row(mode);
  if (row >= 0) return bank_->sum(static_cast<std::uint32_t>(row), order);
  return counter(mode).load(order);
}

inline void LockMechanism::increment(int mode, std::memory_order order) {
  const int row = table_->stripe_row(mode);
  if (row >= 0) {
    bank_->local_slot(static_cast<std::uint32_t>(row)).fetch_add(1, order);
  } else {
    counter(mode).fetch_add(1, order);
  }
}

inline bool LockMechanism::release_one(int mode) {
  const int row = table_->stripe_row(mode);
  if (row < 0) {
    const std::uint32_t prev =
        counter(mode).fetch_sub(1, std::memory_order_release);
    return can_park_ && prev == 1;
  }
  std::atomic<std::uint32_t>& slot =
      bank_->local_slot(static_cast<std::uint32_t>(row));
  if (!can_park_) {
    // Nobody can be parked: skip the last-hold test and keep the release
    // a single RMW, mirroring the unstriped path under SpinYield.
    slot.fetch_sub(1, std::memory_order_release);
    return false;
  }
  // The striped last-hold test: seq_cst decrement, then seq_cst sum.
  // Against a concurrent releaser on another stripe this is Dekker: in
  // the seq_cst total order one of the two decrements comes second, and
  // the sum of that releaser sees both, so at least one of two racing
  // final releasers observes the zero and wakes the partition.
  slot.fetch_sub(1, std::memory_order_seq_cst);
  return bank_->sum(static_cast<std::uint32_t>(row),
                    std::memory_order_seq_cst) == 0;
}

bool LockMechanism::mode_striped(int mode) const {
  return table_->stripe_row(mode) >= 0;
}

std::uint32_t LockMechanism::stripes() const {
  return bank_ ? bank_->stripes() : 1;
}

std::size_t LockMechanism::footprint_bytes() const {
  const auto partitions = static_cast<std::size_t>(table_->num_partitions());
  std::size_t total = sizeof(LockMechanism) + table_->slab_bytes();
  if (bank_ != nullptr) {
    total += sizeof(util::StripedCounterBank) + bank_->heap_bytes();
  }
  if (parking_ != nullptr) {
    // The lot object plus its one cache-line slot per partition
    // (runtime/parking_lot.h).
    total += sizeof(runtime::ParkingLot) + partitions * util::kCacheLineSize;
  }
  if (grant_slots_ != nullptr) total += partitions * sizeof(GrantSlot);
#if defined(SEMLOCK_OBS)
  if (attr_records_ != nullptr) {
    total += static_cast<std::size_t>(table_->num_modes()) *
             sizeof(obs::AttrRecord);
  }
#endif
  return total;
}

template <bool kPacked>
bool LockMechanism::conflicts_clear_impl(int mode, std::uint32_t self_allow,
                                         std::memory_order order) const {
  if constexpr (kPacked) {
    // The whole conflict row is one masked load against the compiled mask.
    // A saturated own-mode field also blocks (acquiring would corrupt the
    // mini-counter), which is the saturation fallback: the arrival waits
    // like a conflicted one until a release drops the field. Packed storage
    // never announces transiently, so self_allow is moot.
    (void)self_allow;
    const PackedMode& r = table_->packed_mode(mode);
    SEMLOCK_DCT_POINT("word.check", &word_);
    const std::uint64_t w = word_.load(order);
    return (w & r.conflict_mask) == 0 && (w & r.field_mask) != r.field_mask;
  } else {
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      SEMLOCK_DCT_POINT("mode.check", &counter(other));
      const std::uint32_t allow = other == mode ? self_allow : 0;
      if (striped_holders(other, order) > allow) {
        return false;
      }
    }
    return true;
  }
}

template <bool kPacked>
bool LockMechanism::conflicts_clear(int mode) const {
  return conflicts_clear_impl<kPacked>(mode, 0, std::memory_order_acquire);
}

bool LockMechanism::announce_validate(int mode, int partition,
                                      AcquireStats& stats) {
  SEMLOCK_DCT_POINT("mode.announce", &counter(mode));
  // Announce-before-validate on both sides, all seq_cst: in the seq_cst
  // total order, of two conflicting announcers one increments second, and
  // that one's validation loads (also seq_cst) then see the other's
  // announcement (Dekker / SB litmus) — they cannot both validate. A seq_cst
  // RMW is the same instruction as a relaxed one on x86 and folds the
  // barrier into the load/add on ARM, which is why this beats a relaxed
  // announce plus a standalone fence. self_allow=1 discounts our own
  // announcement when the mode conflicts with itself.
  increment(mode, std::memory_order_seq_cst);
  if (conflicts_clear_impl<false>(mode, 1, std::memory_order_seq_cst)) {
    return true;
  }
  ++stats.retracts;
  LM_OBS_EVENT(kRetract, mode);
  SEMLOCK_DCT_POINT("mode.retract", &counter(mode));
#if defined(SEMLOCK_DCT)
  if (dct::mutation_drop_retract_rewake()) {
    // Test-only mutation: retract without the rewake — a conflicting waiter
    // that parked against our transient announcement is never woken
    // (tests/dct_mutation_test.cpp validates the detector against it).
    (void)release_one(mode);
    return false;
  }
#endif
  if (release_one(mode)) {
    // Our transient announcement may have parked a conflicting waiter whose
    // real blocker released in the meantime; since ours was possibly the
    // last visible hold, replay the unlock wakeup so that waiter
    // re-validates instead of sleeping forever.
    parking_->unpark_all(partition);
  }
  return false;
}

LockMechanism::Attempt LockMechanism::packed_try_acquire(int mode) {
  const PackedMode& r = table_->packed_mode(mode);
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  for (int attempt = 0;; ++attempt) {
    SEMLOCK_DCT_POINT("word.check", &word_);
    std::uint64_t conflict = r.conflict_mask;
#if defined(SEMLOCK_DCT)
    // Test-only mutation: skip the compiled conflict-mask test — holders of
    // conflicting modes stop excluding each other and the serializability
    // oracle must catch the damage (tests/dct_mutation_test.cpp).
    if (dct::mutation_drop_packed_mask_check()) conflict = 0;
#endif
    if ((w & conflict) != 0) return Attempt::Blocked;
    if ((w & r.field_mask) == r.field_mask) {
      // Mini-counter saturated: another increment would overflow into the
      // neighbor field, so this arrival falls back to the arbitrated/wait
      // tier until a release drops the field below field_max (releases from
      // saturation replay the wakeup; see unlock_impl).
      return Attempt::Blocked;
    }
    // The CAS fuses announce+validate: it claims the field ONLY if the word
    // it validated is still the word it saw, so there is no transient
    // announcement, hence no retract and no rewake on this path.
    SEMLOCK_DCT_POINT("word.cas", &word_);
    if (word_.compare_exchange_weak(w, w + r.inc, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
      return Attempt::Acquired;
    }
    // compare_exchange reloaded w; re-run the checks on the fresh value.
    if (attempt >= kPackedCasRetries) return Attempt::Contended;
  }
}

void LockMechanism::packed_word_wait(std::uint64_t observed) {
#if defined(SEMLOCK_DCT)
  if (dct::scheduled()) {
    dct::futex_wait(word_, observed);
    return;
  }
#endif
  word_.wait(observed, std::memory_order_seq_cst);
}

bool LockMechanism::fast_path_admitted(int partition, AcquireStats& stats,
                                       int mode) {
  if (!ticketed_) return true;
#if defined(SEMLOCK_DCT)
  // Test-only mutation: ignore the barrier — the bypass tiers behave as
  // under Free and the no-starvation oracle must notice.
  if (dct::mutation_drop_barrier_check()) return true;
#endif
  GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  SEMLOCK_DCT_POINT("grant.barrier", &slot.barrier);
  const std::uint32_t barrier = slot.barrier.load(std::memory_order_acquire);
  if (barrier == 0) return true;
  if (barrier == 1) {
    // BoundedBypass counting: charge the budget; the admission that exhausts
    // it closes the barrier for everyone after. A straggler that loaded
    // barrier==1 before a reset can only over-count — the bound holds.
    const std::uint32_t before =
        slot.bypasses.fetch_add(1, std::memory_order_acq_rel);
    if (before + 1 >= bypass_bound_) {
      std::uint32_t expected = 1;
      slot.barrier.compare_exchange_strong(expected, 2,
                                           std::memory_order_acq_rel);
    }
    if (before < bypass_bound_) return true;
  }
  ++stats.diverted;
  LM_OBS_EVENT(kBarrierDivert, mode);
  return false;
}

std::uint64_t LockMechanism::enqueue_waiter(int partition) {
  GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  SEMLOCK_DCT_POINT("grant.enqueue", &slot.barrier);
  const std::uint64_t ticket =
      slot.next_ticket.fetch_add(1, std::memory_order_relaxed);
  ++slot.waiting;
  switch (grant_policy_) {
    case runtime::GrantPolicyKind::PhaseFair:
      // The moment anyone queues, every bypass tier closes.
      slot.barrier.store(2, std::memory_order_release);
      if (slot.phase_remaining == 0) {
        // Open the first phase: just this waiter. Later arrivals queue for
        // the next phase, which grant_complete sizes when this one drains.
        slot.phase_remaining = 1;
        slot.phase_end.store(ticket + 1, std::memory_order_release);
      }
      break;
    case runtime::GrantPolicyKind::BoundedBypass:
      if (slot.waiting == 1) {
        // First waiter arms the counting barrier with a fresh budget —
        // never demoting a barrier a concurrent exhaustion already closed.
        slot.bypasses.store(0, std::memory_order_relaxed);
        std::uint32_t expected = 0;
        slot.barrier.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel);
      }
      break;
    case runtime::GrantPolicyKind::Free:
      break;
  }
  return ticket;
}

bool LockMechanism::waiter_eligible(int partition,
                                    std::uint64_t ticket) const {
  if (!ticketed_) return true;
  const GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  switch (grant_policy_) {
    case runtime::GrantPolicyKind::BoundedBypass:
      // Tickets are unique, so once granted == ticket the cursor cannot move
      // past us — eligibility is monotone and this lock-free read is final.
      return slot.granted.load(std::memory_order_acquire) == ticket;
    case runtime::GrantPolicyKind::PhaseFair:
      // phase_end only grows, same monotonicity argument.
      return ticket < slot.phase_end.load(std::memory_order_acquire);
    case runtime::GrantPolicyKind::Free:
      break;
  }
  return true;
}

bool LockMechanism::grant_complete(int partition) {
  GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  --slot.waiting;
  slot.granted.fetch_add(1, std::memory_order_release);
  switch (grant_policy_) {
    case runtime::GrantPolicyKind::PhaseFair:
      if (--slot.phase_remaining == 0) {
        if (slot.waiting > 0) {
          // Phase drained with a queue behind it: everyone ticketed by now
          // forms the next phase (commuting members overlap freely; a
          // conflicting member simply waits its turn inside the phase).
          slot.phase_remaining = slot.waiting;
          slot.phase_end.store(
              slot.next_ticket.load(std::memory_order_relaxed),
              std::memory_order_release);
        } else {
          slot.barrier.store(0, std::memory_order_release);
        }
      }
      break;
    case runtime::GrantPolicyKind::BoundedBypass:
      // The waiter the budget protected is gone: refresh the budget for the
      // next one, or reopen the fast path when the queue is empty.
      slot.bypasses.store(0, std::memory_order_relaxed);
      slot.barrier.store(slot.waiting > 0 ? 1 : 0, std::memory_order_release);
      break;
    case runtime::GrantPolicyKind::Free:
      break;
  }
  // Waiters park against both "conflicts held" and "not my turn"; advancing
  // the cursor changes the latter, so the caller must replay the wakeup
  // (after dropping the internal lock) exactly like a releasing unlock does.
  return slot.waiting > 0;
}

template <bool kPacked>
void LockMechanism::wake_partition(int partition) {
  if constexpr (kPacked) {
    if (futex_word_) {
      // Futex-word wakeup: clearing W both licenses future releases to skip
      // the notify and CHANGES THE WORD'S VALUE, so sleepers blocked on any
      // stale `observed` return from wait. Woken waiters re-publish W before
      // sleeping again, so a cleared bit never strands a still-blocked
      // waiter.
      constexpr std::uint64_t waiters_bit = PackedLayout::waiters_bit;
      if ((word_.load(std::memory_order_seq_cst) & waiters_bit) != 0) {
        word_.fetch_and(~waiters_bit, std::memory_order_seq_cst);
        SEMLOCK_DCT_POINT("word.wake", &word_);
        word_.notify_all();
      }
      return;
    }
  }
  parking_->unpark_all(partition);
}

template <bool kPacked>
LockMechanism::Attempt LockMechanism::try_acquire(int mode, int partition,
                                                  AcquireStats& stats,
                                                  bool doorway) {
  if (doorway && !fast_path_admitted(partition, stats, mode)) {
    return Attempt::Blocked;
  }
  if constexpr (kPacked) {
    // The CAS validates against the word it claims, so the pre-check is
    // part of the attempt itself.
    return packed_try_acquire(mode);
  } else {
    // Fig. 20 pre-check: a visibly held conflict is refused before the
    // announcement, so it costs no transient increment and no retract.
    // Validation inside announce_validate is unconditional.
    if (doorway && !conflicts_clear<false>(mode)) return Attempt::Blocked;
    return announce_validate(mode, partition, stats) ? Attempt::Acquired
                                                     : Attempt::Contended;
  }
}

template <bool kPacked>
void LockMechanism::lock_impl(int mode, const LockSiteArgs* args) {
  auto& stats = local_acquire_stats();
  ++stats.acquisitions;
  LM_OBS_EVENT(kAcquireBegin, mode);
  const int partition = table_->partition_of(mode);
  // Tier T1: lock-free attempts. Under a non-Free grant policy every attempt
  // first consults the partition's barrier — a raised barrier sends this
  // arrival to the wait path.
  for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
    const Attempt r =
        try_acquire<kPacked>(mode, partition, stats, /*doorway=*/true);
    if (r == Attempt::Acquired) {
      ++stats.optimistic_hits;
      LM_OBS_GRANT(kOptimisticHit, mode, args);
      LM_DCT_GRANT(partition);
      return;
    }
    if (r == Attempt::Blocked) break;
    backoff_pause(attempt);
  }
  lock_contended<kPacked>(mode, partition, stats, args);
}

template <bool kPacked>
void LockMechanism::lock_contended(int mode, int partition,
                                   AcquireStats& stats,
                                   const LockSiteArgs* args) {
  util::Spinlock& internal = partition_lock(partition);
  ++stats.contended;
#if defined(SEMLOCK_OBS)
  // The blocker sample, taken on entry and before every park so it names
  // whoever was holding when this waiter went to sleep: the first held
  // conflicting mode (returned, -1 if none, for the kContendedWait or kPark
  // event to carry; the trace derives the blocking owner from it offline)
  // and, for the live wait-for graph, the owner that last acquired it, from
  // the PR 5 seqlock grant records. A sample that finds nothing held keeps
  // the previous owner.
  std::uint64_t blocker_owner = 0;
  std::int32_t blocker_site = -1;
  const auto sample_blocker = [&]() -> std::int32_t {
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      if (holder_count(other, std::memory_order_acquire) == 0) continue;
      blocker_owner = 0;
      blocker_site = -1;
      if (attr_records_ != nullptr) {
        // The owner field is stored even for bare-mode grants (site -1), so
        // this works without LockSiteArgs; only a torn read or our own
        // previous grant leaves the blocker anonymous.
        const obs::AttrSnapshot h =
            obs::attr_read(attr_records_[static_cast<std::size_t>(other)]);
        if (h.owner != 0 && h.owner != obs::current_owner_id()) {
          blocker_owner = h.owner;
          blocker_site = h.site;
        }
      }
      return other;
    }
    return -1;
  };
  // Right after a handoff this waiter can find `other` held before its new
  // holder has published the grant record: the record is mid-write or still
  // names this waiter's own earlier grant, and classifying then blames the
  // missing record (SELF_MODE) instead of the holder. The holder publishes
  // before it can release, so give it a bounded moment while `other` stays
  // held. Skipped on a DCT virtual thread, where the holder cannot run until
  // this thread reaches a schedule point.
  const auto await_grant_record = [&](std::int32_t other) {
    if (args == nullptr) return;  // a bare-mode waiter classifies without it
#if defined(SEMLOCK_DCT)
    if (dct::scheduled()) return;
#endif
    constexpr int kSteps = 12;  // 255 pauses, then 4 yields
    const obs::AttrRecord& rec = attr_records_[static_cast<std::size_t>(other)];
    const std::uint64_t self = obs::current_owner_id();
    util::Backoff backoff;
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t owner = obs::attr_read(rec).owner;
      if (owner != 0 && owner != self) return;
      if (holder_count(other, std::memory_order_acquire) == 0) return;
      backoff.pause();
    }
  };
  if (trace_) {
    obs::emit(obs::EventType::kContendedWait, this, mode, sample_blocker());
    // Sample the blocked-by conflict matrix: which non-commuting modes were
    // actually held when this waiter gave up on the fast path. The walk is
    // over conflicts_of(mode) only, so commuting pairs can never appear.
    // When attribution is on (and this wait drew a sample), also classify
    // the wait against each blocking mode's last-acquirer record: true
    // semantic conflict, or which abstraction artifact (obs/attribution.h).
    const bool classify = attr_records_ != nullptr &&
                          obs::attribution_enabled() &&
                          obs::attribution_should_sample();
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      if (holder_count(other, std::memory_order_acquire) > 0) {
        obs::record_blocked_by(this, mode, other);
        if (classify) {
          await_grant_record(other);
          obs::record_attribution(
              this, *table_, mode, args, other,
              &attr_records_[static_cast<std::size_t>(other)]);
        }
      }
    }
  }
#endif
  const std::uint64_t wait_start = runtime::steady_now_ns();
#if defined(SEMLOCK_OBS)
  // A traced wait also publishes its waiter -> blocker edge for the live
  // wait-for graph (obs/waitgraph.h); the blocker is refreshed at each park
  // and the edge cleared with the scope on grant.
  runtime::WaitScope watchdog_scope(this, mode, partition, wait_start,
                                    trace_ ? obs::current_owner_id() : 0);
  if (trace_) watchdog_scope.set_blocker(blocker_owner, blocker_site);
  const auto note_park = [&] {
    const std::int32_t sampled = sample_blocker();
    watchdog_scope.set_blocker(blocker_owner, blocker_site);
    obs::emit(obs::EventType::kPark, this, mode, sampled);
  };
#else
  runtime::WaitScope watchdog_scope(this, mode, partition, wait_start);
#endif
#if defined(SEMLOCK_DCT)
  dct::StarvationWaitScope starvation_scope(this, partition);
#endif
  // Under a non-Free grant policy this waiter takes a ticket (raising the
  // barrier per policy) and only attempts the arbitrated grant when the
  // cursor says it is its turn; the grant then hands the cursor off to the
  // next waiter. kMaxTicket marks the Free policy's ticketless waiters.
  constexpr std::uint64_t kMaxTicket = ~std::uint64_t{0};
  std::uint64_t ticket = kMaxTicket;
  if (ticketed_) {
    internal.lock();
    ticket = enqueue_waiter(partition);
    internal.unlock();
  }
  runtime::WaitState wait(policy_, spin_limit_);
  // wait_cpu_ns: a spinning waiter is on the CPU, so the spin phase counts
  // its wall time. The thread-CPU clock (a system call) is read only from
  // the first step that may yield or park; spin_ns is the wall time up to
  // that read, and cpu_start is 0 until it happens.
  std::uint64_t spin_ns = 0;
  std::uint64_t cpu_start = 0;
  for (;;) {
    const bool eligible =
        ticket == kMaxTicket || waiter_eligible(partition, ticket);
    if (eligible && conflicts_clear<kPacked>(mode)) {
      // Tier T2: the T1 protocol, arbitrated — the internal lock serializes
      // the slow-path waiters of this partition so they cannot starve each
      // other with dueling announcements, and doorway=false because a
      // ticketed waiter whose turn came must not divert against its own
      // barrier. (Plain check-then-increment would race with the lock-free
      // T1 announcers, which never take this lock.)
      internal.lock();
      const bool acquired =
          try_acquire<kPacked>(mode, partition, stats, /*doorway=*/false) ==
          Attempt::Acquired;
      bool handoff = false;
      if (acquired && ticket != kMaxTicket) {
        handoff = grant_complete(partition);
      }
      internal.unlock();
      if (acquired) {
        if (handoff) {
          // The cursor moved: wake the partition so the newly eligible
          // waiter re-validates instead of sleeping on a stale turn. A
          // spin-yield waiter never sleeps; it sees the cursor at its next
          // poll.
          if (can_park_) wake_partition<kPacked>(partition);
          ++stats.handoffs;
          LM_OBS_EVENT(kGrantHandoff, mode);
        }
        const std::uint64_t waited = runtime::steady_now_ns() - wait_start;
        stats.wait_ns += waited;
        if (waited > stats.max_wait_ns) stats.max_wait_ns = waited;
        stats.wait_cpu_ns +=
            cpu_start == 0
                ? waited
                : spin_ns + (runtime::thread_cpu_now_ns() - cpu_start);
        LM_OBS_GRANT(kAcquireGrant, mode, args);
#if defined(SEMLOCK_DCT)
        // A contended grant is an overtake only of waiters that entered the
        // wait loop BEFORE this one (granted() bumps exactly those); the
        // unconditional LM_DCT_GRANT is for the fast-path sites, where the
        // grantee arrived later than every registered waiter by definition.
        starvation_scope.granted();
#endif
#if defined(SEMLOCK_OBS)
        if (trace_) obs::record_wait(this, mode, waited);
#endif
        return;
      }
    }
    // One unit of waiting: the policy spins/yields itself (step() == false)
    // or asks us to sleep. Sleeping re-validates after announcing so a
    // release racing with the announcement is never missed; with a ticket
    // the re-validation covers eligibility too, since the handoff wakeup
    // above races with this announcement the same way a release does.
    if (cpu_start == 0 && wait.may_block()) {
      spin_ns = runtime::steady_now_ns() - wait_start;
      cpu_start = runtime::thread_cpu_now_ns();
    }
    if (wait.step()) {
      bool slept_on_word = false;
      if constexpr (kPacked) {
        if (futex_word_) {
          // Waiter half of the futex-word handshake: publish the waiters
          // bit with an RMW on the word itself, then re-validate against
          // the value that RMW returned. The word's modification order is
          // the Dekker arbiter: either our fetch_or precedes the release
          // that would satisfy us (then that release observes W and
          // notifies after clearing it), or it follows it (then `observed`
          // already shows the conflict clear and we retry instead of
          // sleeping). Only Free grants sleep on the word
          // (effective_wait_policy), so there is no ticket to re-check.
          const PackedMode& r = table_->packed_mode(mode);
          constexpr std::uint64_t waiters_bit = PackedLayout::waiters_bit;
          SEMLOCK_DCT_POINT("word.announce", &word_);
          const std::uint64_t observed =
              word_.fetch_or(waiters_bit, std::memory_order_seq_cst) |
              waiters_bit;
          bool still_blocked = (observed & r.conflict_mask) != 0 ||
                               (observed & r.field_mask) == r.field_mask;
#if defined(SEMLOCK_DCT)
          // Test-only mutation: sleep blind, skipping the re-validation
          // half of the handshake — the lost-wakeup bug the DCT harness
          // must detect.
          if (dct::mutation_drop_announce_revalidate()) still_blocked = true;
#endif
          if (still_blocked) {
#if defined(SEMLOCK_OBS)
            if (trace_) note_park();
#endif
            packed_word_wait(observed);
            ++stats.parks;
            LM_OBS_EVENT(kUnpark, mode);
          }
          // No retract: W stays set until a wakeup clears it. The cost is
          // at most one spurious notify from a release that found W with
          // no sleeper left — cheaper than racing a clear against other
          // announcing waiters.
          slept_on_word = true;
        }
      }
      if (!slept_on_word) {
        const std::uint32_t gen = parking_->prepare(partition);
        parking_->announce(partition);
        const bool turn_ok =
            ticket == kMaxTicket || waiter_eligible(partition, ticket);
#if defined(SEMLOCK_DCT)
        // Test-only mutation: park blind, skipping the re-validation half
        // of the handshake — the lost-wakeup bug the DCT harness must
        // detect.
        const bool revalidated =
            !dct::mutation_drop_announce_revalidate() && turn_ok &&
            conflicts_clear<kPacked>(mode);
#else
        const bool revalidated = turn_ok && conflicts_clear<kPacked>(mode);
#endif
        if (revalidated) {
          parking_->retract(partition);
        } else {
#if defined(SEMLOCK_OBS)
          if (trace_) note_park();
#endif
          parking_->park(partition, gen);
          ++stats.parks;
          LM_OBS_EVENT(kUnpark, mode);
        }
      }
    }
  }
}

template <bool kPacked>
bool LockMechanism::try_lock_impl(int mode, const LockSiteArgs* args) {
  auto& stats = local_acquire_stats();
  ++stats.acquisitions;
  LM_OBS_EVENT(kAcquireBegin, mode);
  const int partition = table_->partition_of(mode);
  // Mirrors lock(): the same pre-checked attempt, and a refused attempt
  // charges its duration to the wait counters just like a contended lock()
  // does.
  const std::uint64_t wait_start = runtime::steady_now_ns();
  // A try_lock never queues, so under a raised grant barrier it simply
  // refuses — overtaking the queued waiters here would reopen the
  // starvation channel the barrier exists to close. One lock-free attempt,
  // then one arbitrated attempt when only a racing announcement or CAS
  // churn stood in the way: two conflicting try_locks that retract against
  // each other's announcements settle under the internal lock, where
  // exactly one of them revalidates.
  Attempt r = try_acquire<kPacked>(mode, partition, stats, /*doorway=*/true);
  if (r == Attempt::Acquired) {
    ++stats.optimistic_hits;
    LM_OBS_GRANT(kOptimisticHit, mode, args);
  } else if (r == Attempt::Contended) {
    util::Spinlock& internal = partition_lock(partition);
    internal.lock();
    // The retry acquires at once, like tier T2: this arrival already passed
    // the doorway and the pre-check.
    r = try_acquire<kPacked>(mode, partition, stats, /*doorway=*/false);
    internal.unlock();
    if (r == Attempt::Acquired) LM_OBS_GRANT(kAcquireGrant, mode, args);
  }
  if (r == Attempt::Acquired) {
    LM_DCT_GRANT(partition);
    return true;
  }
  // A refused try_lock never leaves the CPU: its wall time is CPU time.
  const std::uint64_t waited = runtime::steady_now_ns() - wait_start;
  ++stats.contended;
  stats.wait_ns += waited;
  stats.wait_cpu_ns += waited;
  return false;
}

template <bool kPacked>
void LockMechanism::unlock_impl(int mode) {
  if constexpr (kPacked) {
    LM_OBS_EVENT(kRelease, mode);
    const PackedMode& r = table_->packed_mode(mode);
    SEMLOCK_DCT_POINT("word.release", &word_);
    const std::uint64_t old =
        word_.fetch_sub(r.inc, std::memory_order_seq_cst);
    if (!can_park_) return;
    const std::uint64_t field = old & r.field_mask;
    // Wake when a sleeper's predicate may have flipped: this was the mode's
    // last hold (conflicting waiters can now validate), or the field just
    // dropped out of saturation (same-mode waiters blocked on field_max).
    if (field == r.inc || field == r.field_mask) {
      wake_partition<true>(table_->partition_of(mode));
    }
  } else {
    LM_OBS_EVENT(kRelease, mode);
    SEMLOCK_DCT_POINT("mode.release", &counter(mode));
    if (release_one(mode)) {
      // Wake only when this was the mode's last hold: a counter that stays
      // nonzero cannot turn any waiter's conflicts_clear from false to
      // true, so waking earlier would only stampede waiters into
      // re-parking. Scoped to the released mode's conflict partition;
      // unrelated mode families keep sleeping. unpark_all is a no-op
      // (fence + relaxed load) when nobody is parked.
      parking_->unpark_all(table_->partition_of(mode));
    }
  }
}

void LockMechanism::lock(int mode, const LockSiteArgs* args) {
  if (packed_) {
    lock_impl<true>(mode, args);
  } else {
    lock_impl<false>(mode, args);
  }
}

bool LockMechanism::try_lock(int mode, const LockSiteArgs* args) {
  return packed_ ? try_lock_impl<true>(mode, args)
                 : try_lock_impl<false>(mode, args);
}

void LockMechanism::unlock(int mode) {
  if (packed_) {
    unlock_impl<true>(mode);
  } else {
    unlock_impl<false>(mode);
  }
}

}  // namespace semlock
