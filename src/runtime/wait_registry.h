// Process-wide registry of in-flight lock waits, feeding the StallWatchdog
// and the live wait-for graph (obs/waitgraph.h).
//
// Every thread that enters the contended path of the lock mechanism claims a
// thread-local slot (released at thread exit) and publishes
// {mechanism, mode, partition, wait-start} for the duration of the wait. A
// traced wait also publishes its waiter -> blocker edge: the waiter's owner
// id, and the blocking owner and its lock site, refreshed at each park. The
// watchdog and the wait-for graph sample the table from their own threads; a
// per-slot sequence number (seqlock discipline, but with every field atomic
// so the scheme is data-race-free under TSan) lets them skip slots caught
// mid-update.
//
// Publication is best-effort diagnostics: if more threads than kSlots wait
// simultaneously, the overflow waiters simply go unobserved — the lock
// mechanism itself never depends on the registry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/align.h"

namespace semlock::runtime {

class WaitRegistry {
 public:
  static constexpr int kSlots = 512;

  struct alignas(util::kCacheLineSize) Slot {
    // Even = stable, odd = being written. Readers validate that the value
    // is even and unchanged around their field reads.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uintptr_t> mechanism{0};  // 0 = slot idle
    std::atomic<std::int32_t> mode{-1};
    std::atomic<std::int32_t> partition{-1};
    std::atomic<std::uint64_t> start_ns{0};  // steady_clock, ns since epoch
    // Wait-for edge of a traced wait (owner ids as in obs::current_owner_id);
    // waiter 0 = untraced, blocker 0 = none sampled.
    std::atomic<std::uint64_t> waiter{0};
    std::atomic<std::uint64_t> blocker{0};
    std::atomic<std::int32_t> blocker_site{-1};
    std::atomic<bool> claimed{false};
  };

  static WaitRegistry& instance();

  // The calling thread's claimed slot, or nullptr if all kSlots are taken.
  Slot* thread_slot();

  // A consistent snapshot of one active wait.
  struct ActiveWait {
    std::uintptr_t mechanism;
    std::int32_t mode;
    std::int32_t partition;
    std::uint64_t start_ns;
    std::uint64_t waiter;
    std::uint64_t blocker;
    std::int32_t blocker_site;
    // (slot_index, start_ns) names one wait episode: the seq also moves
    // when a traced wait refreshes its blocker.
    int slot_index;
  };

  // Invokes `fn(const ActiveWait&)` for every slot publishing a wait that is
  // consistent at sampling time.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (int i = 0; i < kSlots; ++i) {
      const Slot& s = slots_[i];
      const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 & 1) continue;
      ActiveWait w;
      w.mechanism = s.mechanism.load(std::memory_order_relaxed);
      w.mode = s.mode.load(std::memory_order_relaxed);
      w.partition = s.partition.load(std::memory_order_relaxed);
      w.start_ns = s.start_ns.load(std::memory_order_relaxed);
      w.waiter = s.waiter.load(std::memory_order_relaxed);
      w.blocker = s.blocker.load(std::memory_order_relaxed);
      w.blocker_site = s.blocker_site.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
      if (w.mechanism == 0) continue;
      w.slot_index = i;
      fn(static_cast<const ActiveWait&>(w));
    }
  }

 private:
  WaitRegistry() = default;
  Slot slots_[kSlots];
};

// Steady-clock nanoseconds: the one clock of wait publication and
// sampling, trace events and metric windows, so all of them share an epoch.
// Inline, so a hot caller pays for the clock read alone.
inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU nanoseconds charged to the calling thread (CLOCK_THREAD_CPUTIME_ID).
// The waiting subsystem's key observable: a spinning waiter accumulates
// thread CPU for its entire wait, a parked waiter only around the futex
// calls. Unlike the steady clock this is a system call, so the lock path
// reads it only once a wait may leave the CPU (WaitState::may_block).
std::uint64_t thread_cpu_now_ns();

// RAII publication of one wait episode. Constructed on entry to the
// contended lock path, destroyed on acquisition. Null-slot safe.
class WaitScope {
 public:
  // `start_ns` is the wait's steady_now_ns() stamp, which the lock path
  // already holds; the 3-argument form reads the clock itself. A traced
  // wait passes its owner id as `waiter`, which puts the episode in the
  // wait-for graph.
  WaitScope(const void* mechanism, int mode, int partition,
            std::uint64_t start_ns, std::uint64_t waiter = 0);
  WaitScope(const void* mechanism, int mode, int partition)
      : WaitScope(mechanism, mode, partition, steady_now_ns()) {}
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;
  ~WaitScope();

  // Refreshes the wait-for edge's blocker (owner id and lock site).
  void set_blocker(std::uint64_t blocker, std::int32_t site);

 private:
  WaitRegistry::Slot* slot_;
};

}  // namespace semlock::runtime
