// Thread-local acquisition statistics (cheap; used by benchmarks and tests
// to observe contention rather than infer it).
//
// Split out of lock_mechanism.h so the observability layer (src/obs) can
// aggregate the counters without pulling in the whole mechanism. With
// SEMLOCK_OBS compiled in, the thread-local instance lives inside the
// obs thread state and is merged into the process-wide MetricsRegistry at
// thread exit, so cross-thread totals are exact rather than limited to the
// threads still alive at report time (src/obs/metrics.h).
#pragma once

#include <cstdint>

namespace semlock {

struct AcquireStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;  // acquisitions that waited at least once
  std::uint64_t parks = 0;      // times a waiter blocked in the ParkingLot
  // Acquisitions won by the lock-free optimistic tier (no spinlock touched)
  // and announcements retracted after a failed validation — together they
  // attribute throughput to the tier that produced it (ISSUE 3 ablations).
  std::uint64_t optimistic_hits = 0;
  std::uint64_t retracts = 0;
  std::uint64_t wait_ns = 0;    // total wall time spent in contended waits
  // Thread CPU time charged to this thread while it waited. The policy
  // discriminator: spinners burn CPU for the whole wait, parked waiters
  // only around the futex calls. The spin phase before a wait's first yield
  // or park (and every refused try_lock) is charged its wall time; the
  // thread-CPU clock covers the rest (docs/RUNTIME_WAITING.md §2).
  std::uint64_t wait_cpu_ns = 0;
  // Longest single contended wait. The fairness headline: under the Free
  // grant policy a commuting flood makes this unbounded while the averages
  // look fine (docs/RUNTIME_WAITING.md §5).
  std::uint64_t max_wait_ns = 0;
  // Grant-policy traffic: arrivals the barrier word diverted to the wait
  // path, and ticketed grants that woke the partition to hand off to the
  // next eligible waiter. Both stay 0 under the Free policy.
  std::uint64_t diverted = 0;
  std::uint64_t handoffs = 0;
  void reset() { *this = AcquireStats{}; }

  void merge(const AcquireStats& other) {
    acquisitions += other.acquisitions;
    contended += other.contended;
    parks += other.parks;
    optimistic_hits += other.optimistic_hits;
    retracts += other.retracts;
    wait_ns += other.wait_ns;
    wait_cpu_ns += other.wait_cpu_ns;
    if (other.max_wait_ns > max_wait_ns) max_wait_ns = other.max_wait_ns;
    diverted += other.diverted;
    handoffs += other.handoffs;
  }
};

AcquireStats& local_acquire_stats();

}  // namespace semlock
