// Tail critical-path attribution over a trace dump (ISSUE 10).
//
// Input is a v6 trace dump (obs/export.h). Nothing records lock waits or
// transactions as intervals: derive_spans() rebuilds them in one offline
// pass over the per-thread event streams, and from those this analyzer
// answers "why were the slow transactions slow":
//
//   1. per-transaction latency, one [kTxnBegin, kTxnEnd] interval per id;
//   2. the tail = transactions at or above the p99 latency;
//   3. each tail transaction's longest blocking chain, reconstructed by
//      following blocker owner ids into the blockers' own overlapping
//      lock waits (txn A waited on B, B was itself waiting on C, ...);
//   4. tail blocked time aggregated by (instance, mode, attribution class)
//      with its share of total tail latency — the "φ-collisions on 3 hot
//      keys account for 41% of p99 latency" headline, and the exact signal
//      ROADMAP item 1's online φ-refiner wants to consume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.h"

namespace semlock::obs {

// One contended lock wait, derived from one thread's events:
//   - it opens at kContendedWait and closes at that thread's next
//     kAcquireGrant on the same (instance, mode); a thread waits for one
//     lock at a time, so a wait with no grant retained is dropped;
//   - its blocker mode is the last sample: the kContendedWait payload,
//     replaced by each kPark payload that found a held conflicting mode;
//   - its blocker is the owner of the latest grant (kAcquireGrant or
//     kOptimisticHit) on (instance, blocker mode) at or before that sample,
//     by an owner other than the waiter, read from a per-(instance, mode)
//     index of grants by time;
//   - its class is the one a kAttribution of this wait assigned against the
//     final blocker mode, else unsampled.
// Owner ids follow current_owner_id(): the event's txn, or the thread
// sentinel of the emitting tid when txn == 0.
struct LockWait {
  std::uint64_t waiter = 0;
  std::uint64_t instance = 0;
  std::int32_t mode = -1;          // waited mode
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t blocker_mode = -1;  // -1 = no held conflicting mode sampled
  std::uint64_t capture_ns = 0;    // when blocker_mode was sampled
  std::uint64_t blocker = 0;       // 0 = no qualifying grant retained
  std::uint32_t attr_class = 5;    // AttrClass index; 5 = unsampled
};

// One transaction: its id's earliest kTxnBegin to its latest kTxnEnd
// (nested Transactions share the outer id). Ids missing either end are
// dropped.
struct TxnInterval {
  std::uint64_t txn = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

struct DerivedSpans {
  std::vector<LockWait> waits;    // by thread (tid order), oldest first
  std::vector<TxnInterval> txns;  // by txn id
};

DerivedSpans derive_spans(const TraceDump& dump);

// One (instance, mode, attribution class) aggregate over tail transactions.
struct TailGroup {
  std::uint64_t instance = 0;
  std::int32_t mode = -1;           // the mode the tail txns waited in
  std::uint32_t attr_class = 5;     // AttrClass index; 5 = unsampled
  std::uint64_t blocked_ns = 0;     // tail lock-wait time in this group
  std::uint64_t waits = 0;          // tail lock waits in this group
  double share_of_tail_latency = 0; // blocked_ns / total tail latency
};

struct CriticalPathStats {
  std::size_t txns = 0;       // transactions with an interval in the dump
  std::size_t tail_txns = 0;  // those at or above the p99 threshold
  std::uint64_t p99_threshold_ns = 0;
  std::uint64_t tail_latency_ns = 0;  // summed latency of the tail
  std::uint64_t tail_blocked_ns = 0;  // summed lock-wait time of the tail
  std::vector<TailGroup> groups;      // sorted by blocked_ns, largest first
  std::vector<std::string> chains;    // rendered longest chains, worst first
};

CriticalPathStats analyze_critical_paths(const TraceDump& dump);

// Human-readable report backing `semlock-trace critical-path`.
std::string critical_path_report(const TraceDump& dump);

}  // namespace semlock::obs
