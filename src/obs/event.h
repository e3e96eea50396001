// The binary trace-event record of the semantic-lock observability layer.
//
// One event is four 64-bit words: timestamp, ADT instance, transaction id,
// and the type word (type, per-type payload, mode). Fixed width keeps the
// per-thread SPSC rings (src/obs/ring.h) branch-free on the writer side and
// lets the dump format (src/obs/export.h) be a straight copy of ring
// contents. The events are the only capture path: lock waits, their
// blockers and transaction intervals are derived from them offline
// (obs/critical_path.h). The schema is documented for consumers in
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>

namespace semlock::obs {

enum class EventType : std::uint32_t {
  kNone = 0,
  kAcquireBegin = 1,   // lock()/try_lock() entered for (instance, mode)
  kAcquireGrant = 2,   // acquisition completed via an arbitrated tier;
                       // payload = the caller's lock site
  kContendedWait = 3,  // entered the contended wait loop; payload = the
                       // held conflicting mode sampled just before
  kPark = 4,           // about to block; payload = the held conflicting
                       // mode sampled just before
  kUnpark = 5,         // returned from a ParkingLot block
  kOptimisticHit = 6,  // acquisition won by the lock-free optimistic tier;
                       // payload = the caller's lock site
  kRetract = 7,        // optimistic announcement retracted after validation
  kRelease = 8,        // unlock() of one hold
  kUnlockAll = 9,      // transaction epilogue; mode field = instances released
  kWatchdogStall = 10, // StallWatchdog reported this (instance, mode) starved
  kMark = 11,          // harness/bench annotation; mode field = pass index
  kAttribution = 12,   // classified contended wait; mode field = the held
                       // mode classified against, payload = AttrClass index
                       // (obs/attribution.h)
  kBarrierDivert = 13, // commuting arrival diverted to the wait path by the
                       // grant-policy barrier (runtime/grant_policy.h)
  kGrantHandoff = 14,  // ticketed grant advanced the cursor and rewoke the
                       // partition for the next eligible waiter
  kTxnBegin = 15,      // a Transaction opened (nested ones share the id)
  kTxnEnd = 16,        // a Transaction released its locks and closed
};

// One past the highest EventType value: the size of per-type counter
// arrays (the live event tallies behind obs/window.h).
inline constexpr std::size_t kNumEventTypes = 17;

// Stable names for reports and the Chrome exporter.
const char* event_name(EventType type) noexcept;

// The type word: type in bits 48-63, the payload (int16, -1 = none) in bits
// 32-47, the mode (as its unsigned bit pattern) in bits 0-31.
inline std::uint64_t pack_type_word(EventType type, std::int32_t payload,
                                    std::int32_t mode) noexcept {
  return (static_cast<std::uint64_t>(type) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(payload))
          << 32) |
         static_cast<std::uint32_t>(mode);
}

struct Event {
  std::uint64_t ts_ns = 0;     // steady-clock nanoseconds
  std::uint64_t instance = 0;  // LockMechanism address; 0 = process-level
  std::uint64_t txn = 0;       // transaction id; 0 = outside any transaction
  EventType type = EventType::kNone;
  std::int32_t mode = -1;      // locking mode (or event-specific payload)
  std::int32_t payload = -1;   // per-type payload (see EventType); -1 = none

  // Word form for the ring (obs/ring.h) and the binary dump:
  //   w0 ts_ns, w1 instance, w2 txn, w3 pack_type_word(type, payload, mode).
  static constexpr std::size_t kWords = 4;

  void to_words(std::uint64_t* w) const noexcept {
    w[0] = ts_ns;
    w[1] = instance;
    w[2] = txn;
    w[3] = pack_type_word(type, payload, mode);
  }

  static Event from_words(const std::uint64_t* w) noexcept {
    const auto type_bits = static_cast<std::uint16_t>(w[3] >> 48);
    const auto payload_bits = static_cast<std::uint16_t>(w[3] >> 32);
    return Event{w[0], w[1], w[2], static_cast<EventType>(type_bits),
                 static_cast<std::int32_t>(static_cast<std::uint32_t>(w[3])),
                 static_cast<std::int16_t>(payload_bits)};
  }
};

}  // namespace semlock::obs
