// The ComputeIfAbsent composite module (Section 6.1, Fig. 21).
//
// The atomic section is the classic check-then-act pattern over a Map:
//
//   atomic {
//     if (!map.containsKey(key)) {
//       value = <pure computation: allocate 128 bytes>;
//       map.put(key, value);
//     }
//   }
//
// Five implementations:
//   Ours   — semantic locking; the synthesized symbolic set is
//            {containsKey(key), put(key,*)}, whose 64 alpha-modes partition
//            into 64 independent mechanisms (lock striping falls out of the
//            algorithm).
//   Global — one global mutex.
//   TwoPL  — one standard lock per ADT instance; with a single Map instance
//            this degenerates to a global lock, as in the paper.
//   Manual — hand-made lock striping with 64 locks over a concurrent map.
//   V8     — ConcurrentHashMapV8-style computeIfAbsent (per-stripe locking).
#pragma once

#include <cstddef>
#include <memory>

#include "commute/value.h"

namespace semlock::apps {

enum class Strategy { Ours, Global, TwoPL, Manual, V8 };
const char* strategy_name(Strategy s);

struct CiaParams {
  std::size_t key_range = 1 << 20;
  std::size_t payload_bytes = 128;
  int abstract_values = 64;  // phi range for Ours
  std::size_t manual_stripes = 64;
};

class CiaModule {
 public:
  virtual ~CiaModule() = default;
  // The atomic section: insert a freshly computed value if key is absent.
  virtual void compute_if_absent(commute::Value key) = 0;
  // Quiescent-state accessors for validation.
  virtual std::size_t map_size() const = 0;
};

std::unique_ptr<CiaModule> make_cia_module(Strategy strategy,
                                           const CiaParams& params);

}  // namespace semlock::apps
