// Striped 32-bit holder counters (BRAVO/SNZI-style de-sharing).
//
// A shared `fetch_add` counter serializes commuting lock holders on one
// cache line even though the semantics say they never conflict. This bank
// gives each counter S cache-line-padded stripes; a thread increments only
// its own stripe (chosen by its token), so concurrent commuting acquisitions
// of up to S threads started one after another touch disjoint lines, never
// two lines of one 128 B pair, and scale like the hand-written striping of
// the paper's Manual baselines.
//
// Reading the logical value means summing the stripes. Two properties make
// that sound:
//
//   * The sum is computed in uint32 arithmetic, which is exact mod 2^32.
//     A hold acquired on thread A and released on thread B decrements a
//     DIFFERENT stripe than it incremented — the stripe wraps negative, but
//     the wrapped values still cancel in the modular sum, so the total is
//     exact whenever the true number of holds fits in 31 bits (it is a
//     bounded count of in-flight transactions).
//   * A sum racing with increments/decrements may observe any intermediate
//     value, exactly like a racing load of a single counter. The lock
//     mechanism's protocols only draw conclusions from a sum after the
//     Dekker-style seq_cst fence handshake documented in
//     semlock/lock_mechanism.cpp and docs/FAST_PATH.md, which is the same
//     discipline they use for unstriped counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "util/align.h"

namespace semlock::util {

// This thread's stripe-selection token: a sequential id with its 32 bits
// reversed, taken on the thread's first use and stable for the thread's
// lifetime. A bank of S stripes takes the token's top log2(S) bits, the
// id's low bits reversed. That is a bijection on any S consecutive ids, so
// threads that take their tokens one after another land on distinct
// stripes; and for S >= 4 two consecutive ids land in different 128 B
// pairs of lines, which adjacent-line prefetchers would otherwise move
// between cores as one unit (docs/FAST_PATH.md §3).
inline std::uint32_t thread_stripe_token() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t token = [] {
    std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t reversed = 0;
    for (int bit = 0; bit < 32; ++bit, id >>= 1) {
      reversed = (reversed << 1) | (id & 1u);
    }
    return reversed;
  }();
  return token;
}

// A bank of `rows` striped counters sharing one slab: row r, stripe s lives
// at slot r*stripes+s, each slot on its own cache line, and the slab starts
// on a 128 B boundary so that slots 2k and 2k+1 form a line pair. The lock
// mechanism allocates one row per striped locking mode.
class StripedCounterBank {
 public:
  static constexpr std::uint32_t kMaxStripes = 1024;

  // `stripes` is rounded up to a power of two and clamped to
  // [1, kMaxStripes] so stripe selection is a shift, not a modulo.
  StripedCounterBank(std::uint32_t rows, std::uint32_t stripes)
      : rows_(rows),
        stripes_(round_up_pow2(stripes)),
        shift_(32 - static_cast<std::uint32_t>(std::countr_zero(stripes_))),
        slots_(static_cast<Slot*>(::operator new(
            static_cast<std::size_t>(rows_) * stripes_ * sizeof(Slot),
            std::align_val_t{kPairBytes}))) {
    std::uninitialized_value_construct_n(
        slots_.get(), static_cast<std::size_t>(rows_) * stripes_);
  }

  StripedCounterBank(const StripedCounterBank&) = delete;
  StripedCounterBank& operator=(const StripedCounterBank&) = delete;

  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t stripes() const noexcept { return stripes_; }

  // Bytes of the heap slab (per-instance footprint accounting).
  std::size_t heap_bytes() const noexcept {
    return static_cast<std::size_t>(rows_) * stripes_ * sizeof(Slot);
  }

  // The calling thread's stripe of row `row`. All RMWs a thread performs on
  // a row hit this one slot; the caller picks the memory order.
  std::atomic<std::uint32_t>& local_slot(std::uint32_t row) noexcept {
    return slot(row, static_cast<std::uint32_t>(
                         std::uint64_t{thread_stripe_token()} >> shift_));
  }

  // Direct stripe access (tests and diagnostics).
  std::atomic<std::uint32_t>& slot(std::uint32_t row,
                                   std::uint32_t stripe) noexcept {
    return *slots_[static_cast<std::size_t>(row) * stripes_ + stripe];
  }
  const std::atomic<std::uint32_t>& slot(std::uint32_t row,
                                         std::uint32_t stripe) const noexcept {
    return *slots_[static_cast<std::size_t>(row) * stripes_ + stripe];
  }

  // Sum of row `row`'s stripes mod 2^32 — the logical counter value. Exact
  // at quiescence (including after cross-thread inc/dec pairs, see header
  // comment); a racing read behaves like a racing load of a single counter.
  std::uint32_t sum(std::uint32_t row, std::memory_order order) const noexcept {
    std::uint32_t total = 0;
    for (std::uint32_t s = 0; s < stripes_; ++s) {
      total += slot(row, s).load(order);
    }
    return total;
  }

  static constexpr std::uint32_t round_up_pow2(std::uint32_t v) noexcept {
    if (v <= 1) return 1;
    if (v >= kMaxStripes) return kMaxStripes;
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

 private:
  using Slot = CacheLinePadded<std::atomic<std::uint32_t>>;
  static constexpr std::size_t kPairBytes = 2 * kCacheLineSize;
  struct FreeSlots {
    void operator()(Slot* p) const noexcept {
      ::operator delete(p, std::align_val_t{kPairBytes});
    }
  };

  std::uint32_t rows_;
  std::uint32_t stripes_;
  std::uint32_t shift_;  // 32 - log2(stripes_); the 64-bit shift may be 32
  std::unique_ptr<Slot[], FreeSlots> slots_;
};

}  // namespace semlock::util
