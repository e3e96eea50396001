// Test-and-test-and-set spinlock with exponential backoff and yielding.
//
// The semantic-locking mechanism (Fig. 20 of the paper) guards its internal
// state with a short critical section. The paper's Java prototype uses
// `synchronized`; we use a TTAS spinlock that degrades to yielding, which is
// essential when the benchmark oversubscribes cores (the PPoPP testbed had 32
// physical cores; this reproduction may have far fewer).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "dct/hooks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace semlock::util {

// One iteration of busy-wait politeness: a pause on x86, a yield hint on
// AArch64, a plain compiler barrier elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Exponential backoff that starts with pause instructions and escalates to
// std::this_thread::yield(). Yielding matters: a pure spin livelocks when the
// lock holder is descheduled on an oversubscribed machine.
class Backoff {
 public:
  void pause() noexcept {
    if (spins_ < kMaxSpins) {
      for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
      spins_ *= 2;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { spins_ = 1; }

  // True once pause() yields the CPU instead of spinning.
  bool yielding() const noexcept { return spins_ >= kMaxSpins; }

 private:
  static constexpr std::uint32_t kMaxSpins = 256;
  std::uint32_t spins_ = 1;
};

// BasicLockable TTAS spinlock; one byte of state.
class Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() noexcept {
#if defined(SEMLOCK_DCT)
    // Under the DCT scheduler the spin becomes a cooperative block so the
    // harness sees "waiting on this flag" as an explicit predicate.
    if (::semlock::dct::scheduled()) {
      ::semlock::dct::spinlock_acquire(flag_);
      return;
    }
#endif
    Backoff backoff;
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) backoff.pause();
    }
  }

  bool try_lock() noexcept {
#if defined(SEMLOCK_DCT)
    if (::semlock::dct::scheduled()) {
      return ::semlock::dct::spinlock_try_acquire(flag_);
    }
#endif
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept {
#if defined(SEMLOCK_DCT)
    if (::semlock::dct::scheduled()) {
      ::semlock::dct::spinlock_release(flag_);
      return;
    }
#endif
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace semlock::util
