// Pluggable waiting strategies for the semantic-lock runtime.
//
// The Fig. 20 mechanism originally waited by pure spin-then-yield, which
// burns a core per blocked transaction and collapses when the benchmark
// oversubscribes the machine. This header names the three strategies the
// runtime supports and the per-acquisition state machine that drives them:
//
//   SpinYield    — the historical behavior: exponential-backoff spinning that
//                  escalates to sched_yield. Never sleeps; lowest wakeup
//                  latency, highest CPU burn. Kept as the default so existing
//                  configurations are bit-for-bit compatible.
//   SpinThenPark — bounded adaptive spin (cheap when the conflicting holder
//                  leaves quickly), then futex-style parking on the
//                  partition's ParkingLot. The production default candidate.
//                  With ModeTableConfig::park_spin_limit = 0 it parks on the
//                  first failed attempt: best CPU economy under heavy
//                  oversubscription, and what the no-lost-wakeup stress tests
//                  use because it maximizes the park/notify interleavings.
//   FutexWord    — bounded spin, then sleep DIRECTLY on the packed lock
//                  word via C++20 std::atomic::wait/notify, bypassing the
//                  external ParkingLot (docs/FAST_PATH.md §7). Only the
//                  Packed storage policy has a single word to sleep on;
//                  mechanisms with striped storage silently degrade
//                  this policy to SpinThenPark.
//
// Selection is per ModeTable (ModeTableConfig::wait_policy). The process-wide
// default honors the SEMLOCK_WAIT_POLICY environment variable and an ambient
// override (ScopedWaitPolicy) that the benchmark harness uses to sweep
// policies without rebuilding every module's config plumbing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/spinlock.h"

namespace semlock::runtime {

enum class WaitPolicyKind {
  SpinYield,
  SpinThenPark,
  FutexWord,
};

// Short stable name ("spin-yield", "spin-then-park", "futex-word") used by
// benchmark tables, JSON output, and the environment knob.
const char* wait_policy_name(WaitPolicyKind kind);

// Accepts the canonical names plus the shorthands "spin", "adaptive" and
// "futex". Returns nullopt for anything else.
std::optional<WaitPolicyKind> parse_wait_policy(std::string_view text);

// Resolves SEMLOCK_WAIT_POLICY text: recognized names parse as above;
// anything else (typos, empty, the removed "always-park") warns once on
// stderr and falls back to SpinYield. Split out from the cached env lookup
// for testability.
WaitPolicyKind wait_policy_from_env_text(const char* text);

// Process-wide default policy: the ambient override if one is installed,
// else SEMLOCK_WAIT_POLICY (parsed once), else SpinYield.
WaitPolicyKind default_wait_policy();

// Installs/clears the ambient override consulted by default_wait_policy().
// Passing nullopt restores the environment-derived default.
void set_ambient_wait_policy(std::optional<WaitPolicyKind> kind);

// RAII ambient override: every ModeTableConfig constructed inside the scope
// defaults to `kind`. Used by the harness to sweep policies.
class ScopedWaitPolicy {
 public:
  explicit ScopedWaitPolicy(WaitPolicyKind kind);
  ScopedWaitPolicy(const ScopedWaitPolicy&) = delete;
  ScopedWaitPolicy& operator=(const ScopedWaitPolicy&) = delete;
  ~ScopedWaitPolicy();

 private:
  std::optional<WaitPolicyKind> previous_;
};

// Per-acquisition wait driver. Each failed acquisition attempt calls
// step(): the policy either performs one unit of spinning/yielding and
// returns false, or returns true to tell the caller to park on the
// ParkingLot. Once a SpinThenPark waiter exhausts its spin budget it keeps
// parking for the rest of the acquisition (re-spinning after every wakeup
// would re-burn the budget against the same long-held conflict).
class WaitState {
 public:
  WaitState(WaitPolicyKind kind, std::uint32_t spin_limit)
      : kind_(kind), spins_left_(spin_limit) {}

  bool step() noexcept {
    switch (kind_) {
      case WaitPolicyKind::SpinYield:
        backoff_.pause();
        return false;
      case WaitPolicyKind::SpinThenPark:
      case WaitPolicyKind::FutexWord:
        // FutexWord spins the same bounded budget; only WHERE the waiter
        // then sleeps differs (on the packed word instead of the
        // ParkingLot), and that is the mechanism's call, not this driver's.
        if (spins_left_ > 0) {
          --spins_left_;
          backoff_.pause();
          return false;
        }
        return true;
    }
    return false;  // unreachable
  }

  // True when the next step() may leave the CPU: it yields, or it tells the
  // caller to park. Until then the waiter is spinning, so its CPU time
  // equals its wall time (the mechanism reads the thread-CPU clock only from
  // this step on).
  bool may_block() const noexcept {
    switch (kind_) {
      case WaitPolicyKind::SpinYield:
        return backoff_.yielding();
      case WaitPolicyKind::SpinThenPark:
      case WaitPolicyKind::FutexWord:
        return spins_left_ == 0 || backoff_.yielding();
    }
    return true;  // unreachable
  }

 private:
  WaitPolicyKind kind_;
  std::uint32_t spins_left_;
  util::Backoff backoff_;
};

}  // namespace semlock::runtime
