// Pluggable grant policies for the semantic-lock runtime.
//
// The wait policies (wait_policy.h) say HOW a blocked transaction waits; the
// grant policy says WHO gets the lock next. The default — Free — is the
// historical behavior: any arrival whose conflicting counters are clear
// acquires immediately, including the lock-free optimistic tier. That
// maximizes throughput but has a real liveness hole: a sustained stream of
// mutually-commuting arrivals (e.g. readers of a self-commuting mode) keeps
// the conflicting counters nonzero forever, and a non-commuting waiter is
// bypassed indefinitely. The StallWatchdog only *reports* that starvation;
// these policies bound it:
//
//   Free          — no admission control. The compatibility baseline; the
//                   mechanism's fast paths are byte-for-byte the PR 3 code.
//   PhaseFair     — phase-fair handoff (Brandenburg/Anderson-style): while
//                   waiters exist every new arrival (including the
//                   optimistic tier, which checks the partition's barrier
//                   before announcing) is diverted to the queue, and the queue
//                   drains in phases — every waiter present at phase start
//                   is granted (commuting ones overlap freely) before the
//                   tickets taken after the phase began get their turn.
//                   Alternates commuting batches and conflicting waiters
//                   without serializing the commuting batch.
//   BoundedBypass — the throughput/fairness dial: commuting arrivals may
//                   bypass the oldest waiter at most K times
//                   (SEMLOCK_BYPASS_BOUND); the K-th bypass raises the
//                   barrier and new arrivals divert to the queue until that
//                   waiter is granted, which resets the budget.
//
// Selection mirrors the wait policies: per ModeTable via
// ModeTableConfig::grant_policy, defaulting to the ambient override
// (ScopedGrantPolicy) else the strictly-parsed SEMLOCK_GRANT_POLICY
// environment variable, else Free. The bypass bound comes from
// ModeTableConfig::bypass_bound / SEMLOCK_BYPASS_BOUND.
//
// The DCT no-starvation oracle counts true overtakes only — grants to
// later arrivals while a waiter is queued; a queue draining in arrival
// order charges nothing. The certified bound adds an O(T) in-flight
// allowance on top of the policy's budget: every other thread may slip one
// doorway grant in (it passed its barrier check just before the barrier
// rose) and one ticket/registration-reorder grant; PHASE_FAIR may reorder
// a waiter behind later-ticketed peers of its own phase; and BOUNDED_BYPASS
// refills its K budget for each successive queue head, so K scales by the
// queue depth (at most T). PHASE_FAIR certifies 3x(T-1) and
// BOUNDED_BYPASS certifies KxT + 2x(T-1) (tests/dct_mutation_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace semlock::runtime {

enum class GrantPolicyKind {
  Free,
  PhaseFair,
  BoundedBypass,
};

// Short stable name ("free", "phase-fair", "bounded-bypass") used by
// benchmark tables, JSON output, and the environment knob.
const char* grant_policy_name(GrantPolicyKind kind);

// Accepts the canonical names plus the shorthands "phasefair", "pf",
// "bounded", "bypass", "bb". Returns nullopt for anything else.
std::optional<GrantPolicyKind> parse_grant_policy(std::string_view text);

// Resolves SEMLOCK_GRANT_POLICY text: recognized names parse as above;
// anything else (typos, empty) warns once on stderr and falls back to Free.
// Split out from the cached env lookup for testability.
GrantPolicyKind grant_policy_from_env_text(const char* text);

// Process-wide default policy: the ambient override if one is installed,
// else SEMLOCK_GRANT_POLICY (parsed once), else Free.
GrantPolicyKind default_grant_policy();

// Installs/clears the ambient override consulted by default_grant_policy().
// Passing nullopt restores the environment-derived default.
void set_ambient_grant_policy(std::optional<GrantPolicyKind> kind);

// RAII ambient override: every ModeTableConfig constructed inside the scope
// defaults to `kind`. Used by bench_fairness to sweep policies.
class ScopedGrantPolicy {
 public:
  explicit ScopedGrantPolicy(GrantPolicyKind kind);
  ScopedGrantPolicy(const ScopedGrantPolicy&) = delete;
  ScopedGrantPolicy& operator=(const ScopedGrantPolicy&) = delete;
  ~ScopedGrantPolicy();

 private:
  std::optional<GrantPolicyKind> previous_;
};

// BoundedBypass budget K. Range 1..2^20; the strict-parse contract of
// util/env applies (malformed SEMLOCK_BYPASS_BOUND warns once on stderr and
// falls back to the default of 16).
inline constexpr std::uint32_t kDefaultBypassBound = 16;
std::uint32_t bypass_bound_from_env_text(const char* text);
std::uint32_t default_bypass_bound();

}  // namespace semlock::runtime
