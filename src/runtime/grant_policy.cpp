#include "runtime/grant_policy.h"

#include <atomic>
#include <cstdlib>

#include "util/env.h"

namespace semlock::runtime {

namespace {

// -1 = no ambient override installed; otherwise the GrantPolicyKind value.
std::atomic<int> g_ambient_policy{-1};

GrantPolicyKind env_grant_policy() {
  static const GrantPolicyKind cached =
      grant_policy_from_env_text(std::getenv("SEMLOCK_GRANT_POLICY"));
  return cached;
}

std::uint32_t env_bypass_bound() {
  static const std::uint32_t cached =
      bypass_bound_from_env_text(std::getenv("SEMLOCK_BYPASS_BOUND"));
  return cached;
}

}  // namespace

GrantPolicyKind grant_policy_from_env_text(const char* text) {
  if (text == nullptr) return GrantPolicyKind::Free;
  if (const auto parsed = parse_grant_policy(text)) return *parsed;
  util::warn_invalid_env("SEMLOCK_GRANT_POLICY", text, "free");
  return GrantPolicyKind::Free;
}

const char* grant_policy_name(GrantPolicyKind kind) {
  switch (kind) {
    case GrantPolicyKind::Free:
      return "free";
    case GrantPolicyKind::PhaseFair:
      return "phase-fair";
    case GrantPolicyKind::BoundedBypass:
      return "bounded-bypass";
  }
  return "unknown";
}

std::optional<GrantPolicyKind> parse_grant_policy(std::string_view text) {
  if (text == "free") return GrantPolicyKind::Free;
  if (text == "phase-fair" || text == "phasefair" || text == "pf") {
    return GrantPolicyKind::PhaseFair;
  }
  if (text == "bounded-bypass" || text == "boundedbypass" ||
      text == "bounded" || text == "bypass" || text == "bb") {
    return GrantPolicyKind::BoundedBypass;
  }
  return std::nullopt;
}

GrantPolicyKind default_grant_policy() {
  const int ambient = g_ambient_policy.load(std::memory_order_relaxed);
  if (ambient >= 0) return static_cast<GrantPolicyKind>(ambient);
  return env_grant_policy();
}

void set_ambient_grant_policy(std::optional<GrantPolicyKind> kind) {
  g_ambient_policy.store(kind ? static_cast<int>(*kind) : -1,
                         std::memory_order_relaxed);
}

ScopedGrantPolicy::ScopedGrantPolicy(GrantPolicyKind kind) {
  const int prev = g_ambient_policy.load(std::memory_order_relaxed);
  previous_ = prev >= 0 ? std::optional<GrantPolicyKind>(
                              static_cast<GrantPolicyKind>(prev))
                        : std::nullopt;
  set_ambient_grant_policy(kind);
}

ScopedGrantPolicy::~ScopedGrantPolicy() {
  set_ambient_grant_policy(previous_);
}

std::uint32_t bypass_bound_from_env_text(const char* text) {
  if (text == nullptr) return kDefaultBypassBound;
  const auto parsed = util::env_int_in_range("SEMLOCK_BYPASS_BOUND", text, 1,
                                             1 << 20, "16");
  return parsed ? static_cast<std::uint32_t>(*parsed) : kDefaultBypassBound;
}

std::uint32_t default_bypass_bound() { return env_bypass_bound(); }

}  // namespace semlock::runtime
