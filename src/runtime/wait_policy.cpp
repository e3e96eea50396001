#include "runtime/wait_policy.h"

#include <atomic>
#include <cstdlib>

#include "util/env.h"

namespace semlock::runtime {

namespace {

// -1 = no ambient override installed; otherwise the WaitPolicyKind value.
std::atomic<int> g_ambient_policy{-1};

WaitPolicyKind env_wait_policy() {
  static const WaitPolicyKind cached =
      wait_policy_from_env_text(std::getenv("SEMLOCK_WAIT_POLICY"));
  return cached;
}

}  // namespace

WaitPolicyKind wait_policy_from_env_text(const char* text) {
  if (text == nullptr) return WaitPolicyKind::SpinYield;
  if (const auto parsed = parse_wait_policy(text)) return *parsed;
  util::warn_invalid_env("SEMLOCK_WAIT_POLICY", text, "spin-yield");
  return WaitPolicyKind::SpinYield;
}

const char* wait_policy_name(WaitPolicyKind kind) {
  switch (kind) {
    case WaitPolicyKind::SpinYield:
      return "spin-yield";
    case WaitPolicyKind::SpinThenPark:
      return "spin-then-park";
    case WaitPolicyKind::FutexWord:
      return "futex-word";
  }
  return "unknown";
}

std::optional<WaitPolicyKind> parse_wait_policy(std::string_view text) {
  if (text == "spin-yield" || text == "spin" || text == "spinyield") {
    return WaitPolicyKind::SpinYield;
  }
  if (text == "spin-then-park" || text == "adaptive" ||
      text == "spinthenpark") {
    return WaitPolicyKind::SpinThenPark;
  }
  if (text == "futex-word" || text == "futex" || text == "futexword") {
    return WaitPolicyKind::FutexWord;
  }
  return std::nullopt;
}

WaitPolicyKind default_wait_policy() {
  const int ambient = g_ambient_policy.load(std::memory_order_relaxed);
  if (ambient >= 0) return static_cast<WaitPolicyKind>(ambient);
  return env_wait_policy();
}

void set_ambient_wait_policy(std::optional<WaitPolicyKind> kind) {
  g_ambient_policy.store(kind ? static_cast<int>(*kind) : -1,
                         std::memory_order_relaxed);
}

ScopedWaitPolicy::ScopedWaitPolicy(WaitPolicyKind kind) {
  const int prev = g_ambient_policy.load(std::memory_order_relaxed);
  previous_ = prev >= 0 ? std::optional<WaitPolicyKind>(
                              static_cast<WaitPolicyKind>(prev))
                        : std::nullopt;
  set_ambient_wait_policy(kind);
}

ScopedWaitPolicy::~ScopedWaitPolicy() { set_ambient_wait_policy(previous_); }

}  // namespace semlock::runtime
