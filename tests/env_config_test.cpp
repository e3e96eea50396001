// Hardening of the runtime's environment knobs: malformed values must fall
// back to the documented defaults with a one-line warning, never silently
// misconfigure (std::atol turns "garbage" into 0 and "50x" into 50).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#if defined(SEMLOCK_OBS)
#include "obs/attribution.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "server/admin.h"
#endif
#include "runtime/grant_policy.h"
#include "runtime/stall_watchdog.h"
#include "runtime/wait_policy.h"
#include "semlock/mode_table.h"
#include "server/config.h"
#include "util/env.h"
#include "util/striped_counter.h"

namespace semlock {
namespace {

using runtime::StallWatchdog;
using runtime::WaitPolicyKind;

// Runs `fn` while capturing stderr; returns what it printed.
template <typename Fn>
std::string captured_stderr(Fn&& fn) {
  ::testing::internal::CaptureStderr();
  fn();
  return ::testing::internal::GetCapturedStderr();
}

TEST(EnvIntInRange, AcceptsPlainDecimal) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(util::env_int_in_range("X", "250", 0, 1000, "default"), 250);
    EXPECT_EQ(util::env_int_in_range("X", "0", 0, 1000, "default"), 0);
    EXPECT_EQ(util::env_int_in_range("X", "-7", -10, 10, "default"), -7);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EnvIntInRange, RejectsGarbage) {
  const std::string err = captured_stderr([] {
    EXPECT_FALSE(util::env_int_in_range("X", "garbage", 0, 100, "default"));
  });
  EXPECT_NE(err.find("invalid X=\"garbage\""), std::string::npos) << err;
  EXPECT_NE(err.find("default"), std::string::npos) << err;
}

TEST(EnvIntInRange, RejectsTrailingJunk) {
  const std::string err = captured_stderr([] {
    EXPECT_FALSE(util::env_int_in_range("X", "50x", 0, 100, "default"));
  });
  EXPECT_NE(err.find("invalid X=\"50x\""), std::string::npos) << err;
}

TEST(EnvIntInRange, RejectsEmpty) {
  const std::string err = captured_stderr([] {
    EXPECT_FALSE(util::env_int_in_range("X", "", 0, 100, "default"));
  });
  EXPECT_NE(err.find("invalid X=\"\""), std::string::npos) << err;
}

TEST(EnvIntInRange, RejectsOutOfRangeAndOverflow) {
  const std::string err = captured_stderr([] {
    EXPECT_FALSE(util::env_int_in_range("X", "-5", 0, 100, "default"));
    EXPECT_FALSE(util::env_int_in_range("X", "101", 0, 100, "default"));
    // Past even long long: strtoll saturates with ERANGE.
    EXPECT_FALSE(util::env_int_in_range("X", "99999999999999999999999999", 0,
                                        100, "default"));
  });
  EXPECT_NE(err.find("invalid X=\"-5\""), std::string::npos) << err;
  EXPECT_NE(err.find("invalid X=\"101\""), std::string::npos) << err;
  EXPECT_NE(err.find("invalid X=\"99999999999999999999999999\""),
            std::string::npos)
      << err;
}

TEST(WaitPolicyEnv, ParsesEveryRecognizedName) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::wait_policy_from_env_text("spin-yield"),
              WaitPolicyKind::SpinYield);
    EXPECT_EQ(runtime::wait_policy_from_env_text("adaptive"),
              WaitPolicyKind::SpinThenPark);
    EXPECT_EQ(runtime::wait_policy_from_env_text("futex-word"),
              WaitPolicyKind::FutexWord);
    // Unset is the default, silently.
    EXPECT_EQ(runtime::wait_policy_from_env_text(nullptr),
              WaitPolicyKind::SpinYield);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(WaitPolicyEnv, TypoWarnsAndFallsBackToSpinYield) {
  // "always-park"/"park"/"alwayspark" (a removed policy: spin-then-park
  // with park_spin_limit = 0) warn and fall back like any typo.
  for (const char* bad :
       {"spin-then-prak", "always-park", "park", "alwayspark"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(runtime::wait_policy_from_env_text(bad),
                WaitPolicyKind::SpinYield)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_WAIT_POLICY=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("spin-yield"), std::string::npos) << err;
  }
}

TEST(WaitPolicyEnv, EmptyWarnsAndFallsBack) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::wait_policy_from_env_text(""),
              WaitPolicyKind::SpinYield);
  });
  EXPECT_NE(err.find("SEMLOCK_WAIT_POLICY=\"\""), std::string::npos) << err;
}

TEST(GrantPolicyEnv, ParsesEveryRecognizedNameAndShorthand) {
  using runtime::GrantPolicyKind;
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::grant_policy_from_env_text("free"),
              GrantPolicyKind::Free);
    EXPECT_EQ(runtime::grant_policy_from_env_text("phase-fair"),
              GrantPolicyKind::PhaseFair);
    EXPECT_EQ(runtime::grant_policy_from_env_text("pf"),
              GrantPolicyKind::PhaseFair);
    EXPECT_EQ(runtime::grant_policy_from_env_text("bounded-bypass"),
              GrantPolicyKind::BoundedBypass);
    EXPECT_EQ(runtime::grant_policy_from_env_text("bb"),
              GrantPolicyKind::BoundedBypass);
    // Unset is the default, silently.
    EXPECT_EQ(runtime::grant_policy_from_env_text(nullptr),
              GrantPolicyKind::Free);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(GrantPolicyEnv, TypoWarnsAndFallsBackToFree) {
  // "fifo"/"ticket" (a removed policy) warn and fall back like any typo.
  for (const char* bad : {"fifoo", "fifo", "ticket"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(runtime::grant_policy_from_env_text(bad),
                runtime::GrantPolicyKind::Free)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_GRANT_POLICY=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("free"), std::string::npos) << err;
  }
}

TEST(GrantPolicyEnv, EmptyWarnsAndFallsBack) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::grant_policy_from_env_text(""),
              runtime::GrantPolicyKind::Free);
  });
  EXPECT_NE(err.find("SEMLOCK_GRANT_POLICY=\"\""), std::string::npos) << err;
}

TEST(GrantPolicyEnv, NamesRoundTripThroughParse) {
  using runtime::GrantPolicyKind;
  for (const GrantPolicyKind kind :
       {GrantPolicyKind::Free, GrantPolicyKind::PhaseFair,
        GrantPolicyKind::BoundedBypass}) {
    const auto parsed =
        runtime::parse_grant_policy(runtime::grant_policy_name(kind));
    ASSERT_TRUE(parsed.has_value()) << runtime::grant_policy_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(GrantPolicyEnv, ScopedOverrideFlowsIntoConfigDefaults) {
  // With no override installed, a fresh config picks the ambient default
  // (Free, or whatever SEMLOCK_GRANT_POLICY the CI matrix exported); inside
  // the scope it picks the override; nesting restores the outer override on
  // exit, and leaving the outermost scope restores the ambient default.
  const runtime::GrantPolicyKind ambient = runtime::default_grant_policy();
  ASSERT_EQ(ModeTableConfig{}.grant_policy, ambient);
  {
    runtime::ScopedGrantPolicy outer(runtime::GrantPolicyKind::BoundedBypass);
    EXPECT_EQ(ModeTableConfig{}.grant_policy,
              runtime::GrantPolicyKind::BoundedBypass);
    {
      runtime::ScopedGrantPolicy inner(runtime::GrantPolicyKind::PhaseFair);
      EXPECT_EQ(ModeTableConfig{}.grant_policy,
                runtime::GrantPolicyKind::PhaseFair);
    }
    EXPECT_EQ(ModeTableConfig{}.grant_policy,
              runtime::GrantPolicyKind::BoundedBypass);
  }
  EXPECT_EQ(ModeTableConfig{}.grant_policy, ambient);
}

TEST(BypassBoundEnv, ParsesInRangeValues) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::bypass_bound_from_env_text("1"), 1u);
    EXPECT_EQ(runtime::bypass_bound_from_env_text("16"), 16u);
    EXPECT_EQ(runtime::bypass_bound_from_env_text("1048576"), 1u << 20);
    // Unset is the documented default, silently.
    EXPECT_EQ(runtime::bypass_bound_from_env_text(nullptr),
              runtime::kDefaultBypassBound);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(BypassBoundEnv, MalformedValuesWarnAndFallBack) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(runtime::bypass_bound_from_env_text("0"),
              runtime::kDefaultBypassBound);
    EXPECT_EQ(runtime::bypass_bound_from_env_text("-3"),
              runtime::kDefaultBypassBound);
    EXPECT_EQ(runtime::bypass_bound_from_env_text("16x"),
              runtime::kDefaultBypassBound);
    EXPECT_EQ(runtime::bypass_bound_from_env_text(""),
              runtime::kDefaultBypassBound);
  });
  EXPECT_NE(err.find("invalid SEMLOCK_BYPASS_BOUND=\"0\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("invalid SEMLOCK_BYPASS_BOUND=\"-3\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("invalid SEMLOCK_BYPASS_BOUND=\"16x\""),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("invalid SEMLOCK_BYPASS_BOUND=\"\""), std::string::npos)
      << err;
}

TEST(WatchdogEnv, ParsesValidThreshold) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(StallWatchdog::parse_env_text("250"),
              std::chrono::milliseconds(250));
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(WatchdogEnv, UnsetAndExplicitZeroDisableSilently) {
  const std::string err = captured_stderr([] {
    EXPECT_FALSE(StallWatchdog::parse_env_text(nullptr));
    EXPECT_FALSE(StallWatchdog::parse_env_text("0"));
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(WatchdogEnv, MalformedValuesWarnAndDisable) {
  for (const char* bad : {"garbage", "-5", "50x", "",
                          "99999999999999999999999999"}) {
    const std::string err = captured_stderr(
        [bad] { EXPECT_FALSE(StallWatchdog::parse_env_text(bad)); });
    EXPECT_NE(err.find("SEMLOCK_WATCHDOG_MS=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("watchdog disabled"), std::string::npos) << err;
  }
}

TEST(StripesEnv, ParsesCountZeroDisablesUnsetIsAuto) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(stripes_from_env_text("16"), 16);
    // 0 turns striping off: counter_stripes == 0.
    EXPECT_EQ(stripes_from_env_text("0"), 0);
    // Unset: silently auto-sized, at least one stripe, within the cap.
    const int auto_stripes = stripes_from_env_text(nullptr);
    EXPECT_GE(auto_stripes, 1);
    EXPECT_LE(auto_stripes,
              static_cast<int>(util::StripedCounterBank::kMaxStripes));
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(StripesEnv, MalformedValuesWarnAndFallBackToAuto) {
  const int auto_stripes = stripes_from_env_text(nullptr);
  for (const char* bad : {"garbage", "-1", "8x", "", "1025",
                          "99999999999999999999999999"}) {
    const std::string err = captured_stderr([&] {
      EXPECT_EQ(stripes_from_env_text(bad), auto_stripes) << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_STRIPES=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("automatic stripe count"), std::string::npos) << err;
  }
}

TEST(FastPathEnv, ConfigDefaultsFollowProcessEnvCache) {
  // The ModeTableConfig defaults read the environment once per process (so
  // two tables of one spec can never disagree); they must agree with the
  // pure parsers' view of an unset/current environment and be internally
  // consistent.
  const ModeTableConfig cfg;
  EXPECT_EQ(cfg.counter_stripes, default_counter_stripes());
  EXPECT_EQ(cfg.counter_stripes,
            stripes_from_env_text(std::getenv("SEMLOCK_STRIPES")));
  EXPECT_EQ(cfg.storage, default_storage());
}

TEST(StorageEnv, ParsesEveryRecognizedName) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(storage_from_env_text("striped"), StorageKind::Striped);
    EXPECT_EQ(storage_from_env_text("packed"), StorageKind::Packed);
    // Unset is the historical default (striped), silently.
    EXPECT_EQ(storage_from_env_text(nullptr), StorageKind::Striped);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(StorageEnv, MalformedValuesWarnAndFallBackToStriped) {
  // "flat" (a removed storage: striped with counter_stripes = 0) warns and
  // falls back like any typo.
  for (const char* bad : {"Packed", "word", "packed ", "1", "", "flat"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(storage_from_env_text(bad), StorageKind::Striped)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_STORAGE=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("striped"), std::string::npos) << err;
  }
}

TEST(StorageEnv, NamesRoundTripThroughParse) {
  for (const StorageKind kind :
       {StorageKind::Striped, StorageKind::Packed}) {
    const auto parsed = parse_storage_kind(storage_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << storage_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

#if defined(SEMLOCK_OBS)
TEST(TraceEnv, EnabledAcceptsExactlyZeroAndOne) {
  const std::string err = captured_stderr([] {
    EXPECT_TRUE(obs::trace_enabled_from_env_text("1"));
    EXPECT_FALSE(obs::trace_enabled_from_env_text("0"));
    // Unset: tracing off, silently.
    EXPECT_FALSE(obs::trace_enabled_from_env_text(nullptr));
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(TraceEnv, EnabledMalformedWarnsAndStaysOff) {
  for (const char* bad : {"true", "yes", "2", "-1", "01", "1x", ""}) {
    const std::string err = captured_stderr(
        [bad] { EXPECT_FALSE(obs::trace_enabled_from_env_text(bad)); });
    EXPECT_NE(err.find("SEMLOCK_TRACE=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("tracing off"), std::string::npos) << err;
  }
}

TEST(TraceEnv, RingEventsParsesAndBoundsRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(obs::trace_ring_events_from_env_text("1024"), 1024u);
    EXPECT_EQ(obs::trace_ring_events_from_env_text("64"), 64u);
    EXPECT_EQ(obs::trace_ring_events_from_env_text("4194304"), 4194304u);
    // Unset: the default, silently.
    EXPECT_EQ(obs::trace_ring_events_from_env_text(nullptr),
              obs::kDefaultRingEvents);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(TraceEnv, RingEventsMalformedWarnsAndFallsBack) {
  for (const char* bad : {"garbage", "-1", "63", "4194305", "1024x", "",
                          "99999999999999999999999999"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(obs::trace_ring_events_from_env_text(bad),
                obs::kDefaultRingEvents)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_TRACE_EVENTS=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
  }
}

TEST(TraceEnv, FileAcceptsAnyNonEmptyPathRejectsEmpty) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(obs::trace_file_from_env_text("/tmp/t.bin"), "/tmp/t.bin");
    EXPECT_EQ(obs::trace_file_from_env_text(nullptr),
              obs::kDefaultTraceFile);
  });
  EXPECT_TRUE(err.empty()) << err;

  const std::string err2 = captured_stderr([] {
    EXPECT_EQ(obs::trace_file_from_env_text(""), obs::kDefaultTraceFile);
  });
  EXPECT_NE(err2.find("SEMLOCK_TRACE_FILE=\"\""), std::string::npos) << err2;
}
TEST(AttributionEnv, EnabledAcceptsExactlyZeroAndOne) {
  const std::string err = captured_stderr([] {
    EXPECT_TRUE(obs::attribution_enabled_from_env_text("1"));
    EXPECT_FALSE(obs::attribution_enabled_from_env_text("0"));
    // Unset: attribution ON, silently — it only costs anything while the
    // mechanism is traced, which is itself opt-in.
    EXPECT_TRUE(obs::attribution_enabled_from_env_text(nullptr));
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(AttributionEnv, EnabledMalformedWarnsAndStaysOn) {
  for (const char* bad : {"true", "yes", "2", "-1", "01", "1x", ""}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_TRUE(obs::attribution_enabled_from_env_text(bad));
    });
    EXPECT_NE(err.find("SEMLOCK_ATTRIBUTION=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("attribution on"), std::string::npos) << err;
  }
}

TEST(AttributionEnv, SampleParsesAndBoundsRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(obs::attribution_sample_from_env_text("1"), 1u);
    EXPECT_EQ(obs::attribution_sample_from_env_text("16"), 16u);
    EXPECT_EQ(obs::attribution_sample_from_env_text("1048576"), 1048576u);
    // Unset: classify every contended wait, silently.
    EXPECT_EQ(obs::attribution_sample_from_env_text(nullptr), 1u);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(AttributionEnv, SampleMalformedWarnsAndFallsBack) {
  // Zero would mean "never sample" under a naive mod; it is out of range
  // and falls back to 1 like every other malformed value.
  for (const char* bad : {"garbage", "0", "-1", "1048577", "16x", "",
                          "99999999999999999999999999"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(obs::attribution_sample_from_env_text(bad), 1u)
          << "value: " << bad;
    });
    EXPECT_NE(
        err.find("SEMLOCK_ATTRIBUTION_SAMPLE=\"" + std::string(bad) + "\""),
        std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("classifying every contended wait"), std::string::npos)
        << err;
  }
}

TEST(MetricsEnv, PortAcceptsTheFullTcpRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(server::metrics_port_from_env_text("9464"), 9464);
    EXPECT_EQ(server::metrics_port_from_env_text("1"), 1);
    EXPECT_EQ(server::metrics_port_from_env_text("65535"), 65535);
    // Unset: endpoint stays off, silently.
    EXPECT_EQ(server::metrics_port_from_env_text(nullptr), 0);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(MetricsEnv, PortMalformedWarnsAndStaysOff) {
  // Port 0 would mean "pick one for me" — explicit opt-in only, so it is
  // rejected along with everything else outside 1..65535.
  for (const char* bad : {"0", "65536", "-1", "http", "9464x", ""}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(server::metrics_port_from_env_text(bad), 0) << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_METRICS_PORT=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
  }
}

TEST(MetricsEnv, WindowCadenceParsesAndBoundsRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(obs::metrics_window_ms_from_env_text("10"), 10u);
    EXPECT_EQ(obs::metrics_window_ms_from_env_text("250"), 250u);
    EXPECT_EQ(obs::metrics_window_ms_from_env_text("60000"), 60000u);
    EXPECT_EQ(obs::metrics_window_ms_from_env_text(nullptr),
              obs::kDefaultWindowMs);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(MetricsEnv, WindowCadenceMalformedWarnsAndFallsBack) {
  for (const char* bad : {"9", "60001", "garbage", "100x", "", "-5"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(obs::metrics_window_ms_from_env_text(bad),
                obs::kDefaultWindowMs)
          << "value: " << bad;
    });
    EXPECT_NE(
        err.find("SEMLOCK_METRICS_WINDOW_MS=\"" + std::string(bad) + "\""),
        std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
  }
}

TEST(MetricsEnv, WindowSlotsParseAndBoundRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(obs::metrics_windows_from_env_text("2"), 2u);
    EXPECT_EQ(obs::metrics_windows_from_env_text("64"), 64u);
    EXPECT_EQ(obs::metrics_windows_from_env_text("128"), 128u);
    EXPECT_EQ(obs::metrics_windows_from_env_text(nullptr),
              obs::kDefaultWindowSlots);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(MetricsEnv, WindowSlotsMalformedWarnAndFallBack) {
  for (const char* bad : {"1", "129", "many", "8x", ""}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(obs::metrics_windows_from_env_text(bad),
                obs::kDefaultWindowSlots)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("SEMLOCK_METRICS_WINDOWS=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
  }
}
#endif  // SEMLOCK_OBS

TEST(EnvDoubleInRange, AcceptsDecimalsWithinRange) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(util::env_double_in_range("X", "0.75", 0.0, 1.0, "default"),
              0.75);
    EXPECT_EQ(util::env_double_in_range("X", "0", 0.0, 1.0, "default"), 0.0);
    EXPECT_EQ(util::env_double_in_range("X", "1e3", 0.0, 1e6, "default"),
              1000.0);
    EXPECT_EQ(util::env_double_in_range("X", nullptr, 0.0, 1.0, "default"),
              std::nullopt);  // unset is silent
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EnvDoubleInRange, MalformedWarnsAndYieldsNullopt) {
  for (const char* bad :
       {"garbage", "0.5x", "", "1.5", "-0.1", "nan", "inf", "1e999"}) {
    const std::string err = captured_stderr([bad] {
      EXPECT_EQ(util::env_double_in_range("X", bad, 0.0, 1.0, "default"),
                std::nullopt)
          << "value: " << bad;
    });
    EXPECT_NE(err.find("invalid X=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
  }
}

TEST(ServerEnv, AllUnsetGivesDocumentedDefaultsSilently) {
  const std::string err = captured_stderr([] {
    const server::ServerConfig cfg =
        server::server_config_from_env_text(server::ServerEnvText{});
    EXPECT_EQ(cfg.workers, 0);  // 0 = resolve to hardware concurrency later
    EXPECT_EQ(cfg.shards, 16);
    EXPECT_EQ(cfg.queue_capacity, 1024);
    EXPECT_EQ(cfg.mode, server::CCMode::kSemantic);
    EXPECT_FALSE(cfg.checked);
    EXPECT_EQ(cfg.traffic.zipf_theta, 0.6);
    EXPECT_EQ(cfg.traffic.burst_factor, 1);
    EXPECT_EQ(cfg.traffic.think_users, 0);
    int sum = 0;
    for (int p : cfg.traffic.mix.pct) sum += p;
    EXPECT_EQ(sum, 100);  // defaults to the "mixed" mix
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(ServerEnv, ValidSettingsApply) {
  server::ServerEnvText env;
  env.workers = "4";
  env.shards = "32";
  env.queue_cap = "64";
  env.mode = "occ";
  env.checked = "1";
  env.rate = "12500.5";
  env.duration_ms = "250";
  env.zipf_theta = "0.95";
  env.burst_x = "8";
  env.burst_period_ms = "20";
  env.think_users = "100";
  env.think_ms = "2.5";
  env.mix = "bank";
  env.seed = "777";
  const std::string err = captured_stderr([&env] {
    const server::ServerConfig cfg = server::server_config_from_env_text(env);
    EXPECT_EQ(cfg.workers, 4);
    EXPECT_EQ(cfg.shards, 32);
    EXPECT_EQ(cfg.queue_capacity, 64);
    EXPECT_EQ(cfg.mode, server::CCMode::kOcc);
    EXPECT_TRUE(cfg.checked);
    EXPECT_EQ(cfg.traffic.rate_rps, 12500.5);
    EXPECT_EQ(cfg.traffic.duration_ms, 250u);
    EXPECT_EQ(cfg.traffic.zipf_theta, 0.95);
    EXPECT_EQ(cfg.traffic.burst_factor, 8);
    EXPECT_EQ(cfg.traffic.burst_period_ms, 20u);
    EXPECT_EQ(cfg.traffic.think_users, 100);
    EXPECT_EQ(cfg.traffic.think_ms, 2.5);
    EXPECT_EQ(cfg.traffic.seed, 777u);
    EXPECT_EQ(cfg.traffic.mix.pct[static_cast<int>(
                  server::RequestKind::kTransfer)],
              70);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(ServerEnv, MalformedKnobsWarnPerKnobAndFallBack) {
  server::ServerEnvText env;
  env.workers = "lots";    // not a number
  env.shards = "0";        // below range
  env.mode = "mvcc";       // unknown mode
  env.zipf_theta = "1.5";  // above range
  env.mix = "everything";  // unknown mix
  env.checked = "yes";     // not 0/1
  const std::string err = captured_stderr([&env] {
    const server::ServerConfig cfg = server::server_config_from_env_text(env);
    EXPECT_EQ(cfg.workers, 0);
    EXPECT_EQ(cfg.shards, 16);
    EXPECT_EQ(cfg.mode, server::CCMode::kSemantic);
    EXPECT_FALSE(cfg.checked);
    EXPECT_EQ(cfg.traffic.zipf_theta, 0.6);
    int sum = 0;
    for (int p : cfg.traffic.mix.pct) sum += p;
    EXPECT_EQ(sum, 100);
  });
  for (const char* knob :
       {"SEMLOCK_SERVER_WORKERS=\"lots\"", "SEMLOCK_SERVER_SHARDS=\"0\"",
        "SEMLOCK_SERVER_MODE=\"mvcc\"", "SEMLOCK_SERVER_ZIPF_THETA=\"1.5\"",
        "SEMLOCK_SERVER_MIX=\"everything\"",
        "SEMLOCK_SERVER_CHECKED=\"yes\""}) {
    EXPECT_NE(err.find(knob), std::string::npos) << knob << "\n" << err;
  }
}

TEST(EnvBool01, AcceptsExactlyZeroAndOne) {
  const std::string err = captured_stderr([] {
    EXPECT_EQ(util::env_bool_01("X", "1", "default"), true);
    EXPECT_EQ(util::env_bool_01("X", "0", "default"), false);
    // Unset: nullopt, silently — the caller's default applies.
    EXPECT_EQ(util::env_bool_01("X", nullptr, "default"), std::nullopt);
  });
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EnvBool01, MalformedWarnsAndYieldsNullopt) {
  for (const char* bad : {"true", "on", "10", "00", " 1", ""}) {
    const std::string err = captured_stderr(
        [bad] { EXPECT_EQ(util::env_bool_01("X", bad, "default"),
                          std::nullopt); });
    EXPECT_NE(err.find("invalid X=\"" + std::string(bad) + "\""),
              std::string::npos)
        << "value: " << bad << "\nstderr: " << err;
    EXPECT_NE(err.find("default"), std::string::npos) << err;
  }
}

TEST(WatchdogEnv, FromEnvIntegration) {
  // Valid value: a watchdog starts. Garbage: none starts, one warning.
  ASSERT_EQ(setenv("SEMLOCK_WATCHDOG_MS", "10000", 1), 0);
  {
    auto watchdog = StallWatchdog::from_env();
    ASSERT_NE(watchdog, nullptr);
    EXPECT_TRUE(watchdog->running());
  }
  ASSERT_EQ(setenv("SEMLOCK_WATCHDOG_MS", "not-a-number", 1), 0);
  const std::string err = captured_stderr(
      [] { EXPECT_EQ(StallWatchdog::from_env(), nullptr); });
  EXPECT_NE(err.find("SEMLOCK_WATCHDOG_MS=\"not-a-number\""),
            std::string::npos)
      << err;
  ASSERT_EQ(unsetenv("SEMLOCK_WATCHDOG_MS"), 0);
}

}  // namespace
}  // namespace semlock
