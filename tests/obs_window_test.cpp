// Windowed metrics (src/obs/window.h): rotation produces per-window deltas
// of the live event counters and histograms, the seqlock ring tolerates
// concurrent scrapes (run under TSan in CI), SIGUSR2-style resets rebase
// the baseline, and the env parsers hold the documented ranges. Only built
// with SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::WindowedMetrics;
using obs::WindowStats;

ModeTable make_traced_table() {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = runtime::WaitPolicyKind::SpinThenPark;
  c.park_spin_limit = 0;
  c.trace_events = true;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {commute::var("v")}),
                    op("remove", {commute::var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

void pump(LockMechanism& m, int mode, int n) {
  for (int i = 0; i < n; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }
}

TEST(WindowedMetrics, RotationCapturesPerWindowDeltas) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  WindowedMetrics wm(4, 1000);  // never started: rotations are manual
  pump(m, mode, 10);
  wm.rotate_now();
  pump(m, mode, 5);
  wm.rotate_now();

  const std::vector<WindowStats> windows = wm.snapshot();
  ASSERT_EQ(windows.size(), 2u);
  // Newest first: the second window saw only the 5 later acquisitions.
  EXPECT_EQ(windows[0].seq, 2u);
  EXPECT_EQ(windows[0].grants, 5u);
  EXPECT_EQ(windows[0].releases, 5u);
  EXPECT_EQ(windows[1].seq, 1u);
  EXPECT_EQ(windows[1].grants, 10u);
  EXPECT_EQ(windows[1].releases, 10u);
  EXPECT_GT(windows[0].end_ns, windows[0].start_ns);
  // Windows never perturb the cumulative view.
  const auto totals = obs::event_count_totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::EventType::kRelease)], 15u);
  EXPECT_EQ(wm.rotations(), 2u);
}

TEST(WindowedMetrics, WindowHoldHistogramCoversOnlyTheWindow) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  WindowedMetrics wm(4, 1000);
  pump(m, mode, 8);
  wm.rotate_now();
  ASSERT_EQ(wm.snapshot().front().holds_paired, 8u);
  EXPECT_EQ(wm.snapshot().front().hold_hist.count(), 8u);

  pump(m, mode, 3);
  wm.rotate_now();
  const WindowStats newest = wm.snapshot().front();
  EXPECT_EQ(newest.holds_paired, 3u);
  EXPECT_EQ(newest.hold_hist.count(), 3u);
  // Cumulative histogram still carries all 11.
  EXPECT_EQ(obs::collect_metrics().hold_hist.count(), 11u);
}

TEST(WindowedMetrics, RingWrapsKeepingTheNewestSlots) {
  obs::reset_for_test();
  WindowedMetrics wm(2, 1000);
  wm.rotate_now();
  wm.rotate_now();
  wm.rotate_now();
  const std::vector<WindowStats> windows = wm.snapshot();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].seq, 3u);
  EXPECT_EQ(windows[1].seq, 2u);
}

TEST(WindowedMetrics, ResetRebasesWithoutPublishing) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  WindowedMetrics wm(4, 1000);
  pump(m, mode, 12);
  // A pending reset request is drained at the next rotation: the 12
  // pre-reset acquisitions are dropped from the window, not attributed.
  obs::request_window_reset();
  wm.rotate_now();
  EXPECT_EQ(wm.resets(), 1u);
  const std::vector<WindowStats> windows = wm.snapshot();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].grants, 0u);

  // The next window counts fresh traffic normally.
  pump(m, mode, 4);
  wm.rotate_now();
  EXPECT_EQ(wm.snapshot().front().grants, 4u);
}

// The window gauges appear on the Prometheus page only once a window is
// published, each double gauge at its window's value, and the page stays
// valid text format.
TEST(WindowedMetrics, PrometheusPageCarriesThePublishedWindowsGauges) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  WindowedMetrics wm(4, 1000);
  EXPECT_EQ(obs::render_prometheus(obs::collect_metrics(),
                                   obs::event_count_totals(), wm.snapshot())
                .find("semlock_window_"),
            std::string::npos);

  pump(m, mode, 6);
  wm.rotate_now();
  const std::vector<WindowStats> windows = wm.snapshot();
  ASSERT_EQ(windows.size(), 1u);
  const std::string page = obs::render_prometheus(
      obs::collect_metrics(), obs::event_count_totals(), windows);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(page, &error)) << error;
  auto sample = [&](const std::string& name) {
    const std::size_t at = page.find("\n" + name + " ");
    EXPECT_NE(at, std::string::npos) << name << "\n" << page;
    return at == std::string::npos
               ? -1.0
               : std::strtod(page.c_str() + at + name.size() + 2, nullptr);
  };
  EXPECT_DOUBLE_EQ(sample("semlock_window_seconds"), windows[0].seconds());
  EXPECT_DOUBLE_EQ(sample("semlock_window_acquisitions_per_sec"),
                   windows[0].acquisitions_per_sec());
  EXPECT_GT(windows[0].acquisitions_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(sample("semlock_window_false_conflict_pct"), 0.0);
}

TEST(WindowedMetrics, SigUsr2DrivesTheResetPath) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  WindowedMetrics wm(4, 1000);
  obs::install_window_reset_signal_handler();
  pump(m, mode, 9);
  // Three rapid signals — the real delivery path, not a direct call —
  // collapse into one rebase at the next rotation.
  std::raise(SIGUSR2);
  std::raise(SIGUSR2);
  std::raise(SIGUSR2);
  wm.rotate_now();
  EXPECT_EQ(wm.resets(), 1u);
  EXPECT_EQ(wm.snapshot().front().grants, 0u);
}

TEST(WindowedMetrics, CollectorThreadRotatesOnItsCadence) {
  obs::reset_for_test();
  WindowedMetrics wm(8, 10);  // 10 ms cadence (floor of the env knob)
  wm.start();
  EXPECT_TRUE(wm.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wm.rotations() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wm.stop();
  EXPECT_FALSE(wm.running());
  EXPECT_GE(wm.rotations(), 3u);
  // stop() is idempotent and start() works again after it.
  wm.stop();
}

TEST(WindowedMetrics, ConcurrentScrapesNeverSeeTornWindows) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  WindowedMetrics wm(4, 1000);
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const WindowStats& w : wm.snapshot()) {
        // A decoded window is internally consistent: the histogram count
        // was recomputed from the buckets it traveled with, and grants
        // never exceed begins for this single-threaded workload.
        ASSERT_EQ(w.hold_hist.count(), w.holds_paired);
        ASSERT_LE(w.grants, w.begins);
        ASSERT_GT(w.seq, 0u);
      }
    }
  });
  for (int r = 0; r < 200; ++r) {
    pump(m, mode, 3);
    wm.rotate_now();
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(wm.rotations(), 200u);
}

TEST(WindowedMetrics, JsonViewsAreStructurallyValid) {
  obs::reset_for_test();
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  pump(m, t.resolve(0, v0), 6);

  WindowedMetrics wm(4, 1000);
  wm.rotate_now();
  std::string error;
  EXPECT_TRUE(obs::validate_json(wm.to_json(), &error))
      << error << "\n" << wm.to_json();
  const WindowStats w = wm.snapshot().front();
  EXPECT_TRUE(obs::validate_json(w.to_json(), &error)) << error;
  EXPECT_NE(w.to_json().find("\"acquisitions_per_sec\""), std::string::npos);
  EXPECT_NE(wm.to_json().find("\"windows\""), std::string::npos);
}

TEST(WindowedMetrics, EnvParsersHoldTheDocumentedRanges) {
  // Window cadence: 10..60000, default 1000, unset silent.
  EXPECT_EQ(obs::metrics_window_ms_from_env_text(nullptr),
            obs::kDefaultWindowMs);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("250"), 250u);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("10"), 10u);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("60000"), 60000u);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("9"), obs::kDefaultWindowMs);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("60001"),
            obs::kDefaultWindowMs);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("abc"),
            obs::kDefaultWindowMs);
  EXPECT_EQ(obs::metrics_window_ms_from_env_text("100x"),
            obs::kDefaultWindowMs);

  // Ring slots: 2..128, default 8.
  EXPECT_EQ(obs::metrics_windows_from_env_text(nullptr),
            obs::kDefaultWindowSlots);
  EXPECT_EQ(obs::metrics_windows_from_env_text("2"), 2u);
  EXPECT_EQ(obs::metrics_windows_from_env_text("128"), 128u);
  EXPECT_EQ(obs::metrics_windows_from_env_text("1"),
            obs::kDefaultWindowSlots);
  EXPECT_EQ(obs::metrics_windows_from_env_text("129"),
            obs::kDefaultWindowSlots);
  EXPECT_EQ(obs::metrics_windows_from_env_text(""),
            obs::kDefaultWindowSlots);
}

}  // namespace
}  // namespace semlock
