// cia_hits: 3 closed-loop callers call CiaModule::compute_if_absent
// (Strategy::Ours) over a pre-generated key stream. A hot key set small
// enough for L2 is prefilled during set-up; a fixed share of the stream uses
// never-seen keys, so the number of inserts per round is fixed by the
// stream, whatever the thread count, interleaving or run length. Each round
// runs the whole stream once on a freshly built and prefilled module.
#include <memory>

#include "apps/compute_if_absent.h"
#include "common.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kOpsPerRound = 600000;

struct KeyStream {
  std::vector<std::int64_t> keys;
  std::vector<std::uint8_t> is_new;
  std::size_t new_keys = 0;
};

KeyStream make_stream(std::uint64_t seed, std::size_t n) {
  KeyStream s;
  s.new_keys = n * kCiaNewPercent / 100;
  s.is_new.assign(n, 0);
  std::fill(s.is_new.begin(),
            s.is_new.begin() + static_cast<std::ptrdiff_t>(s.new_keys), 1);
  semlock::util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates over the flags
    std::swap(s.is_new[i - 1], s.is_new[rng.next_below(i)]);
  }
  s.keys.resize(n);
  std::size_t next_new = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.keys[i] = s.is_new[i] ? cia_new_key(seed, next_new++)
                            : cia_hot_key(seed, rng.next_below(kCiaHotKeys));
  }
  return s;
}

}  // namespace

void run_cia_hits(const Options& opt, Result* out) {
  using semlock::apps::CiaModule;
  const std::uint64_t g0 = now_ns();
  const KeyStream stream = make_stream(opt.seed, kOpsPerRound);
  const double schedule_s = seconds_between(g0, now_ns());
  const std::size_t n = stream.keys.size();
  const std::size_t expected_size = kCiaHotKeys + stream.new_keys;
  const semlock::apps::CiaParams params;

  std::vector<std::uint64_t> start(n), end(n);
  std::vector<Span> spans(opt.trace ? n : 0);
  std::vector<double> setup_s, backend_s, prefill_s, ops_untraced, ops_traced;
  std::vector<RoundFigures> figures;
  LockLedger ledger;
  semlock::AcquireStats before[kCallers], after[kCallers];

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds) * 1000000000ULL;
  for (int round = 0; round < kMinRounds || now_ns() < deadline; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    const std::uint64_t s0 = now_ns();
    std::unique_ptr<CiaModule> module =
        semlock::apps::make_cia_module(semlock::apps::Strategy::Ours, params);
    const std::uint64_t s1 = now_ns();
    for (std::size_t i = 0; i < kCiaHotKeys; ++i) {
      module->compute_if_absent(cia_hot_key(opt.seed, i));
    }
    const std::uint64_t s2 = now_ns();
    backend_s.push_back(seconds_between(s0, s1));
    prefill_s.push_back(seconds_between(s1, s2));
    setup_s.push_back(seconds_between(s0, s2));

    const double steal0 = host_steal_ms();
    const std::uint64_t wall = run_callers(kCallers, [&](int c) {
      const std::size_t lo = n * static_cast<std::size_t>(c) / kCallers;
      const std::size_t hi = n * static_cast<std::size_t>(c + 1) / kCallers;
      before[c] = semlock::local_acquire_stats();
      std::uint64_t t = now_ns();
      for (std::size_t i = lo; i < hi; ++i) {
        module->compute_if_absent(stream.keys[i]);
        const std::uint64_t t2 = now_ns();
        start[i] = t;
        end[i] = t2;
        if (traced) {
          spans[i] = Span{i, t, t2, kSpanCia, -1, stream.is_new[i]};
        }
        t = t2;
      }
      after[c] = semlock::local_acquire_stats();
    });
    const double steal_ms = host_steal_ms() - steal0;
    out->attempted += n;
    if (module->map_size() != expected_size) {
      out->failed += n;
      out->violation("map_size " + std::to_string(module->map_size()) +
                     " != prefill + distinct new keys " +
                     std::to_string(expected_size));
    }
    const double ops = static_cast<double>(n) * 1e9 / static_cast<double>(wall);
    if (!traced) {
      ops_untraced.push_back(ops);
      figures.push_back(round_figures(start, end, ops, steal_ms));
    } else {
      ops_traced.push_back(ops);
      std::uint64_t max_wait = 0;
      for (int c = 0; c < kCallers; ++c) {
        ledger.add_thread(before[c], after[c]);
        max_wait = std::max(max_wait, after[c].max_wait_ns);
      }
      ledger.end_round(n, max_wait);
    }
  }

  out->note("rounds", static_cast<double>(ops_untraced.size() +
                                          ops_traced.size()));
  out->note("calls_per_round", static_cast<double>(n));
  out->add("setup_s", median(setup_s), "s");
  add_round_figures(out, figures);

  if (!opt.trace) return;
  add_zero_metrics(out, kServerLayerMetrics);
  add_zero_metrics(out, kExecSplitMetrics);
  ledger.report(out);
  out->add("setup.schedule_s", schedule_s, "s");
  out->add("setup.backend_s", median(backend_s), "s");
  out->add("setup.prefill_s", median(prefill_s), "s");
  out->add("setup.mode_table_us", mode_table_compile_us(Tables::kCia),
           "us");
  out->add("trace.overhead_frac",
           median(ops_untraced) / median(ops_traced) - 1.0, "fraction");
  if (!opt.spans_path.empty() && !write_spans(opt.spans_path, spans)) {
    out->violation("cannot write spans to " + opt.spans_path);
  }
}

}  // namespace perfbench
