#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "obs/attribution.h"

namespace semlock::obs {

namespace {

struct TxnProfile {
  std::uint64_t start_ns = ~0ull;  // earliest exec start
  std::uint64_t end_ns = 0;        // latest commit end
  std::uint64_t latency_ns = 0;    // summed exec+commit durations
  std::vector<Span> waits;         // the txn's lock-wait spans
};

std::uint64_t span_dur(const Span& s) noexcept {
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

// Per-owner profiles from the dump's span sections. Keyed by the owner id
// (txn or thread sentinel); only owners with an exec span become
// transactions for tail purposes, but every owner's waits are kept so chain
// walking can follow blockers that never ran inside a Transaction.
std::unordered_map<std::uint64_t, TxnProfile> build_profiles(
    const TraceDump& dump) {
  std::unordered_map<std::uint64_t, TxnProfile> profiles;
  for (const ThreadSpans& t : dump.spans) {
    for (const Span& s : t.spans) {
      if (s.txn == 0) continue;
      TxnProfile& p = profiles[s.txn];
      switch (s.kind) {
        case SpanKind::kExec:
        case SpanKind::kCommit:
          p.latency_ns += span_dur(s);
          p.start_ns = std::min(p.start_ns, s.start_ns);
          p.end_ns = std::max(p.end_ns, s.end_ns);
          break;
        case SpanKind::kLockWait:
          p.waits.push_back(s);
          break;
        case SpanKind::kQueueWait:
          break;
      }
    }
  }
  return profiles;
}

void append_ns(std::string& out, std::uint64_t ns) {
  char buf[48];
  if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  out += buf;
}

// The longest blocking chain starting from `txn`'s worst wait: follow the
// blocker's own lock-wait spans that overlap the waiter's window.
std::string render_chain(
    std::uint64_t txn,
    const std::unordered_map<std::uint64_t, TxnProfile>& profiles,
    std::size_t max_depth = 8) {
  const auto it = profiles.find(txn);
  if (it == profiles.end() || it->second.waits.empty()) return "";
  const Span* worst = &it->second.waits.front();
  for (const Span& w : it->second.waits) {
    if (span_dur(w) > span_dur(*worst)) worst = &w;
  }
  std::string out = format_owner(txn);
  std::set<std::uint64_t> seen{txn};
  const Span* cur = worst;
  for (std::size_t depth = 0; depth < max_depth; ++depth) {
    out += " -(";
    append_ns(out, span_dur(*cur));
    char buf[96];
    std::snprintf(buf, sizeof(buf), " on 0x%llx mode %d %s)-> ",
                  static_cast<unsigned long long>(cur->instance), cur->mode,
                  attr_class_name(static_cast<AttrClass>(
                      cur->attr_class < kNumAttrClasses ? cur->attr_class
                                                        : 5)));
    out += buf;
    out += format_owner(cur->blocker);
    if (cur->blocker == 0) break;
    if (seen.count(cur->blocker) != 0) {
      out += " (cycle)";
      break;
    }
    seen.insert(cur->blocker);
    const auto bit = profiles.find(cur->blocker);
    if (bit == profiles.end()) break;
    // The blocker's own longest wait overlapping the time we spent blocked
    // on it: that is the next hop of the critical path.
    const Span* next = nullptr;
    for (const Span& w : bit->second.waits) {
      if (w.end_ns <= cur->start_ns || w.start_ns >= cur->end_ns) continue;
      if (next == nullptr || span_dur(w) > span_dur(*next)) next = &w;
    }
    if (next == nullptr) break;
    cur = next;
  }
  return out;
}

}  // namespace

CriticalPathStats analyze_critical_paths(const TraceDump& dump) {
  CriticalPathStats stats;
  const std::unordered_map<std::uint64_t, TxnProfile> profiles =
      build_profiles(dump);

  // Transactions (owners with exec time), ranked by latency for the tail.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latencies;  // (lat,txn)
  for (const auto& [txn, p] : profiles) {
    if (p.latency_ns == 0) continue;
    latencies.emplace_back(p.latency_ns, txn);
  }
  stats.txns = latencies.size();
  if (latencies.empty()) return stats;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t p99_index =
      static_cast<std::size_t>(0.99 * static_cast<double>(latencies.size() - 1));
  stats.p99_threshold_ns = latencies[p99_index].first;

  std::map<std::tuple<std::uint64_t, std::int32_t, std::uint32_t>, TailGroup>
      groups;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tail;  // (lat, txn)
  for (auto it = latencies.rbegin(); it != latencies.rend(); ++it) {
    if (it->first < stats.p99_threshold_ns) break;
    tail.push_back(*it);
  }
  stats.tail_txns = tail.size();
  for (const auto& [latency, txn] : tail) {
    stats.tail_latency_ns += latency;
    const TxnProfile& p = profiles.at(txn);
    for (const Span& w : p.waits) {
      const std::uint64_t dur = span_dur(w);
      stats.tail_blocked_ns += dur;
      TailGroup& g = groups[{w.instance, w.mode, w.attr_class}];
      g.instance = w.instance;
      g.mode = w.mode;
      g.attr_class = w.attr_class;
      g.blocked_ns += dur;
      g.waits += 1;
    }
  }
  for (auto& [key, g] : groups) {
    (void)key;
    g.share_of_tail_latency =
        stats.tail_latency_ns > 0
            ? static_cast<double>(g.blocked_ns) /
                  static_cast<double>(stats.tail_latency_ns)
            : 0.0;
    stats.groups.push_back(g);
  }
  std::sort(stats.groups.begin(), stats.groups.end(),
            [](const TailGroup& a, const TailGroup& b) {
              return a.blocked_ns > b.blocked_ns;
            });

  // Longest chains for the worst tail transactions (already latency-sorted,
  // worst first).
  constexpr std::size_t kMaxChains = 8;
  for (const auto& [latency, txn] : tail) {
    (void)latency;
    if (stats.chains.size() >= kMaxChains) break;
    std::string chain = render_chain(txn, profiles);
    if (!chain.empty()) stats.chains.push_back(std::move(chain));
  }
  return stats;
}

std::string critical_path_report(const TraceDump& dump) {
  const CriticalPathStats stats = analyze_critical_paths(dump);
  std::string out = "critical-path report\n";
  char buf[256];
  if (stats.txns == 0) {
    out += "  no transactions with exec spans in this dump (the traced run "
           "closed no Transaction)\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf),
                "  transactions: %zu, tail (p99+): %zu at >= ",
                stats.txns, stats.tail_txns);
  out += buf;
  append_ns(out, stats.p99_threshold_ns);
  out += "\n  tail latency total: ";
  append_ns(out, stats.tail_latency_ns);
  out += ", of which blocked on locks: ";
  append_ns(out, stats.tail_blocked_ns);
  std::snprintf(buf, sizeof(buf), " (%.1f%%)\n",
                stats.tail_latency_ns > 0
                    ? 100.0 * static_cast<double>(stats.tail_blocked_ns) /
                          static_cast<double>(stats.tail_latency_ns)
                    : 0.0);
  out += buf;

  out += "\n  tail blocked time by (instance, mode, attribution class):\n";
  if (stats.groups.empty()) {
    out += "    (no lock-wait spans on tail transactions)\n";
  }
  constexpr std::size_t kTopGroups = 12;
  for (std::size_t i = 0; i < stats.groups.size() && i < kTopGroups; ++i) {
    const TailGroup& g = stats.groups[i];
    const AttrClass cls = static_cast<AttrClass>(
        g.attr_class < kNumAttrClasses ? g.attr_class : 5);
    std::snprintf(buf, sizeof(buf),
                  "    0x%llx mode %d %-18s %6llu waits  ",
                  static_cast<unsigned long long>(g.instance), g.mode,
                  attr_class_name(cls),
                  static_cast<unsigned long long>(g.waits));
    out += buf;
    append_ns(out, g.blocked_ns);
    std::snprintf(buf, sizeof(buf), "  (%.1f%% of p99+ tail latency)\n",
                  100.0 * g.share_of_tail_latency);
    out += buf;
  }

  if (!stats.chains.empty()) {
    out += "\n  longest blocking chains (worst tail transactions):\n";
    for (const std::string& chain : stats.chains) {
      out += "    " + chain + "\n";
    }
  }
  return out;
}

std::vector<ReconstructedBlocker> reconstruct_blockers(const TraceDump& dump) {
  // Grant events across all threads, with the emitting thread's sentinel as
  // fallback owner — the event-stream ground truth the online capture (a
  // read of the PR 5 grant record at park time) must reproduce.
  struct GrantEvent {
    std::uint64_t ts_ns;
    std::uint64_t instance;
    std::int32_t mode;
    std::uint64_t owner;
  };
  std::vector<GrantEvent> grants;
  for (const ThreadTrace& t : dump.threads) {
    for (const Event& e : t.events) {
      if (e.type != EventType::kAcquireGrant &&
          e.type != EventType::kOptimisticHit) {
        continue;
      }
      GrantEvent g;
      g.ts_ns = e.ts_ns;
      g.instance = e.instance;
      g.mode = e.mode;
      g.owner = e.txn != 0 ? e.txn : (0x8000000000000000ull | t.tid);
      grants.push_back(g);
    }
  }
  std::sort(grants.begin(), grants.end(),
            [](const GrantEvent& a, const GrantEvent& b) {
              return a.ts_ns < b.ts_ns;
            });

  std::vector<ReconstructedBlocker> out;
  for (const ThreadSpans& t : dump.spans) {
    for (const Span& s : t.spans) {
      if (s.kind != SpanKind::kLockWait) continue;
      if (s.blocker_mode < 0 || s.capture_ns == 0) continue;
      ReconstructedBlocker r;
      r.waiter = s.txn;
      r.instance = s.instance;
      r.mode = s.mode;
      r.online = s.blocker;
      for (const GrantEvent& g : grants) {
        if (g.ts_ns > s.capture_ns) break;
        if (g.instance != s.instance || g.mode != s.blocker_mode) continue;
        if (g.owner == s.txn) continue;
        r.offline = g.owner;  // latest qualifying grant wins
      }
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace semlock::obs
