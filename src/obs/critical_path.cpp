#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "obs/attribution.h"

namespace semlock::obs {

DerivedSpans derive_spans(const TraceDump& dump) {
  struct Grant {
    std::uint64_t ts_ns;
    std::uint64_t owner;
  };
  std::map<std::pair<std::uint64_t, std::int32_t>, std::vector<Grant>> grants;
  std::map<std::uint64_t, TxnInterval> txns;
  DerivedSpans out;
  for (const ThreadTrace& t : dump.threads) {
    std::optional<LockWait> open;
    std::map<std::int32_t, std::uint32_t> classes;  // blocker mode -> class
    for (const Event& e : t.events) {
      const std::uint64_t owner = e.txn != 0 ? e.txn : kThreadOwnerBit | t.tid;
      switch (e.type) {
        case EventType::kContendedWait:
          open = LockWait{.waiter = owner,
                          .instance = e.instance,
                          .mode = e.mode,
                          .start_ns = e.ts_ns,
                          .blocker_mode = e.payload,
                          .capture_ns = e.ts_ns};
          classes.clear();
          break;
        case EventType::kPark:
          if (open && e.payload >= 0) {
            open->blocker_mode = e.payload;
            open->capture_ns = e.ts_ns;
          }
          break;
        case EventType::kAttribution:
          if (open) classes[e.mode] = static_cast<std::uint32_t>(e.payload);
          break;
        case EventType::kAcquireGrant:
        case EventType::kOptimisticHit:
          grants[{e.instance, e.mode}].push_back(Grant{e.ts_ns, owner});
          if (open && e.type == EventType::kAcquireGrant &&
              e.instance == open->instance && e.mode == open->mode) {
            open->end_ns = e.ts_ns;
            const auto c = classes.find(open->blocker_mode);
            if (c != classes.end()) open->attr_class = c->second;
            out.waits.push_back(*open);
            open.reset();
          }
          break;
        case EventType::kTxnBegin:
        case EventType::kTxnEnd: {
          TxnInterval& x =
              txns.try_emplace(e.txn, TxnInterval{e.txn, ~0ull, 0})
                  .first->second;
          if (e.type == EventType::kTxnBegin) {
            x.begin_ns = std::min(x.begin_ns, e.ts_ns);
          } else {
            x.end_ns = std::max(x.end_ns, e.ts_ns);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  for (auto& [key, list] : grants) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Grant& a, const Grant& b) {
                       return a.ts_ns < b.ts_ns;
                     });
  }
  for (LockWait& w : out.waits) {
    const auto it = grants.find({w.instance, w.blocker_mode});
    if (it == grants.end()) continue;
    // The latest grant at or before the sample, skipping the waiter's own.
    auto g = std::upper_bound(
        it->second.begin(), it->second.end(), w.capture_ns,
        [](std::uint64_t ts, const Grant& x) { return ts < x.ts_ns; });
    while (g != it->second.begin()) {
      if ((--g)->owner != w.waiter) {
        w.blocker = g->owner;
        break;
      }
    }
  }
  for (const auto& [txn, x] : txns) {
    if (x.begin_ns <= x.end_ns) out.txns.push_back(x);
  }
  return out;
}

namespace {

struct TxnProfile {
  std::uint64_t latency_ns = 0;        // 0 = no interval in the dump
  std::vector<const LockWait*> waits;  // the owner's lock waits
};

std::uint64_t wait_dur(const LockWait& w) noexcept {
  return w.end_ns > w.start_ns ? w.end_ns - w.start_ns : 0;
}

// Per-owner profiles. Keyed by the owner id (txn or thread sentinel); only
// owners with an interval become transactions for tail purposes, but every
// owner's waits are kept so chain walking can follow blockers that never
// ran inside a Transaction.
std::unordered_map<std::uint64_t, TxnProfile> build_profiles(
    const DerivedSpans& spans) {
  std::unordered_map<std::uint64_t, TxnProfile> profiles;
  for (const TxnInterval& x : spans.txns) {
    profiles[x.txn].latency_ns = x.end_ns - x.begin_ns;
  }
  for (const LockWait& w : spans.waits) profiles[w.waiter].waits.push_back(&w);
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
// blocker's own lock waits that overlap the waiter's window.
std::string render_chain(
    std::uint64_t txn,
    const std::unordered_map<std::uint64_t, TxnProfile>& profiles,
    std::size_t max_depth = 8) {
  const auto it = profiles.find(txn);
  if (it == profiles.end() || it->second.waits.empty()) return "";
  const LockWait* worst = it->second.waits.front();
  for (const LockWait* w : it->second.waits) {
    if (wait_dur(*w) > wait_dur(*worst)) worst = w;
  }
  std::string out = format_owner(txn);
  std::set<std::uint64_t> seen{txn};
  const LockWait* cur = worst;
  for (std::size_t depth = 0; depth < max_depth; ++depth) {
    out += " -(";
    append_ns(out, wait_dur(*cur));
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
    const LockWait* next = nullptr;
    for (const LockWait* w : bit->second.waits) {
      if (w->end_ns <= cur->start_ns || w->start_ns >= cur->end_ns) continue;
      if (next == nullptr || wait_dur(*w) > wait_dur(*next)) next = w;
    }
    if (next == nullptr) break;
    cur = next;
  }
  return out;
}

}  // namespace

CriticalPathStats analyze_critical_paths(const TraceDump& dump) {
  CriticalPathStats stats;
  const DerivedSpans spans = derive_spans(dump);
  const std::unordered_map<std::uint64_t, TxnProfile> profiles =
      build_profiles(spans);

  // Transactions (owners with an interval), ranked by latency for the tail.
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
    for (const LockWait* w : p.waits) {
      const std::uint64_t dur = wait_dur(*w);
      stats.tail_blocked_ns += dur;
      TailGroup& g = groups[{w->instance, w->mode, w->attr_class}];
      g.instance = w->instance;
      g.mode = w->mode;
      g.attr_class = w->attr_class;
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
    out += "  no transactions with begin and end events in this dump (the "
           "traced run closed no Transaction)\n";
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
    out += "    (no lock waits on tail transactions)\n";
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

}  // namespace semlock::obs
