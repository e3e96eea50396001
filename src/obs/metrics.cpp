#include "obs/metrics.h"

#include <cstdio>

namespace semlock::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_cells(std::string& out, const std::vector<BlockedByCell>& cells) {
  out += '[';
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"waiter\": %d, \"holder\": %d, \"count\": %llu}",
                  cells[i].waiter, cells[i].holder,
                  static_cast<unsigned long long>(cells[i].count));
    out += buf;
  }
  out += ']';
}

void append_attr_counts(std::string& out,
                        const std::uint64_t (&counts)[kNumAttrClasses]) {
  out += '{';
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    if (c > 0) out += ", ";
    out += '"';
    out += attr_class_key(static_cast<AttrClass>(c));
    out += "\": ";
    append_u64(out, counts[c]);
  }
  out += '}';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"acquire\": {";
  const AcquireStats& a = acquire_totals;
  out += "\"acquisitions\": ";
  append_u64(out, a.acquisitions);
  out += ", \"contended\": ";
  append_u64(out, a.contended);
  out += ", \"parks\": ";
  append_u64(out, a.parks);
  out += ", \"optimistic_hits\": ";
  append_u64(out, a.optimistic_hits);
  out += ", \"retracts\": ";
  append_u64(out, a.retracts);
  out += ", \"wait_ns\": ";
  append_u64(out, a.wait_ns);
  out += ", \"wait_cpu_ns\": ";
  append_u64(out, a.wait_cpu_ns);
  out += ", \"max_wait_ns\": ";
  append_u64(out, a.max_wait_ns);
  out += ", \"diverted\": ";
  append_u64(out, a.diverted);
  out += ", \"handoffs\": ";
  append_u64(out, a.handoffs);
  out += "}, \"instances\": [";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i > 0) out += ", ";
    const InstanceMetrics& m = instances[i];
    out += "{\"instance\": ";
    append_hex(out, m.instance);
    out += ", \"contended\": ";
    append_u64(out, m.contended);
    out += ", \"waits\": ";
    append_u64(out, m.waits);
    out += ", \"wait_ns\": ";
    append_u64(out, m.wait_ns);
    out += ", \"blocked_by\": ";
    append_cells(out, m.blocked_by);
    out += ", \"attribution\": ";
    append_attr_counts(out, m.attribution);
    out += '}';
  }
  out += "], \"conflict_matrix\": ";
  append_cells(out, conflict_matrix);
  out += ", \"attribution\": [";
  for (std::size_t i = 0; i < attribution.size(); ++i) {
    if (i > 0) out += ", ";
    const AttributionCell& cell = attribution[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"waiter\": %d, \"holder\": %d, ",
                  cell.waiter, cell.holder);
    out += buf;
    for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
      if (c > 0) out += ", ";
      out += '"';
      out += attr_class_key(static_cast<AttrClass>(c));
      out += "\": ";
      append_u64(out, cell.counts[c]);
    }
    out += '}';
  }
  out += "], \"wait_hist_ns\": ";
  out += wait_hist.to_json();
  // Upper-bound tail quantiles (factor-of-two resolution) so dashboards can
  // plot the wait tail without re-deriving it from the buckets.
  out += ", \"wait_p50_ns\": ";
  append_u64(out, wait_hist.p50());
  out += ", \"wait_p99_ns\": ";
  append_u64(out, wait_hist.p99());
  out += ", \"wait_p999_ns\": ";
  append_u64(out, wait_hist.p999());
  out += ", \"top_waits\": [";
  for (std::size_t i = 0; i < top_waits.size(); ++i) {
    if (i > 0) out += ", ";
    const WaitSample& s = top_waits[i];
    out += "{\"wait_ns\": ";
    append_u64(out, s.wait_ns);
    out += ", \"instance\": ";
    append_hex(out, s.instance);
    char buf[32];
    std::snprintf(buf, sizeof(buf), ", \"mode\": %d}", s.mode);
    out += buf;
  }
  out += "], \"hold_hist_ns\": ";
  out += hold_hist.to_json();
  out += ", \"hold_p50_ns\": ";
  append_u64(out, hold_hist.p50());
  out += ", \"hold_p99_ns\": ";
  append_u64(out, hold_hist.p99());
  out += ", \"hold_p999_ns\": ";
  append_u64(out, hold_hist.p999());
  out += ", \"holds_paired\": ";
  append_u64(out, holds_paired);
  out += ", \"holds_unmatched\": ";
  append_u64(out, holds_unmatched);
  out += ", \"top_holds\": [";
  for (std::size_t i = 0; i < top_holds.size(); ++i) {
    if (i > 0) out += ", ";
    const HoldSample& s = top_holds[i];
    out += "{\"hold_ns\": ";
    append_u64(out, s.hold_ns);
    out += ", \"instance\": ";
    append_hex(out, s.instance);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ", \"mode\": %d, \"txn\": %llu, \"site\": %d}", s.mode,
                  static_cast<unsigned long long>(s.txn), s.site);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace semlock::obs
