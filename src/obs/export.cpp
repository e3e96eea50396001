// Dump I/O and the human-facing exporters. Format v6 is documented in
// export.h; everything here is plain C stdio so the exporters work in the
// stripped-down CLI as well as the runtime's exit path.
#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>

namespace semlock::obs {

namespace {

constexpr char kMagic[8] = {'S', 'L', 'T', 'R', 'A', 'C', 'E', '1'};
// The only version written and the only one loaded.
constexpr std::uint32_t kVersion = 6;

// --- little binary writer/reader over stdio ---------------------------------

struct Writer {
  std::FILE* f;
  bool ok = true;

  void u32(std::uint32_t v) {
    if (ok) ok = std::fwrite(&v, sizeof(v), 1, f) == 1;
  }
  void u64(std::uint64_t v) {
    if (ok) ok = std::fwrite(&v, sizeof(v), 1, f) == 1;
  }
  void i32(std::int32_t v) {
    if (ok) ok = std::fwrite(&v, sizeof(v), 1, f) == 1;
  }
  void bytes(const void* p, std::size_t n) {
    if (ok && n > 0) ok = std::fwrite(p, 1, n, f) == n;
  }
  void event(const Event& e) {
    std::uint64_t w[Event::kWords];
    e.to_words(w);
    for (const std::uint64_t word : w) u64(word);
  }
};

struct Reader {
  std::FILE* f;
  bool ok = true;

  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (ok) ok = std::fread(&v, sizeof(v), 1, f) == 1;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (ok) ok = std::fread(&v, sizeof(v), 1, f) == 1;
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    if (ok) ok = std::fread(&v, sizeof(v), 1, f) == 1;
    return v;
  }
  void bytes(void* p, std::size_t n) {
    if (ok && n > 0) ok = std::fread(p, 1, n, f) == n;
  }
  Event event() {
    std::uint64_t w[Event::kWords];
    for (std::uint64_t& word : w) word = u64();
    return Event::from_words(w);
  }
};

void write_cells(Writer& w, const std::vector<BlockedByCell>& cells) {
  w.u32(static_cast<std::uint32_t>(cells.size()));
  for (const BlockedByCell& c : cells) {
    w.i32(c.waiter);
    w.i32(c.holder);
    w.u64(c.count);
  }
}

bool read_cells(Reader& r, std::vector<BlockedByCell>& cells) {
  const std::uint32_t n = r.u32();
  if (!r.ok || n > (1u << 24)) return false;
  cells.resize(n);
  for (BlockedByCell& c : cells) {
    c.waiter = r.i32();
    c.holder = r.i32();
    c.count = r.u64();
  }
  return r.ok;
}

void write_metrics(Writer& w, const MetricsSnapshot& m) {
  const AcquireStats& a = m.acquire_totals;
  w.u64(a.acquisitions);
  w.u64(a.contended);
  w.u64(a.parks);
  w.u64(a.optimistic_hits);
  w.u64(a.retracts);
  w.u64(a.wait_ns);
  w.u64(a.wait_cpu_ns);
  w.u64(a.max_wait_ns);
  w.u64(a.diverted);
  w.u64(a.handoffs);
  w.u32(static_cast<std::uint32_t>(m.instances.size()));
  for (const InstanceMetrics& im : m.instances) {
    w.u64(im.instance);
    w.u64(im.contended);
    w.u64(im.waits);
    w.u64(im.wait_ns);
    write_cells(w, im.blocked_by);
    for (std::uint64_t c : im.attribution) w.u64(c);
  }
  write_cells(w, m.conflict_matrix);
  w.u32(static_cast<std::uint32_t>(m.attribution.size()));
  for (const AttributionCell& c : m.attribution) {
    w.i32(c.waiter);
    w.i32(c.holder);
    for (std::uint64_t n : c.counts) w.u64(n);
  }
  for (std::size_t i = 0; i < util::Log2Histogram::kBuckets; ++i) {
    w.u64(m.wait_hist.bucket(i));
  }
  w.u64(m.wait_hist.total());
  w.u32(static_cast<std::uint32_t>(m.top_waits.size()));
  for (const WaitSample& s : m.top_waits) {
    w.u64(s.wait_ns);
    w.u64(s.instance);
    w.i32(s.mode);
  }
  // The hold-time profiler block.
  for (std::size_t i = 0; i < util::Log2Histogram::kBuckets; ++i) {
    w.u64(m.hold_hist.bucket(i));
  }
  w.u64(m.hold_hist.total());
  w.u64(m.holds_paired);
  w.u64(m.holds_unmatched);
  w.u32(static_cast<std::uint32_t>(m.top_holds.size()));
  for (const HoldSample& s : m.top_holds) {
    w.u64(s.hold_ns);
    w.u64(s.instance);
    w.i32(s.mode);
    w.u64(s.txn);
    w.i32(s.site);
  }
}

bool read_metrics(Reader& r, MetricsSnapshot& m) {
  AcquireStats& a = m.acquire_totals;
  a.acquisitions = r.u64();
  a.contended = r.u64();
  a.parks = r.u64();
  a.optimistic_hits = r.u64();
  a.retracts = r.u64();
  a.wait_ns = r.u64();
  a.wait_cpu_ns = r.u64();
  a.max_wait_ns = r.u64();
  a.diverted = r.u64();
  a.handoffs = r.u64();
  const std::uint32_t instances = r.u32();
  if (!r.ok || instances > (1u << 24)) return false;
  m.instances.resize(instances);
  for (InstanceMetrics& im : m.instances) {
    im.instance = r.u64();
    im.contended = r.u64();
    im.waits = r.u64();
    im.wait_ns = r.u64();
    if (!read_cells(r, im.blocked_by)) return false;
    for (std::uint64_t& c : im.attribution) c = r.u64();
  }
  if (!read_cells(r, m.conflict_matrix)) return false;
  const std::uint32_t attr_cells = r.u32();
  if (!r.ok || attr_cells > (1u << 24)) return false;
  m.attribution.resize(attr_cells);
  for (AttributionCell& c : m.attribution) {
    c.waiter = r.i32();
    c.holder = r.i32();
    for (std::uint64_t& n : c.counts) n = r.u64();
  }
  std::uint64_t buckets[util::Log2Histogram::kBuckets];
  for (std::uint64_t& b : buckets) b = r.u64();
  const std::uint64_t hist_total = r.u64();
  m.wait_hist.load(buckets, hist_total);
  const std::uint32_t tops = r.u32();
  if (!r.ok || tops > (1u << 16)) return false;
  m.top_waits.resize(tops);
  for (WaitSample& s : m.top_waits) {
    s.wait_ns = r.u64();
    s.instance = r.u64();
    s.mode = r.i32();
  }
  for (std::uint64_t& b : buckets) b = r.u64();
  const std::uint64_t hold_total = r.u64();
  m.hold_hist.load(buckets, hold_total);
  m.holds_paired = r.u64();
  m.holds_unmatched = r.u64();
  const std::uint32_t holds = r.u32();
  if (!r.ok || holds > (1u << 16)) return false;
  m.top_holds.resize(holds);
  for (HoldSample& s : m.top_holds) {
    s.hold_ns = r.u64();
    s.instance = r.u64();
    s.mode = r.i32();
    s.txn = r.u64();
    s.site = r.i32();
  }
  return r.ok;
}

}  // namespace

bool write_dump_file(const TraceDump& dump, const std::string& path,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  Writer w{f};
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(dump.threads.size()));
  write_metrics(w, dump.metrics);
  for (const ThreadTrace& t : dump.threads) {
    w.u32(t.tid);
    w.u32(t.live ? 1 : 0);
    w.u64(t.events.size());
    for (const Event& e : t.events) w.event(e);
  }
  const bool ok = w.ok && std::fclose(f) == 0;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

bool load_dump_file(const std::string& path, TraceDump& out,
                    std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer(f, &std::fclose);
  Reader r{f};
  char magic[8];
  r.bytes(magic, sizeof(magic));
  if (!r.ok || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    if (error != nullptr) *error = path + ": not a semlock trace dump";
    return false;
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    if (error != nullptr) {
      *error = path + ": unsupported dump version " + std::to_string(version);
    }
    return false;
  }
  const std::uint32_t threads = r.u32();
  if (!r.ok || threads > (1u << 20)) {
    if (error != nullptr) *error = path + ": corrupt header";
    return false;
  }
  out = TraceDump{};
  if (!read_metrics(r, out.metrics)) {
    if (error != nullptr) *error = path + ": corrupt metrics section";
    return false;
  }
  out.threads.resize(threads);
  for (ThreadTrace& t : out.threads) {
    t.tid = r.u32();
    t.live = r.u32() != 0;
    const std::uint64_t count = r.u64();
    if (!r.ok || count > (1ull << 28)) {
      if (error != nullptr) *error = path + ": corrupt thread section";
      return false;
    }
    t.events.resize(static_cast<std::size_t>(count));
    for (Event& e : t.events) e = r.event();
  }
  if (!r.ok && error != nullptr) *error = path + ": truncated dump";
  return r.ok;
}

// --- Chrome trace-event JSON ------------------------------------------------

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

// One traceEvents entry. dur_ns < 0 means an instant event.
void append_chrome_event(std::string& out, bool& first, const char* name,
                         std::uint32_t tid, std::uint64_t ts_ns,
                         std::int64_t dur_ns, const Event& e) {
  if (!first) out += ",\n";
  first = false;
  char buf[256];
  out += "  {\"name\": \"";
  append_escaped(out, name);
  std::snprintf(buf, sizeof(buf),
                "\", \"cat\": \"semlock\", \"pid\": 1, \"tid\": %u, "
                "\"ts\": %.3f",
                tid, static_cast<double>(ts_ns) / 1000.0);
  out += buf;
  if (dur_ns >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"ph\": \"X\", \"dur\": %.3f",
                  static_cast<double>(dur_ns) / 1000.0);
    out += buf;
  } else {
    out += ", \"ph\": \"i\", \"s\": \"t\"";
  }
  std::snprintf(buf, sizeof(buf),
                ", \"args\": {\"instance\": \"0x%" PRIx64
                "\", \"mode\": %d, \"txn\": %" PRIu64 "}}",
                e.instance, e.mode, e.txn);
  out += buf;
}

}  // namespace

std::string to_chrome_json(const TraceDump& dump) {
  // Normalize timestamps so the trace starts near t=0 regardless of steady-
  // clock epoch.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const ThreadTrace& t : dump.threads) {
    for (const Event& e : t.events) t0 = std::min(t0, e.ts_ns);
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  std::string out = "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  bool first = true;
  char name[96];
  // Raw material for the flow events below: every release point, and every
  // parked slice actually paired. The binding release for a parked slice is
  // the latest kRelease on the same instance from another thread inside the
  // parked window — the wakeup that let the waiter run.
  struct ReleasePoint {
    std::uint32_t tid;
    std::uint64_t instance;
    std::uint64_t ts_ns;
  };
  struct ParkedSlice {
    std::uint32_t tid;
    std::uint64_t instance;
    std::uint64_t park_ts_ns;
    std::uint64_t unpark_ts_ns;
  };
  std::vector<ReleasePoint> releases;
  std::vector<ParkedSlice> parked;
  for (const ThreadTrace& t : dump.threads) {
    for (const Event& e : t.events) {
      if (e.type == EventType::kRelease) {
        releases.push_back(ReleasePoint{t.tid, e.instance, e.ts_ns});
      }
    }
  }
  for (const ThreadTrace& t : dump.threads) {
    // Pair begin/end events per (instance, mode) for acquires and per
    // instance for parks; everything unpaired degrades to an instant.
    std::unordered_map<std::uint64_t, Event> open_acquire;  // key: inst^mode
    std::unordered_map<std::uint64_t, Event> open_park;     // key: inst
    auto acq_key = [](const Event& e) {
      return e.instance * 31 + static_cast<std::uint32_t>(e.mode);
    };
    for (const Event& e : t.events) {
      const std::uint64_t ts = e.ts_ns - t0;
      switch (e.type) {
        case EventType::kAcquireBegin:
          open_acquire[acq_key(e)] = e;
          break;
        case EventType::kAcquireGrant:
        case EventType::kOptimisticHit: {
          auto it = open_acquire.find(acq_key(e));
          if (it != open_acquire.end()) {
            const std::uint64_t begin = it->second.ts_ns - t0;
            std::snprintf(name, sizeof(name), "%s mode %d",
                          e.type == EventType::kOptimisticHit
                              ? "acquire (optimistic)"
                              : "acquire",
                          e.mode);
            append_chrome_event(out, first, name, t.tid, begin,
                                static_cast<std::int64_t>(ts - begin), e);
            open_acquire.erase(it);
          } else {
            append_chrome_event(out, first, event_name(e.type), t.tid, ts, -1,
                                e);
          }
          break;
        }
        case EventType::kPark:
          open_park[e.instance] = e;
          break;
        case EventType::kUnpark: {
          auto it = open_park.find(e.instance);
          if (it != open_park.end()) {
            const std::uint64_t begin = it->second.ts_ns - t0;
            std::snprintf(name, sizeof(name), "parked (mode %d)", e.mode);
            append_chrome_event(out, first, name, t.tid, begin,
                                static_cast<std::int64_t>(ts - begin), e);
            parked.push_back(
                ParkedSlice{t.tid, e.instance, it->second.ts_ns, e.ts_ns});
            open_park.erase(it);
          } else {
            append_chrome_event(out, first, event_name(e.type), t.tid, ts, -1,
                                e);
          }
          break;
        }
        default:
          append_chrome_event(out, first, event_name(e.type), t.tid, ts, -1,
                              e);
          break;
      }
    }
    // Dangling begins (thread was mid-acquire at snapshot) become instants.
    for (const auto& [key, e] : open_acquire) {
      (void)key;
      append_chrome_event(out, first, "acquire_begin (unmatched)", t.tid,
                          e.ts_ns - t0, -1, e);
    }
    for (const auto& [key, e] : open_park) {
      (void)key;
      append_chrome_event(out, first, "park (unmatched)", t.tid,
                          e.ts_ns - t0, -1, e);
    }
  }
  // Flow events: an "s"/"f" pair per parked slice whose waking release was
  // found, so Perfetto draws the arrow from the releasing holder's track to
  // the waiter's unpark — blocker chains render instead of disconnected
  // slices. bp:"e" attaches the finish to the enclosing parked slice.
  std::uint64_t flow_id = 0;
  for (const ParkedSlice& p : parked) {
    const ReleasePoint* wake = nullptr;
    for (const ReleasePoint& rel : releases) {
      if (rel.instance != p.instance || rel.tid == p.tid) continue;
      if (rel.ts_ns < p.park_ts_ns || rel.ts_ns > p.unpark_ts_ns) continue;
      if (wake == nullptr || rel.ts_ns > wake->ts_ns) wake = &rel;
    }
    if (wake == nullptr) continue;
    ++flow_id;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                  "\"ph\": \"s\", \"id\": %" PRIu64
                  ", \"pid\": 1, \"tid\": %u, \"ts\": %.3f}",
                  flow_id, wake->tid,
                  static_cast<double>(wake->ts_ns - t0) / 1000.0);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                  "\"ph\": \"f\", \"bp\": \"e\", \"id\": %" PRIu64
                  ", \"pid\": 1, \"tid\": %u, \"ts\": %.3f}",
                  flow_id, p.tid,
                  static_cast<double>(p.unpark_ts_ns - t0) / 1000.0);
    out += buf;
  }
  out += "\n],\n\"semlockMetrics\": ";
  out += dump.metrics.to_json();
  out += "\n}\n";
  return out;
}

// --- text report ------------------------------------------------------------

std::string text_report(const TraceDump& dump) {
  char buf[256];
  std::string out = "semlock trace report\n====================\n";

  std::uint64_t total_events = 0;
  std::map<EventType, std::uint64_t> by_type;
  for (const ThreadTrace& t : dump.threads) {
    total_events += t.events.size();
    for (const Event& e : t.events) by_type[e.type] += 1;
  }
  std::snprintf(buf, sizeof(buf), "threads: %zu   retained events: %" PRIu64
                "\n\n", dump.threads.size(), total_events);
  out += buf;

  out += "event counts:\n";
  for (const auto& [type, n] : by_type) {
    std::snprintf(buf, sizeof(buf), "  %-16s %" PRIu64 "\n",
                  event_name(type), n);
    out += buf;
  }

  const MetricsSnapshot& m = dump.metrics;
  const AcquireStats& a = m.acquire_totals;
  out += "\nacquire totals:\n";
  std::snprintf(buf, sizeof(buf),
                "  acquisitions %" PRIu64 "  contended %" PRIu64
                "  parks %" PRIu64 "\n  optimistic hits %" PRIu64
                "  retracts %" PRIu64 "\n  wait %.3f ms wall, %.3f ms cpu"
                "  max %.3f ms\n  grant policy: diverted %" PRIu64
                "  handoffs %" PRIu64 "\n",
                a.acquisitions, a.contended, a.parks, a.optimistic_hits,
                a.retracts, static_cast<double>(a.wait_ns) / 1e6,
                static_cast<double>(a.wait_cpu_ns) / 1e6,
                static_cast<double>(a.max_wait_ns) / 1e6, a.diverted,
                a.handoffs);
  out += buf;

  out += "\ntop contended instances:\n";
  if (m.instances.empty()) out += "  (no contention recorded)\n";
  for (std::size_t i = 0; i < m.instances.size() && i < 10; ++i) {
    const InstanceMetrics& im = m.instances[i];
    std::snprintf(buf, sizeof(buf),
                  "  0x%" PRIx64 "  contended %" PRIu64 "  waits %" PRIu64
                  "  wait %.3f ms\n",
                  im.instance, im.contended, im.waits,
                  static_cast<double>(im.wait_ns) / 1e6);
    out += buf;
  }

  out += "\nhottest non-commuting mode pairs (waiter blocked by holder):\n";
  if (m.conflict_matrix.empty()) out += "  (none observed)\n";
  for (std::size_t i = 0; i < m.conflict_matrix.size() && i < 10; ++i) {
    const BlockedByCell& c = m.conflict_matrix[i];
    std::snprintf(buf, sizeof(buf),
                  "  mode %d blocked by mode %d: %" PRIu64 " times\n",
                  c.waiter, c.holder, c.count);
    out += buf;
  }

  std::uint64_t attr_totals[kNumAttrClasses] = {};
  std::uint64_t attr_sum = 0;
  for (const AttributionCell& c : m.attribution) {
    for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
      attr_totals[k] += c.counts[k];
      attr_sum += c.counts[k];
    }
  }
  if (attr_sum > 0) {
    out += "\nwait attribution (see `semlock-trace attribution`):\n";
    for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
      if (attr_totals[k] == 0) continue;
      std::snprintf(buf, sizeof(buf), "  %-18s %" PRIu64 " (%.1f%%)\n",
                    attr_class_name(static_cast<AttrClass>(k)),
                    attr_totals[k],
                    100.0 * static_cast<double>(attr_totals[k]) /
                        static_cast<double>(attr_sum));
      out += buf;
    }
  }

  out += "\nlongest waits:\n";
  if (m.top_waits.empty()) out += "  (none recorded)\n";
  for (const WaitSample& s : m.top_waits) {
    std::snprintf(buf, sizeof(buf),
                  "  %.3f ms  instance 0x%" PRIx64 "  mode %d\n",
                  static_cast<double>(s.wait_ns) / 1e6, s.instance, s.mode);
    out += buf;
  }

  if (m.wait_hist.count() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\nwait latency: %" PRIu64 " samples, p50 < %.3f us, "
                  "p99 < %.3f us, p999 < %.3f us\n",
                  m.wait_hist.count(),
                  static_cast<double>(m.wait_hist.p50()) / 1e3,
                  static_cast<double>(m.wait_hist.p99()) / 1e3,
                  static_cast<double>(m.wait_hist.p999()) / 1e3);
    out += buf;
  }

  if (m.holds_paired > 0 || m.holds_unmatched > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\ncritical-section holds (see `semlock-trace holds`): "
                  "%" PRIu64 " paired, %" PRIu64 " unmatched\n"
                  "  hold p50 < %.3f us, p99 < %.3f us, p999 < %.3f us\n",
                  m.holds_paired, m.holds_unmatched,
                  static_cast<double>(m.hold_hist.p50()) / 1e3,
                  static_cast<double>(m.hold_hist.p99()) / 1e3,
                  static_cast<double>(m.hold_hist.p999()) / 1e3);
    out += buf;
  }
  return out;
}

// --- attribution report -----------------------------------------------------

std::string attribution_report(const TraceDump& dump) {
  char buf[256];
  const MetricsSnapshot& m = dump.metrics;
  std::string out =
      "conflict attribution report\n===========================\n";

  std::uint64_t totals[kNumAttrClasses] = {};
  std::uint64_t sum = 0;
  for (const AttributionCell& c : m.attribution) {
    for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
      totals[k] += c.counts[k];
      sum += c.counts[k];
    }
  }
  if (sum == 0) {
    out += "no classified waits (attribution off, or nothing contended)\n";
    return out;
  }

  const std::uint64_t sampled =
      sum - totals[static_cast<std::size_t>(AttrClass::kUnsampled)];
  const std::uint64_t genuine =
      totals[static_cast<std::size_t>(AttrClass::kTrueConflict)] +
      totals[static_cast<std::size_t>(AttrClass::kSelfMode)];
  const std::uint64_t artifact = sampled - genuine;
  std::snprintf(buf, sizeof(buf),
                "classified waits: %" PRIu64 " (+ %" PRIu64 " unsampled)\n"
                "genuine semantic conflicts: %" PRIu64 " (%.1f%%)\n"
                "abstraction artifacts:      %" PRIu64 " (%.1f%%)\n\n",
                sampled,
                totals[static_cast<std::size_t>(AttrClass::kUnsampled)],
                genuine,
                sampled > 0 ? 100.0 * static_cast<double>(genuine) /
                                  static_cast<double>(sampled)
                            : 0.0,
                artifact,
                sampled > 0 ? 100.0 * static_cast<double>(artifact) /
                                  static_cast<double>(sampled)
                            : 0.0);
  out += buf;

  out += "by class:\n";
  for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
    if (totals[k] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-18s %" PRIu64 " (%.1f%%)\n",
                  attr_class_name(static_cast<AttrClass>(k)), totals[k],
                  100.0 * static_cast<double>(totals[k]) /
                      static_cast<double>(sum));
    out += buf;
  }

  out += "\nby mode pair (waiter blocked by holder):\n";
  for (std::size_t i = 0; i < m.attribution.size() && i < 20; ++i) {
    const AttributionCell& c = m.attribution[i];
    std::snprintf(buf, sizeof(buf), "  mode %d <- mode %d: %" PRIu64 "\n",
                  c.waiter, c.holder, c.total());
    out += buf;
    for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
      if (c.counts[k] == 0) continue;
      std::snprintf(buf, sizeof(buf), "    %-18s %" PRIu64 "\n",
                    attr_class_name(static_cast<AttrClass>(k)), c.counts[k]);
      out += buf;
    }
  }

  out += "\nper instance:\n";
  bool any_instance = false;
  for (const InstanceMetrics& im : m.instances) {
    std::uint64_t inst_sum = 0;
    for (std::uint64_t c : im.attribution) inst_sum += c;
    if (inst_sum == 0) continue;
    any_instance = true;
    std::snprintf(buf, sizeof(buf), "  0x%" PRIx64 ":", im.instance);
    out += buf;
    for (std::size_t k = 0; k < kNumAttrClasses; ++k) {
      if (im.attribution[k] == 0) continue;
      std::snprintf(buf, sizeof(buf), "  %s %" PRIu64,
                    attr_class_key(static_cast<AttrClass>(k)),
                    im.attribution[k]);
      out += buf;
    }
    out += '\n';
  }
  if (!any_instance) out += "  (none)\n";
  return out;
}

// --- hold-time report -------------------------------------------------------

std::uint64_t pair_holds_from_events(const TraceDump& dump) {
  std::uint64_t paired = 0;
  for (const ThreadTrace& t : dump.threads) {
    // Open grants per thread; LIFO match on (instance, mode), mirroring
    // close_hold_on_release in trace.cpp.
    std::vector<const Event*> open;
    for (const Event& e : t.events) {
      switch (e.type) {
        case EventType::kAcquireGrant:
        case EventType::kOptimisticHit:
          open.push_back(&e);
          break;
        case EventType::kRelease:
          for (std::size_t i = open.size(); i > 0; --i) {
            if (open[i - 1]->instance == e.instance &&
                open[i - 1]->mode == e.mode) {
              open.erase(open.begin() + static_cast<std::ptrdiff_t>(i - 1));
              paired += 1;
              break;
            }
          }
          break;
        default:
          break;
      }
    }
  }
  return paired;
}

std::string holds_report(const TraceDump& dump) {
  char buf[256];
  const MetricsSnapshot& m = dump.metrics;
  std::string out = "critical-section hold report\n"
                    "============================\n";

  if (m.holds_paired == 0 && m.holds_unmatched == 0) {
    out += "no holds recorded (tracing off, or a pre-v4 dump)\n";
    return out;
  }

  std::snprintf(buf, sizeof(buf),
                "paired grant->release spans: %" PRIu64
                "   unmatched releases: %" PRIu64 "\n",
                m.holds_paired, m.holds_unmatched);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "hold time: total %.3f ms, p50 < %.3f us, p99 < %.3f us, "
                "p999 < %.3f us\n",
                static_cast<double>(m.hold_hist.total()) / 1e6,
                static_cast<double>(m.hold_hist.p50()) / 1e3,
                static_cast<double>(m.hold_hist.p99()) / 1e3,
                static_cast<double>(m.hold_hist.p999()) / 1e3);
  out += buf;

  // Cross-check against the retained events. Only exact when no ring
  // wrapped (every grant/release still retained), so report it as evidence,
  // not as an error.
  const std::uint64_t event_pairs = pair_holds_from_events(dump);
  std::snprintf(buf, sizeof(buf),
                "event cross-check: %" PRIu64
                " grant->release pairs in retained events%s\n",
                event_pairs,
                event_pairs == m.holds_paired
                    ? " (matches paired count exactly)"
                    : " (differs: rings wrapped or tracing toggled mid-run)");
  out += buf;

  out += "\nlongest holds:\n";
  if (m.top_holds.empty()) out += "  (none recorded)\n";
  for (const HoldSample& s : m.top_holds) {
    std::snprintf(buf, sizeof(buf),
                  "  %.3f ms  instance 0x%" PRIx64
                  "  mode %d  txn %" PRIu64 "  site %d\n",
                  static_cast<double>(s.hold_ns) / 1e6, s.instance, s.mode,
                  s.txn, s.site);
    out += buf;
  }
  return out;
}

// --- structural JSON validation ---------------------------------------------

namespace {

struct JsonCursor {
  const char* p;
  const char* end;
  int depth = 0;

  void skip_ws() {
    while (p != end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n ||
        std::memcmp(p, lit, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }

  bool string() {
    if (p == end || *p != '"') return false;
    ++p;
    while (p != end) {
      if (*p == '\\') {
        ++p;
        if (p == end) return false;
        ++p;
      } else if (*p == '"') {
        ++p;
        return true;
      } else {
        ++p;
      }
    }
    return false;
  }

  bool number() {
    const char* start = p;
    if (p != end && *p == '-') ++p;
    while (p != end && *p >= '0' && *p <= '9') ++p;
    if (p != end && *p == '.') {
      ++p;
      while (p != end && *p >= '0' && *p <= '9') ++p;
    }
    if (p != end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p != end && (*p == '+' || *p == '-')) ++p;
      while (p != end && *p >= '0' && *p <= '9') ++p;
    }
    return p != start && !(p - start == 1 && *start == '-');
  }

  bool value() {
    if (++depth > 128) return false;
    skip_ws();
    bool ok = false;
    if (p == end) {
      ok = false;
    } else if (*p == '{') {
      ++p;
      skip_ws();
      if (p != end && *p == '}') {
        ++p;
        ok = true;
      } else {
        for (;;) {
          skip_ws();
          if (!string()) break;
          skip_ws();
          if (p == end || *p != ':') break;
          ++p;
          if (!value()) break;
          skip_ws();
          if (p != end && *p == ',') {
            ++p;
            continue;
          }
          if (p != end && *p == '}') {
            ++p;
            ok = true;
          }
          break;
        }
      }
    } else if (*p == '[') {
      ++p;
      skip_ws();
      if (p != end && *p == ']') {
        ++p;
        ok = true;
      } else {
        for (;;) {
          if (!value()) break;
          skip_ws();
          if (p != end && *p == ',') {
            ++p;
            continue;
          }
          if (p != end && *p == ']') {
            ++p;
            ok = true;
          }
          break;
        }
      }
    } else if (*p == '"') {
      ok = string();
    } else if (literal("true") || literal("false") || literal("null")) {
      ok = true;
    } else {
      ok = number();
    }
    --depth;
    return ok;
  }
};

}  // namespace

bool validate_json(const std::string& text, std::string* error) {
  JsonCursor c{text.data(), text.data() + text.size()};
  if (!c.value()) {
    if (error != nullptr) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "invalid JSON near offset %zd",
                    c.p - text.data());
      *error = buf;
    }
    return false;
  }
  c.skip_ws();
  if (c.p != c.end) {
    if (error != nullptr) *error = "trailing content after JSON value";
    return false;
  }
  return true;
}

}  // namespace semlock::obs
