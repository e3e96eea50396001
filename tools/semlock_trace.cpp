// semlock-trace: converts the binary trace dump written by SEMLOCK_TRACE=1
// (src/obs, docs/OBSERVABILITY.md) into human- and tool-facing forms.
//
//   semlock-trace chrome  <dump> [out.json]   Chrome trace-event JSON
//                                             (load in Perfetto or
//                                             chrome://tracing); stdout when
//                                             no output path is given.
//   semlock-trace report  <dump>              text report: top contended
//                                             instances, hottest
//                                             non-commuting mode pairs,
//                                             longest waits.
//   semlock-trace metrics <dump>              the embedded metrics snapshot
//                                             as JSON.
//   semlock-trace metrics --watch=<url>       poll a live /metrics.json
//       [--count=N] [--interval-ms=M]         endpoint (server/admin.h) and
//                                             print one line per new window:
//                                             seq, acquisitions/s, false-
//                                             conflict %, wait/hold p99.
//                                             N=0 (default) polls forever.
//   semlock-trace attribution <dump>          conflict-attribution report:
//                                             true semantic conflicts vs.
//                                             abstraction artifacts, by
//                                             class / mode pair / instance.
//   semlock-trace holds   <dump>              hold-time profiler report:
//                                             hold histogram quantiles,
//                                             paired/unmatched counts, the
//                                             top-K longest holds with
//                                             holder txn and lock site, and
//                                             an offline re-pairing cross-
//                                             check of the retained events.
//   semlock-trace critical-path <dump>        p99+ tail report: the lock
//                                             waits and transactions
//                                             derived from the events, the
//                                             tail's blocked time by
//                                             (instance, mode, class), and
//                                             its longest blocking chains.
//   semlock-trace check   <file.json>         structural JSON validation
//                                             (exit 0/1); CI runs this on
//                                             the chrome export.
//   semlock-trace promcheck <file.txt>        Prometheus text-format 0.0.4
//                                             grammar validation (exit 0/1);
//                                             CI runs this on a /metrics
//                                             scrape.
#include <arpa/inet.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/exposition.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: semlock-trace chrome <dump> [out.json]\n"
      "       semlock-trace report <dump>\n"
      "       semlock-trace metrics <dump>\n"
      "       semlock-trace metrics --watch=<url> [--count=N] "
      "[--interval-ms=M]\n"
      "       semlock-trace attribution <dump>\n"
      "       semlock-trace holds <dump>\n"
      "       semlock-trace critical-path <dump>\n"
      "       semlock-trace check <file.json>\n"
      "       semlock-trace promcheck <file.txt>\n");
  return 2;
}

int load_or_fail(const char* path, semlock::obs::TraceDump& dump) {
  std::string error;
  if (!semlock::obs::load_dump_file(path, dump, &error)) {
    std::fprintf(stderr, "semlock-trace: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

bool read_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

// --- the --watch poller ------------------------------------------------------

// Minimal URL split: http://host:port/path (the only shape the admin
// endpoint serves). Defaults: port 80, path "/metrics.json".
bool split_url(const std::string& url, std::string& host, int& port,
               std::string& path) {
  std::string rest = url;
  const std::string scheme = "http://";
  if (rest.compare(0, scheme.size(), scheme) == 0) {
    rest = rest.substr(scheme.size());
  }
  const std::size_t slash = rest.find('/');
  path = slash == std::string::npos ? "/metrics.json" : rest.substr(slash);
  const std::string hostport =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    host = hostport;
    port = 80;
  } else {
    host = hostport.substr(0, colon);
    port = std::atoi(hostport.c_str() + colon + 1);
  }
  return !host.empty() && port > 0 && port <= 65535;
}

// One blocking HTTP/1.0 GET; returns the body (headers stripped) or empty
// on any failure.
std::string http_get(const std::string& host, int port,
                     const std::string& path) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return "";
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  std::string out;
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                            "\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t sent = ::send(fd, req.data() + off, req.size() - off, 0);
      if (sent <= 0) break;
      off += static_cast<std::size_t>(sent);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  if (fd >= 0) ::close(fd);
  freeaddrinfo(res);
  const std::size_t header_end = out.find("\r\n\r\n");
  return header_end == std::string::npos ? "" : out.substr(header_end + 4);
}

// Extracts the number after `"key": ` within text[from..to). Returns
// fallback when absent. Good enough for the fixed schema the endpoint
// emits; not a JSON parser.
double json_number(const std::string& text, std::size_t from, std::size_t to,
                   const char* key, double fallback) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t pos = text.find(needle, from);
  if (pos == std::string::npos || pos >= to) return fallback;
  return std::atof(text.c_str() + pos + needle.size());
}

int watch_metrics(const std::string& url, long count, long interval_ms) {
  std::string host, path;
  int port = 0;
  if (!split_url(url, host, port, path)) {
    std::fprintf(stderr, "semlock-trace: bad --watch url: %s\n", url.c_str());
    return 2;
  }
  std::printf("%8s %12s %10s %12s %12s %8s\n", "seq", "acq/s", "falseconf%",
              "wait_p99_ns", "hold_p99_ns", "grants");
  double last_seq = -1;
  long printed = 0;
  int consecutive_failures = 0;
  while (count == 0 || printed < count) {
    const std::string body = http_get(host, port, path);
    if (body.empty()) {
      if (++consecutive_failures >= 5) {
        std::fprintf(stderr, "semlock-trace: %s unreachable\n", url.c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    consecutive_failures = 0;
    // The newest window is the first object of "windows": [...] (the ring
    // is emitted newest first).
    const std::size_t windows = body.find("\"windows\": [");
    if (windows != std::string::npos && body[windows + 12] == '{') {
      const std::size_t obj = windows + 12;
      // The window object nests an "attribution" map, so the first '}' is
      // not its end; bound the field search at the next window instead.
      std::size_t obj_end = body.find("{\"seq\"", obj + 1);
      if (obj_end == std::string::npos) obj_end = body.size();
      const double seq = json_number(body, obj, obj_end, "seq", -1);
      if (seq >= 0 && seq != last_seq) {
        last_seq = seq;
        ++printed;
        std::printf("%8.0f %12.0f %10.2f %12.0f %12.0f %8.0f\n", seq,
                    json_number(body, obj, obj_end, "acquisitions_per_sec", 0),
                    json_number(body, obj, obj_end, "false_conflict_pct", 0),
                    json_number(body, obj, obj_end, "wait_p99_ns", 0),
                    json_number(body, obj, obj_end, "hold_p99_ns", 0),
                    json_number(body, obj, obj_end, "grants", 0));
        std::fflush(stdout);
      }
    }
    if (count != 0 && printed >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const char* cmd = argv[1];
  const char* path = argv[2];

  if (std::strcmp(cmd, "chrome") == 0) {
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string json = semlock::obs::to_chrome_json(dump);
    if (argc >= 4) {
      std::FILE* f = std::fopen(argv[3], "w");
      if (f == nullptr) {
        std::fprintf(stderr, "semlock-trace: cannot write %s\n", argv[3]);
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "semlock-trace: wrote %s\n", argv[3]);
    } else {
      std::fwrite(json.data(), 1, json.size(), stdout);
    }
    return 0;
  }

  if (std::strcmp(cmd, "report") == 0) {
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string report = semlock::obs::text_report(dump);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }

  if (std::strcmp(cmd, "metrics") == 0) {
    if (std::strncmp(path, "--watch=", 8) == 0) {
      long count = 0;
      long interval_ms = 1000;
      for (int i = 3; i < argc; ++i) {
        if (std::strncmp(argv[i], "--count=", 8) == 0) {
          count = std::atol(argv[i] + 8);
        } else if (std::strncmp(argv[i], "--interval-ms=", 14) == 0) {
          interval_ms = std::atol(argv[i] + 14);
          if (interval_ms < 10) interval_ms = 10;
        } else {
          return usage();
        }
      }
      return watch_metrics(path + 8, count, interval_ms);
    }
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string json = dump.metrics.to_json();
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  if (std::strcmp(cmd, "attribution") == 0) {
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string report = semlock::obs::attribution_report(dump);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }

  if (std::strcmp(cmd, "holds") == 0) {
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string report = semlock::obs::holds_report(dump);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }

  if (std::strcmp(cmd, "critical-path") == 0) {
    semlock::obs::TraceDump dump;
    if (int rc = load_or_fail(path, dump)) return rc;
    const std::string report = semlock::obs::critical_path_report(dump);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }

  if (std::strcmp(cmd, "check") == 0) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "semlock-trace: cannot read %s\n", path);
      return 1;
    }
    std::string error;
    if (!semlock::obs::validate_json(text, &error)) {
      std::fprintf(stderr, "semlock-trace: %s: %s\n", path, error.c_str());
      return 1;
    }
    std::printf("%s: valid JSON (%zu bytes)\n", path, text.size());
    return 0;
  }

  if (std::strcmp(cmd, "promcheck") == 0) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "semlock-trace: cannot read %s\n", path);
      return 1;
    }
    std::string error;
    if (!semlock::obs::validate_prometheus_text(text, &error)) {
      std::fprintf(stderr, "semlock-trace: %s: %s\n", path, error.c_str());
      return 1;
    }
    std::printf("%s: valid Prometheus text exposition (%zu bytes)\n", path,
                text.size());
    return 0;
  }

  return usage();
}
