#include "server/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "obs/window.h"
#include "runtime/stall_watchdog.h"
#include "util/env.h"

namespace semlock::server {

// --- the stats provider ------------------------------------------------------

namespace {

std::mutex g_provider_mu;
AdminStatsProvider g_provider;

HealthSample sample_provider() {
  std::lock_guard<std::mutex> g(g_provider_mu);
  if (!g_provider) return HealthSample{};
  return g_provider();
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

void set_admin_stats_provider(AdminStatsProvider provider) {
  std::lock_guard<std::mutex> g(g_provider_mu);
  g_provider = std::move(provider);
}

void clear_admin_stats_provider() {
  std::lock_guard<std::mutex> g(g_provider_mu);
  g_provider = nullptr;
}

// --- admission state ---------------------------------------------------------

int admission_state(const HealthSample& s) {
  if (s.shed > 0) return 2;
  if (s.queue_capacity > 0 && s.queue_depth_max * 2 >= s.queue_capacity) {
    return 1;
  }
  return 0;
}

const char* admission_state_name(int state) {
  switch (state) {
    case 0: return "ok";
    case 1: return "saturated";
    case 2: return "overloaded";
    default: return "unknown";
  }
}

// --- routing -----------------------------------------------------------------

namespace {

std::string metrics_body() {
  // The lock-runtime families from the obs layer, then the server family
  // appended with the same builder so the page stays one valid exposition.
  std::string out = obs::render_prometheus(obs::collect_metrics(),
                                           obs::event_count_totals(),
                                           obs::global_windows().snapshot());
  const HealthSample s = sample_provider();
  obs::PromBuilder b;

  b.help("semlock_server_offered_total", "Requests offered to the server");
  b.type("semlock_server_offered_total", "counter");
  b.value_u64("semlock_server_offered_total", {}, s.offered);

  b.help("semlock_server_completed_total",
         "Requests completed, by concurrency-control backend");
  b.type("semlock_server_completed_total", "counter");
  b.value_u64("semlock_server_completed_total",
              {{"cc_backend", s.cc_backend}}, s.completed);

  b.help("semlock_server_shed_total",
         "Requests shed by admission control (full shard queue)");
  b.type("semlock_server_shed_total", "counter");
  b.value_u64("semlock_server_shed_total", {}, s.shed);

  b.help("semlock_server_queue_depth", "Current queue depth, by shard");
  b.type("semlock_server_queue_depth", "gauge");
  for (std::size_t q = 0; q < s.queue_depths.size(); ++q) {
    b.value_u64("semlock_server_queue_depth", {{"shard", std::to_string(q)}},
                s.queue_depths[q]);
  }

  b.help("semlock_server_queue_high_watermark",
         "Lifetime max queue depth across shards");
  b.type("semlock_server_queue_high_watermark", "gauge");
  b.value_u64("semlock_server_queue_high_watermark", {},
              s.queue_high_watermark);

  b.help("semlock_server_admission_state",
         "0 = ok, 1 = saturated, 2 = overloaded (sticky once shedding)");
  b.type("semlock_server_admission_state", "gauge");
  b.value_u64("semlock_server_admission_state", {},
              static_cast<std::uint64_t>(admission_state(s)));

  b.help("semlock_watchdog_stalls_total",
         "Stall reports from every watchdog since process start");
  b.type("semlock_watchdog_stalls_total", "counter");
  b.value_u64("semlock_watchdog_stalls_total", {},
              runtime::global_stalls_reported());

  out += b.text();
  return out;
}

std::string metrics_json_body() {
  std::string out = "{\"schema\": \"semlock-metrics-live-v1\", \"windowed\": ";
  out += obs::global_windows().to_json();
  out += ", \"cumulative\": ";
  out += obs::collect_metrics().to_json();
  out += '}';
  return out;
}

std::string healthz_body(int* status) {
  const HealthSample s = sample_provider();
  const int state = admission_state(s);
  *status = state == 2 ? 503 : 200;
  std::string out = "{\"status\": \"";
  out += admission_state_name(state);
  out += "\", \"admission_state\": ";
  append_u64(out, static_cast<std::uint64_t>(state));
  out += ", \"server_running\": ";
  out += s.server_running ? "true" : "false";
  out += ", \"cc_backend\": \"";
  out += s.cc_backend;
  out += "\", \"workers\": ";
  append_u64(out, static_cast<std::uint64_t>(s.workers));
  out += ", \"shards\": ";
  append_u64(out, static_cast<std::uint64_t>(s.shards));
  out += ", \"offered\": ";
  append_u64(out, s.offered);
  out += ", \"completed\": ";
  append_u64(out, s.completed);
  out += ", \"shed\": ";
  append_u64(out, s.shed);
  out += ", \"queue_capacity\": ";
  append_u64(out, s.queue_capacity);
  out += ", \"queue_depth_max\": ";
  append_u64(out, s.queue_depth_max);
  out += ", \"queue_depth_total\": ";
  append_u64(out, s.queue_depth_total);
  out += ", \"queue_high_watermark\": ";
  append_u64(out, s.queue_high_watermark);
  out += ", \"watchdog_stalls\": ";
  append_u64(out, runtime::global_stalls_reported());
  out += ", \"window_rotations\": ";
  append_u64(out, obs::global_windows().rotations());
  out += '}';
  return out;
}

}  // namespace

std::string AdminEndpoint::handle(const std::string& target, int* status,
                                  std::string* content_type) {
  *status = 200;
  if (target == "/metrics") {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return metrics_body();
  }
  if (target == "/metrics.json") {
    *content_type = "application/json";
    return metrics_json_body();
  }
  if (target == "/healthz") {
    *content_type = "application/json";
    return healthz_body(status);
  }
  if (target == "/waitgraph") {
    *content_type = "application/json";
    return obs::waitgraph_json();
  }
  if (target == "/waitgraph.dot") {
    *content_type = "text/plain; charset=utf-8";
    return obs::waitgraph_dot();
  }
  *status = 404;
  *content_type = "text/plain; charset=utf-8";
  return "not found\n";
}

// --- the socket loop ---------------------------------------------------------

AdminEndpoint::AdminEndpoint(std::uint16_t port) : port_(port) {}

AdminEndpoint::~AdminEndpoint() { stop(); }

bool AdminEndpoint::start(std::string* error) {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) *error = "bind/listen: " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void AdminEndpoint::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblocks the accept(): shutdown makes the blocked accept return with
  // an error, and the loop sees running_ == false.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminEndpoint::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() from stop(), or a real error either way the loop
      // re-checks running_.
      continue;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0) {
      ::close(fd);
      continue;
    }
    buf[n] = '\0';

    // Request line: METHOD SP target SP version. Anything unparsable or
    // non-GET gets a 400/405 — one scraper, no need for more.
    std::string target;
    bool is_get = false;
    {
      const char* sp1 = std::strchr(buf, ' ');
      const char* eol = std::strstr(buf, "\r\n");
      if (sp1 != nullptr && eol != nullptr && sp1 < eol) {
        const char* sp2 =
            static_cast<const char*>(memchr(sp1 + 1, ' ',
                                            static_cast<std::size_t>(
                                                eol - sp1 - 1)));
        if (sp2 != nullptr) {
          is_get = std::strncmp(buf, "GET ", 4) == 0;
          target.assign(sp1 + 1, sp2);
        }
      }
    }

    int status = 400;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body = "bad request\n";
    if (!target.empty()) {
      if (is_get) {
        body = handle(target, &status, &content_type);
      } else {
        status = 405;
        body = "method not allowed\n";
      }
    }

    const char* reason = status == 200   ? "OK"
                         : status == 404 ? "Not Found"
                         : status == 405 ? "Method Not Allowed"
                         : status == 503 ? "Service Unavailable"
                                         : "Bad Request";
    std::string resp = "HTTP/1.0 ";
    char code[8];
    std::snprintf(code, sizeof(code), "%d ", status);
    resp += code;
    resp += reason;
    resp += "\r\nContent-Type: ";
    resp += content_type;
    resp += "\r\nContent-Length: ";
    append_u64(resp, body.size());
    resp += "\r\nConnection: close\r\n\r\n";
    resp += body;

    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t sent =
          ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) break;
      off += static_cast<std::size_t>(sent);
    }
    ::close(fd);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- env wiring --------------------------------------------------------------

int metrics_port_from_env_text(const char* text) {
  return static_cast<int>(
      util::env_int_in_range("SEMLOCK_METRICS_PORT", text, 1, 65535,
                             "metrics endpoint disabled")
          .value_or(0));
}

std::unique_ptr<AdminEndpoint> start_admin_endpoint_from_env() {
  const int port = metrics_port_from_env_text(
      std::getenv("SEMLOCK_METRICS_PORT"));
  if (port == 0) return nullptr;
  obs::start_window_collector_from_env();
  auto ep = std::make_unique<AdminEndpoint>(static_cast<std::uint16_t>(port));
  std::string error;
  if (!ep->start(&error)) {
    std::fprintf(stderr,
                 "[semlock] SEMLOCK_METRICS_PORT=%d: endpoint not started "
                 "(%s)\n",
                 port, error.c_str());
    return nullptr;
  }
  std::fprintf(stderr, "[semlock] metrics endpoint on 127.0.0.1:%u\n",
               static_cast<unsigned>(ep->port()));
  return ep;
}

}  // namespace semlock::server
