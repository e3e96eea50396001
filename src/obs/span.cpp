// Span builders: the lock-wait, transaction and queue-wait spans the lock
// path, ~Transaction() and the server record. The ring they land in and its
// registry are the event layer's (record_span() and snapshot_spans() live
// in trace.cpp).
#include "obs/span.h"

#include "obs/trace.h"

namespace semlock::obs {

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kLockWait:
      return "lock_wait";
    case SpanKind::kExec:
      return "exec";
    case SpanKind::kCommit:
      return "commit";
  }
  return "unknown";
}

void record_lock_wait_span(const void* instance, int mode,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           const BlockerInfo& b) {
  Span s;
  s.kind = SpanKind::kLockWait;
  s.start_ns = start_ns;
  s.end_ns = end_ns > start_ns ? end_ns : start_ns;
  s.txn = current_owner_id();
  s.instance = reinterpret_cast<std::uint64_t>(instance);
  s.mode = mode;
  s.blocker_mode = b.mode;
  s.attr_class = b.attr_class;
  s.blocker = b.owner;
  s.blocker_site = b.site;
  s.capture_ns = b.capture_ns;
  record_span(s);
}

void record_txn_spans(std::uint64_t exec_start_ns,
                      std::uint64_t commit_start_ns, std::uint64_t end_ns,
                      int released) {
  const std::uint64_t txn = current_owner_id();
  Span exec;
  exec.kind = SpanKind::kExec;
  exec.start_ns = exec_start_ns;
  exec.end_ns = commit_start_ns > exec_start_ns ? commit_start_ns
                                                : exec_start_ns;
  exec.txn = txn;
  exec.mode = released;
  record_span(exec);
  Span commit;
  commit.kind = SpanKind::kCommit;
  commit.start_ns = exec.end_ns;
  commit.end_ns = end_ns > exec.end_ns ? end_ns : exec.end_ns;
  commit.txn = txn;
  commit.mode = released;
  record_span(commit);
}

void record_queue_wait_span(std::uint64_t txn, std::uint64_t arrival_ns,
                            std::uint64_t dequeue_ns) {
  Span s;
  s.kind = SpanKind::kQueueWait;
  s.start_ns = arrival_ns < dequeue_ns ? arrival_ns : dequeue_ns;
  s.end_ns = dequeue_ns;
  s.txn = txn;
  record_span(s);
}

std::string format_owner(std::uint64_t owner) {
  if (owner == 0) return "?";
  if ((owner & 0x8000000000000000ull) != 0) {
    return "thread " + std::to_string(owner & 0x7FFFFFFFFFFFFFFFull);
  }
  return "txn " + std::to_string(owner);
}

}  // namespace semlock::obs
