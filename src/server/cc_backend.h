// Pluggable concurrency control for the semlock-server transaction engine.
//
// All five modes execute the IDENTICAL logical schema — a fixed-size typed
// store of int64 records (bank accounts, a kv table for ComputeIfAbsent,
// and a graph kept as edge-presence plus degree tables) — and differ only in
// how atomic sections synchronize, and so in where an account's balance
// lives (beside its lock under SEMANTIC and TWO_PL, docs/SERVER.md §2):
//
//   SEMANTIC     the paper's mechanism: per-ADT-instance SemanticLocks with
//                keyed (alpha-striped) modes; commuting transfers and
//                different-key kv/graph sections run in parallel.
//   SERIAL       no synchronization at all; the server clamps execution to a
//                single worker. The lower bound the paper's figures anchor
//                on, and the reference for differential checks.
//   GLOBAL_LOCK  one process-wide mutex per atomic section (src/baseline).
//   TWO_PL       one standard lock per ADT instance, acquired in address
//                order (src/baseline/two_pl.h): per-account locks, one lock
//                for the whole kv map, three for the graph's containers.
//   OCC          versioned-cell optimistic execution with commit-time
//                validation and retry (src/baseline/occ.h).
//
// Checked mode: constructed with a HistoryRecorder, every backend records
// the standard operations of each committed transaction, and the DCT
// harness's conflict-serializability oracle (semlock/history.h) is run over
// the merged history after drain. OCC records only at commit, so aborted
// attempts — which are retried, never observed — cannot create precedence
// edges.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "semlock/history.h"
#include "server/request.h"

namespace semlock::server {

enum class CCMode : std::uint8_t {
  kSemantic = 0,
  kSerial,
  kGlobalLock,
  kTwoPL,
  kOcc,
};
inline constexpr int kNumCCModes = 5;

const char* cc_mode_name(CCMode m);
// Strict parse of a mode name ("semantic", "serial", "global", "2pl",
// "occ"); nullopt on anything else.
std::optional<CCMode> parse_cc_mode(std::string_view text);

// Key-space shape of the shared store. All backends derive their record
// layout from this, so the same Request stream addresses the same logical
// state in every mode.
struct StoreConfig {
  std::int64_t accounts = 512;
  std::int64_t kv_keys = 1 << 16;
  std::int64_t nodes = 256;            // graph: edge cells = nodes * nodes
  std::int64_t initial_balance = 1000;
  int abstract_values = 64;            // phi range for the SEMANTIC mode
};

class CCBackend {
 public:
  virtual ~CCBackend() = default;

  // Executes one request to completion, including any internal aborts and
  // retries. Thread-safe for every mode except SERIAL, which documents a
  // single-executor precondition (the server enforces it).
  virtual ExecResult execute(const Request& req) = 0;

  virtual CCMode mode() const = 0;
  const char* name() const { return cc_mode_name(mode()); }

  // Quiescent-state observables for differential and drain tests (call only
  // with no execute() in flight).
  virtual std::int64_t balance_total() const = 0;    // conservation invariant
  virtual std::int64_t kv_inserted() const = 0;      // # non-absent kv cells
  virtual std::int64_t edges_present() const = 0;    // # set edge cells
  // FNV-style digest over the full store, the balances in account order and
  // then the kv and graph cells, for exact cross-mode comparison of final
  // states.
  virtual std::uint64_t digest() const = 0;
};

// `recorder`, when non-null, switches the backend into checked mode.
std::unique_ptr<CCBackend> make_cc_backend(CCMode mode, const StoreConfig& cfg,
                                           HistoryRecorder* recorder = nullptr);

}  // namespace semlock::server
