#!/usr/bin/env bash
# Regenerates the BENCH_*.json perf-trajectory artifacts at the repo root.
#
# Usage: tools/run_benches.sh [build-dir]
#
# Environment:
#   SEMLOCK_BENCH_SCALE   workload multiplier (default 1; CI smoke uses 0.05)
#
# The JSON-emitting benches write into the current directory, so run this
# from the repo root when refreshing the committed artifacts.
set -euo pipefail

BUILD_DIR="${1:-build}"

# Stamp the artifacts with the commit they were generated from (falls back
# to "unknown" inside write_bench_json when unset).
if [[ -z "${SEMLOCK_GIT_SHA:-}" ]]; then
  SEMLOCK_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || true)"
fi
export SEMLOCK_GIT_SHA

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

# Every artifact stamps hardware_threads; make the degenerate case impossible
# to miss in the console too. With one hardware thread all scaling series
# collapse and only single-thread rows mean anything — the run stamp in the
# artifacts carries the refusal (scaling_claims) so CI can reject any reading
# of single-core numbers as the paper's scaling figures.
HW_THREADS="$(nproc 2>/dev/null || echo 1)"
if [[ "${HW_THREADS}" -eq 1 ]]; then
  echo "##############################################################" >&2
  echo "## WARNING: only 1 hardware thread available.               ##" >&2
  echo "## Multi-thread rows in these artifacts measure             ##" >&2
  echo "## OVERSUBSCRIPTION, not scaling. Do not read them as the   ##" >&2
  echo "## paper's figures; see EXPERIMENTS.md section 0.           ##" >&2
  echo "##############################################################" >&2
  export SEMLOCK_SCALING_CLAIMS="refused-single-core"
else
  export SEMLOCK_SCALING_CLAIMS="multi-core"
fi

echo "=== bench_fig21_computeifabsent -> BENCH_fig21.json ==="
"${BUILD_DIR}/bench/bench_fig21_computeifabsent"

echo "=== bench_contention -> BENCH_contention.json ==="
"${BUILD_DIR}/bench/bench_contention"

echo "=== bench_oversubscription -> BENCH_oversubscription.json ==="
"${BUILD_DIR}/bench/bench_oversubscription"

echo "=== bench_conflict_probability -> BENCH_conflict_probability.json ==="
"${BUILD_DIR}/bench/bench_conflict_probability"

echo "=== bench_server -> BENCH_server.json ==="
"${BUILD_DIR}/bench/bench_server"

echo "=== bench_fairness -> BENCH_fairness.json ==="
"${BUILD_DIR}/bench/bench_fairness"

echo "=== bench_footprint -> BENCH_footprint.json ==="
"${BUILD_DIR}/bench/bench_footprint"

DONE="BENCH_fig21.json BENCH_contention.json BENCH_oversubscription.json \
BENCH_conflict_probability.json BENCH_server.json BENCH_fairness.json \
BENCH_footprint.json"

# Attribution sweep: built only when the observability layer is in
# (SEMLOCK_OBS=ON, the default).
if [[ -x "${BUILD_DIR}/bench/bench_attribution_sweep" ]]; then
  echo "=== bench_attribution_sweep -> BENCH_attribution.json ==="
  "${BUILD_DIR}/bench/bench_attribution_sweep"
  DONE="${DONE} BENCH_attribution.json"
fi

# Trace-recording overhead: same SEMLOCK_OBS gate as the attribution sweep.
if [[ -x "${BUILD_DIR}/bench/bench_trace_overhead" ]]; then
  echo "=== bench_trace_overhead -> BENCH_trace_overhead.json ==="
  "${BUILD_DIR}/bench/bench_trace_overhead"
  DONE="${DONE} BENCH_trace_overhead.json"
fi

echo "done: ${DONE}"
