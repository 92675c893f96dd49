#!/bin/sh
# Runs the kernel micro-bench suite and the serving benches, recording their
# JSON reports so the perf trajectory is tracked in-repo across PRs (see
# BENCH_kernels.json and BENCH_serve.json). BENCH_serve.json holds a
# `reports` array with one entry per transport: the in-process
# batcher-direct rows (serve_bench, `"transport": "in_process"`) and the
# TCP sustained-load rows (load_bench, `"transport": "tcp"` with the
# headline `sustained_qps_at_slo` under `slo_p99_ms`).
#
# Provenance guard: both binaries self-report whether THIS code was compiled
# with NDEBUG ("adpa_build_type" in the google-benchmark context,
# "build_type" in serve_bench's report). Numbers from a debug or sanitizer
# build are refused — they would silently poison the tracked trajectory —
# unless --allow-debug is given (for local experiments only; never commit
# such files). The stock "library_build_type" key is NOT consulted: it only
# describes the installed google-benchmark library.
#
# Rows named threads:N are kept only when the recording host has at least N
# CPUs; the rest are dropped with a note on stderr.
#
# usage: tools/bench_to_json.sh [--allow-debug] [build-dir] [out-file] [serve-out-file]
set -eu

ALLOW_DEBUG=0
if [ "${1:-}" = "--allow-debug" ]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-BENCH_kernels.json}"
SERVE_OUT_FILE="${3:-BENCH_serve.json}"
BENCH_BIN="$BUILD_DIR/bench/bench_kernels"
SERVE_BIN="$BUILD_DIR/bench/serve_bench"
LOAD_BIN="$BUILD_DIR/bench/load_bench"

# check_release <file> <json-key>: refuse a report whose self-declared build
# type is not "release" (unless --allow-debug).
check_release() {
  if grep -q "\"$2\": \"release\"" "$1"; then
    return 0
  fi
  if [ "$ALLOW_DEBUG" = 1 ]; then
    echo "warning: $1 comes from a non-release build (kept: --allow-debug)" >&2
    return 0
  fi
  echo "error: $1 comes from a non-release build ($2 != \"release\");" >&2
  echo "       rebuild with the default Release preset, or pass --allow-debug" >&2
  echo "       to keep the numbers for local comparison (never commit them)" >&2
  rm -f "$1"
  exit 1
}

if [ ! -x "$BENCH_BIN" ]; then
  echo "error: $BENCH_BIN not built (run: cmake --build $BUILD_DIR)" >&2
  exit 1
fi

"$BENCH_BIN" \
  --benchmark_filter='BM_(MatMulSeedKernel512|MatMulBlocked512|MatMulDispatch512|MatMulTransposeA|MatMulTransposeB|SpMM|DenseMatMul|DpPropagation|HopChainUnfused|HopChainFused|AdpaTrainEpoch|AmudAnalysis|SelectPatterns)' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$OUT_FILE"

check_release "$OUT_FILE" "adpa_build_type"

# A threads:N row recorded on fewer than N CPUs measures time slicing, not
# parallel speedup: drop it from the report, saying so on stderr.
python3 - "$OUT_FILE" <<'PY'
import json
import re
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
cpus = report["context"]["num_cpus"]
kept = []
for row in report["benchmarks"]:
    match = re.search(r"threads:(\d+)", row["name"])
    if match and int(match.group(1)) > cpus:
        print(f"note: dropped {row['name']}: recorded on {cpus} CPUs",
              file=sys.stderr)
        continue
    kept.append(row)
report["benchmarks"] = kept
with open(path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
PY
echo "wrote $OUT_FILE"

for bin in "$SERVE_BIN" "$LOAD_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$SERVE_BIN" > "$WORK/in_process.json"
check_release "$WORK/in_process.json" "build_type"
grep -q '"transport": "in_process"' "$WORK/in_process.json" || {
  echo "error: serve_bench report lacks the transport key" >&2
  exit 1
}

"$LOAD_BIN" > "$WORK/tcp.json"
check_release "$WORK/tcp.json" "build_type"
for key in '"transport": "tcp"' '"slo_p99_ms"' '"sustained_qps_at_slo"'; do
  grep -q "$key" "$WORK/tcp.json" || {
    echo "error: load_bench report lacks the $key key" >&2
    exit 1
  }
done

{
  echo '{'
  echo '"reports": ['
  cat "$WORK/in_process.json"
  echo ','
  cat "$WORK/tcp.json"
  echo ']'
  echo '}'
} > "$SERVE_OUT_FILE"
echo "wrote $SERVE_OUT_FILE"
