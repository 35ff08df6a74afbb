#!/usr/bin/env bash
# Benchmark runner: builds Release and runs the bench binaries with JSON
# reports (the harness's --json flag; see bench/workload.h).
#
#   scripts/bench.sh                  run bench_table1 + bench_modification
#                                     + bench_parallel + bench_concurrency
#                                     + bench_server, JSON under
#                                     build/bench-results/
#   scripts/bench.sh --all            run every bench_* binary
#   scripts/bench.sh --smoke          one tiny pass of every bench_* binary
#                                     (CI bit-rot gate; ~seconds per binary)
#   scripts/bench.sh --update-baseline
#                                     also refresh BENCH_table1.json,
#                                     BENCH_parallel.json,
#                                     BENCH_concurrency.json and
#                                     BENCH_server.json at the repo
#                                     root from this machine's run
#
# The checked-in BENCH_table1.json (Table 1 workloads, plus E8's
# BM_AdHocRepeatedShape: an ad-hoc transaction that compiles its
# statements when it runs), BENCH_parallel.json (E5 scaling +
# the join-heavy enforcement series) and BENCH_concurrency.json
# (BM_ConcurrentCommit thread/conflict sweeps, BM_GroupCommitFsync
# group-commit batching factors) and BENCH_server.json (the
# bench_server network load driver: commits/sec and p50/p99 request
# latency over loopback TCP, durability-verified) are the recorded
# baselines;
# their "context" blocks name the machine and compiler they were
# captured on — read thread-scaling numbers against that machine's core
# count, not in the absolute.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=default
update_baseline=0
for arg in "$@"; do
  case "$arg" in
    --all) mode=all ;;
    --smoke) mode=smoke ;;
    --update-baseline) update_baseline=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [ "$update_baseline" = 1 ] && [ "$mode" = smoke ]; then
  echo "refusing to refresh BENCH_table1.json from a --smoke run" >&2
  echo "(smoke timings are abbreviated; rerun without --smoke)" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 2)
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"

if ! ls build/bench/bench_* >/dev/null 2>&1; then
  echo "no bench binaries (Google Benchmark not installed?)" >&2
  exit 1
fi

outdir=build/bench-results
mkdir -p "$outdir"

# Stamps hardware metadata into a bench JSON's "context" block: core
# count, CPU model, and the 1-minute load average at capture time.
# Thread-scaling numbers are meaningless without the first two, and the
# load average flags runs taken on a busy machine (treat those with
# suspicion). Every JSON written by this script carries the stamp —
# including the checked-in BENCH_*.json baselines on --update-baseline.
stamp_hardware() {
  local json="$1"
  python3 - "$json" <<'PY'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

model = "unknown"
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

report.setdefault("context", {})["hardware"] = {
    "nproc": os.cpu_count() or 0,
    "cpu_model": model,
    "load_avg_1m": round(os.getloadavg()[0], 2),
}
with open(path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
PY
}

run_one() {
  local bin="$1"; shift
  local name
  name=$(basename "$bin")
  echo "== $name =="
  "$bin" --json="$outdir/$name.json" "$@"
  stamp_hardware "$outdir/$name.json"
}

case "$mode" in
  smoke)
    # One abbreviated pass per binary: enough to catch crashes, stale
    # APIs, and bit-rotted workloads without burning CI minutes.
    for bin in build/bench/bench_*; do
      run_one "$bin" --benchmark_min_time=0.01
    done
    ;;
  all)
    for bin in build/bench/bench_*; do
      run_one "$bin"
    done
    ;;
  default)
    run_one build/bench/bench_table1
    run_one build/bench/bench_modification
    run_one build/bench/bench_parallel
    run_one build/bench/bench_concurrency
    # The network load driver verifies durability (recover + check every
    # acked commit) on top of recording throughput/latency.
    run_one build/bench/bench_server --verify
    ;;
esac

if [ "$update_baseline" = 1 ]; then
  cp "$outdir/bench_table1.json" BENCH_table1.json
  cp "$outdir/bench_parallel.json" BENCH_parallel.json
  cp "$outdir/bench_concurrency.json" BENCH_concurrency.json
  cp "$outdir/bench_server.json" BENCH_server.json
  echo "refreshed BENCH_table1.json, BENCH_parallel.json," \
       "BENCH_concurrency.json and BENCH_server.json"
fi

echo "JSON reports in $outdir/"
