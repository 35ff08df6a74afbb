#!/usr/bin/env bash
# Tier-1 verify plus the sanitizer gate, exactly as CI runs them:
#   Release build + ctest, then Debug+ASan/UBSan build + ctest.
#
#   --faults   additionally run the deep fault-injection campaign
#              (randomized storage-fault schedules + crash/recovery
#              oracle) at CI-stress depth, with the suites of the
#              checkpoint loader and the value decoder that recovery
#              reads through. Slow; off by default.
set -euo pipefail
cd "$(dirname "$0")/.."

run_faults=0
for arg in "$@"; do
  case "$arg" in
    --faults) run_faults=1 ;;
    *)
      echo "usage: $0 [--faults]" >&2
      exit 2
      ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 2)

echo "== Release =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== Debug + ASan/UBSan =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DENABLE_SANITIZERS=ON
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

if [[ "$run_faults" -eq 1 ]]; then
  echo "== Fault-injection campaign (deep sweep) =="
  TXMOD_FAULT_ITERATIONS="${TXMOD_FAULT_ITERATIONS:-200}" \
    ctest --test-dir build --output-on-failure \
          -R "fault_campaign_test|vfs_test|recovery_test|persist_test|value_codec_test"
fi

echo "All checks passed."
