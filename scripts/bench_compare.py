#!/usr/bin/env python3
"""Compares the deterministic counters of two bench_parallel JSON reports.

    scripts/bench_compare.py BENCH_parallel.json build/bench-results/bench_parallel.json

The simulated POOMA makespan and the work counters behind it are functions
of the data alone (src/parallel/cost_model.h): they do not depend on the
host, the build or the run length. For every benchmark, the script
compares these counters between the baseline (first argument) and the new
report (second) and exits 1 on any difference, or on a benchmark that only
one of the two reports has. Timings are not compared.
"""

import json
import sys

EXACT_COUNTERS = ("nodes", "total_sim_ms", "check_sim_ms", "transferred")


def load(path):
    with open(path) as f:
        report = json.load(f)
    return {b["name"]: b for b in report["benchmarks"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, result = load(argv[1]), load(argv[2])
    problems = []
    for name in sorted(baseline.keys() - result.keys()):
        problems.append(f"{name}: only in {argv[1]}")
    for name in sorted(result.keys() - baseline.keys()):
        problems.append(f"{name}: only in {argv[2]}")
    for name in sorted(baseline.keys() & result.keys()):
        for counter in EXACT_COUNTERS:
            old = baseline[name].get(counter)
            new = result[name].get(counter)
            if old != new:
                problems.append(f"{name}: {counter} {old} -> {new}")
    for problem in problems:
        print(problem)
    compared = len(baseline.keys() & result.keys())
    print(f"{compared} benchmarks compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
