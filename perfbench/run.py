#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload bulk_enforce --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The first run builds the system and
the benchmark from source into .bench_build/ (CMake, Release). Every run
then:

  1. runs the benchmark's self-tests;
  2. writes the initial state for --seed to a checkpoint (not timed);
  3. with --trace 0, runs a fixed number of count-bound rounds of the
     workload, sized so that they take about --seconds on the host the
     benchmark was tuned on (see ROUND_SECONDS), each with its own set-up,
     its own stop without clean shutdown, its own recovery and the
     correctness gate, and folds the rounds into one value per end-to-end
     metric (Fold in src/measure.h);
     with --trace 1, runs the traced run once and reports the per-layer
     metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it stamps the host: nproc,
CPU model, load average, flush policy and the filesystem under the WAL.
Files are written only under .bench_build/ and .bench_work/; a traced run
leaves its spans in .bench_work/spans/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("served_point", "bulk_enforce", "parallel_enforce")

# Seconds one round of each workload takes on a 4-vCPU Xeon VM. The number
# of rounds is --seconds / ROUND_SECONDS, fixed per workload rather than
# whatever fits in the time, so that a slower build of the program folds
# as many rounds as a faster one (the fold keeps the least-disturbed
# repetition, whose expected value depends on the number of repetitions).
ROUND_SECONDS = {
    "served_point": 2.5,
    "bulk_enforce": 3.9,
    "parallel_enforce": 4.3,
}
MIN_ROUNDS = 3
# A run starts no new round after --seconds x SLOW_HOST_FACTOR, so that it
# ends in time on a host far slower than usual.
SLOW_HOST_FACTOR = 1.25


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both programs; output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(step))
            return False
    return True


def tool(name):
    return os.path.join(BUILD, name)


def run_tool(argv, timeout):
    """Runs a benchmark program; returns its last stdout line as JSON."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (argv[1], proc.returncode))
    return json.loads(lines[-1])


def filesystem_of(path):
    """Type and source of the mount that holds `path`."""
    path = os.path.realpath(path)
    best = ("", "unknown", "unknown")
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            if len(fields) < 3:
                continue
            source, target, fstype = fields[0], fields[1], fields[2]
            target = target.replace("\\040", " ")
            inside = path == target or path.startswith(target.rstrip("/") + "/")
            if inside and len(target) >= len(best[0]):
                best = (target, fstype, source)
    return "%s (%s on %s)" % (best[1], best[2], best[0])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(workdir):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "flush_policy": "sync_commits=on, wal_shards=1 (fsync per commit "
                        "group)",
        "wal_filesystem": filesystem_of(workdir),
    }


def keep_spans(trace_dir, name):
    """Moves the traced run's span files (JSON lines) to .bench_work/spans."""
    dest = os.path.join(WORK, "spans", name)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for entry in sorted(os.listdir(trace_dir)):
        if entry.endswith(".jsonl"):
            shutil.move(os.path.join(trace_dir, entry), dest)
    log("spans written to", dest)


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, int(round(seconds / ROUND_SECONDS[workload])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if subprocess.run([tool("perfbench_selftest")]).returncode != 0:
        log("self-tests failed")
        return 1

    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        checkpoint = os.path.join(workdir, "initial.checkpoint")
        if subprocess.run([tool("perfbench"), "prepare", "--seed",
                           str(args.seed), "--checkpoint",
                           checkpoint]).returncode != 0:
            return 1
        host = stamp(workdir)
        if args.trace:
            result = run_tool(
                [tool("perfbench"), "trace", "--workload", args.workload,
                 "--seed", str(args.seed), "--dir",
                 os.path.join(workdir, "trace"), "--checkpoint", checkpoint],
                timeout=170)
            keep_spans(os.path.join(workdir, "trace"), "%s-seed%d" % (
                args.workload, args.seed))
        else:
            result = run_tool(
                [tool("perfbench"), "run", "--workload", args.workload,
                 "--seed", str(args.seed), "--rounds",
                 str(rounds_for(args.workload, args.seconds)),
                 "--max-seconds", str(args.seconds * SLOW_HOST_FACTOR),
                 "--dir", os.path.join(workdir, "round"),
                 "--checkpoint", checkpoint],
                timeout=170)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(err)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("stamp " + json.dumps(host))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
