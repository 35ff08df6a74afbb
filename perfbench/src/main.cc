// perfbench: the benchmark's C++ program. run.py builds it and calls it;
// see README.md beside it.
//
//   perfbench prepare --seed N --checkpoint PATH
//       writes the initial state for seed N to a checkpoint
//   perfbench run     --workload W --seed N --rounds R [--max-seconds S]
//                     --dir D --checkpoint PATH
//       the untraced run of R rounds (no new round after S seconds);
//       prints the result line
//   perfbench trace   --workload W --seed N --dir D --checkpoint PATH
//       the traced run; prints one JSON line of per-layer metrics
//   perfbench system  ...
//       the system under test, started by each round of `run`

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench prepare|run|trace --workload W --seed N "
               "[--rounds R] [--max-seconds S] --dir D --checkpoint PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--rounds") {
      args.rounds = std::atoi(value);
    } else if (flag == "--max-seconds") {
      args.max_seconds = std::atof(value);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--checkpoint") {
      args.checkpoint = value;
    } else if (flag == "--notify-fd") {
      args.notify_fd = std::atoi(value);
    } else if (flag == "--parent-pid") {
      args.parent_pid = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (mode == "prepare") return perfbench::Prepare(args);
  if (!perfbench::KnownWorkload(args.workload)) return Usage();
  if (mode == "run") return perfbench::RunRounds(args);
  if (mode == "trace") return perfbench::RunTrace(args);
  if (mode == "system") return perfbench::RunSystem(args);
  return Usage();
}
