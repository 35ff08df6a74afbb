// The three workloads and the processes that run them.
//
//   served_point      a closed loop over loopback TCP: nproc/2 connections,
//                     one request outstanding each, against a server in its
//                     own process (one event-loop worker per connection).
//   bulk_enforce      one in-process caller on TxnManager::Run, submitting
//                     the paper's Section 7 batches.
//   parallel_enforce  the same batches through IntegritySubsystem::Modify
//                     and ParallelExecutor::Execute on 4 round-robin
//                     partitions; the pool has nproc/2-1 workers plus the
//                     caller.
//
// All three use the default durability (WAL on, sync_commits on, one WAL
// shard) and start from the paper-scale state written to a checkpoint
// before any timing starts.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Working directory of this round or pass; created if absent.
  std::string dir;
  /// Checkpoint of the initial state (written by Prepare).
  std::string checkpoint;
  /// RunRounds: how many rounds the run folds, and the time after which it
  /// starts no further round (after at least three), so that a run on a
  /// host far slower than usual still ends in time.
  int rounds = 1;
  double max_seconds = 1e9;
  /// System process only: the pipe it reports readiness on, and the
  /// coordinator that started it.
  int notify_fd = -1;
  int parent_pid = 0;
};

bool KnownWorkload(const std::string& name);

/// Writes the checkpoint of the initial state for args.seed.
int Prepare(const Args& args);

/// The untraced run: args.rounds count-bound rounds, each with its own
/// set-up, transactions, stop without clean shutdown, recovery and gate,
/// folded by Fold (measure.h). Prints the result line.
int RunRounds(const Args& args);

/// The system under test, started by each round in its own process.
int RunSystem(const Args& args);

/// The traced run: prints one JSON line of per-layer metrics.
int RunTrace(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
