#ifndef TXMOD_PARALLEL_EXECUTOR_H_
#define TXMOD_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/eval_context.h"
#include "src/algebra/statement.h"
#include "src/parallel/cost_model.h"
#include "src/parallel/parallel_db.h"
#include "src/parallel/thread_pool.h"

namespace txmod::parallel {

/// True when this host has more than one hardware thread — the default
/// for ParallelOptions::use_threads.
bool DefaultUseThreads();

struct ParallelOptions {
  /// Run each kernel and aggregate phase as one task per node on a worker
  /// pool; the default whenever the host has more than one hardware
  /// thread. false = *simulate* mode: the same tasks run inline on the
  /// caller in node order, and parallelism exists only in the cost
  /// model's simulated makespan. Exchange and broadcast phases route
  /// inline on the caller in both modes, and final states, work counters
  /// and the simulated makespan are identical in both.
  bool use_threads = DefaultUseThreads();
  /// Worker threads for threaded phases. 0 = the process-wide shared
  /// pool (ThreadPool::Shared(), one thread per hardware thread). n > 0 =
  /// a pool of exactly n threads owned by this executor.
  std::size_t num_workers = 0;
};

struct ParallelTxnResult {
  bool committed = false;
  std::string abort_reason;
  ParallelStats stats{1};
  /// Operator-kernel work counters, merged across nodes, plus one
  /// plan-cache miss per statement compiled. Comparable (minus the cache
  /// counters) with the serial engine's TxnResult::stats.
  algebra::EvalStats eval_stats;
};

/// Executes (modified) transactions against a fragmented database,
/// implementing the parallel constraint-enforcement strategies of [7] on
/// a real shared-nothing runtime.
///
/// Statements compile to the same physical plans as serial execution
/// (algebra::PhysicalPlan); this executor owns only the *distribution*
/// decisions — alignment tracking, redistribution, broadcast, cost-model
/// charging — while each fragment's tuples run through the shared
/// fragment-local operator kernel (algebra::ExecuteNodeLocal), so
/// operator semantics cannot diverge between the two engines. Data is
/// read where it lies: intermediate results borrow base fragments,
/// overlay levels, dplus/dminus and temporaries instead of copying them.
///
///  * selections/projections run fragment-local;
///  * the index forms probe the indexes every fragment declares
///    (ParallelDatabase::Partition): an index-lookup join ships only its
///    delta side — to the owner of its key under hash placement on a join
///    key, to every node otherwise — and each node probes its own base
///    fragment; an indexed set operation never moves its membership side
///    — each left tuple probes the owning fragment (the left side
///    partitioned there first if need be) or every fragment, charged to
///    the cost model as the broadcast it stands for;
///  * other equality joins, semijoins, antijoins run fragment-local as
///    *hash joins* when operand partitioning already co-locates matching
///    tuples (the paper's fragmentation on key / foreign-key attributes),
///    and redistribute operands otherwise, with transfers charged to the
///    cost model; predicates without equality conjuncts broadcast the
///    right operand and fall back to nested loops; a join whose right
///    (delta) side is empty is empty, its schema taken without evaluating
///    the other side;
///  * other set operations run fragment-local by hashed membership after
///    whole-tuple alignment;
///  * aggregates compute node-local partials (algebra::AggPartial)
///    merged at a coordinator;
///  * writes are routed to the owning fragment; alarm statements abort
///    the whole transaction if any node reports violations.
///
/// Atomicity by overlay levels: a transaction writes each fragment
/// through one overlay level over it (Relation::MakeOverlay), so
/// dplus/dminus are the level's own inserts and deletes and old(R) is the
/// fragment underneath, untouched until commit. Commit absorbs each level
/// into its fragment (Relation::Absorb, O(|delta|), index nodes moved);
/// abort, or any error, drops the levels.
///
/// Each phase has one code path. A kernel or aggregate phase is one task
/// per node, each writing its own fragment and counters: on the pool in
/// threaded mode (use_threads, the default on multi-core hosts), inline
/// in node order in simulate mode, so node results merge in the same
/// order in both. Redistribution and broadcast route inline on the
/// caller, tallying the same per-(source, destination) counts the cost
/// model charges. ParallelStats reports the measured wall clock of each
/// phase next to its simulated charge.
///
/// Each statement compiles its own expression tree when it runs
/// (PhysicalPlan::Compile), one walk that copies no tuple; the
/// distribution decisions (which key attributes to redistribute on,
/// partition vs broadcast) are read off the compiled plan's join-key
/// metadata.
///
/// Scope note (README, "The parallel runtime"): this is the enforcement substrate for the
/// E5 experiment, not a distributed transaction manager — commit is
/// single-site, there is no 2PC or replication, exactly as the paper's
/// single-transaction enforcement experiments assume.
class ParallelExecutor {
 public:
  ParallelExecutor(ParallelDatabase* db, ParallelOptions options = {});

  /// Runs the transaction with atomicity across fragments: on alarm/abort
  /// no fragment has changed. The result carries the work statistics:
  /// the simulated POOMA makespan plus measured per-phase wall clock.
  Result<ParallelTxnResult> Execute(const algebra::Transaction& txn);

 private:
  class Impl;
  ParallelDatabase* db_;
  ParallelOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;  // when num_workers > 0
  ThreadPool* pool_ = nullptr;              // null = simulate mode
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_EXECUTOR_H_
