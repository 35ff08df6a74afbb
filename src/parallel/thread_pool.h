#ifndef TXMOD_PARALLEL_THREAD_POOL_H_
#define TXMOD_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/relational/relation.h"

namespace txmod::parallel {

/// One operator phase's work, laid out for shared-nothing execution.
///
/// `queues[s]` holds shard s's tasks (morsels) in order; the worker whose
/// id is `s mod participants` owns queue s and drains it front-to-back.
/// An idle worker steals from the *back* of other shards' queues, visiting
/// victims in an order drawn from `steal_seed` — the determinism suite
/// sweeps the seed to shake out any dependence on steal interleaving.
///
/// `followers` become runnable only once every queue task has been
/// dequeued. The exchange phases put redistribution *consumers* here: no
/// thread can block consuming before every producer is at least
/// scheduled, which (together with ExchangeQueue's liveness-gated bound)
/// makes the redistribution phases deadlock-free on arbitrarily narrow
/// pools.
struct PhasePlan {
  std::vector<std::deque<std::function<void()>>> queues;
  std::deque<std::function<void()>> followers;
  uint64_t steal_seed = 0;
};

/// Persistent worker pool of the parallel runtime: threads are spawned
/// once and execute operator phases (PhasePlan) for the lifetime of the
/// pool, instead of the throwaway per-phase std::threads the executor
/// used to spawn.
///
/// The caller of Run participates in the phase's work loop, so a phase
/// completes even when every pool thread is busy — which is what makes it
/// safe for a task running *on* the pool to be an indirect cause of
/// another Run: the nested caller drains its own phase. Concurrent Run
/// callers are serialized; tasks of one phase still execute concurrently
/// across all workers.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool threads (the Run caller participates on top of these).
  std::size_t workers() const { return threads_.size(); }

  /// Runs every task in `plan` to completion (queues first, then
  /// followers; see PhasePlan). Tasks must not throw.
  void Run(PhasePlan plan);

  /// Worker count for pools nobody sized explicitly: the
  /// TXMOD_PARALLEL_WORKERS environment override when set to a positive
  /// integer, else std::thread::hardware_concurrency(), floor 1.
  static std::size_t DefaultWorkerCount();

  /// Process-wide pool of DefaultWorkerCount() workers, built on first
  /// use and shared by every executor that does not size its own.
  static ThreadPool& Shared();

 private:
  struct PhaseState;
  void WorkerLoop(std::size_t id);
  static void Participate(PhaseState& st, std::size_t participant);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::shared_ptr<PhaseState> phase_;  // published phase; null when idle
  uint64_t epoch_ = 0;                 // bumped per published phase
  bool stop_ = false;
  std::mutex run_mu_;  // serializes concurrent Run callers
  std::vector<std::thread> threads_;
};

/// Bounded multi-producer single-consumer queue of tuple batches: the
/// inter-shard data path of the redistribution and broadcast phases.
/// Producer tasks route tuples into per-destination batches and Push
/// them here; the destination shard's consumer task Pops until every
/// producer has called ProducerDone.
///
/// Deadlock freedom over strict boundedness: Push blocks at capacity only
/// once the consumer is live (it is running on some thread and will
/// drain); before that the bound is soft, because blocking then could
/// wedge a pool whose every thread is mid-producer-task. Consumers are
/// scheduled as phase followers (see PhasePlan), so by the time any
/// consumer can block in Pop, every producer has been dequeued and is
/// either finished or running on another thread.
class ExchangeQueue {
 public:
  /// `producers` is the number of producer tasks that will each call
  /// ProducerDone exactly once.
  ExchangeQueue(std::size_t capacity_batches, std::size_t producers)
      : capacity_(capacity_batches == 0 ? 1 : capacity_batches),
        producers_(producers) {}

  /// Producer: enqueues one batch (blocking per the bound above).
  void Push(std::vector<Tuple> batch);

  /// Consumer: pops the next batch into `*batch`. Returns false when the
  /// queue is drained and every producer is done. Marks the consumer
  /// live on first call.
  bool Pop(std::vector<Tuple>* batch);

  /// Producer: signals this producer task will push no further batches.
  void ProducerDone();

  /// Batches pushed so far (the phase's real message count).
  uint64_t batches() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<std::vector<Tuple>> q_;
  std::size_t capacity_;
  std::size_t producers_;
  bool consumer_live_ = false;
  uint64_t batches_ = 0;
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_THREAD_POOL_H_
