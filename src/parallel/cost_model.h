#ifndef TXMOD_PARALLEL_COST_MODEL_H_
#define TXMOD_PARALLEL_COST_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace txmod::parallel {

/// Deterministic cost model of the simulated POOMA multiprocessor [22].
///
/// The simulated makespan is a deterministic function of the data alone,
/// the same whether the executor runs its per-node tasks on a pool or
/// inline (simulate mode), so the scaling experiments keep a
/// machine-independent series. Every parallel operator phase records
/// per-node local work and inter-node transfers, and the simulated
/// makespan is
///
///   Σ_phases ( max_node(local_tuples(node)) · per_tuple_local
///              + transferred_tuples/num_nodes · per_tuple_comm
///              + messages · per_message )
///
/// The constants are calibrated loosely on late-80s hardware (the POOMA
/// nodes were 68020-class with a custom interconnect) — their absolute
/// values are irrelevant to the experiment; the *ratio* of communication
/// to local work is what shapes the speedup curves.
struct CostModel {
  double per_tuple_local_us = 50.0;  // local processing per tuple
  double per_tuple_comm_us = 150.0;  // transfer cost per tuple
  double per_message_us = 1000.0;    // per node-to-node message setup
};

/// Work accounting for one parallel execution: the simulated POOMA
/// makespan (unchanged math, pinned by the cost tests), the measured
/// wall clock of its phases, and exchange batches.
class ParallelStats {
 public:
  explicit ParallelStats(int num_nodes = 1)
      : num_nodes_(num_nodes) {}

  /// Records one operator phase: `local` holds tuples processed per node;
  /// `transferred` tuples crossed the interconnect in `messages`
  /// messages; the phase took `wall_us` on this host (0 for the
  /// charge-only phases that stand for work nobody performs: a probe
  /// broadcast, an aggregate merge). The simulated charge depends only on
  /// the tuple counts, never on the real timing.
  void AddPhaseTimed(const std::vector<uint64_t>& local, uint64_t transferred,
                     uint64_t messages, const CostModel& model,
                     double wall_us) {
    uint64_t max_local = 0;
    for (uint64_t l : local) max_local = std::max(max_local, l);
    double sim = static_cast<double>(max_local) * model.per_tuple_local_us;
    sim += static_cast<double>(transferred) /
           static_cast<double>(num_nodes_) * model.per_tuple_comm_us;
    sim += static_cast<double>(messages) * model.per_message_us;
    simulated_us_ += sim;
    measured_us_ += wall_us;
    tuples_transferred_ += transferred;
    messages_ += messages;
    ++phases_;
  }

  /// Exchange batches: one per (source, destination) pair of nodes that
  /// an exchange or broadcast phase moved tuples between. Deterministic,
  /// and the same in threaded and simulate mode. (Until routing moved
  /// inline, threaded runs counted the 256-tuple batches pushed through
  /// exchange queues instead, and simulate mode counted none; perfbench's
  /// parallel.exchange_batches_per_txn reads this count.)
  void AddExchangeBatches(uint64_t batches) { exchange_batches_ += batches; }

  double simulated_us() const { return simulated_us_; }
  /// Measured wall-clock total across phases.
  double measured_us() const { return measured_us_; }
  uint64_t tuples_transferred() const { return tuples_transferred_; }
  uint64_t messages() const { return messages_; }
  uint64_t exchange_batches() const { return exchange_batches_; }
  int phases() const { return phases_; }
  int num_nodes() const { return num_nodes_; }

 private:
  int num_nodes_;
  double simulated_us_ = 0;
  double measured_us_ = 0;
  uint64_t tuples_transferred_ = 0;
  uint64_t messages_ = 0;
  uint64_t exchange_batches_ = 0;
  int phases_ = 0;
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_COST_MODEL_H_
