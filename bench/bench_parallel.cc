// E5 — parallel enforcement scaling on the simulated POOMA machine
// ([7, 9], cited by Section 7; the 8-node numbers of the paper are
// measured on this configuration).
//
// Sweeps node count {1, 2, 4, 8} for both constraint classes on the
// 5000/50000(+5000) workload. Reported metric: the deterministic
// simulated makespan (see src/parallel/cost_model.h), pinned to
// simulate mode so the checked-in baseline is host-independent.
// Expected shape:
//  * domain constraint: near-ideal speedup (fragment-local);
//  * referential constraint with key/foreign-key fragmentation:
//    node-local checks, speedup close to domain;
//  * referential with round-robin fragmentation: sub-linear (its probes
//    of key_rel's fragments are charged as a broadcast of the probe
//    side), the gap growing with node count.
//
// BM_ParallelThreadedWallVsSim is the measured counterpart: the same
// refint workload with one task per node on a worker pool, sweeping
// partitions × workers, with wall-clock (ParallelStats::measured_us)
// reported next to the simulated makespan for the same plan. Read the
// wall column against the machine's core count in the JSON's hardware
// stamp.

#include "benchmark/benchmark.h"
#include "bench/workload.h"
#include "src/parallel/executor.h"

namespace txmod::bench {
namespace {

using parallel::FragmentationKind;
using parallel::FragmentationScheme;

enum class Constraint { kDomain, kRefInt };
enum class Placement { kKeyFk, kRoundRobin };

/// The simulated series must not depend on the machine they run on:
/// force simulate mode regardless of the core count of this host.
parallel::ParallelOptions SimulateOnly() {
  parallel::ParallelOptions options;
  options.use_threads = false;
  return options;
}

void RunParallel(benchmark::State& state, Constraint constraint,
                 Placement placement) {
  const int nodes = static_cast<int>(state.range(0));
  const int keys = 5000, fks = 50000, batch = 5000;

  Database db = MakeKeyFkDatabase(keys, fks);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint(
      "c", constraint == Constraint::kDomain ? DomainConstraint()
                                             : RefIntConstraint()));
  const algebra::Transaction plain = MakeFkInsertBatch(batch, keys);
  auto modified = ics.Modify(plain);
  TXMOD_BENCH_CHECK_OK(modified.status());

  std::map<std::string, FragmentationScheme> schemes;
  if (placement == Placement::kKeyFk) {
    schemes = {{"fk_rel", FragmentationScheme{FragmentationKind::kHash, 1}},
               {"key_rel", FragmentationScheme{FragmentationKind::kHash, 0}}};
  } else {
    schemes = {
        {"fk_rel", FragmentationScheme{FragmentationKind::kRoundRobin, 0}},
        {"key_rel", FragmentationScheme{FragmentationKind::kRoundRobin, 0}}};
  }

  double check_ms = 0;
  double total_ms = 0;
  uint64_t transferred = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pdb = parallel::ParallelDatabase::Partition(db, schemes, nodes);
    TXMOD_BENCH_CHECK_OK(pdb.status());
    // The insert routing alone: its makespan is subtracted so the series
    // isolates *enforcement* cost, which is what the paper reports
    // ("checking ... after the insertion ...").
    auto insert_only = parallel::ParallelExecutor(
        &*pdb, SimulateOnly()).Execute(plain);
    TXMOD_BENCH_CHECK_OK(insert_only.status());
    const double insert_ms = insert_only->stats.simulated_us() / 1000.0;
    auto pdb2 = parallel::ParallelDatabase::Partition(db, schemes, nodes);
    TXMOD_BENCH_CHECK_OK(pdb2.status());
    state.ResumeTiming();
    parallel::ParallelExecutor exec(&*pdb2, SimulateOnly());
    auto result = exec.Execute(*modified);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("unexpected abort");
      return;
    }
    total_ms = result->stats.simulated_us() / 1000.0;
    check_ms = total_ms - insert_ms;
    transferred = result->stats.tuples_transferred();
  }
  // The series the harness exists for: simulated enforcement makespan per
  // node count (total transaction makespan alongside).
  state.counters["check_sim_ms"] = check_ms;
  state.counters["total_sim_ms"] = total_ms;
  state.counters["transferred"] = static_cast<double>(transferred);
  state.counters["nodes"] = nodes;
}

// Join-heavy enforcement: deleting keys triggers the DEL(key_rel) check,
// whose core is semijoin[l.ref = r.key](fk_rel, dminus(key_rel)) — the
// 50k-tuple fk side against the deleted-key delta. Each node streams the
// delta it receives through its own fk fragment's index, so the fk side
// is never scanned; this series records what that per-fragment join
// costs.
void BM_ParallelJoinHeavyDelete(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int keys = 5000, fks = 50000, batch = 500;

  Database db = MakeKeyFkDatabase(keys, fks);
  AddUnreferencedKeys(&db, batch);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("c", RefIntConstraint()));
  const algebra::Transaction plain = MakeKeyDeleteBatch(batch);
  auto modified = ics.Modify(plain);
  TXMOD_BENCH_CHECK_OK(modified.status());

  const std::map<std::string, FragmentationScheme> schemes = {
      {"fk_rel", FragmentationScheme{FragmentationKind::kHash, 1}},
      {"key_rel", FragmentationScheme{FragmentationKind::kHash, 0}}};

  double total_ms = 0;
  uint64_t transferred = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pdb = parallel::ParallelDatabase::Partition(db, schemes, nodes);
    TXMOD_BENCH_CHECK_OK(pdb.status());
    state.ResumeTiming();
    parallel::ParallelExecutor exec(&*pdb, SimulateOnly());
    auto result = exec.Execute(*modified);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("unexpected abort");
      return;
    }
    total_ms = result->stats.simulated_us() / 1000.0;
    transferred = result->stats.tuples_transferred();
  }
  state.counters["total_sim_ms"] = total_ms;
  state.counters["transferred"] = static_cast<double>(transferred);
  state.counters["nodes"] = nodes;
}

// The measured counterpart of the simulated series above: the refint
// insert workload with one task per node on a worker pool, swept over
// partitions (state.range(0)) × pool workers (state.range(1)). Two
// columns land in the counters — total_wall_ms (sum of measured phase
// wall-clock, ParallelStats::measured_us) and total_sim_ms (the
// POOMA-model makespan for the identical plan) — so the report reads as
// a direct wall-vs-simulated comparison per configuration. Round-robin
// placement on purpose: the insert check probes every key_rel fragment
// in place, so each node's task reads other nodes' fragment indexes, and
// no redistribution or broadcast phase runs: exchange_batches stays 0.
void BM_ParallelThreadedWallVsSim(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  const int keys = 5000, fks = 50000, batch = 5000;

  Database db = MakeKeyFkDatabase(keys, fks);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("c", RefIntConstraint()));
  const algebra::Transaction plain = MakeFkInsertBatch(batch, keys);
  auto modified = ics.Modify(plain);
  TXMOD_BENCH_CHECK_OK(modified.status());

  const std::map<std::string, FragmentationScheme> schemes = {
      {"fk_rel", FragmentationScheme{FragmentationKind::kRoundRobin, 0}},
      {"key_rel", FragmentationScheme{FragmentationKind::kRoundRobin, 0}}};

  parallel::ParallelOptions options;
  options.use_threads = true;
  options.num_workers = workers;

  double wall_ms = 0;
  double sim_ms = 0;
  uint64_t exchange_batches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pdb = parallel::ParallelDatabase::Partition(db, schemes, nodes);
    TXMOD_BENCH_CHECK_OK(pdb.status());
    state.ResumeTiming();
    parallel::ParallelExecutor exec(&*pdb, options);
    auto result = exec.Execute(*modified);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("unexpected abort");
      return;
    }
    wall_ms = result->stats.measured_us() / 1000.0;
    sim_ms = result->stats.simulated_us() / 1000.0;
    exchange_batches = result->stats.exchange_batches();
  }
  state.counters["total_wall_ms"] = wall_ms;
  state.counters["total_sim_ms"] = sim_ms;
  state.counters["exchange_batches"] = static_cast<double>(exchange_batches);
  state.counters["nodes"] = nodes;
  state.counters["workers"] = static_cast<double>(workers);
}

void BM_ParallelDomain(benchmark::State& state) {
  RunParallel(state, Constraint::kDomain, Placement::kKeyFk);
}
void BM_ParallelRefIntKeyFk(benchmark::State& state) {
  RunParallel(state, Constraint::kRefInt, Placement::kKeyFk);
}
void BM_ParallelRefIntRoundRobin(benchmark::State& state) {
  RunParallel(state, Constraint::kRefInt, Placement::kRoundRobin);
}

BENCHMARK(BM_ParallelJoinHeavyDelete)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK(BM_ParallelDomain)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_ParallelRefIntKeyFk)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_ParallelRefIntRoundRobin)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
// partitions × pool workers. A phase has one task per partition, so
// workers past the partition count idle; workers past the machine's
// cores only oversubscribe (read against the hardware stamp).
BENCHMARK(BM_ParallelThreadedWallVsSim)
    ->ArgsProduct({{2, 4, 8}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace txmod::bench

TXMOD_BENCH_MAIN()
