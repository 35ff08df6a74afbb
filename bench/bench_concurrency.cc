// Concurrent transaction manager benchmarks.
//
// BM_ConcurrentCommit — N client threads run key/fk transactions through
// TxnManager sessions (snapshot execution + first-committer-wins
// validation), sweeping the conflict rate: each thread's transactions
// touch a small shared key set with probability conflict_pct/100 and
// thread-private fk ids otherwise. Reported: committed transactions per
// second (items_per_second), plus conflict/retry counters. No WAL — this
// series isolates the OCC pipeline.
//
// BM_HeldSessionCommit — one session holds a one-row insert while 20
// commits of 5,000 fresh fk rows land, then commits. Its snapshot pins
// the records of all 20 commits, so its commit validates against them and
// evicts them, freeing the last references to their 100,000 inserted
// tuples. Reported: held_commit_us, the median latency of that commit,
// and max_commit_us, the slowest of the 20 batch commits (each compacts
// fk_rel: the merges and the collapses of the stream land on them).
//
// BM_GroupCommitFsync — N threads commit tiny write transactions through
// a WAL, which acknowledges each commit after its fsync; fsyncs batch
// across concurrent committers (group commit). Reported: commits per
// second and the measured fsyncs-per-commit ratio (the batching factor;
// 1.0 means no batching, lower is better).
//
// BM_WalAppend — stage C of one large commit without its fsync: a
// CommitRecord of 5,000 fresh fk_rel rows, in perfbench's row shape (an
// int id, a `k<n>` ref and an amount in quarter units), encoded (text
// and checksum) and written to a WAL. Reported: the time per append and
// bytes_per_append.
//
// Every arm that commits reports readonly_commits. An arm whose
// transactions only insert fresh ids must write on every commit; if one
// of its commits is read-only, an id was reused and the arm timed no-ops
// (nothing installed, logged or fsynced), so the binary exits non-zero.
// Every such arm also reports max_commit_us, its slowest commit (a Run,
// or a session's Begin through Commit) across all of its threads: a
// commit that pays a collapse, waits for another committer's, or stalls
// behind a long-held lock shows there, not in the throughput. BM_ConcurrentCommit also reports
// merged_tuples_per_commit, the delta weight the compaction merges took
// (CowStats::overlay_merged_tuples) per commit.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench/workload.h"
#include "src/common/vfs.h"
#include "src/relational/wal.h"
#include "src/txn/txn_manager.h"

namespace txmod::bench {
namespace {

constexpr int kKeys = 500;
constexpr int kFks = 5000;
constexpr int kSharedKeys = 16;
constexpr int kTxnsPerThreadPerIter = 50;
// Fresh fk ids start above the fixture's kFks rows and the contended
// range.
constexpr int kFreshIdBase = 1'000'000;

/// The first fresh id thread `t` of `threads` uses in iteration
/// `iteration`: each (iteration, thread) pair owns its own block.
int FreshIdBlock(int64_t iteration, int threads, int t) {
  return kFreshIdBase +
         static_cast<int>((iteration * threads + t) * kTxnsPerThreadPerIter);
}

/// Reports the arm's read-only commits, and stops the binary when an arm
/// that only inserts fresh ids has any: it measured no-op commits.
void ReportReadOnlyCommits(benchmark::State& state, const std::string& arm,
                           const txn::TxnManagerStats& stats,
                           bool fresh_inserts_only) {
  state.counters["readonly_commits"] =
      static_cast<double>(stats.readonly_commits);
  if (fresh_inserts_only && stats.readonly_commits > 0) {
    std::cerr << "BENCH FATAL: " << arm << " inserts only fresh ids, but "
              << stats.readonly_commits << " of its " << stats.commits
              << " commits were read-only\n";
    std::exit(1);
  }
}

/// The slowest commit an arm saw, across its threads.
class SlowestCommit {
 public:
  /// Runs `commit` and records how long it took.
  template <typename Fn>
  auto Time(Fn&& commit) {
    const auto start = std::chrono::steady_clock::now();
    auto result = commit();
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    int64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen && !max_ns_.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
    return result;
  }

  void Report(benchmark::State& state) const {
    state.counters["max_commit_us"] =
        static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e3;
  }

 private:
  std::atomic<int64_t> max_ns_{0};
};

struct ManagerFixture {
  Database db;
  std::unique_ptr<core::IntegritySubsystem> ics;
  std::unique_ptr<txn::TxnManager> manager;

  explicit ManagerFixture(txn::TxnManagerOptions options = {}) {
    db = MakeKeyFkDatabase(kKeys, kFks);
    AddUnreferencedKeys(&db, kSharedKeys);
    ics = std::make_unique<core::IntegritySubsystem>(&db);
    TXMOD_BENCH_CHECK_OK(ics->DefineConstraint("domain", DomainConstraint()));
    TXMOD_BENCH_CHECK_OK(ics->DefineConstraint("refint", RefIntConstraint()));
    auto created = txn::TxnManager::Create(ics.get(), std::move(options));
    TXMOD_BENCH_CHECK_OK(created.status());
    manager = std::move(*created);
  }
};

/// A thread-private fk insert (ids disjoint across threads and
/// iterations) or, with probability pct/100, a contended write: delete
/// or re-insert one fk tuple from a small shared id range. Overlapping
/// footprints on those tuples are real write-write conflicts (and net
/// writes, so commit records publish them) — the conflict knob.
algebra::Transaction MakeWorkTxn(int* next_id, unsigned* rng,
                                 int conflict_pct) {
  *rng = *rng * 1664525u + 1013904223u;
  const bool contended =
      static_cast<int>((*rng >> 16) % 100) < conflict_pct;
  algebra::Transaction txn;
  if (contended) {
    const int id = static_cast<int>((*rng >> 8) % (2 * kSharedKeys));
    Tuple fk_tuple({Value::Int(id), Value::String(StrCat("k", id % kKeys)),
                    Value::Double(1.0 + id % 10)});
    const bool del = ((*rng >> 4) & 1) != 0;
    if (del) {
      txn.program.statements.push_back(algebra::Statement::Delete(
          "fk_rel", algebra::RelExpr::Literal({fk_tuple}, 3)));
    } else {
      txn.program.statements.push_back(algebra::Statement::Insert(
          "fk_rel", algebra::RelExpr::Literal({fk_tuple}, 3)));
    }
  } else {
    txn.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel",
        algebra::RelExpr::Literal(
            {Tuple({Value::Int((*next_id)++),
                    Value::String(StrCat("k", *rng % kKeys)),
                    Value::Double(2.5)})},
            3)));
  }
  return txn;
}

void BM_ConcurrentCommit(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int conflict_pct = static_cast<int>(state.range(1));
  ManagerFixture f;
  SlowestCommit slowest;
  CowStats::Reset();

  uint64_t committed_total = 0;
  int64_t iteration = 0;
  for (auto _ : state) {
    std::atomic<uint64_t> committed{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        int next_id = FreshIdBlock(iteration, threads, t);
        unsigned rng = 12345u * static_cast<unsigned>(t + 1);
        for (int i = 0; i < kTxnsPerThreadPerIter; ++i) {
          const algebra::Transaction txn =
              MakeWorkTxn(&next_id, &rng, conflict_pct);
          auto result = slowest.Time([&] { return f.manager->Run(txn); });
          if (result.ok() && result->committed) {
            committed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    committed_total += committed.load();
    ++iteration;
  }
  const txn::TxnManagerStats stats = f.manager->stats();
  state.SetItemsProcessed(static_cast<int64_t>(committed_total));
  ReportReadOnlyCommits(state,
                        StrCat("BM_ConcurrentCommit/threads:", threads,
                               "/conflict_pct:", conflict_pct),
                        stats, conflict_pct == 0);
  slowest.Report(state);
  state.counters["merged_tuples_per_commit"] =
      stats.commits > 0
          ? static_cast<double>(CowStats::overlay_merged_tuples.load()) /
                static_cast<double>(stats.commits)
          : 0.0;
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["commits"] = static_cast<double>(stats.commits);
  state.counters["conflict_rate"] =
      stats.commits + stats.conflicts > 0
          ? static_cast<double>(stats.conflicts) /
                static_cast<double>(stats.commits + stats.conflicts)
          : 0.0;
}

BENCHMARK(BM_ConcurrentCommit)
    ->ArgNames({"threads", "conflict_pct"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({4, 10})
    ->Args({4, 50})
    ->Args({8, 50})
    ->Args({16, 50})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The first-write cost pin: one session inserts ONE tuple into a
/// relation of `tuples` rows and commits. The session's first write
/// layers an O(1) overlay level over the shared snapshot, so the series
/// stays flat as the relation grows; overlays_per_txn (from CowStats)
/// counts the levels.
void BM_SessionFirstWrite(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  Database db = MakeKeyFkDatabase(kKeys, tuples);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("domain", DomainConstraint()));
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("refint", RefIntConstraint()));
  auto created = txn::TxnManager::Create(&ics);
  TXMOD_BENCH_CHECK_OK(created.status());
  auto manager = std::move(*created);

  int next_id = 100'000'000;
  CowStats::Reset();
  SlowestCommit slowest;
  uint64_t committed = 0;
  for (auto _ : state) {
    algebra::Transaction txn;
    txn.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel",
        algebra::RelExpr::Literal(
            {Tuple({Value::Int(next_id++),
                    Value::String(StrCat("k", next_id % kKeys)),
                    Value::Double(2.5)})},
            3)));
    const bool ok = slowest.Time([&] {
      auto session = manager->Begin();
      auto executed = session->Execute(txn);
      auto result = session->Commit();
      return executed.ok() && result.ok() && result->committed;
    });
    if (ok) ++committed;
  }
  slowest.Report(state);
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  ReportReadOnlyCommits(state, StrCat("BM_SessionFirstWrite/tuples:", tuples),
                        manager->stats(), /*fresh_inserts_only=*/true);
  const double iters =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  state.counters["overlays_per_txn"] =
      static_cast<double>(CowStats::overlays_created.load()) / iters;
}

BENCHMARK(BM_SessionFirstWrite)
    ->ArgNames({"tuples"})
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

/// The held-session commit (see the header). No WAL; 5,000 keys and
/// 50,000 fk rows under `domain` and `refint`, built afresh for each
/// iteration outside the timing.
void BM_HeldSessionCommit(benchmark::State& state) {
  constexpr int kHeldKeys = 5000;
  constexpr int kHeldFks = 50000;
  constexpr int kBatches = 20;
  constexpr int kBatchRows = 5000;
  struct Fixture {
    Database db;
    std::unique_ptr<core::IntegritySubsystem> ics;
    std::unique_ptr<txn::TxnManager> manager;
  };
  std::vector<algebra::Transaction> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(
        MakeFkInsertBatch(kBatchRows, kHeldKeys, kFreshIdBase + b * kBatchRows));
  }
  const algebra::Transaction held_txn =
      MakeFkInsertBatch(1, kHeldKeys, kFreshIdBase - 1);
  std::unique_ptr<Fixture> f;
  std::vector<double> held_us;
  SlowestCommit slowest;  // over the batch commits
  for (auto _ : state) {
    state.PauseTiming();
    f.reset();
    f = std::make_unique<Fixture>();
    f->db = MakeKeyFkDatabase(kHeldKeys, kHeldFks);
    f->ics = std::make_unique<core::IntegritySubsystem>(&f->db);
    TXMOD_BENCH_CHECK_OK(f->ics->DefineConstraint("domain", DomainConstraint()));
    TXMOD_BENCH_CHECK_OK(f->ics->DefineConstraint("refint", RefIntConstraint()));
    auto created = txn::TxnManager::Create(f->ics.get());
    TXMOD_BENCH_CHECK_OK(created.status());
    f->manager = std::move(*created);
    state.ResumeTiming();

    auto held = f->manager->Begin();
    TXMOD_BENCH_CHECK_OK(held->Execute(held_txn).status());
    for (const algebra::Transaction& batch : batches) {
      auto result = slowest.Time([&] { return f->manager->Run(batch); });
      TXMOD_BENCH_CHECK_OK(result.status());
      if (!result->committed) {
        std::cerr << "BENCH FATAL: BM_HeldSessionCommit: a batch aborted\n";
        std::exit(1);
      }
    }
    const auto start = std::chrono::steady_clock::now();
    auto result = held->Commit();
    held_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      std::cerr << "BENCH FATAL: BM_HeldSessionCommit: the held commit "
                   "aborted\n";
      std::exit(1);
    }
    state.PauseTiming();
    ReportReadOnlyCommits(state, "BM_HeldSessionCommit", f->manager->stats(),
                          /*fresh_inserts_only=*/true);
    state.ResumeTiming();
  }
  f.reset();  // after the loop, so not timed
  std::sort(held_us.begin(), held_us.end());
  state.counters["held_commit_us"] =
      held_us.empty() ? 0.0 : held_us[held_us.size() / 2];
  slowest.Report(state);
}

BENCHMARK(BM_HeldSessionCommit)
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

void BM_GroupCommitFsync(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_bench_wal_", ::getpid(), "_", threads);
  std::filesystem::create_directories(dir);
  txn::TxnManagerOptions options;
  options.wal_path = (dir / "wal.log").string();
  options.checkpoint_path = (dir / "checkpoint.db").string();
  ManagerFixture f(options);
  SlowestCommit slowest;

  uint64_t committed_total = 0;
  int64_t iteration = 0;
  for (auto _ : state) {
    std::atomic<uint64_t> committed{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        int next_id = FreshIdBlock(iteration, threads, t);
        unsigned rng = 99991u * static_cast<unsigned>(t + 1);
        for (int i = 0; i < kTxnsPerThreadPerIter; ++i) {
          const algebra::Transaction txn = MakeWorkTxn(&next_id, &rng, 0);
          auto result = slowest.Time([&] { return f.manager->Run(txn); });
          if (result.ok() && result->committed) {
            committed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    committed_total += committed.load();
    ++iteration;
  }
  const txn::TxnManagerStats stats = f.manager->stats();
  state.SetItemsProcessed(static_cast<int64_t>(committed_total));
  ReportReadOnlyCommits(state, StrCat("BM_GroupCommitFsync/threads:", threads),
                        stats, /*fresh_inserts_only=*/true);
  slowest.Report(state);
  state.counters["fsyncs"] = static_cast<double>(stats.wal_fsyncs);
  state.counters["fsyncs_per_commit"] =
      stats.commits > 0 ? static_cast<double>(stats.wal_fsyncs) /
                              static_cast<double>(stats.commits)
                        : 0.0;

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

BENCHMARK(BM_GroupCommitFsync)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One commit's record appended with no fsync (see the header). The log
/// is truncated, untimed, every 64 appends, so that it stays small.
void BM_WalAppend(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_bench_append_", ::getpid(), "_", rows);
  std::filesystem::create_directories(dir);
  const std::string wal_path = (dir / "wal.log").string();

  const auto schema = std::make_shared<const RelationSchema>(
      "fk_rel", std::vector<Attribute>{{"id", AttrType::kInt},
                                       {"ref", AttrType::kString},
                                       {"amount", AttrType::kDouble}});
  auto inserted = std::make_shared<Relation>(schema);
  std::mt19937_64 rng(5000);
  for (int i = 0; i < rows; ++i) {
    inserted->Insert(
        Tuple({Value::Int(kFreshIdBase + i),
               Value::String(StrCat("k", rng() % 5000)),
               Value::Double(static_cast<double>(rng() % 40000) / 4)}));
  }
  CommitRecord rec;
  rec.deltas.push_back(
      CommitDelta{"fk_rel", inserted, std::make_shared<Relation>(schema)});

  uint64_t appended = 0;
  uint64_t bytes = 0;  // appended to the log, header excluded
  {
    auto wal = WriteAheadLog::Open(wal_path);
    TXMOD_BENCH_CHECK_OK(wal.status());
    const uint64_t header = std::filesystem::file_size(wal_path);
    for (auto _ : state) {
      rec.version = ++appended;
      auto lsn = wal->Append(rec);
      TXMOD_BENCH_CHECK_OK(lsn.status());
      benchmark::DoNotOptimize(*lsn);
      if (appended % 64 == 0) {
        state.PauseTiming();
        bytes += std::filesystem::file_size(wal_path) - header;
        TXMOD_BENCH_CHECK_OK(wal->Truncate());
        state.ResumeTiming();
      }
    }
    bytes += std::filesystem::file_size(wal_path) - header;
  }
  state.counters["bytes_per_append"] =
      appended > 0
          ? static_cast<double>(bytes) / static_cast<double>(appended)
          : 0.0;

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

BENCHMARK(BM_WalAppend)
    ->ArgNames({"rows"})
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

/// WAL appends routed through the Vfs seam: the POSIX default versus the
/// fault injector with no faults armed. The delta is the pure cost of the
/// indirection plus the injector's bookkeeping (per-op counters, durable
/// snapshots on sync) — the price every fault-campaign iteration pays.
void BM_WalAppendThroughVfs(benchmark::State& state) {
  const bool injected = state.range(0) != 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_bench_vfs_", ::getpid(), "_", injected);
  std::filesystem::create_directories(dir);
  const std::string wal_path = (dir / "wal.log").string();

  FaultInjectingVfs injector;
  Vfs* vfs = injected ? &injector : Vfs::Default();
  uint64_t appended = 0;
  {
    auto wal = WriteAheadLog::Open(wal_path, vfs);
    TXMOD_BENCH_CHECK_OK(wal.status());
    WalRecord rec;
    rec.version = 1;
    rec.deltas.push_back(WalDelta{
        "fk_rel",
        {Tuple({Value::Int(1), Value::String("k1"), Value::Double(2.5)})},
        {}});
    for (auto _ : state) {
      rec.version = ++appended;
      auto lsn = wal->Append(rec);
      TXMOD_BENCH_CHECK_OK(lsn.status());
      if (appended % 64 == 0) TXMOD_BENCH_CHECK_OK(wal->Sync(*lsn));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(appended));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

BENCHMARK(BM_WalAppendThroughVfs)
    ->ArgNames({"injected"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace txmod::bench

TXMOD_BENCH_MAIN();
