// Concurrency oracle: randomized transaction mixes run through the
// TxnManager from 1..8 client threads must produce a final state equal
// to the SERIAL execution of the committed transactions in commit-version
// order (the manager's serialization order) — the linearizability-style
// check for first-committer-wins validation over snapshots. Runs with a
// live WAL so group commit is exercised under the same concurrency, and
// verifies the recovered state matches too. Every state of the serial
// replay must also satisfy every constraint evaluated in full by
// PostHocChecker, which shares no plan with the compiled checks. A
// straggler variant holds sessions open across other threads' commits,
// so validation runs against a window that grows behind it. The thread
// counts can be extended via TXMOD_ORACLE_THREADS (the CI stress job
// sets it high).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/relational/wal.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using algebra::Transaction;

constexpr int kKeys = 30;
constexpr int kSharedKeys = 12;  // unreferenced, contended by deletes
constexpr int kTxnsPerThread = 25;

Database MakeInitialDatabase() {
  Database db = bench::MakeKeyFkDatabase(kKeys, 120);
  bench::AddUnreferencedKeys(&db, kSharedKeys);
  return db;
}

const std::vector<testing::NamedConstraint> kConstraints = {
    {"domain", bench::DomainConstraint()},
    {"refint", bench::RefIntConstraint()}};

void DefineConstraints(core::IntegritySubsystem* ics) {
  for (const testing::NamedConstraint& c : kConstraints) {
    TXMOD_ASSERT_OK(ics->DefineConstraint(c.name, c.cl_text));
  }
}

/// One pre-generated transaction: deterministic, so the serial replay
/// re-executes exactly what the concurrent run executed.
struct WorkItem {
  Transaction txn;
  std::string trace;
};

/// A mix of valid inserts (thread-disjoint ids), violating inserts
/// (domain + referential), contended key deletes/re-inserts (the
/// conflict knob), and transactions that insert and delete the same
/// contended key, whose writes net out or are no-ops (the attempts an
/// overlay level does not show, which validation must still see).
std::vector<WorkItem> MakeThreadWorkload(int thread_id, unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  std::vector<WorkItem> items;
  int next_id = 1'000'000 + thread_id * 100'000;
  for (int i = 0; i < kTxnsPerThread; ++i) {
    Transaction txn;
    std::string trace;
    switch (pick(7)) {
      case 0:
      case 1: {  // valid fk insert batch (ids disjoint across threads)
        std::vector<Tuple> tuples;
        const int batch = 1 + pick(4);
        for (int b = 0; b < batch; ++b) {
          tuples.push_back(Tuple({Value::Int(next_id++),
                                  Value::String(StrCat("k", pick(kKeys))),
                                  Value::Double(1.0 + pick(9))}));
        }
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
        trace = "valid fk insert";
        break;
      }
      case 2: {  // dangling ref: integrity abort
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel",
            algebra::RelExpr::Literal(
                {Tuple({Value::Int(next_id++),
                        Value::String(StrCat("zz", pick(50))),
                        Value::Double(3.0)})},
                3)));
        trace = "dangling fk insert";
        break;
      }
      case 3: {  // contended: delete a shared unreferenced key
        txn.program.statements.push_back(algebra::Statement::Delete(
            "key_rel",
            algebra::RelExpr::Literal(
                {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                        Value::String("payload")})},
                2)));
        trace = "shared key delete";
        break;
      }
      case 4: {  // contended: (re-)insert a shared unreferenced key
        txn.program.statements.push_back(algebra::Statement::Insert(
            "key_rel",
            algebra::RelExpr::Literal(
                {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                        Value::String("payload")})},
                2)));
        trace = "shared key insert";
        break;
      }
      case 5: {  // contended: insert and delete one shared key, either order
        const Tuple key({Value::String(StrCat("x", pick(kSharedKeys))),
                         Value::String("payload")});
        auto insert = algebra::Statement::Insert(
            "key_rel", algebra::RelExpr::Literal({key}, 2));
        auto erase = algebra::Statement::Delete(
            "key_rel", algebra::RelExpr::Literal({key}, 2));
        const bool insert_first = pick(2) == 0;
        txn.program.statements.push_back(insert_first ? insert : erase);
        txn.program.statements.push_back(insert_first ? erase : insert);
        trace = insert_first ? "shared key insert+delete"
                             : "shared key delete+insert";
        break;
      }
      default: {  // negative amount: domain abort
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel",
            algebra::RelExpr::Literal(
                {Tuple({Value::Int(next_id++),
                        Value::String(StrCat("k", pick(kKeys))),
                        Value::Double(-1.0)})},
                3)));
        trace = "negative amount insert";
        break;
      }
    }
    items.push_back(WorkItem{std::move(txn), std::move(trace)});
  }
  return items;
}

/// Every constraint evaluated in full over a copy of `db` that shares
/// nothing with it (PostHocChecker, no compiled check): the empty string
/// when `db` satisfies them all.
std::string FullCheck(const Database& db) {
  return testing::FullCheckViolation(testing::Rebuild(db), kConstraints);
}

struct CommittedTxn {
  uint64_t commit_version = 0;
  bool installed = false;
  int thread_id = 0;
  int txn_index = 0;
};

/// Thread counts under test: 1, 2, 4, 8, plus TXMOD_ORACLE_THREADS when
/// set (the CI stress job runs high counts in Release).
std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("TXMOD_ORACLE_THREADS")) {
    const int extra = std::atoi(env);
    if (extra > 0 &&
        std::find(counts.begin(), counts.end(), extra) == counts.end()) {
      counts.push_back(extra);
    }
  }
  return counts;
}

class ConcurrentOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentOracleTest, FinalStateMatchesSerialReplayInCommitOrder) {
  const int num_threads = GetParam();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_oracle_", ::getpid(), "_", num_threads);
  std::filesystem::create_directories(dir);
  TxnManagerOptions options;
  options.wal_path = (dir / "wal.log").string();
  options.checkpoint_path = (dir / "checkpoint.db").string();

  Database db = MakeInitialDatabase();
  Database initial = db.Clone();
  core::IntegritySubsystem ics(&db);
  DefineConstraints(&ics);
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options));

  // Pre-generate every thread's workload so the serial replay can
  // re-execute the exact same transactions.
  std::vector<std::vector<WorkItem>> workloads;
  for (int t = 0; t < num_threads; ++t) {
    workloads.push_back(MakeThreadWorkload(
        t, 7919u * static_cast<unsigned>(t + 1) +
               static_cast<unsigned>(num_threads)));
  }

  std::vector<std::vector<CommittedTxn>> committed_per_thread(
      static_cast<std::size_t>(num_threads));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto result = manager->Run(workloads[static_cast<std::size_t>(t)]
                                       [static_cast<std::size_t>(i)]
                                           .txn);
        if (!result.ok()) {
          ++failures;
          return;
        }
        if (result->committed) {
          committed_per_thread[static_cast<std::size_t>(t)].push_back(
              CommittedTxn{result->commit_version, result->installed, t, i});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0) << "a Run() returned an error status";

  // Serialize: commit-version order, write-ful commits before the
  // read-only commits that observed the same version.
  std::vector<CommittedTxn> order;
  for (const auto& per_thread : committed_per_thread) {
    order.insert(order.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(order.begin(), order.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              if (a.commit_version != b.commit_version) {
                return a.commit_version < b.commit_version;
              }
              return a.installed && !b.installed;
            });

  // Serial replay through a fresh subsystem: every committed transaction
  // must also commit serially, and the final states must agree exactly.
  Database replay_db = initial.Clone();
  core::IntegritySubsystem replay_ics(&replay_db);
  DefineConstraints(&replay_ics);
  for (const CommittedTxn& c : order) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult replayed,
        replay_ics.Execute(
            workloads[static_cast<std::size_t>(c.thread_id)]
                     [static_cast<std::size_t>(c.txn_index)]
                         .txn));
    ASSERT_TRUE(replayed.committed)
        << "transaction committed concurrently at version "
        << c.commit_version << " but aborts in serial replay: "
        << replayed.abort_reason << " ("
        << workloads[static_cast<std::size_t>(c.thread_id)]
                    [static_cast<std::size_t>(c.txn_index)]
                        .trace
        << ")";
    ASSERT_EQ(FullCheck(replay_db), "")
        << "after the commit at version " << c.commit_version;
  }
  // Every committer swapped its compaction in before its commit returned,
  // so the comparison also covers the swapped-in chains.
  EXPECT_TRUE(db.SameState(replay_db))
      << "concurrent final state differs from serial replay in commit "
       "order";

  // The sanity arithmetic: installed commits advanced the version.
  const uint64_t installed = static_cast<uint64_t>(std::count_if(
      order.begin(), order.end(),
      [](const CommittedTxn& c) { return c.installed; }));
  EXPECT_EQ(manager->committed_version(),
            initial.logical_time() + installed);

  // Durability under the same concurrency: the recovered state equals
  // the live committed state (everything was fsync'd by group commit).
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options));
  EXPECT_TRUE(recovered.SameState(db))
      << "checkpoint+WAL recovery diverges from the live state";
  EXPECT_EQ(recovered.logical_time(), db.logical_time());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ConcurrentOracleTest,
                         ::testing::ValuesIn(ThreadCounts()),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return StrCat(param.param, "threads");
                         });

// ---------------------------------------------------------------------------
// Straggler oracle: while the other threads commit through Run, one
// thread holds each of its sessions open (Begin, Execute, then wait until
// kStragglerLag more commits have landed, then Commit; a conflict loser
// retries with a fresh session). The validation window must keep every
// commit that lands behind a held session and be empty once every session
// has finished; the straggler's commits join the serial replay.
// ---------------------------------------------------------------------------

constexpr int kStragglerTxns = 6;
constexpr uint64_t kStragglerLag = 4;
constexpr int kStragglerAttempts = 8;

/// Straggler runs take the total thread count: the straggler plus at
/// least one committer.
std::vector<int> StragglerThreadCounts() {
  std::vector<int> counts;
  for (int n : ThreadCounts()) {
    if (n >= 2) counts.push_back(n);
  }
  return counts;
}

class StragglerOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(StragglerOracleTest, HeldSessionsKeepTheWindowAndMatchSerialReplay) {
  const int num_threads = GetParam();
  const int straggler = num_threads - 1;  // the others are committers

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_straggler_", ::getpid(), "_", num_threads);
  std::filesystem::create_directories(dir);
  TxnManagerOptions options;
  options.wal_path = (dir / "wal.log").string();
  options.checkpoint_path = (dir / "checkpoint.db").string();

  Database db = MakeInitialDatabase();
  Database initial = db.Clone();
  core::IntegritySubsystem ics(&db);
  DefineConstraints(&ics);
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options));

  std::vector<std::vector<WorkItem>> workloads;
  for (int t = 0; t < num_threads; ++t) {
    workloads.push_back(MakeThreadWorkload(
        t, 6007u * static_cast<unsigned>(t + 1) +
               static_cast<unsigned>(num_threads)));
  }

  std::vector<std::vector<CommittedTxn>> committed_per_thread(
      static_cast<std::size_t>(num_threads));
  std::atomic<int> failures{0};
  std::atomic<bool> straggler_started{false};
  std::atomic<int> committers_running{straggler};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < straggler; ++t) {
    threads.emplace_back([&, t]() {
      // Start once the straggler's first session is open, so commits
      // land behind it.
      while (!straggler_started.load()) std::this_thread::yield();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto result = manager->Run(workloads[static_cast<std::size_t>(t)]
                                       [static_cast<std::size_t>(i)]
                                           .txn);
        if (!result.ok()) {
          ++failures;
          break;
        }
        if (result->committed) {
          committed_per_thread[static_cast<std::size_t>(t)].push_back(
              CommittedTxn{result->commit_version, result->installed, t, i});
        }
      }
      --committers_running;
    });
  }

  uint64_t max_landed = 0;   // commits landed behind one held session
  int window_shortfalls = 0;  // held sessions whose window missed one
  threads.emplace_back([&]() {
    for (int i = 0; i < kStragglerTxns; ++i) {
      const Transaction& txn =
          workloads[static_cast<std::size_t>(straggler)]
                   [static_cast<std::size_t>(i)]
                       .txn;
      for (int attempt = 1; attempt <= kStragglerAttempts; ++attempt) {
        std::unique_ptr<TxnSession> session = manager->Begin();
        if (!session->Execute(txn).ok()) {
          ++failures;
          straggler_started = true;
          return;
        }
        straggler_started = true;
        const uint64_t snap = session->snapshot_version();
        while (manager->committed_version() < snap + kStragglerLag &&
               committers_running.load() > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        // Every commit since the snapshot stays in the window while the
        // session is live (the default cap exceeds the whole run).
        const uint64_t landed = manager->committed_version() - snap;
        if (manager->stats().validation_records < landed) ++window_shortfalls;
        max_landed = std::max(max_landed, landed);
        auto result = session->Commit();
        if (!result.ok()) {
          ++failures;
          return;
        }
        if (result->committed) {
          committed_per_thread[static_cast<std::size_t>(straggler)].push_back(
              CommittedTxn{result->commit_version, result->installed,
                           straggler, i});
        }
        if (!result->conflict) break;
      }
    }
  });
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0) << "a Run() or Commit() returned an error";
  EXPECT_EQ(window_shortfalls, 0)
      << "a commit behind a held session left the validation window";
  EXPECT_GE(max_landed, 1u) << "no commit landed behind a held session";
  EXPECT_EQ(manager->stats().validation_records, 0u)
      << "no session is live, so no record can convict anyone";
  EXPECT_EQ(manager->stats().validation_tuples, 0u);

  std::vector<CommittedTxn> order;
  for (const auto& per_thread : committed_per_thread) {
    order.insert(order.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(order.begin(), order.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              if (a.commit_version != b.commit_version) {
                return a.commit_version < b.commit_version;
              }
              return a.installed && !b.installed;
            });

  Database replay_db = initial.Clone();
  core::IntegritySubsystem replay_ics(&replay_db);
  DefineConstraints(&replay_ics);
  for (const CommittedTxn& c : order) {
    const WorkItem& item = workloads[static_cast<std::size_t>(c.thread_id)]
                                    [static_cast<std::size_t>(c.txn_index)];
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult replayed,
                               replay_ics.Execute(item.txn));
    ASSERT_TRUE(replayed.committed)
        << "transaction committed concurrently at version "
        << c.commit_version << " but aborts in serial replay: "
        << replayed.abort_reason << " (" << item.trace << ", thread "
        << c.thread_id << ")";
    ASSERT_EQ(FullCheck(replay_db), "")
        << "after the commit at version " << c.commit_version;
  }
  // Every committer swapped its compaction in before its commit returned,
  // so the comparison also covers the swapped-in chains.
  EXPECT_TRUE(db.SameState(replay_db))
      << "concurrent final state differs from serial replay in commit "
         "order";

  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options));
  EXPECT_TRUE(recovered.SameState(db))
      << "checkpoint+WAL recovery diverges from the live state";
  EXPECT_EQ(recovered.logical_time(), db.logical_time());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, StragglerOracleTest,
                         ::testing::ValuesIn(StragglerThreadCounts()),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return StrCat(param.param, "threads");
                         });

// ---------------------------------------------------------------------------
// High-contention, multi-relation oracle: 16 threads over 8 relations
// with a mix of thread-disjoint and deliberately overlapping footprints,
// committing through one WAL. Commits append outside the commit lock, so
// under this concurrency the log holds versions out of file order. The
// final state must still equal the serial replay of the committed
// transactions in commit-version order, and recovery, which replays the
// log in version order, must reproduce it exactly.
// ---------------------------------------------------------------------------

constexpr int kOracleRelations = 8;
constexpr int kHighContentionThreads = 16;
constexpr int kSharedIds = 6;  // tiny shared id range => real conflicts

std::string OracleRelName(int r) { return StrCat("acct", r); }

Database MakeMultiRelationDatabase() {
  Database db;
  for (int r = 0; r < kOracleRelations; ++r) {
    TXMOD_BENCH_CHECK_OK(db.CreateRelation(RelationSchema(
        OracleRelName(r), {Attribute{"id", AttrType::kInt},
                           Attribute{"tag", AttrType::kString}})));
    Relation* rel = *db.FindMutable(OracleRelName(r));
    for (int i = 0; i < kSharedIds; ++i) {
      rel->Insert(Tuple({Value::Int(i), Value::String("seed")}));
    }
  }
  return db;
}

/// One statement per touched relation. Footprints mix three shapes:
/// thread-private inserts (never conflict), shared-id deletes and
/// re-inserts (tuple-granularity write-write conflicts), and
/// multi-relation transactions whose statements span 2-3 relations —
/// one log record with several deltas.
std::vector<WorkItem> MakeMultiRelationWorkload(int thread_id,
                                                unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  auto insert_stmt = [](int r, Tuple t) {
    return algebra::Statement::Insert(
        OracleRelName(r), algebra::RelExpr::Literal({std::move(t)}, 2));
  };
  auto delete_stmt = [](int r, Tuple t) {
    return algebra::Statement::Delete(
        OracleRelName(r), algebra::RelExpr::Literal({std::move(t)}, 2));
  };
  std::vector<WorkItem> items;
  int next_id = 1'000'000 + thread_id * 100'000;
  for (int i = 0; i < kTxnsPerThread; ++i) {
    Transaction txn;
    std::string trace;
    switch (pick(4)) {
      case 0: {  // disjoint: private ids into this thread's home relation
        const int r = thread_id % kOracleRelations;
        txn.program.statements.push_back(insert_stmt(
            r, Tuple({Value::Int(next_id++), Value::String("mine")})));
        trace = "private insert";
        break;
      }
      case 1: {  // overlapping: toggle a shared id in a random relation
        const int r = pick(kOracleRelations);
        Tuple shared({Value::Int(pick(kSharedIds)), Value::String("seed")});
        if (pick(2) == 0) {
          txn.program.statements.push_back(delete_stmt(r, shared));
          trace = "shared delete";
        } else {
          txn.program.statements.push_back(insert_stmt(r, std::move(shared)));
          trace = "shared insert";
        }
        break;
      }
      case 2: {  // multi-relation fan-out, disjoint ids (2-3 relations)
        const int span = 2 + pick(2);
        for (int s = 0; s < span; ++s) {
          txn.program.statements.push_back(insert_stmt(
              (thread_id + s) % kOracleRelations,
              Tuple({Value::Int(next_id++), Value::String("fanout")})));
        }
        trace = "multi-relation insert";
        break;
      }
      default: {  // multi-relation with one contended statement
        const int r = pick(kOracleRelations);
        txn.program.statements.push_back(insert_stmt(
            (r + 1) % kOracleRelations,
            Tuple({Value::Int(next_id++), Value::String("mixed")})));
        txn.program.statements.push_back(delete_stmt(
            r, Tuple({Value::Int(pick(kSharedIds)), Value::String("seed")})));
        trace = "mixed fan-out";
        break;
      }
    }
    items.push_back(WorkItem{std::move(txn), std::move(trace)});
  }
  return items;
}

TEST(HighContentionMultiRelationTest,
     SixteenThreadsOverOneWalMatchSerialReplay) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_oracle_multirel_", ::getpid());
  std::filesystem::create_directories(dir);
  TxnManagerOptions options;
  options.wal_path = (dir / "wal.log").string();
  options.checkpoint_path = (dir / "checkpoint.db").string();

  Database db = MakeMultiRelationDatabase();
  Database initial = db.Clone();
  core::IntegritySubsystem ics(&db);  // no constraints: conflicts, not aborts
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options));

  std::vector<std::vector<WorkItem>> workloads;
  for (int t = 0; t < kHighContentionThreads; ++t) {
    workloads.push_back(
        MakeMultiRelationWorkload(t, 104'729u * static_cast<unsigned>(t + 1)));
  }

  std::vector<std::vector<CommittedTxn>> committed_per_thread(
      kHighContentionThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kHighContentionThreads);
  for (int t = 0; t < kHighContentionThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto result = manager->Run(workloads[static_cast<std::size_t>(t)]
                                       [static_cast<std::size_t>(i)]
                                           .txn);
        if (!result.ok()) {
          ++failures;
          return;
        }
        if (result->committed) {
          committed_per_thread[static_cast<std::size_t>(t)].push_back(
              CommittedTxn{result->commit_version, result->installed, t, i});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0) << "a Run() returned an error status";

  std::vector<CommittedTxn> order;
  for (const auto& per_thread : committed_per_thread) {
    order.insert(order.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(order.begin(), order.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              if (a.commit_version != b.commit_version) {
                return a.commit_version < b.commit_version;
              }
              return a.installed && !b.installed;
            });

  Database replay_db = initial.Clone();
  core::IntegritySubsystem replay_ics(&replay_db);
  for (const CommittedTxn& c : order) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult replayed,
        replay_ics.Execute(
            workloads[static_cast<std::size_t>(c.thread_id)]
                     [static_cast<std::size_t>(c.txn_index)]
                         .txn));
    ASSERT_TRUE(replayed.committed)
        << "transaction committed concurrently at version "
        << c.commit_version << " but aborts in serial replay ("
        << workloads[static_cast<std::size_t>(c.thread_id)]
                    [static_cast<std::size_t>(c.txn_index)]
                        .trace
        << ")";
  }
  // Every committer swapped its compaction in before its commit returned,
  // so the comparison also covers the swapped-in chains.
  EXPECT_TRUE(db.SameState(replay_db))
      << "concurrent final state differs from serial replay in commit "
       "order";

  const uint64_t installed = static_cast<uint64_t>(std::count_if(
      order.begin(), order.end(),
      [](const CommittedTxn& c) { return c.installed; }));
  EXPECT_EQ(manager->committed_version(),
            initial.logical_time() + installed);

  // Recovery reproduces the live state exactly.
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options, &stats));
  EXPECT_TRUE(recovered.SameState(db))
      << "checkpoint+WAL recovery diverges from the live state";
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  EXPECT_EQ(stats.records_read, installed);
  EXPECT_EQ(recovered.logical_time(), db.logical_time());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace txmod::txn
