// Overlay-session oracle: a session's writes live in one overlay level
// per relation over its pinned snapshot, and that level is its whole
// differential — dplus/dminus, old() and the undo log. The oracle checks
// the manager against a reference that never goes through a snapshot:
//
//  1. a deterministic randomized session script (interleaved sessions,
//     conflicts, integrity aborts, multi-execute sessions, explicit
//     aborts) whose every Execute outcome, Commit outcome and commit
//     version, and the master state after each commit, must equal a
//     serial replay on flat databases rebuilt tuple by tuple at each
//     session's snapshot version (first-committer-wins validation
//     re-derived from the replay's read sets and net deltas, and from
//     write footprints read off the script's literals rather than from
//     the overlay levels the manager validates). After every commit the
//     master must also satisfy every constraint, evaluated in full by
//     PostHocChecker;
//
//  2. a multi-threaded workload with a scheduling-independent final
//     state (disjoint inserts plus per-thread contended keys, retried
//     through Run) must converge to the state and version of its serial
//     replay, with commit compaction and shared overlay levels exercised
//     under real concurrency (this test runs in the TSan CI job).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using algebra::Transaction;

constexpr int kKeys = 20;
constexpr int kSharedKeys = 8;
constexpr int kSharedRows = 6;  // fk_rel rows that scripts delete and restore

/// Row `id` of MakeKeyFkDatabase's fk_rel.
Tuple FkRow(int id) {
  return Tuple({Value::Int(id), Value::String(StrCat("k", id % kKeys)),
                Value::Double(1.0 + id % 10)});
}

Database MakeInitialDatabase() {
  Database db = bench::MakeKeyFkDatabase(kKeys, 200);
  bench::AddUnreferencedKeys(&db, 32);
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

// ---------------------------------------------------------------------------
// Pin 1: deterministic session script against the snapshot-free reference.
// ---------------------------------------------------------------------------

struct ScriptStep {
  enum class Kind { kBegin, kExecute, kCommit, kAbort } kind;
  int slot = 0;       // which of the open-session slots
  Transaction txn;    // kExecute only
  std::string trace;  // for failure messages
};

/// A randomized but fully pre-generated script over `slots` concurrently
/// open sessions: the interleaving (and thus which commits conflict) is
/// part of the script, so the manager and the reference see the exact
/// same history.
std::vector<ScriptStep> MakeScript(unsigned seed, int steps, int slots) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int next_id = 2'000'000;
  std::vector<ScriptStep> script;
  for (int i = 0; i < steps; ++i) {
    ScriptStep step;
    step.slot = pick(slots);
    switch (pick(8)) {
      case 0:
        step.kind = ScriptStep::Kind::kBegin;
        step.trace = "begin";
        break;
      case 1:
        step.kind = ScriptStep::Kind::kCommit;
        step.trace = "commit";
        break;
      case 2:
        step.kind = ScriptStep::Kind::kAbort;
        step.trace = "abort";
        break;
      default: {
        step.kind = ScriptStep::Kind::kExecute;
        switch (pick(7)) {
          case 0:
          case 1: {  // valid fk insert
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "fk_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::Int(next_id++),
                            Value::String(StrCat("k", pick(kKeys))),
                            Value::Double(1.0 + pick(9))})},
                    3)));
            step.trace = "valid fk insert";
            break;
          }
          case 2: {  // contended shared-key delete
            step.txn.program.statements.push_back(algebra::Statement::Delete(
                "key_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                            Value::String("payload")})},
                    2)));
            step.trace = "shared key delete";
            break;
          }
          case 3: {  // contended shared-key (re-)insert
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "key_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                            Value::String("payload")})},
                    2)));
            step.trace = "shared key insert";
            break;
          }
          case 4: {  // contended fk row: delete it or restore it
            // The checks these writes trigger never read fk_rel, so a
            // concurrent commit of the row convicts the session through
            // its write footprint, no-ops included.
            auto row =
                algebra::RelExpr::Literal({FkRow(pick(kSharedRows))}, 3);
            const bool restore = pick(2) == 0;
            step.txn.program.statements.push_back(
                restore ? algebra::Statement::Insert("fk_rel", std::move(row))
                        : algebra::Statement::Delete("fk_rel", std::move(row)));
            step.trace = restore ? "shared row restore" : "shared row delete";
            break;
          }
          case 5: {  // contended fk row, written twice: nets out or no-op
            const Tuple row = FkRow(pick(kSharedRows));
            auto insert = algebra::Statement::Insert(
                "fk_rel", algebra::RelExpr::Literal({row}, 3));
            auto erase = algebra::Statement::Delete(
                "fk_rel", algebra::RelExpr::Literal({row}, 3));
            const bool insert_first = pick(2) == 0;
            step.txn.program.statements.push_back(insert_first ? insert
                                                               : erase);
            step.txn.program.statements.push_back(insert_first ? erase
                                                               : insert);
            step.trace = insert_first ? "shared row insert+delete"
                                      : "shared row delete+insert";
            break;
          }
          default: {  // dangling ref: integrity abort
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "fk_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::Int(next_id++),
                            Value::String(StrCat("zz", pick(50))),
                            Value::Double(3.0)})},
                    3)));
            step.trace = "dangling fk insert";
            break;
          }
        }
        break;
      }
    }
    script.push_back(std::move(step));
  }
  return script;
}

using TupleSet = std::set<Tuple, testing::TupleLess>;

/// One reference session: the transactions run serially, modified and
/// checked by a subsystem with the manager's constraints, against a flat
/// database rebuilt from the reference master at Begin. Its context
/// records the read set validation needs. The write footprint comes from
/// the script instead, not from the context the manager's validation
/// reads: every tuple an executed insert or delete named, no-ops and
/// writes an integrity abort rolled back included.
struct RefSession {
  uint64_t snapshot_version = 0;
  Database start;  // the snapshot's contents, for the net delta
  Database db;     // start plus this session's writes
  std::unique_ptr<TxnContext> ctx;
  std::map<std::string, TupleSet> attempted;  // the write footprint
  bool integrity_aborted = false;
};

/// The snapshot-free reference: a flat master, the serial replay of each
/// session, and every commit's write set for first-committer-wins.
class Reference {
 public:
  Reference() : master_(MakeInitialDatabase()), ics_(&master_) {
    DefineConstraints(&ics_);
  }

  const Database& master() const { return master_; }

  std::unique_ptr<RefSession> Begin() {
    auto session = std::make_unique<RefSession>();
    session->snapshot_version = master_.logical_time();
    session->start = testing::Rebuild(master_);
    session->db = testing::Rebuild(master_);
    session->ctx = std::make_unique<TxnContext>(&session->db);
    session->ctx->set_plan_cache(&ics_.plan_cache());
    session->ctx->EnableConflictTracking();
    return session;
  }

  /// The predicted outcome of TxnSession::Execute.
  std::string Execute(RefSession* session, const Transaction& txn) {
    if (session->integrity_aborted) return "error:FailedPrecondition";
    auto modified = ics_.Modify(txn);
    if (!modified.ok()) return "error:modify";
    // The constraints only raise alarms, so the script's statements are
    // the transaction's only writes.
    for (const algebra::Statement& stmt : txn.program.statements) {
      const RelationSchema& schema =
          (*session->db.Find(stmt.target))->schema();
      for (const Tuple& t : stmt.expr->literal_tuples()) {
        session->attempted[stmt.target].insert(schema.CoerceTuple(t));
      }
    }
    auto r = ExecuteProgram(*modified, session->ctx.get());
    if (!r.ok()) return StrCat("error:", r.status().ToString());
    if (!r->committed) session->integrity_aborted = true;
    return r->committed ? "clean" : "aborted";
  }

  /// The predicted outcome of TxnSession::Commit; installs on success.
  std::string Commit(const RefSession& session) {
    if (Conflicts(session)) return Outcome(false, true, false, 0);
    if (session.integrity_aborted) return Outcome(false, false, false, 0);
    // The net delta: the session's post-state against its snapshot.
    std::map<std::string, TupleSet> writes;
    for (const std::string& name : master_.RelationNames()) {
      const Relation& before = **session.start.Find(name);
      const Relation& after = **session.db.Find(name);
      TupleSet changed;
      for (const Tuple& t : after) {
        if (!before.Contains(t)) changed.insert(t);
      }
      for (const Tuple& t : before) {
        if (!after.Contains(t)) changed.insert(t);
      }
      if (!changed.empty()) writes.emplace(name, std::move(changed));
    }
    if (writes.empty()) {
      return Outcome(true, false, false, master_.logical_time());
    }
    for (const auto& [name, changed] : writes) {
      const Relation& after = **session.db.Find(name);
      Relation* rel = *master_.FindMutable(name);
      for (const Tuple& t : changed) {
        if (after.Contains(t)) {
          rel->Insert(t);
        } else {
          rel->Erase(t);
        }
      }
    }
    master_.AdvanceTime();
    commits_.push_back(Committed{master_.logical_time(), std::move(writes)});
    return Outcome(true, false, true, master_.logical_time());
  }

  static std::string Outcome(bool committed, bool conflict, bool installed,
                             uint64_t version) {
    return StrCat(committed ? "committed" : "lost", ":",
                  conflict ? "conflict" : "-", ":installed=",
                  installed ? "1" : "0", ":v=", version);
  }

 private:
  struct Committed {
    uint64_t version;
    std::map<std::string, TupleSet> writes;
  };

  /// First-committer-wins: a commit after the snapshot wrote a relation
  /// the session read, or a tuple the session tried to write.
  bool Conflicts(const RefSession& session) const {
    for (const Committed& c : commits_) {
      if (c.version <= session.snapshot_version) continue;
      for (const auto& [name, changed] : c.writes) {
        if (session.ctx->BaseReads().count(name) > 0) return true;
        auto fp = session.attempted.find(name);
        if (fp == session.attempted.end()) continue;
        for (const Tuple& t : fp->second) {
          if (changed.count(t) > 0) return true;
        }
      }
    }
    return false;
  }

  Database master_;
  core::IntegritySubsystem ics_;
  std::vector<Committed> commits_;
};

std::string ExecuteOutcome(const Result<TxnResult>& r) {
  if (!r.ok()) {
    return r.status().code() == StatusCode::kFailedPrecondition
               ? "error:FailedPrecondition"
               : StrCat("error:", r.status().ToString());
  }
  return r->committed ? "clean" : "aborted";
}

std::string CommitOutcome(const Result<TxnResult>& r) {
  if (!r.ok()) return StrCat("error:", r.status().ToString());
  return Reference::Outcome(r->committed, r->conflict, r->installed,
                            r->commit_version);
}

TEST(OverlayOracleTest, SessionScriptMatchesSnapshotFreeReference) {
  constexpr int kSlots = 3;
  uint64_t conflicts = 0, integrity_aborts = 0;
  for (unsigned seed : {11u, 29u, 47u, 83u}) {
    const std::vector<ScriptStep> script = MakeScript(seed, 400, kSlots);
    Database db = MakeInitialDatabase();
    core::IntegritySubsystem ics(&db);
    DefineConstraints(&ics);
    TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));
    Reference ref;

    std::vector<std::unique_ptr<TxnSession>> sessions(kSlots);
    std::vector<std::unique_ptr<RefSession>> ref_sessions(kSlots);
    uint64_t commits = 0;
    for (std::size_t i = 0; i < script.size(); ++i) {
      const ScriptStep& step = script[i];
      SCOPED_TRACE(StrCat("seed ", seed, ", step ", i, " (", step.trace,
                          ")"));
      auto& session = sessions[static_cast<std::size_t>(step.slot)];
      auto& ref_session = ref_sessions[static_cast<std::size_t>(step.slot)];
      const bool open = session != nullptr && !session->finished();
      ASSERT_EQ(open, ref_session != nullptr);
      switch (step.kind) {
        case ScriptStep::Kind::kBegin:
          // (Re-)opening a slot drops any session already in it — the
          // destructor release path is part of what the oracle covers.
          session = manager->Begin();
          ref_session = ref.Begin();
          ASSERT_EQ(session->snapshot_version(),
                    ref_session->snapshot_version);
          break;
        case ScriptStep::Kind::kExecute:
          if (!open) {  // a closed slot begins a session first
            session = manager->Begin();
            ref_session = ref.Begin();
            ASSERT_EQ(session->snapshot_version(),
                      ref_session->snapshot_version);
          }
          ASSERT_EQ(ExecuteOutcome(session->Execute(step.txn)),
                    ref.Execute(ref_session.get(), step.txn));
          break;
        case ScriptStep::Kind::kCommit: {
          if (!open) break;
          const std::string actual = CommitOutcome(session->Commit());
          const std::string expected = ref.Commit(*ref_session);
          ref_session = nullptr;
          ASSERT_EQ(actual, expected);
          ++commits;
          ASSERT_TRUE(db.SameState(ref.master()))
              << "master diverges from the reference after a commit";
          ASSERT_EQ(manager->committed_version(),
                    ref.master().logical_time());
          ASSERT_EQ(
              testing::FullCheckViolation(testing::Rebuild(db), kConstraints),
              "");
          break;
        }
        case ScriptStep::Kind::kAbort:
          if (session != nullptr) session->Abort();
          ref_session = nullptr;
          break;
      }
    }
    EXPECT_GT(commits, 0u) << "seed " << seed;
    // Every committer swapped its compaction in before its commit
    // returned: the master still equals the reference.
    for (auto& session : sessions) session.reset();
    ASSERT_TRUE(db.SameState(ref.master()))
        << "a swapped-in compaction changed the master, seed " << seed;
    ASSERT_EQ(
        testing::FullCheckViolation(testing::Rebuild(db), kConstraints), "");
    conflicts += manager->stats().conflicts;
    integrity_aborts += manager->stats().integrity_aborts;
  }
  // The script exercises both kinds of lost commit.
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(integrity_aborts, 0u);
}

// ---------------------------------------------------------------------------
// Pin 2: threaded convergence (TSan coverage of shared overlay levels and
// commit compaction).
// ---------------------------------------------------------------------------

int OracleThreads() {
  if (const char* env = std::getenv("TXMOD_ORACLE_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::min(n, 32);
  }
  return 4;
}

/// The per-thread transactions of the threaded workload: disjoint fk
/// inserts interleaved with delete / re-insert rounds of the thread's
/// OWN key (real write-write and read-write contention, but a
/// scheduling-independent net effect once Run's retries drain).
std::vector<Transaction> ThreadTransactions(int t) {
  std::vector<Transaction> txns;
  int next_id = 3'000'000 + t * 100'000;
  for (int round = 0; round < 20; ++round) {
    {  // disjoint valid insert
      Transaction txn;
      txn.program.statements.push_back(algebra::Statement::Insert(
          "fk_rel",
          algebra::RelExpr::Literal(
              {Tuple({Value::Int(next_id++),
                      Value::String(StrCat("k", round % kKeys)),
                      Value::Double(2.0)})},
              3)));
      txns.push_back(std::move(txn));
    }
    {  // contended: delete own key (round even), re-insert (odd)
      Transaction txn;
      auto literal = algebra::RelExpr::Literal(
          {Tuple({Value::String(StrCat("x", t)), Value::String("payload")})},
          2);
      txn.program.statements.push_back(
          round % 2 == 0
              ? algebra::Statement::Delete("key_rel", std::move(literal))
              : algebra::Statement::Insert("key_rel", std::move(literal)));
      txns.push_back(std::move(txn));
    }
  }
  return txns;
}

TEST(OverlayOracleTest, ThreadedWorkloadConvergesToSerialReplay) {
  const int num_threads = OracleThreads();
  Database db = MakeInitialDatabase();
  core::IntegritySubsystem ics(&db);
  DefineConstraints(&ics);
  TxnManagerOptions options;
  options.max_attempts = 64;  // retries must drain under full contention
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (const Transaction& txn : ThreadTransactions(t)) {
        auto result = manager->Run(txn);
        if (!result.ok() || !result->committed) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0)
      << "a transaction failed to commit despite retries";
  // Every committer swapped its compaction in before its commit returned,
  // so the comparison below also covers the swapped-in chains.

  // The serial replay, thread after thread, on a flat database.
  Database replay = MakeInitialDatabase();
  core::IntegritySubsystem replay_ics(&replay);
  DefineConstraints(&replay_ics);
  for (int t = 0; t < num_threads; ++t) {
    for (const Transaction& txn : ThreadTransactions(t)) {
      TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r, replay_ics.Execute(txn));
      ASSERT_TRUE(r.committed) << r.abort_reason;
    }
  }
  EXPECT_TRUE(db.SameState(replay))
      << "the threaded run converges to a different state than its replay";
  EXPECT_EQ(manager->committed_version(), replay.logical_time());
  EXPECT_EQ(
      testing::FullCheckViolation(testing::Rebuild(db), kConstraints), "");
}

}  // namespace
}  // namespace txmod::txn
