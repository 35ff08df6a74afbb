// TxnManager semantics, deterministically (single-threaded): snapshot
// isolation (sessions read the pinned D^t), first-committer-wins
// validation at both granularities (tuple-level write footprint,
// relation-level read set), integrity-abort validation, read-only
// commits, the validation-window fallback and retention, and equivalence
// with the serial ExecuteTransaction path. The randomized multi-threaded
// oracle lives in tests/concurrent_oracle_test.cc.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/algebra/parser.h"
#include "src/common/str_util.h"
#include "src/common/vfs.h"
#include "src/core/subsystem.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::BeerDomainConstraint;
using txmod::testing::BeerRefIntConstraint;
using txmod::testing::FullCheckViolation;
using txmod::testing::MakeBeerDatabase;
using txmod::testing::NamedConstraint;
using txmod::testing::Rebuild;

struct Fixture {
  Database db;
  std::unique_ptr<core::IntegritySubsystem> ics;
  std::unique_ptr<TxnManager> manager;

  explicit Fixture(TxnManagerOptions options = {}) {
    db = MakeBeerDatabase();
    AddBrewery(&db, "heineken", "amsterdam", "nl");
    AddBrewery(&db, "guinness", "dublin", "ie");
    AddBeer(&db, "lager0", "lager", "heineken", 5.0);
    ics = std::make_unique<core::IntegritySubsystem>(&db);
    EXPECT_TRUE(ics->DefineConstraint("domain", BeerDomainConstraint()).ok());
    EXPECT_TRUE(ics->DefineConstraint("refint", BeerRefIntConstraint()).ok());
    auto created = TxnManager::Create(ics.get(), std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    manager = std::move(*created);
  }
};

bool HasBeer(const Database& db, const std::string& name) {
  const Relation* beer = *db.Find("beer");
  for (const Tuple& t : *beer) {
    if (t.at(0).as_string() == name) return true;
  }
  return false;
}

/// Rebuilds the fixture's initial state for comparison.
Database MakeFixtureState() {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBrewery(&db, "guinness", "dublin", "ie");
  AddBeer(&db, "lager0", "lager", "heineken", 5.0);
  return db;
}

std::string InsertBeerText(const std::string& name) {
  return StrCat("insert(beer, {(\"", name, "\", \"ale\", \"guinness\", "
                "6.0)});");
}

/// One statement inserting the beers `prefix`0 .. `prefix`<n - 1>.
std::string InsertBeersText(const std::string& prefix, int n) {
  std::vector<std::string> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        StrCat("(\"", prefix, i, "\", \"ale\", \"guinness\", 6.0)"));
  }
  return StrCat("insert(beer, {", Join(rows, ", "), "});");
}

TEST(TxnManagerTest, SingleSessionCommitInstallsAndAdvances) {
  Fixture f;
  const uint64_t before = f.manager->committed_version();
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult executed,
      session->ExecuteText(
          "insert(beer, {(\"fresh\", \"ale\", \"guinness\", 6.0)});"));
  EXPECT_TRUE(executed.committed);  // ran cleanly; not yet installed
  EXPECT_FALSE(HasBeer(f.db, "fresh")) << "visible before commit";
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, session->Commit());
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(result.installed);
  EXPECT_EQ(result.commit_version, before + 1);
  EXPECT_TRUE(HasBeer(f.db, "fresh"));
  EXPECT_EQ(f.manager->committed_version(), before + 1);
  EXPECT_EQ(f.manager->stats().commits, 1u);
}

TEST(TxnManagerTest, SnapshotReadsArePinnedToBeginTime) {
  Fixture f;
  auto reader = f.manager->Begin();
  // Another client commits while `reader` is open.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult other,
      f.manager->RunText(
          "insert(beer, {(\"mid\", \"ale\", \"guinness\", 6.0)});"));
  ASSERT_TRUE(other.committed);
  EXPECT_TRUE(HasBeer(f.db, "mid"));
  // The open session still sees D^t of its Begin().
  EXPECT_FALSE(HasBeer(reader->snapshot(), "mid"));
  // And the committed master never sees the session's private writes.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult writes,
      reader->ExecuteText(
          "insert(beer, {(\"priv\", \"ale\", \"guinness\", 6.0)});"));
  EXPECT_TRUE(writes.committed);
  EXPECT_TRUE(HasBeer(reader->snapshot(), "priv"));
  EXPECT_FALSE(HasBeer(f.db, "priv"));
  reader->Abort();
  EXPECT_FALSE(HasBeer(f.db, "priv"));
}

TEST(TxnManagerTest, FirstCommitterWinsOnOverlappingWrites) {
  Fixture f;
  auto first = f.manager->Begin();
  auto second = f.manager->Begin();
  const std::string same =
      "insert(beer, {(\"dup\", \"ale\", \"guinness\", 6.0)});";
  TXMOD_ASSERT_OK(first->ExecuteText(same).status());
  TXMOD_ASSERT_OK(second->ExecuteText(same).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult win, first->Commit());
  EXPECT_TRUE(win.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lose, second->Commit());
  EXPECT_FALSE(lose.committed);
  EXPECT_TRUE(lose.conflict) << lose.abort_reason;
  EXPECT_EQ(f.manager->stats().conflicts, 1u);
}

TEST(TxnManagerTest, DisjointWritesToOneRelationBothCommit) {
  Fixture f;
  auto a = f.manager->Begin();
  auto b = f.manager->Begin();
  // Neither transaction's rule checks read `beer` at base granularity
  // (the differential checks probe dplus(beer) and the brewery side), so
  // disjoint inserts into the same relation must not conflict.
  TXMOD_ASSERT_OK(
      a->ExecuteText("insert(beer, {(\"a1\", \"ale\", \"guinness\", 6.0)});")
          .status());
  TXMOD_ASSERT_OK(
      b->ExecuteText("insert(beer, {(\"b1\", \"ale\", \"heineken\", 5.0)});")
          .status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult ra, a->Commit());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult rb, b->Commit());
  EXPECT_TRUE(ra.committed);
  EXPECT_TRUE(rb.committed) << rb.abort_reason;
  EXPECT_TRUE(HasBeer(f.db, "a1"));
  EXPECT_TRUE(HasBeer(f.db, "b1"));
}

TEST(TxnManagerTest, ReadWriteConflictOnRuleCheckedRelation) {
  Fixture f;
  // Inserting a beer reads `brewery` (the referential check probes it);
  // a concurrent commit touching `brewery` must defeat it, even though
  // the two write disjoint relations.
  auto inserter = f.manager->Begin();
  TXMOD_ASSERT_OK(
      inserter
          ->ExecuteText(
              "insert(beer, {(\"rw\", \"ale\", \"guinness\", 6.0)});")
          .status());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult brewery_commit,
      f.manager->RunText("insert(brewery, {(\"plzen\", \"pilsen\", "
                         "\"cz\")});"));
  ASSERT_TRUE(brewery_commit.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, inserter->Commit());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict);
  EXPECT_NE(result.abort_reason.find("read-write"), std::string::npos)
      << result.abort_reason;
}

TEST(TxnManagerTest, NoOpInsertIsATupleGranularityRead) {
  Fixture f;
  // T2 "inserts" a beer that already exists in its snapshot — a no-op
  // leaving no differential. T1 concurrently deletes that tuple and
  // commits first. Serially (T1 then T2) the insert would NOT be a
  // no-op, so T2 must conflict, not silently commit nothing.
  auto t2 = f.manager->Begin();
  TXMOD_ASSERT_OK(
      t2->ExecuteText(
            "insert(beer, {(\"lager0\", \"lager\", \"heineken\", 5.0)});")
          .status());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult del,
      f.manager->RunText(
          "delete(beer, {(\"lager0\", \"lager\", \"heineken\", 5.0)});"));
  ASSERT_TRUE(del.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, t2->Commit());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict) << result.abort_reason;
}

// The level shows every write that took effect; the attempts it does not
// show are still tuple-granularity reads. In each case below the session
// leaves no differential for the tuple, a concurrent commit writes it
// first, and the session must lose write-write.

/// Runs `session_text` in a session, commits `concurrent_text` through
/// Run while the session is live, and expects the session's commit to
/// lose write-write on beer.
void ExpectWriteWriteLoss(Fixture* f, const std::string& session_text,
                          const std::string& concurrent_text) {
  auto session = f->manager->Begin();
  TXMOD_ASSERT_OK(session->ExecuteText(session_text).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult concurrent,
                             f->manager->RunText(concurrent_text));
  ASSERT_TRUE(concurrent.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, session->Commit());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict);
  EXPECT_NE(result.abort_reason.find("write-write conflict on beer"),
            std::string::npos)
      << result.abort_reason;
}

TEST(TxnManagerTest, NoOpDeleteIsATupleGranularityRead) {
  Fixture f;
  // Serially (the insert first) the delete would remove the beer.
  ExpectWriteWriteLoss(
      &f, "delete(beer, {(\"ghost\", \"ale\", \"guinness\", 6.0)});",
      InsertBeerText("ghost"));
}

TEST(TxnManagerTest, InsertThenDeleteOfANewTupleIsATupleGranularityRead) {
  Fixture f;
  // Serially the insert would be a no-op and the delete would remove the
  // concurrently inserted beer.
  ExpectWriteWriteLoss(
      &f,
      StrCat(InsertBeerText("ghost"),
             "delete(beer, {(\"ghost\", \"ale\", \"guinness\", 6.0)});"),
      InsertBeerText("ghost"));
}

TEST(TxnManagerTest, DeleteThenReinsertOfABaseTupleIsATupleGranularityRead) {
  Fixture f;
  // Serially the delete would be a no-op and the re-insert would bring
  // back the concurrently deleted beer.
  const std::string lager0 = "{(\"lager0\", \"lager\", \"heineken\", 5.0)}";
  ExpectWriteWriteLoss(
      &f, StrCat("delete(beer, ", lager0, "); insert(beer, ", lager0, ");"),
      StrCat("delete(beer, ", lager0, ");"));
}

TEST(TxnManagerTest, WriteRolledBackByAnIntegrityAbortIsATupleGranularityRead) {
  Fixture f;
  // The domain check aborts the batch, which rolls back the valid
  // beer's insert too; the abort decision still rests on that attempt.
  ExpectWriteWriteLoss(
      &f,
      "insert(beer, {(\"ghost\", \"ale\", \"guinness\", 6.0), "
      "(\"strong\", \"ale\", \"guinness\", 150.0)});",
      InsertBeerText("ghost"));
  EXPECT_EQ(f.manager->stats().integrity_aborts, 0u);
}

TEST(TxnManagerTest, IntegrityAbortSurvivesValidationWhenReadsAreStable) {
  Fixture f;
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult executed,
      session->ExecuteText(
          "insert(beer, {(\"orphan\", \"ale\", \"nowhere\", 6.0)});"));
  EXPECT_FALSE(executed.committed);
  EXPECT_FALSE(executed.abort_reason.empty());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, session->Commit());
  EXPECT_FALSE(result.committed);
  EXPECT_FALSE(result.conflict);  // a real integrity abort, not stale reads
  EXPECT_EQ(f.manager->stats().integrity_aborts, 1u);
  EXPECT_TRUE(f.db.SameState(MakeFixtureState()))
      << "abort must leave the committed state unchanged";
}

TEST(TxnManagerTest, StaleIntegrityAbortIsAConflictNotAnAbort) {
  Fixture f;
  // The session decides "abort: no such brewery" against its snapshot,
  // but a concurrent commit creates the brewery first. The abort
  // decision is stale — the manager must report a retryable conflict,
  // and the retry (Run) must commit.
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult executed,
      session->ExecuteText(
          "insert(beer, {(\"norse\", \"ale\", \"newbrew\", 5.5)});"));
  EXPECT_FALSE(executed.committed);  // aborts on refint against snapshot
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult brewery,
      f.manager->RunText(
          "insert(brewery, {(\"newbrew\", \"oslo\", \"no\")});"));
  ASSERT_TRUE(brewery.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult stale, session->Commit());
  EXPECT_FALSE(stale.committed);
  EXPECT_TRUE(stale.conflict) << "stale abort must surface as a conflict";
  // A fresh Run now sees the brewery and commits.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult retry,
      f.manager->RunText(
          "insert(beer, {(\"norse\", \"ale\", \"newbrew\", 5.5)});"));
  EXPECT_TRUE(retry.committed);
}

TEST(TxnManagerTest, ReadOnlyCommitConsumesNoVersion) {
  Fixture f;
  const uint64_t before = f.manager->committed_version();
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK(
      session->ExecuteText("tmp := select[alcohol > 100](beer);").status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, session->Commit());
  EXPECT_TRUE(result.committed);
  EXPECT_FALSE(result.installed);
  EXPECT_EQ(result.commit_version, before);
  EXPECT_EQ(f.manager->committed_version(), before);
  EXPECT_EQ(f.manager->stats().readonly_commits, 1u);
}

TEST(TxnManagerTest, ValidationWindowOverflowConflictsConservatively) {
  Fixture f;
  auto old_session = f.manager->Begin();
  TXMOD_ASSERT_OK(
      old_session
          ->ExecuteText(
              "insert(beer, {(\"slow\", \"ale\", \"guinness\", 6.0)});")
          .status());
  // One commit past the window's cap pushes the record the old session
  // needs out of the window.
  for (std::size_t i = 0; i <= TxnManager::kValidationWindow; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult r, f.manager->RunText(InsertBeerText(StrCat("w", i))));
    ASSERT_TRUE(r.committed);
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, old_session->Commit());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict);
  EXPECT_NE(result.abort_reason.find("validation window"),
            std::string::npos);
}

TEST(TxnManagerTest, MultipleExecutesAccumulateOneAtomicSession) {
  Fixture f;
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK(
      session
          ->ExecuteText(
              "insert(brewery, {(\"carlsberg\", \"kbh\", \"dk\")});")
          .status());
  // The second Execute depends on the first's uncommitted write.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult second,
      session->ExecuteText(
          "insert(beer, {(\"hof\", \"pilsner\", \"carlsberg\", 4.5)});"));
  EXPECT_TRUE(second.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result, session->Commit());
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(HasBeer(f.db, "hof"));
  EXPECT_GE(result.statements_executed, 2u);
}

TEST(TxnManagerTest, RunMatchesSerialExecuteTransactionOutcomes) {
  // The same workload through (a) the manager and (b) the classic serial
  // subsystem path must produce identical outcomes and final states.
  Fixture f;
  Database serial_db = MakeFixtureState();
  core::IntegritySubsystem serial_ics(&serial_db);
  TXMOD_ASSERT_OK(
      serial_ics.DefineConstraint("domain", BeerDomainConstraint()));
  TXMOD_ASSERT_OK(
      serial_ics.DefineConstraint("refint", BeerRefIntConstraint()));

  const std::vector<std::string> workload = {
      "insert(beer, {(\"fresh\", \"ale\", \"guinness\", 6.0)});",
      "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});",
      "insert(beer, {(\"neg\", \"ale\", \"heineken\", -1.0)});",
      "delete(brewery, select[name = \"heineken\"](brewery));",
      "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); "
      "delete(brewery, select[name = \"plzen\"](brewery));",
      "tmp := select[alcohol > 7](beer); delete(beer, tmp);",
  };
  for (const std::string& text : workload) {
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult concurrent,
                               f.manager->RunText(text));
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult serial,
                               serial_ics.ExecuteText(text));
    EXPECT_EQ(concurrent.committed, serial.committed) << text;
    EXPECT_EQ(f.db.SameState(serial_db), true) << text;
  }
}

TEST(TxnManagerTest, RunMatchesSubsystemExecuteUnderATransitionConstraint) {
  // A session runs its checks in statement order, so Run must agree with
  // the subsystem's own Execute transaction by transaction: outcome,
  // abort attribution and statement count. The transition constraint's
  // check reads old(brewery) next to dplus/dminus.
  const std::vector<NamedConstraint> constraints = {
      {"domain", "forall x (x in beer implies x.alcohol >= 0)"},
      {"refint", BeerRefIntConstraint()},
      // No brewery disappears.
      {"keep_breweries",
       "forall x (x in old(brewery) implies exists y (y in brewery and "
       "x = y))"}};
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  for (int i = 0; i < 16; ++i) {
    AddBeer(&db, StrCat("beer", i), "lager", "heineken", 4.0 + (i % 5));
  }
  Database serial_db = db.Clone();
  core::IntegritySubsystem ics(&db);
  core::IntegritySubsystem serial_ics(&serial_db);
  for (const NamedConstraint& c : constraints) {
    TXMOD_ASSERT_OK(ics.DefineConstraint(c.name, c.cl_text));
    TXMOD_ASSERT_OK(serial_ics.DefineConstraint(c.name, c.cl_text));
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));

  const std::string dual =
      "insert(beer, {(\"dual\", \"ale\", \"nowhere\", -3.0)});";
  const std::string plzen_delete =
      "delete(brewery, select[name = \"plzen\"](brewery));";
  const std::string plzen_netted =
      plzen_delete + "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")});";
  const std::vector<std::string> workload = {
      "insert(beer, {(\"fresh\", \"ale\", \"heineken\", 6.0)});",
      "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});",   // refint
      "insert(beer, {(\"neg\", \"ale\", \"heineken\", -1.0)});",  // domain
      "delete(brewery, select[name = \"heineken\"](brewery));",   // refint
      "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")});",
      dual,  // violates domain and refint
      // Fires the dminus-driven refint check, which holds (no beer
      // references plzen), and the old(brewery) check, which fails.
      plzen_delete,
      plzen_netted,  // the same delete, netted out: both checks pass
  };
  algebra::AlgebraParser parser(&serial_db.schema());
  for (const std::string& text : workload) {
    SCOPED_TRACE(text);
    TXMOD_ASSERT_OK_AND_ASSIGN(algebra::Transaction txn,
                               parser.ParseTransaction(text));
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult run, manager->Run(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult serial, serial_ics.Execute(txn));
    EXPECT_EQ(run.committed, serial.committed);
    EXPECT_EQ(run.abort_reason, serial.abort_reason);
    EXPECT_EQ(run.aborting_statement, serial.aborting_statement);
    EXPECT_EQ(run.statements_executed, serial.statements_executed);
    EXPECT_TRUE(db.SameState(serial_db));
    if (text == dual) {
      // The first of the two rules' alarms in statement order aborts.
      TXMOD_ASSERT_OK_AND_ASSIGN(algebra::Transaction modified,
                                 ics.Modify(txn));
      const std::vector<algebra::Statement>& stmts =
          modified.program.statements;
      int first = -1;
      for (std::size_t k = 0; k < stmts.size() && first < 0; ++k) {
        if (stmts[k].kind == algebra::StatementKind::kAlarm &&
            (stmts[k].message == "integrity violation: rule domain" ||
             stmts[k].message == "integrity violation: rule refint")) {
          first = static_cast<int>(k);
        }
      }
      ASSERT_GE(first, 0);
      EXPECT_FALSE(run.committed);
      EXPECT_EQ(run.aborting_statement, first);
      EXPECT_EQ(run.abort_reason,
                stmts[static_cast<std::size_t>(first)].message);
    }
    if (text == plzen_delete) {
      EXPECT_FALSE(run.committed);
      EXPECT_NE(run.abort_reason.find("keep_breweries"), std::string::npos)
          << run.abort_reason;
    }
    if (text == plzen_netted) {
      EXPECT_TRUE(run.committed);
    }
  }
}

TEST(TxnManagerTest, FinishedSessionsRejectFurtherUse) {
  Fixture f;
  auto session = f.manager->Begin();
  TXMOD_ASSERT_OK(
      session->ExecuteText("tmp := select[alcohol > 0](beer);").status());
  TXMOD_ASSERT_OK(session->Commit().status());
  EXPECT_TRUE(session->finished());
  EXPECT_EQ(session->ExecuteText("tmp := beer;").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->Commit().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TxnManagerTest, KeyFkWorkloadThroughManagerKeepsIntegrity) {
  // The bench schema end-to-end: dangling inserts abort, valid ones
  // commit, and the final state satisfies the constraints.
  Database db = bench::MakeKeyFkDatabase(20, 100);
  bench::AddUnreferencedKeys(&db, 5);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));

  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult valid, manager->Run(bench::MakeFkInsertBatch(10, 20)));
  EXPECT_TRUE(valid.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult dangling,
      manager->RunText(
          "insert(fk_rel, {(999999, \"zz\", 1.0)});"));
  EXPECT_FALSE(dangling.committed);
  EXPECT_FALSE(dangling.conflict);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult del, manager->Run(bench::MakeKeyDeleteBatch(3)));
  EXPECT_TRUE(del.committed);
}

// ---------------------------------------------------------------------------
// Compensating rules. A repairing action's decision has no post-hoc
// counterpart to compare with, but its result can be checked: every
// committed state must satisfy every constraint (Caroprese &
// Truszczyński's repairs).
// ---------------------------------------------------------------------------

/// The fixture's `domain` constraint, with two repairing rules in place
/// of an aborting `refint`: a beer naming an unknown brewery adds it, and
/// deleting a brewery deletes the beers that named it.
void DefineRepairingRules(core::IntegritySubsystem* ics) {
  TXMOD_ASSERT_OK(ics->DefineConstraint("domain", BeerDomainConstraint()));
  TXMOD_ASSERT_OK(ics->DefineRule(
      "add_missing_breweries",
      StrCat("WHEN INS(beer) IF NOT ", BeerRefIntConstraint(),
             " THEN insert(brewery, project[brewery, null, null]("
             "project[brewery](beer) - project[name](brewery)))")));
  TXMOD_ASSERT_OK(ics->DefineRule(
      "cascade_brewery_deletes",
      StrCat("WHEN DEL(brewery) IF NOT ", BeerRefIntConstraint(),
             " THEN delete(beer, antijoin[l.brewery = r.name](beer, "
             "brewery))")));
}

/// Runs `workload` through TxnManager::Run over the fixture state and
/// through IntegritySubsystem::Execute on a clone, both under the
/// repairing rules. After every transaction the outcomes and the states
/// agree, and the state passes a full check of domain and refint. Adds
/// the commits to `*commits`.
void RunRepairingWorkload(const std::vector<std::string>& workload,
                          int* commits) {
  const std::vector<NamedConstraint> constraints = {
      {"domain", BeerDomainConstraint()}, {"refint", BeerRefIntConstraint()}};
  Database db = MakeFixtureState();
  Database serial_db = db.Clone();
  core::IntegritySubsystem ics(&db);
  core::IntegritySubsystem serial_ics(&serial_db);
  DefineRepairingRules(&ics);
  DefineRepairingRules(&serial_ics);
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));
  algebra::AlgebraParser parser(&serial_db.schema());
  for (const std::string& text : workload) {
    SCOPED_TRACE(text);
    TXMOD_ASSERT_OK_AND_ASSIGN(algebra::Transaction txn,
                               parser.ParseTransaction(text));
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult run, manager->Run(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult serial, serial_ics.Execute(txn));
    EXPECT_FALSE(run.conflict);
    EXPECT_EQ(run.committed, serial.committed);
    EXPECT_EQ(run.abort_reason, serial.abort_reason);
    EXPECT_TRUE(db.SameState(serial_db));
    EXPECT_EQ(FullCheckViolation(Rebuild(db), constraints), "");
    if (run.committed) ++*commits;
  }
}

TEST(TxnManagerTest, CompensatingRulesRepairEveryCommittedState) {
  int commits = 0;
  RunRepairingWorkload(
      {
          "insert(beer, {(\"punk\", \"ipa\", \"brewdog\", 5.6)});",
          "insert(beer, {(\"neg\", \"ale\", \"nowhere\", -1.0)});",
          "delete(brewery, select[name = \"heineken\"](brewery));",
          // add_missing_breweries runs first and re-inserts
          // ("guinness", null, null) for the beer that still names it.
          "insert(beer, {(\"stout\", \"stout\", \"guinness\", 4.2), "
          "(\"dubbel\", \"ale\", \"westmalle\", 7.0)}); "
          "delete(brewery, select[name = \"guinness\"](brewery));",
          "insert(beer, {(\"a\", \"ale\", \"x1\", 3.0), "
          "(\"b\", \"ale\", \"x2\", 4.0)});",
      },
      &commits);
  EXPECT_EQ(commits, 4);

  // Random transactions of the same shapes.
  const std::vector<std::string> breweries = {"heineken", "guinness",
                                              "brewdog", "duvel", "orval"};
  for (uint32_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    std::mt19937 rng(seed);
    const auto pick = [&](std::size_t n) { return rng() % n; };
    std::vector<std::string> workload;
    for (int i = 0; i < 20; ++i) {
      std::string inserts = "insert(beer, {";
      for (std::size_t k = 0, n = 1 + pick(3); k < n; ++k) {
        inserts += StrCat(k == 0 ? "" : ", ", "(\"beer", pick(8),
                          "\", \"ale\", \"", breweries[pick(5)], "\", ",
                          pick(10) == 0 ? "-1.0" : "5.0", ")");
      }
      inserts += "});";
      const std::string deletes =
          StrCat("delete(brewery, select[name = \"", breweries[pick(5)],
                 "\"](brewery));");
      switch (pick(3)) {
        case 0: workload.push_back(inserts); break;
        case 1: workload.push_back(deletes); break;
        default: workload.push_back(StrCat(inserts, " ", deletes));
      }
    }
    RunRepairingWorkload(workload, &commits);
  }
}

// ---------------------------------------------------------------------------
// The validation window holds a commit's record only while a session
// whose snapshot predates it is live, and at most kValidationWindow of
// them: the validation_records/validation_tuples gauges show it.
// ---------------------------------------------------------------------------

TEST(TxnManagerWindowTest, SerialCommitsKeepNoRecords) {
  Fixture f;
  for (int i = 0; i < 5; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult r, f.manager->RunText(InsertBeerText(StrCat("s", i))));
    ASSERT_TRUE(r.committed);
    const TxnManagerStats stats = f.manager->stats();
    EXPECT_EQ(stats.validation_records, 0u) << "after commit " << i;
    EXPECT_EQ(stats.validation_tuples, 0u) << "after commit " << i;
  }
}

TEST(TxnManagerWindowTest, HeldSessionKeepsEveryCommitSinceItsSnapshot) {
  Fixture f;
  auto held = f.manager->Begin();
  TXMOD_ASSERT_OK(held->ExecuteText(InsertBeerText("w0")).status());
  uint64_t first = 0;
  for (int i = 0; i < 5; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult r, f.manager->RunText(InsertBeerText(StrCat("w", i))));
    ASSERT_TRUE(r.committed);
    if (i == 0) first = r.commit_version;
    const TxnManagerStats stats = f.manager->stats();
    EXPECT_EQ(stats.validation_records, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(stats.validation_tuples, static_cast<uint64_t>(i + 1));
  }
  // The first of the held commits wrote the held session's tuple.
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on beer with transaction ", first));
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult next,
                             f.manager->RunText(InsertBeerText("after")));
  ASSERT_TRUE(next.committed);
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
  EXPECT_EQ(f.manager->stats().validation_tuples, 0u);
}

TEST(TxnManagerWindowTest, HeldSessionWindowStopsAtTheCap) {
  constexpr std::size_t kCap = TxnManager::kValidationWindow;
  Fixture f;
  auto held = f.manager->Begin();
  TXMOD_ASSERT_OK(held->ExecuteText(InsertBeerText("w0")).status());
  for (std::size_t i = 0; i < kCap + 2; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult r, f.manager->RunText(InsertBeerText(StrCat("w", i))));
    ASSERT_TRUE(r.committed);
    ASSERT_EQ(f.manager->stats().validation_records, std::min(i + 1, kCap));
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_NE(lost.abort_reason.find("validation window"), std::string::npos)
      << lost.abort_reason;
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
}

TEST(TxnManagerWindowTest, OlderSessionEndingDropsRecordsTheYoungerPostdates) {
  Fixture f;
  auto older = f.manager->Begin();
  TXMOD_ASSERT_OK(older->ExecuteText(InsertBeerText("o")).status());
  for (const char* name : {"c1", "c2"}) {
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r,
                               f.manager->RunText(InsertBeerText(name)));
    ASSERT_TRUE(r.committed);
  }
  auto younger = f.manager->Begin();
  TXMOD_ASSERT_OK(younger->ExecuteText(InsertBeerText("y")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult c3,
                             f.manager->RunText(InsertBeerText("c3")));
  ASSERT_TRUE(c3.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult c4,
                             f.manager->RunText(InsertBeerText("y")));
  ASSERT_TRUE(c4.committed);
  EXPECT_EQ(f.manager->stats().validation_records, 4u);

  // Only the younger snapshot is live now: c1 and c2 are at or below it.
  older->Abort();
  EXPECT_EQ(f.manager->stats().validation_records, 2u);
  EXPECT_EQ(f.manager->stats().validation_tuples, 2u);

  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, younger->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on beer with transaction ",
                   c4.commit_version));
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
}

TEST(TxnManagerWindowTest, SessionEndedBeforeStageBReleasesItsSnapshot) {
  Fixture f;
  auto aborted = f.manager->Begin();
  TXMOD_ASSERT_OK(aborted->ExecuteText(InsertBeerText("a")).status());
  TXMOD_ASSERT_OK(f.manager->RunText(InsertBeerText("c1")).status());
  EXPECT_EQ(f.manager->stats().validation_records, 1u);
  aborted->Abort();
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
  TXMOD_ASSERT_OK(f.manager->RunText(InsertBeerText("c2")).status());
  EXPECT_EQ(f.manager->stats().validation_records, 0u);

  auto dropped = f.manager->Begin();
  TXMOD_ASSERT_OK(f.manager->RunText(InsertBeerText("c3")).status());
  EXPECT_EQ(f.manager->stats().validation_records, 1u);
  dropped.reset();
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
  TXMOD_ASSERT_OK(f.manager->RunText(InsertBeerText("c4")).status());
  EXPECT_EQ(f.manager->stats().validation_records, 0u);
  EXPECT_EQ(f.manager->stats().validation_tuples, 0u);
}

TEST(TxnManagerWindowTest, ConflictNamesTheEarliestCommitThatWroteTheTuple) {
  Fixture f;
  auto held = f.manager->Begin();
  TXMOD_ASSERT_OK(held->ExecuteText(InsertBeerText("x")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult first,
                             f.manager->RunText(InsertBeerText("x")));
  ASSERT_TRUE(first.committed);
  // A later commit writes the same tuple again.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult second,
      f.manager->RunText(
          "delete(beer, {(\"x\", \"ale\", \"guinness\", 6.0)});"));
  ASSERT_TRUE(second.committed);
  ASSERT_GT(second.commit_version, first.commit_version);
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on beer with transaction ",
                   first.commit_version));
}

TEST(TxnManagerWindowTest, ConflictOrderWithinOneCommit) {
  {
    SCOPED_TRACE("a write before a read of a later relation");
    Fixture f;
    // The refint check of the insert reads brewery.
    auto held = f.manager->Begin();
    TXMOD_ASSERT_OK(held->ExecuteText(InsertBeerText("x")).status());
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult both,
        f.manager->RunText(StrCat(
            "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); ",
            InsertBeerText("x"))));
    ASSERT_TRUE(both.committed);
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
    EXPECT_TRUE(lost.conflict);
    // The commit wrote beer and brewery; beer sorts first.
    EXPECT_EQ(lost.abort_reason,
              StrCat("write-write conflict on beer with transaction ",
                     both.commit_version));
  }
  {
    SCOPED_TRACE("a read before a write of the same relation");
    Fixture f;
    auto held = f.manager->Begin();
    TXMOD_ASSERT_OK(
        held->ExecuteText(StrCat("tmp := select[alcohol > 100](beer); ",
                                 InsertBeerText("x")))
            .status());
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult same,
                               f.manager->RunText(InsertBeerText("x")));
    ASSERT_TRUE(same.committed);
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
    EXPECT_TRUE(lost.conflict);
    EXPECT_EQ(lost.abort_reason,
              StrCat("read-write conflict on beer with transaction ",
                     same.commit_version));
  }
}

// Validation probes from the smaller side of each record: the commit's
// sets with the footprint's tuples, or the footprint with the commit's.
// Either way it convicts exactly when they overlap, naming the commit.
TEST(TxnManagerWindowTest, OneRowSessionProbesALargerRecord) {
  Fixture f;
  auto overlapping = f.manager->Begin();
  TXMOD_ASSERT_OK(overlapping->ExecuteText(InsertBeerText("b7")).status());
  auto disjoint = f.manager->Begin();
  TXMOD_ASSERT_OK(disjoint->ExecuteText(InsertBeerText("c7")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult large,
                             f.manager->RunText(InsertBeersText("b", 50)));
  ASSERT_TRUE(large.committed) << large.abort_reason;
  EXPECT_EQ(f.manager->stats().validation_tuples, 50u);

  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, overlapping->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on beer with transaction ",
                   large.commit_version));
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult won, disjoint->Commit());
  EXPECT_TRUE(won.committed) << won.abort_reason;
}

TEST(TxnManagerWindowTest, LargeSessionIsProbedWithASmallerRecord) {
  Fixture f;
  auto overlapping = f.manager->Begin();
  TXMOD_ASSERT_OK(
      overlapping->ExecuteText(InsertBeersText("b", 50)).status());
  auto disjoint = f.manager->Begin();
  TXMOD_ASSERT_OK(disjoint->ExecuteText(InsertBeersText("c", 50)).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult small,
                             f.manager->RunText(InsertBeerText("b7")));
  ASSERT_TRUE(small.committed) << small.abort_reason;
  EXPECT_EQ(f.manager->stats().validation_tuples, 1u);

  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, overlapping->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on beer with transaction ",
                   small.commit_version));
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult won, disjoint->Commit());
  EXPECT_TRUE(won.committed) << won.abort_reason;
}

// ---------------------------------------------------------------------------
// The rule-definition quiesce guard: DefineConstraint/DefineRule/DropRule
// through the manager must refuse while sessions are live (recompiling
// rule plans under executing sessions is a data race by contract) and
// work normally once the system is quiet.
// ---------------------------------------------------------------------------

TEST(TxnManagerQuiesceTest, RuleDefinitionRejectedWhileSessionLive) {
  Fixture f;
  EXPECT_EQ(f.manager->active_sessions(), 0u);
  auto session = f.manager->Begin();
  EXPECT_EQ(f.manager->active_sessions(), 1u);

  const Status define = f.manager->DefineConstraint(
      "late", "forall x (x in beer implies x.alcohol >= 1)");
  EXPECT_EQ(define.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(define.message().find("1 live session"), std::string::npos)
      << define.ToString();
  EXPECT_EQ(f.manager
                ->DefineRule("late_rule",
                             "WHEN INS(beer) IF NOT forall x (x in beer "
                             "implies x.alcohol >= 1) THEN abort")
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.manager->DropRule("domain").code(),
            StatusCode::kFailedPrecondition);
  // The rejected definitions changed nothing: the session still commits.
  ASSERT_TRUE(session->ExecuteText(InsertBeerText("ale1")).ok());
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r, session->Commit());
  EXPECT_TRUE(r.committed);
}

TEST(TxnManagerQuiesceTest, RuleDefinitionAppliesAndEnforcesOnceQuiet) {
  Fixture f;
  {
    auto session = f.manager->Begin();
    ASSERT_TRUE(session->ExecuteText(InsertBeerText("ale1")).ok());
    ASSERT_TRUE(session->Commit().ok());
  }
  EXPECT_EQ(f.manager->active_sessions(), 0u);
  TXMOD_ASSERT_OK(f.manager->DefineConstraint(
      "strong", "forall x (x in beer implies x.alcohol <= 7)"));

  // The new constraint is live: a violating insert aborts.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult violating,
      f.manager->RunText(
          "insert(beer, {(\"rocket\", \"ale\", \"guinness\", 12.0)});"));
  EXPECT_FALSE(violating.committed);
  EXPECT_FALSE(HasBeer(*f.ics->database(), "rocket"));
  TXMOD_ASSERT_OK(f.manager->DropRule("strong"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult ok,
      f.manager->RunText(
          "insert(beer, {(\"rocket\", \"ale\", \"guinness\", 12.0)});"));
  EXPECT_TRUE(ok.committed);
}

TEST(TxnManagerQuiesceTest, EverySessionEndReleasesTheSlot) {
  Fixture f;
  // Commit, abort, and plain destruction must each release exactly once.
  auto committed = f.manager->Begin();
  auto aborted = f.manager->Begin();
  auto dropped = f.manager->Begin();
  EXPECT_EQ(f.manager->active_sessions(), 3u);

  ASSERT_TRUE(committed->ExecuteText(InsertBeerText("ale1")).ok());
  ASSERT_TRUE(committed->Commit().ok());
  EXPECT_EQ(f.manager->active_sessions(), 2u);
  committed.reset();  // destruction after Commit must not double-release
  EXPECT_EQ(f.manager->active_sessions(), 2u);

  aborted->Abort();
  aborted->Abort();  // idempotent
  EXPECT_EQ(f.manager->active_sessions(), 1u);

  dropped.reset();
  EXPECT_EQ(f.manager->active_sessions(), 0u);
  TXMOD_ASSERT_OK(f.manager->DropRule("domain"));
}

// ---------------------------------------------------------------------------
// Retry backoff and deadlines (deterministic: virtual clock, no wall
// sleeps — the injected Vfs advances time instantly).
// ---------------------------------------------------------------------------

/// The backoff the retry tests run under: 1 ms doubling to 8 ms.
RunPolicy BackoffPolicy() {
  RunPolicy policy;
  policy.retry_backoff_initial_micros = 1000;
  policy.retry_backoff_max_micros = 8000;
  return policy;
}

/// Makes every Run attempt up to `conflicting` lose validation: the probe
/// commits a brewery write under the running attempt, and an insert into
/// beer reads brewery (referential check) — a read-write conflict.
void SabotageAttempts(Fixture* f, int conflicting) {
  TxnManager* manager = f->manager.get();
  manager->set_run_probe(
      [manager, conflicting, breweries = 0](int attempt) mutable {
        if (attempt > conflicting) return;
        auto saboteur = manager->Begin();
        TXMOD_ASSERT_OK(
            saboteur
                ->ExecuteText(StrCat("insert(brewery, {(\"pb", breweries++,
                                     "\", \"x\", \"nl\")});"))
                .status());
        TXMOD_ASSERT_OK(saboteur->Commit().status());
      });
}

TEST(TxnRetryTest, BackoffScheduleIsDeterministicAndBounded) {
  const RunPolicy policy = BackoffPolicy();
  EXPECT_EQ(TxnManager::ComputeBackoffMicros(policy, 0, 1), 0)
      << "the first attempt never waits";
  int64_t expected_base = 1000;
  for (int attempt = 2; attempt <= 10; ++attempt) {
    const int64_t sleep =
        TxnManager::ComputeBackoffMicros(policy, 7, attempt);
    EXPECT_GE(sleep, expected_base / 2) << "attempt " << attempt;
    EXPECT_LE(sleep, expected_base) << "attempt " << attempt;
    // Same (policy, run_seq, attempt) -> the same sleep, every time.
    EXPECT_EQ(sleep, TxnManager::ComputeBackoffMicros(policy, 7, attempt));
    expected_base = std::min<int64_t>(expected_base * 2, 8000);
  }
  // Different runs get different jitter (decorrelated herds).
  EXPECT_NE(TxnManager::ComputeBackoffMicros(policy, 1, 4),
            TxnManager::ComputeBackoffMicros(policy, 2, 4));

  EXPECT_EQ(TxnManager::ComputeBackoffMicros(RunPolicy{}, 0, 5), 0)
      << "backoff is off by default";
}

TEST(TxnRetryTest, BackoffDoublingStopsAtTheLargestClamp) {
  // The `policy` verb accepts any backoff up to INT64_MAX; doubling 2^62
  // must land on the clamp, not past INT64_MAX.
  RunPolicy policy;
  policy.retry_backoff_initial_micros = int64_t{1} << 62;
  policy.retry_backoff_max_micros = std::numeric_limits<int64_t>::max();
  for (int attempt = 3; attempt <= 5; ++attempt) {
    const int64_t sleep =
        TxnManager::ComputeBackoffMicros(policy, 1, attempt);
    EXPECT_GE(sleep, std::numeric_limits<int64_t>::max() / 2)
        << "attempt " << attempt;
  }
}

TEST(TxnRetryTest, RunBacksOffOnConflictsThroughTheInjectedClock) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.vfs = &vfs;
  Fixture f(options);
  const RunPolicy policy = BackoffPolicy();

  // The first two attempts lose validation.
  SabotageAttempts(&f, 2);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult result, f.manager->RunText(InsertBeerText("retried"), policy));
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 3u);

  // The exact backoff schedule of the manager's first Run. No wall clock
  // was involved: the virtual clock advanced instantly.
  const std::vector<int64_t> sleeps = vfs.sleep_log();
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], TxnManager::ComputeBackoffMicros(policy, 0, 2));
  EXPECT_EQ(sleeps[1], TxnManager::ComputeBackoffMicros(policy, 0, 3));

  const TxnManagerStats stats = f.manager->stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.backoff_sleeps, 2u);
  EXPECT_EQ(stats.conflicts, 2u);
  EXPECT_EQ(stats.deadlines_exceeded, 0u);
}

TEST(TxnRetryTest, DeadlineStopsRetriesWithDeadlineExceeded) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.vfs = &vfs;
  Fixture f(options);
  RunPolicy policy = BackoffPolicy();
  policy.max_attempts = 100;
  // Budget below even one backoff sleep: the first conflict exhausts it.
  policy.run_timeout_micros = 400;

  SabotageAttempts(&f, policy.max_attempts);
  auto result = f.manager->RunText(InsertBeerText("never"), policy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(vfs.sleep_log().empty())
      << "a sleep that would overrun the deadline must not happen";
  EXPECT_EQ(f.manager->stats().deadlines_exceeded, 1u);
  EXPECT_FALSE(HasBeer(f.db, "never"));
}

TEST(TxnRetryTest, DeadlinePastTheClockRangeSaturates) {
  // A budget of INT64_MAX is "no practical deadline": the deadline it
  // sets from a clock past 0 clamps at INT64_MAX, and the retries run.
  FaultInjectingVfs vfs;
  vfs.AdvanceClock(1);
  TxnManagerOptions options;
  options.vfs = &vfs;
  Fixture f(options);
  RunPolicy policy = BackoffPolicy();
  policy.run_timeout_micros = std::numeric_limits<int64_t>::max();

  SabotageAttempts(&f, 1);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult result, f.manager->RunText(InsertBeerText("late"), policy));
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(vfs.sleep_log().size(), 1u);
}

TEST(TxnRetryTest, BackoffPastTheClockRangeOverrunsTheDeadline) {
  // Clock + backoff passes INT64_MAX: the sum clamps, overruns the
  // 10 µs budget, and Run stops without sleeping.
  FaultInjectingVfs vfs;
  vfs.AdvanceClock(int64_t{1} << 62);
  TxnManagerOptions options;
  options.vfs = &vfs;
  Fixture f(options);
  RunPolicy policy;
  policy.retry_backoff_initial_micros = std::numeric_limits<int64_t>::max();
  policy.retry_backoff_max_micros = std::numeric_limits<int64_t>::max();
  policy.run_timeout_micros = 10;

  SabotageAttempts(&f, 1);
  auto result = f.manager->RunText(InsertBeerText("never"), policy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(vfs.sleep_log().empty());
  EXPECT_FALSE(HasBeer(f.db, "never"));
}

TEST(TxnRetryTest, DefaultRetriesAreImmediateAndUncounted) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.vfs = &vfs;
  Fixture f(options);

  SabotageAttempts(&f, 1);
  // RunPolicy{}: backoff off.
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult result,
                             f.manager->RunText(InsertBeerText("hot")));
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_TRUE(vfs.sleep_log().empty()) << "no backoff by default";
  EXPECT_EQ(f.manager->stats().retries, 1u);
  EXPECT_EQ(f.manager->stats().backoff_sleeps, 0u);
}

// ---------------------------------------------------------------------------
// Compaction on the committer: a commit compacts what it installed before
// it returns, the swap rule, one build per relation, the depth bound,
// release and quiesce.
// ---------------------------------------------------------------------------

/// Holds committers at the start of their compaction builds (the
/// manager's compaction probe) until Open.
class BuildGate {
 public:
  /// The probe: counts the arrival, then waits until the gate opens.
  void Hold(const std::string& relation) {
    std::unique_lock<std::mutex> lock(mu_);
    arrivals_.push_back(relation);
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !arrivals_.empty(); });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> arrivals_;
  bool open_ = false;
};

/// Opens a gate when it goes out of scope. Declared after the future of
/// a held committer, it opens the gate before that future waits for the
/// committer, so a failed assertion cannot leave the test hanging.
struct OpenOnExit {
  BuildGate* gate;
  ~OpenOnExit() { gate->Open(); }
};

/// Every relation's tuples, for comparing a state with an earlier one.
std::vector<std::vector<Tuple>> Contents(const Database& db) {
  std::vector<std::vector<Tuple>> out;
  for (const std::string& name : db.RelationNames()) {
    out.push_back((*db.Find(name))->SortedTuples());
  }
  return out;
}

algebra::Transaction ReinsertUnreferencedKeys(int batch) {
  algebra::Transaction txn = bench::MakeKeyDeleteBatch(batch);
  algebra::Statement& statement = txn.program.statements.front();
  statement = algebra::Statement::Insert("key_rel", statement.expr);
  return txn;
}

TEST(TxnManagerCompactionTest, DeleteAndReinsertRoundsNeverCollapse) {
  // Deleting keys and re-inserting them nets out in the merge, so the
  // chain compacts back to its base instead of growing until a collapse,
  // and the committer that re-inserts has swapped that in by the time its
  // Run returns.
  Database db = bench::MakeKeyFkDatabase(5000, 100);
  bench::AddUnreferencedKeys(&db, 500);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));
  const std::vector<Tuple> keys = (*db.Find("key_rel"))->SortedTuples();
  const uint64_t collapses = CowStats::overlay_collapses.load();
  for (int round = 0; round < 24; ++round) {
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult del,
                               manager->Run(bench::MakeKeyDeleteBatch(500)));
    ASSERT_TRUE(del.committed) << del.abort_reason;
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult ins,
                               manager->Run(ReinsertUnreferencedKeys(500)));
    ASSERT_TRUE(ins.committed) << ins.abort_reason;
    ASSERT_EQ((*db.Find("key_rel"))->overlay_depth(), 0u)
        << "round " << round << " did not net out to the base";
  }
  EXPECT_EQ(CowStats::overlay_collapses.load(), collapses);
  EXPECT_EQ((*db.Find("key_rel"))->SortedTuples(), keys);
}

TEST(TxnManagerCompactionTest, CommitFreesTheChainItsSwapDisplaced) {
  // Whoever displaces a state frees it: the chain a commit's compaction
  // replaces is freed by that committer, before its Run returns.
  Fixture f;
  // One one-row level over the flat state: nothing to merge yet.
  ASSERT_TRUE(f.manager->RunText(InsertBeerText("ale0")).ok());
  ASSERT_EQ((*f.db.Find("beer"))->overlay_depth(), 1u);
  const std::weak_ptr<const Relation> displaced = f.db.Share("beer");
  const uint64_t merges = CowStats::overlay_merges.load();
  // The next level weighs as much: the commit merges the two.
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r,
                             f.manager->RunText(InsertBeerText("ale1")));
  ASSERT_TRUE(r.committed) << r.abort_reason;
  ASSERT_GT(CowStats::overlay_merges.load(), merges) << "nothing merged";
  EXPECT_TRUE(displaced.expired())
      << "the chain the swap displaced outlived the commit that swapped";
  EXPECT_EQ((*f.db.Find("beer"))->overlay_depth(), 1u);
  EXPECT_TRUE(HasBeer(f.db, "ale0"));
  EXPECT_TRUE(HasBeer(f.db, "ale1"));
}

TEST(TxnManagerCompactionTest, WalFailureUnwindsUnderAHeldBuild) {
  // A committer builds a compaction from the chain its commit left; while
  // its build is held, a commit on the same relation fails its fsync and
  // is unwound. The held swap then lands over the re-installed chain and
  // must keep the pre-commit state.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_compaction_", ::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.wal_path = (dir / "wal.log").string();
  options.checkpoint_path = (dir / "checkpoint.db").string();
  options.vfs = &vfs;
  BuildGate gate;
  Fixture f(options);
  // Levels of 2 and 1 tuples: the next one-row commit merges all three.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.manager->RunText(InsertBeerText(StrCat("ale", i))).ok());
  }
  f.manager->set_compaction_probe(
      [&](const std::string& relation) { gate.Hold(relation); });
  std::future<Result<TxnResult>> held;
  OpenOnExit open_on_exit{&gate};
  held = std::async(std::launch::async, [&] {
    return f.manager->RunText(InsertBeerText("held"));
  });
  gate.AwaitArrival();

  const std::vector<std::vector<Tuple>> pre_commit = Contents(f.db);
  ASSERT_TRUE(HasBeer(f.db, "held"));
  FaultSpec fault;
  fault.op = VfsOp::kFsync;
  fault.kind = FaultKind::kEIO;
  fault.path_substring = "wal";
  vfs.InjectFault(fault);
  Result<TxnResult> failed = f.manager->RunText(InsertBeerText("doomed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Contents(f.db), pre_commit) << "the commit was unwound";

  const uint64_t rebuilt = CowStats::overlay_merges.load() +
                           CowStats::overlay_collapses.load();
  gate.Open();
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult committed, held.get());
  EXPECT_TRUE(committed.committed) << committed.abort_reason;
  EXPECT_GT(CowStats::overlay_merges.load() +
                CowStats::overlay_collapses.load(),
            rebuilt)
      << "the held build built no replacement";
  EXPECT_EQ(Contents(f.db), pre_commit)
      << "the held swap changed the pre-commit state";
  EXPECT_FALSE(HasBeer(f.db, "doomed"));
  f.manager.reset();
  std::filesystem::remove_all(dir);
}

TEST(TxnManagerCompactionTest, DefineConstraintFailsWhileABuildIsHeld) {
  // A compaction builds inside its committer's Commit, so the session is
  // live and the quiesce rejects the definition.
  BuildGate gate;
  Fixture f;
  f.manager->set_compaction_probe(
      [&](const std::string& relation) { gate.Hold(relation); });
  std::future<Result<TxnResult>> held;
  OpenOnExit open_on_exit{&gate};
  held = std::async(std::launch::async, [&] {
    return f.manager->RunText(InsertBeerText("ale1"));
  });
  gate.AwaitArrival();

  const Status define = f.manager->DefineConstraint(
      "strong", "forall x (x in beer implies x.alcohol <= 7)");
  EXPECT_EQ(define.code(), StatusCode::kFailedPrecondition)
      << define.ToString();
  gate.Open();
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult committed, held.get());
  EXPECT_TRUE(committed.committed) << committed.abort_reason;

  // Quiesced now: the definition goes through, and the master kept the
  // commit.
  TXMOD_ASSERT_OK(f.manager->DefineConstraint(
      "strong", "forall x (x in beer implies x.alcohol <= 7)"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult violating,
      f.manager->RunText(
          "insert(beer, {(\"rocket\", \"ale\", \"guinness\", 12.0)});"));
  EXPECT_FALSE(violating.committed);
  EXPECT_TRUE(HasBeer(f.db, "ale1"));
  EXPECT_FALSE(HasBeer(f.db, "rocket"));
}

TEST(TxnManagerCompactionTest, OneRowCommitsDuringACollapseKeepDepthBounded) {
  // A collapse of a large relation takes a while. The one-row commits
  // that land meanwhile leave their compaction to it, so the chain grows
  // a level per commit; the commit that leaves it deeper than
  // Relation::kMaxOverlayDepth waits for the collapse's swap, so no
  // snapshot sees a chain past the bound.
  constexpr int kFks = 20000;
  Database db = bench::MakeKeyFkDatabase(1000, kFks);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  BuildGate gate;
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));
  manager->set_compaction_probe(
      [&](const std::string& relation) { gate.Hold(relation); });
  const uint64_t collapses = CowStats::overlay_collapses.load();
  std::unique_ptr<TxnSession> session;  // outlives the commits' futures
  std::future<Result<TxnResult>> big;
  std::future<Result<TxnResult>> past_bound;
  OpenOnExit open_on_exit{&gate};
  // Over half the relation: its committer collapses the whole chain,
  // held at the start of its build.
  big = std::async(std::launch::async, [&] {
    return manager->Run(
        bench::MakeFkInsertBatch(kFks / 2 + 1000, 1000, /*id_base=*/kFks));
  });
  gate.AwaitArrival();

  int next_id = 10 * kFks;
  const auto one_row = [&] {
    return bench::MakeFkInsertBatch(1, 1000, /*id_base=*/next_id++);
  };
  for (;;) {
    session = manager->Begin();
    const std::size_t depth =
        (*session->snapshot().Find("fk_rel"))->overlay_depth();
    ASSERT_LE(depth, Relation::kMaxOverlayDepth);
    TXMOD_ASSERT_OK(session->Execute(one_row()).status());
    if (depth == Relation::kMaxOverlayDepth) {
      // This commit leaves the chain past the bound.
      past_bound = std::async(std::launch::async,
                              [&] { return session->Commit(); });
      break;
    }
    TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r, session->Commit());
    ASSERT_TRUE(r.committed) << r.abort_reason;
  }
  EXPECT_EQ(past_bound.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "the commit past the depth bound did not wait for the collapse";
  EXPECT_EQ(CowStats::overlay_collapses.load(), collapses);
  gate.Open();
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult last, past_bound.get());
  EXPECT_TRUE(last.committed) << last.abort_reason;
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult collapsed, big.get());
  EXPECT_TRUE(collapsed.committed) << collapsed.abort_reason;
  EXPECT_GT(CowStats::overlay_collapses.load(), collapses);
  // The swap re-applied the one-row commits over the collapsed state, as
  // one level.
  EXPECT_EQ((*db.Find("fk_rel"))->overlay_depth(), 1u);
  EXPECT_EQ((*db.Find("fk_rel"))->size(),
            static_cast<std::size_t>(kFks + kFks / 2 + 1000 + next_id -
                                     10 * kFks));
}

TEST(TxnManagerCompactionTest, OneRowCommitsMergeAmortizedLogWork) {
  // Relation::Compact merges each changed tuple amortized O(log) times.
  // Each one-row commit compacts its own one-tuple level, and fk_rel
  // collapses several times on the way; the tuples every merge took stay
  // within commits * ceil(log2(commits)).
  constexpr int kCommits = 20000;
  constexpr int kFks = 5000;
  Database db = bench::MakeKeyFkDatabase(1000, kFks);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));
  const uint64_t collapses = CowStats::overlay_collapses.load();
  const uint64_t merged = CowStats::overlay_merged_tuples.load();
  for (int i = 0; i < kCommits; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult r,
        manager->Run(bench::MakeFkInsertBatch(1, 1000, /*id_base=*/kFks + i)));
    ASSERT_TRUE(r.committed) << r.abort_reason;
  }
  EXPECT_GE(CowStats::overlay_collapses.load() - collapses, 3u);
  uint64_t log2_commits = 0;
  while ((uint64_t{1} << log2_commits) < kCommits) ++log2_commits;
  const uint64_t work = CowStats::overlay_merged_tuples.load() - merged;
  EXPECT_LE(work, kCommits * log2_commits)
      << static_cast<double>(work) / kCommits << " tuples merged per commit";
  RecordProperty("merged_tuples", static_cast<int>(work));
}

// ---------------------------------------------------------------------------
// One install path: every write-ful commit installs the session's own
// overlay level by pointer, re-based onto the master's current state,
// whatever committed or was compacted since its snapshot.
// ---------------------------------------------------------------------------

/// Requires `db` to equal the fixture's state after `texts` ran serially,
/// in order, and to satisfy every constraint under a full check.
void ExpectSerialAndConsistent(const Database& db,
                               const std::vector<std::string>& texts) {
  Database serial = MakeFixtureState();
  {
    core::IntegritySubsystem ics(&serial);
    ASSERT_TRUE(ics.DefineConstraint("domain", BeerDomainConstraint()).ok());
    ASSERT_TRUE(ics.DefineConstraint("refint", BeerRefIntConstraint()).ok());
    for (const std::string& text : texts) {
      TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r, ics.ExecuteText(text));
      ASSERT_TRUE(r.committed) << text;
    }
  }
  EXPECT_TRUE(db.SameState(serial));
  const std::vector<NamedConstraint> constraints = {
      {"domain", BeerDomainConstraint()}, {"refint", BeerRefIntConstraint()}};
  EXPECT_EQ(FullCheckViolation(Rebuild(db), constraints), "");
}

/// Records the master's `relation` state as its committer's compaction
/// build starts: the commit's install, before its compaction may replace
/// it.
const Relation* InstalledBeforeCompaction(TxnManager* manager,
                                          const Database& db,
                                          const std::string& relation,
                                          TxnSession* session) {
  const Relation* installed = nullptr;
  manager->set_compaction_probe([&](const std::string& name) {
    if (name == relation) installed = *db.Find(relation);
  });
  Result<TxnResult> committed = session->Commit();
  manager->set_compaction_probe(nullptr);
  EXPECT_TRUE(committed.ok()) << committed.status().ToString();
  if (committed.ok()) {
    EXPECT_TRUE(committed->committed) << committed->abort_reason;
  }
  return installed;
}

TEST(TxnManagerInstallTest, StaleSnapshotInstallsTheSessionsLevel) {
  Fixture f;
  auto session = f.manager->Begin();
  const std::string mine = InsertBeerText("mine");
  TXMOD_ASSERT_OK(session->ExecuteText(mine).status());
  const Relation* level = *session->snapshot().Find("beer");
  // A disjoint commit lands after the session began.
  const std::string other = InsertBeerText("other");
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult first, f.manager->RunText(other));
  ASSERT_TRUE(first.committed) << first.abort_reason;
  ASSERT_GT(f.manager->committed_version(), session->snapshot_version());

  const uint64_t overlays = CowStats::overlays_created.load();
  EXPECT_EQ(
      InstalledBeforeCompaction(f.manager.get(), f.db, "beer", session.get()),
      level)
      << "the master's state is not the level the session wrote through";
  EXPECT_EQ(CowStats::overlays_created.load(), overlays)
      << "the commit layered a fresh level";
  ExpectSerialAndConsistent(f.db, {other, mine});
}

TEST(TxnManagerInstallTest, SwappedCompactionUnderTheSnapshotKeepsItsLevel) {
  Fixture f;
  const std::vector<std::string> before = {InsertBeerText("ale1"),
                                           InsertBeerText("ale2")};
  // One one-row level over the flat state: nothing to merge yet.
  TXMOD_ASSERT_OK(f.manager->RunText(before[0]).status());

  auto session = f.manager->Begin();
  const std::string mine = InsertBeerText("mine");
  TXMOD_ASSERT_OK(session->ExecuteText(mine).status());
  const Relation* level = *session->snapshot().Find("beer");
  const Relation* under_snapshot = *f.db.Find("beer");
  const uint64_t merges = CowStats::overlay_merges.load();
  // ale2's level weighs as much as ale1's: its committer merges the two
  // and swaps the result in under the session's snapshot.
  TXMOD_ASSERT_OK(f.manager->RunText(before[1]).status());
  ASSERT_GT(CowStats::overlay_merges.load(), merges)
      << "the commit built no replacement";
  ASSERT_FALSE((*f.db.Find("beer"))->ChainHolds(under_snapshot))
      << "no compaction was swapped in";
  // The snapshot keeps reading the chain the swap displaced.
  EXPECT_TRUE(HasBeer(session->snapshot(), "ale1"));
  EXPECT_TRUE(HasBeer(session->snapshot(), "mine"));
  EXPECT_FALSE(HasBeer(session->snapshot(), "ale2"));

  const uint64_t overlays = CowStats::overlays_created.load();
  EXPECT_EQ(
      InstalledBeforeCompaction(f.manager.get(), f.db, "beer", session.get()),
      level)
      << "the master's state is not the level the session wrote through";
  EXPECT_EQ(CowStats::overlays_created.load(), overlays)
      << "the commit layered a fresh level";
  ExpectSerialAndConsistent(f.db, {before[0], before[1], mine});
}

}  // namespace
}  // namespace txmod::txn
