#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/algebra/parser.h"
#include "src/core/subsystem.h"
#include "src/parallel/executor.h"
#include "tests/test_util.h"

namespace txmod::parallel {
namespace {

using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

/// The paper's PRISMA setup: beer fragmented on its foreign-key attribute,
/// brewery on its key attribute — referential checks become node-local.
std::map<std::string, FragmentationScheme> BeerSchemes() {
  return {
      {"beer", FragmentationScheme{FragmentationKind::kHash, 2}},
      {"brewery", FragmentationScheme{FragmentationKind::kHash, 0}},
  };
}

class ParallelTest : public ::testing::TestWithParam<int> {
 protected:
  ParallelTest() : db_(MakeBeerDatabase()) {
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
    AddBrewery(&db_, "guinness", "dublin", "ie");
    for (int i = 0; i < 20; ++i) {
      AddBeer(&db_, txmod::StrCat("beer", i), "lager",
              i % 2 == 0 ? "heineken" : "guinness", 4.0 + (i % 5));
    }
  }

  Transaction ParseTxn(const std::string& text) {
    algebra::AlgebraParser parser(&db_.schema());
    auto t = parser.ParseTransaction(text);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : Transaction{};
  }

  Database db_;
};

TEST_P(ParallelTest, PartitionPreservesContentAndMergeRestoresIt) {
  const int nodes = GetParam();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), nodes));
  EXPECT_EQ(pdb.num_nodes(), nodes);
  TXMOD_ASSERT_OK_AND_ASSIGN(const FragmentedRelation* beer,
                             pdb.Find("beer"));
  EXPECT_EQ(beer->TotalSize(), 20u);
  EXPECT_EQ(static_cast<int>(beer->fragments.size()), nodes);
  EXPECT_TRUE(pdb.Merge().SameState(db_));
}

TEST_P(ParallelTest, HashFragmentationColocatesEqualKeys) {
  const int nodes = GetParam();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), nodes));
  TXMOD_ASSERT_OK_AND_ASSIGN(const FragmentedRelation* beer,
                             pdb.Find("beer"));
  // All beers of one brewery sit in the same fragment.
  for (int i = 0; i < nodes; ++i) {
    for (const Tuple& t : beer->fragments[i]) {
      EXPECT_EQ(FragmentOfValue(t.at(2), nodes), i);
    }
  }
}

/// Runs the same modified transaction serially and in parallel; both must
/// agree on the outcome and the final state.
void ExpectParallelMatchesSerial(Database db, const Transaction& modified,
                                 int nodes, bool use_threads = false) {
  // Serial execution.
  Database serial_db = db.Clone();
  auto serial = txn::ExecuteTransaction(modified, &serial_db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // Parallel execution.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, BeerSchemes(), nodes));
  ParallelOptions options;
  options.use_threads = use_threads;
  ParallelExecutor exec(&pdb, options);
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult parallel,
                             exec.Execute(modified));

  EXPECT_EQ(serial->committed, parallel.committed);
  EXPECT_TRUE(pdb.Merge().SameState(serial_db));
}

TEST_P(ParallelTest, ValidInsertCommitsOnAllNodeCounts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"new\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, OrphanInsertAbortsOnAllNodeCounts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, ReferencedBreweryDeleteAborts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "delete(brewery, select[name = \"heineken\"](brewery));");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, AggregateConstraintMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint("capacity", "cnt(beer) <= 21"));
  Transaction ok_txn = ParseTxn(
      "insert(beer, {(\"one_more\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction ok_mod, ics.Modify(ok_txn));
  ExpectParallelMatchesSerial(db_, ok_mod, GetParam());
  Transaction bad_txn = ParseTxn(
      "insert(beer, {(\"m1\", \"ale\", \"guinness\", 6.0), "
      "(\"m2\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction bad_mod, ics.Modify(bad_txn));
  ExpectParallelMatchesSerial(db_, bad_mod, GetParam());
}

TEST_P(ParallelTest, CompensatingRuleMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "fix_refint",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN temp := project[brewery](beer) - project[name](brewery); "
      "     insert(brewery, project[brewery, null, null](temp))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"stray\", \"ale\", \"newplace\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, ThreadedExecutionMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam(),
                              /*use_threads=*/true);
}

TEST_P(ParallelTest, OutOfRangeUpdateAttributeIsRejectedByBothEngines) {
  // A hand-built update whose assignment names no attribute of beer —
  // the default attr -1, or one past the arity — with a predicate that
  // matches a tuple: both engines must refuse it with InvalidArgument and
  // leave the database unchanged.
  for (const int attr : {-1, 4}) {
    SCOPED_TRACE(StrCat("attr #", attr));
    Transaction txn =
        ParseTxn("update(beer, name = \"beer0\", alcohol := alcohol + 1);");
    ASSERT_EQ(txn.program.statements.size(), 1u);
    txn.program.statements[0].sets.at(0).attr = attr;

    Database serial_db = db_.Clone();
    auto serial = txn::ExecuteTransaction(txn, &serial_db);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(serial_db.SameState(db_));

    TXMOD_ASSERT_OK_AND_ASSIGN(
        ParallelDatabase pdb,
        ParallelDatabase::Partition(db_, BeerSchemes(), GetParam()));
    ParallelExecutor exec(&pdb);
    auto parallel = exec.Execute(txn);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parallel.status().message(), serial.status().message());
    EXPECT_TRUE(pdb.Merge().SameState(db_));
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ParallelTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelCostTest, ColocatedRefintCheckHasNoTransfers) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  for (int i = 0; i < 50; ++i) {
    AddBeer(&db, txmod::StrCat("b", i), "lager", "heineken", 5.0);
  }
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  algebra::AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));

  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, BeerSchemes(), 4));
  ParallelExecutor exec(&pdb, ParallelOptions{});
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
  EXPECT_TRUE(r.committed);
  // beer is fragmented on the FK attribute and brewery on its key: the
  // π-difference check is node-local. The only possible transfer is the
  // routing of the single inserted tuple.
  EXPECT_LE(r.stats.tuples_transferred(), 1u);
}

TEST(ParallelCostTest, SimulatedMakespanShrinksWithNodes) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  // Distinct FK values so hash fragmentation spreads the load; with a
  // single brewery every tuple would land on one node and no node count
  // could help (skew is real, but not what this test is about).
  for (int i = 0; i < 256; ++i) {
    AddBeer(&db, txmod::StrCat("b", i), "lager", txmod::StrCat("brew", i),
            5.0);
  }
  core::IntegritySubsystem ics(&db);
  // Full-relation domain check, forced by OptimizationLevel::kNone, so
  // the work scales with the relation size.
  core::SubsystemOptions so;
  so.optimization = core::OptimizationLevel::kNone;
  core::IntegritySubsystem full(&db, so);
  TXMOD_ASSERT_OK(full.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  algebra::AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, full.Modify(txn));

  double previous = 1e300;
  for (int nodes : {1, 2, 4, 8}) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        ParallelDatabase pdb,
        ParallelDatabase::Partition(db, BeerSchemes(), nodes));
    ParallelExecutor exec(&pdb, ParallelOptions{});
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
    EXPECT_TRUE(r.committed);
    EXPECT_LT(r.stats.simulated_us(), previous)
        << nodes << " nodes not faster";
    previous = r.stats.simulated_us();
  }
}

// ---------------------------------------------------------------------------
// Work counts: the checks probe indexed fragments where they lie, and a
// transaction writes through overlay levels that an abort drops.
// ---------------------------------------------------------------------------

/// The benchmark's key/fk state under both constraints, partitioned
/// round-robin (no scheme) on `nodes` nodes like parallel_enforce.
struct KeyFkSetup {
  KeyFkSetup(int keys, int fks, int unreferenced)
      : db(bench::MakeKeyFkDatabase(keys, fks)), ics(&db) {
    bench::AddUnreferencedKeys(&db, unreferenced);
    EXPECT_TRUE(ics.DefineConstraint("domain", bench::DomainConstraint()).ok());
    EXPECT_TRUE(ics.DefineConstraint("refint", bench::RefIntConstraint()).ok());
  }

  Result<ParallelTxnResult> Run(const std::string& text, int nodes) {
    algebra::AlgebraParser parser(&db.schema());
    TXMOD_ASSIGN_OR_RETURN(Transaction txn, parser.ParseTransaction(text));
    TXMOD_ASSIGN_OR_RETURN(Transaction modified, ics.Modify(txn));
    TXMOD_ASSIGN_OR_RETURN(ParallelDatabase pdb,
                           ParallelDatabase::Partition(db, {}, nodes));
    ParallelExecutor exec(&pdb);
    return exec.Execute(modified);
  }

  Database db;
  core::IntegritySubsystem ics;
};

TEST(ParallelWorkTest, FkInsertProbesAndScansIndependentlyOfFkSize) {
  // The INS(fk_rel) check probes key_rel's fragment indexes, and its
  // empty DEL(key_rel) branch reads no fk_rel tuple: the scan count is
  // the same for a 40x larger fk_rel.
  std::vector<uint64_t> scanned;
  for (const int fks : {100, 4000}) {
    SCOPED_TRACE(StrCat(fks, " fk rows"));
    KeyFkSetup setup(/*keys=*/50, fks, /*unreferenced=*/0);
    TXMOD_ASSERT_OK_AND_ASSIGN(
        ParallelTxnResult r,
        setup.Run("insert(fk_rel, {(9000000, \"k7\", 1.5)});", 4));
    EXPECT_TRUE(r.committed) << r.abort_reason;
    EXPECT_GT(r.eval_stats.index_probes, 0u);
    scanned.push_back(r.eval_stats.tuples_scanned);
  }
  EXPECT_EQ(scanned[0], scanned[1]);
}

TEST(ParallelWorkTest, EmptyDeltaJoinTakesItsSchemaWithoutEvaluating) {
  // The DEL(brewery) branch of this check joins a selection of beer with
  // dminus(brewery); on a beer insert dminus is empty, and the selection
  // must not run over beer (its schema is inferred, as the serial engine
  // does).
  std::vector<uint64_t> scanned;
  for (const int beers : {10, 400}) {
    SCOPED_TRACE(StrCat(beers, " beers"));
    Database db = MakeBeerDatabase();
    AddBrewery(&db, "heineken", "amsterdam", "nl");
    for (int i = 0; i < beers; ++i) {
      AddBeer(&db, StrCat("b", i), "lager", "heineken", 4.0 + i % 5);
    }
    core::IntegritySubsystem ics(&db);
    TXMOD_ASSERT_OK(ics.DefineConstraint(
        "strong",
        "forall x ((x in beer and x.alcohol > 5) implies exists y "
        "(y in brewery and x.brewery = y.name))"));
    algebra::AlgebraParser parser(&db.schema());
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Transaction txn,
        parser.ParseTransaction(
            "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});"));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelDatabase pdb,
                               ParallelDatabase::Partition(db, {}, 4));
    ParallelExecutor exec(&pdb);
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
    EXPECT_TRUE(r.committed) << r.abort_reason;
    scanned.push_back(r.eval_stats.tuples_scanned);
  }
  EXPECT_EQ(scanned[0], scanned[1]);
}

TEST(ParallelWorkTest, UnreferencedKeyDeleteShipsOnlyTheDelta) {
  // The deleted keys are selected where they lie, so the only tuples
  // that move are dminus(key_rel), broadcast to the round-robin fk_rel
  // fragments for the index lookup; no fk_rel tuple moves.
  const int nodes = 4;
  const int deleted = 10;
  KeyFkSetup setup(/*keys=*/50, /*fks=*/2000, /*unreferenced=*/deleted);
  std::vector<std::string> keys;
  for (int i = 0; i < deleted; ++i) {
    keys.push_back(StrCat("key = \"x", i, "\""));
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelTxnResult r,
      setup.Run(StrCat("delete(key_rel, select[", Join(keys, " or "),
                       "](key_rel));"),
                nodes));
  EXPECT_TRUE(r.committed) << r.abort_reason;
  EXPECT_GT(r.eval_stats.index_probes, 0u);
  EXPECT_LE(r.stats.tuples_transferred(),
            static_cast<uint64_t>(deleted * (nodes - 1)));
}

/// Every fragment's tuples and declared indexes, for before/after checks.
struct FragmentSnapshot {
  std::vector<std::vector<Tuple>> tuples;
  std::vector<std::vector<std::vector<int>>> indexes;
  bool operator==(const FragmentSnapshot& o) const {
    return tuples == o.tuples && indexes == o.indexes;
  }
};

FragmentSnapshot Snapshot(const FragmentedRelation& rel) {
  FragmentSnapshot out;
  for (const Relation& f : rel.fragments) {
    out.tuples.push_back(f.SortedTuples());
    out.indexes.push_back(f.DeclaredIndexes());
  }
  return out;
}

/// Every declared index of every fragment covers exactly its tuples.
void ExpectIndexesCoherent(const FragmentedRelation& rel) {
  for (const Relation& f : rel.fragments) {
    for (const std::vector<int>& attrs : f.DeclaredIndexes()) {
      const RelationIndex* index = f.FindIndex(attrs);
      ASSERT_NE(index, nullptr);
      EXPECT_EQ(index->size(), f.size());
    }
  }
}

TEST_P(ParallelTest, AbortLeavesFragmentsAndIndexesAsTheyWere) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelDatabase pdb,
                             ParallelDatabase::Partition(db_, {}, GetParam()));
  std::map<std::string, FragmentSnapshot> before;
  for (const char* name : {"beer", "brewery"}) {
    TXMOD_ASSERT_OK_AND_ASSIGN(const FragmentedRelation* rel, pdb.Find(name));
    TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* source, db_.Find(name));
    ASSERT_FALSE(source->DeclaredIndexes().empty()) << name;
    for (const Relation& f : rel->fragments) {
      EXPECT_EQ(f.DeclaredIndexes(), source->DeclaredIndexes()) << name;
    }
    before.emplace(name, Snapshot(*rel));
  }

  // Writes to both relations, then a dangling reference: refint aborts.
  ParallelExecutor exec(&pdb);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction aborting,
      ics.Modify(ParseTxn(
          "delete(beer, select[alcohol > 6](beer)); "
          "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); "
          "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});")));
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult aborted,
                             exec.Execute(aborting));
  EXPECT_FALSE(aborted.committed);
  for (const auto& [name, snapshot] : before) {
    TXMOD_ASSERT_OK_AND_ASSIGN(const FragmentedRelation* rel, pdb.Find(name));
    EXPECT_TRUE(Snapshot(*rel) == snapshot) << name;
    ExpectIndexesCoherent(*rel);
  }

  // A commit absorbs the levels, index nodes included.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction committing,
      ics.Modify(ParseTxn(
          "delete(beer, select[alcohol > 6](beer)); "
          "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); "
          "insert(beer, {(\"pils\", \"lager\", \"plzen\", 4.4)});")));
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult committed,
                             exec.Execute(committing));
  EXPECT_TRUE(committed.committed) << committed.abort_reason;
  for (const auto& [name, snapshot] : before) {
    TXMOD_ASSERT_OK_AND_ASSIGN(const FragmentedRelation* rel, pdb.Find(name));
    ExpectIndexesCoherent(*rel);
  }
  Database serial = db_.Clone();
  TXMOD_ASSERT_OK(txn::ExecuteTransaction(committing, &serial).status());
  EXPECT_TRUE(pdb.Merge().SameState(serial));
}

}  // namespace
}  // namespace txmod::parallel
