#include "gtest/gtest.h"
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

}  // namespace
}  // namespace txmod::parallel
