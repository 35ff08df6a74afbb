// Property-based tests (README, "Tests"): randomized transactions against a
// rule catalog covering all constraint classes, checked for the paper's
// correctness guarantees.
//
//   P1  a transaction executed through the subsystem either commits a
//       state satisfying every constraint, or leaves the database
//       unchanged (Definition 3.5 + atomicity);
//   P2  transaction modification and post-hoc checking make identical
//       accept/reject decisions and produce identical states;
//   P3  differential optimization does not change decisions or states
//       (OptC soundness, Section 5.2.1);
//   P4  parallel execution of the modified transaction matches serial
//       execution for every node count.

#include <random>
#include <sstream>

#include "gtest/gtest.h"
#include "src/algebra/evaluator.h"
#include "src/common/str_util.h"
#include "src/baseline/posthoc_checker.h"
#include "src/calculus/parser.h"
#include "src/core/translate.h"
#include "src/parallel/executor.h"
#include "src/relational/persist.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

namespace algebra = txmod::algebra;
namespace core = txmod::core;

// The catalog used by every property: one rule per recognized class.
const char* const kConstraints[][2] = {
    {"domain", "forall x (x in beer implies x.alcohol >= 0)"},
    {"refint",
     "forall x (x in beer implies exists y (y in brewery and "
     "x.brewery = y.name))"},
    {"exclusion",
     "forall x, y (x in beer and y in brewery implies x.name != y.city)"},
    {"capacity", "cnt(beer) <= 40"},
    {"total", "sum(beer, alcohol) <= 300"},
};

void DefineAll(core::IntegritySubsystem* ics) {
  for (const auto& [name, text] : kConstraints) {
    TXMOD_ASSERT_OK(ics->DefineConstraint(name, text));
  }
}

class Rng {
 public:
  explicit Rng(uint32_t seed) : gen_(seed) {}
  int Int(int lo, int hi) {  // inclusive
    return std::uniform_int_distribution<int>(lo, hi)(gen_);
  }
  double Prob() { return std::uniform_real_distribution<>(0, 1)(gen_); }

 private:
  std::mt19937 gen_;
};

Database RandomDatabase(Rng* rng) {
  Database db = testing::MakeBeerDatabase();
  const int breweries = rng->Int(1, 6);
  for (int b = 0; b < breweries; ++b) {
    testing::AddBrewery(&db, StrCat("brew", b), StrCat("city", b), "nl");
  }
  const int beers = rng->Int(0, 20);
  for (int i = 0; i < beers; ++i) {
    testing::AddBeer(&db, StrCat("beer", i), "lager",
                     StrCat("brew", rng->Int(0, breweries - 1)),
                     rng->Int(0, 12) / 2.0);
  }
  return db;
}

// A random transaction: 1-4 statements mixing valid and violating
// inserts, deletes, and updates on both relations.
algebra::Transaction RandomTransaction(Rng* rng) {
  algebra::Transaction txn;
  const int statements = rng->Int(1, 4);
  for (int s = 0; s < statements; ++s) {
    switch (rng->Int(0, 4)) {
      case 0: {  // insert beers (sometimes orphaned or negative)
        std::vector<Tuple> tuples;
        const int n = rng->Int(1, 5);
        for (int i = 0; i < n; ++i) {
          const bool orphan = rng->Prob() < 0.25;
          const bool negative = rng->Prob() < 0.25;
          tuples.push_back(
              Tuple({Value::String(StrCat("new", rng->Int(0, 9999))),
                     Value::String("ale"),
                     Value::String(orphan ? StrCat("ghost", rng->Int(0, 99))
                                          : StrCat("brew", rng->Int(0, 5))),
                     Value::Double(negative ? -1.0 : rng->Int(0, 14) / 2.0)}));
        }
        txn.program.statements.push_back(algebra::Statement::Insert(
            "beer", algebra::RelExpr::Literal(std::move(tuples), 4)));
        break;
      }
      case 1: {  // insert a brewery (city collides with beer names rarely)
        std::vector<Tuple> tuples = {
            Tuple({Value::String(StrCat("brew", rng->Int(0, 9))),
                   Value::String(rng->Prob() < 0.15
                                     ? StrCat("beer", rng->Int(0, 19))
                                     : StrCat("city", rng->Int(0, 9))),
                   Value::String("nl")})};
        txn.program.statements.push_back(algebra::Statement::Insert(
            "brewery", algebra::RelExpr::Literal(std::move(tuples), 3)));
        break;
      }
      case 2: {  // delete beers by alcohol threshold
        txn.program.statements.push_back(algebra::Statement::Delete(
            "beer",
            algebra::RelExpr::Select(
                algebra::ScalarExpr::Binary(
                    algebra::ScalarOp::kGt,
                    algebra::ScalarExpr::Attr(0, 3, "alcohol"),
                    algebra::ScalarExpr::Const(
                        Value::Double(rng->Int(0, 12) / 2.0))),
                algebra::RelExpr::Base("beer"))));
        break;
      }
      case 3: {  // delete a brewery (may strand beers)
        txn.program.statements.push_back(algebra::Statement::Delete(
            "brewery",
            algebra::RelExpr::Select(
                algebra::ScalarExpr::Binary(
                    algebra::ScalarOp::kEq,
                    algebra::ScalarExpr::Attr(0, 0, "name"),
                    algebra::ScalarExpr::Const(
                        Value::String(StrCat("brew", rng->Int(0, 5))))),
                algebra::RelExpr::Base("brewery"))));
        break;
      }
      case 4: {  // update alcohol by a delta (may go negative)
        const double delta = (rng->Int(0, 6) - 3) / 2.0;
        txn.program.statements.push_back(algebra::Statement::Update(
            "beer",
            algebra::ScalarExpr::Binary(
                algebra::ScalarOp::kLe,
                algebra::ScalarExpr::Attr(0, 3, "alcohol"),
                algebra::ScalarExpr::Const(
                    Value::Double(rng->Int(0, 12) / 2.0))),
            {algebra::UpdateSet{
                3, "alcohol",
                algebra::ScalarExpr::Binary(
                    algebra::ScalarOp::kAdd, algebra::ScalarExpr::Attr(0, 3),
                    algebra::ScalarExpr::Const(Value::Double(delta)))}}));
        break;
      }
    }
  }
  return txn;
}

/// All constraints hold in `db` (evaluated from scratch).
bool AllConstraintsHold(Database* db) {
  for (const auto& [name, text] : kConstraints) {
    auto parsed = calculus::ParseFormula(text);
    EXPECT_TRUE(parsed.ok());
    auto analyzed = calculus::AnalyzeFormula(*parsed, db->schema());
    EXPECT_TRUE(analyzed.ok());
    auto query = core::ViolationQuery(*analyzed, db->schema());
    EXPECT_TRUE(query.ok());
    txn::TxnContext ctx(db);
    auto violations = algebra::EvaluateRelExpr(**query, ctx);
    EXPECT_TRUE(violations.ok());
    if (!violations->empty()) return false;
  }
  return true;
}

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, CommittedStatesSatisfyAllConstraints) {
  Rng rng(GetParam());
  Database db = RandomDatabase(&rng);
  // The random initial state may violate constraints (e.g. too many
  // beers); repair by starting enforcement from the current state — the
  // paper assumes a correct pre-transaction state, so skip seeds with
  // incorrect initial states for the commit property.
  if (!AllConstraintsHold(&db)) GTEST_SKIP();
  core::IntegritySubsystem ics(&db);
  DefineAll(&ics);
  for (int round = 0; round < 10; ++round) {
    Database before = db.Clone();
    algebra::Transaction txn = RandomTransaction(&rng);
    auto result = ics.Execute(txn);
    TXMOD_ASSERT_OK(result.status());
    if (result->committed) {
      EXPECT_TRUE(AllConstraintsHold(&db)) << "seed " << GetParam()
                                           << " round " << round;
    } else {
      EXPECT_TRUE(db.SameState(before)) << "abort must restore the state";
    }
  }
}

TEST_P(PropertyTest, ModificationAgreesWithPostHocChecking) {
  Rng rng(GetParam() + 1000);
  Database db0 = RandomDatabase(&rng);
  if (!AllConstraintsHold(&db0)) GTEST_SKIP();

  Database tm_db = db0.Clone();
  core::IntegritySubsystem tm(&tm_db);
  DefineAll(&tm);
  Database ph_db = db0.Clone();
  core::IntegritySubsystem ph(&ph_db);
  DefineAll(&ph);
  baseline::PostHocChecker checker(&ph);

  for (int round = 0; round < 10; ++round) {
    algebra::Transaction txn = RandomTransaction(&rng);
    auto tm_r = tm.Execute(txn);
    auto ph_r = checker.Execute(txn);
    TXMOD_ASSERT_OK(tm_r.status());
    TXMOD_ASSERT_OK(ph_r.status());
    EXPECT_EQ(tm_r->committed, ph_r->committed)
        << "seed " << GetParam() << " round " << round;
    EXPECT_TRUE(tm_db.SameState(ph_db));
  }
}

TEST_P(PropertyTest, DifferentialAgreesWithFullChecking) {
  Rng rng(GetParam() + 2000);
  Database db0 = RandomDatabase(&rng);
  if (!AllConstraintsHold(&db0)) GTEST_SKIP();

  Database diff_db = db0.Clone();
  core::IntegritySubsystem diff_ics(&diff_db);
  DefineAll(&diff_ics);

  Database full_db = db0.Clone();
  core::SubsystemOptions full_options;
  full_options.optimization = core::OptimizationLevel::kNone;
  core::IntegritySubsystem full_ics(&full_db, full_options);
  DefineAll(&full_ics);

  for (int round = 0; round < 10; ++round) {
    algebra::Transaction txn = RandomTransaction(&rng);
    auto diff_r = diff_ics.Execute(txn);
    auto full_r = full_ics.Execute(txn);
    TXMOD_ASSERT_OK(diff_r.status());
    TXMOD_ASSERT_OK(full_r.status());
    EXPECT_EQ(diff_r->committed, full_r->committed)
        << "seed " << GetParam() << " round " << round
        << " txn:\n" << txn.ToString();
    EXPECT_TRUE(diff_db.SameState(full_db));
  }
}

TEST_P(PropertyTest, ParallelExecutionMatchesSerial) {
  Rng rng(GetParam() + 3000);
  Database db0 = RandomDatabase(&rng);
  core::IntegritySubsystem ics(&db0);
  DefineAll(&ics);
  const std::map<std::string, parallel::FragmentationScheme> schemes = {
      {"beer", parallel::FragmentationScheme{
                   parallel::FragmentationKind::kHash, 2}},
      {"brewery", parallel::FragmentationScheme{
                      parallel::FragmentationKind::kHash, 0}},
  };
  for (int round = 0; round < 5; ++round) {
    algebra::Transaction txn = RandomTransaction(&rng);
    auto modified = ics.Modify(txn);
    TXMOD_ASSERT_OK(modified.status());

    Database serial_db = db0.Clone();
    auto serial = txn::ExecuteTransaction(*modified, &serial_db);
    TXMOD_ASSERT_OK(serial.status());

    for (int nodes : {2, 5}) {
      auto pdb = parallel::ParallelDatabase::Partition(db0, schemes, nodes);
      TXMOD_ASSERT_OK(pdb.status());
      parallel::ParallelExecutor exec(&*pdb, parallel::ParallelOptions{});
      auto par = exec.Execute(*modified);
      TXMOD_ASSERT_OK(par.status());
      EXPECT_EQ(serial->committed, par->committed)
          << "seed " << GetParam() << " round " << round << " nodes "
          << nodes;
      EXPECT_TRUE(pdb->Merge().SameState(serial_db));
    }
    // Advance the base state with the serial outcome for the next round.
    db0 = std::move(serial_db);
  }
}

TEST_P(PropertyTest, PeepholeFormsAreEquiEmpty) {
  // P5: the Table-1 peephole rewrites (π-difference / π-intersection) are
  // empty exactly when the general antijoin/semijoin/join forms are, on
  // arbitrary database states — including states that violate other
  // constraints.
  Rng rng(GetParam() + 4000);
  Database db = RandomDatabase(&rng);
  core::TranslateOptions with, without;
  with.table1_peepholes = true;
  without.table1_peepholes = false;
  for (const auto& [name, text] : kConstraints) {
    auto parsed = calculus::ParseFormula(text);
    TXMOD_ASSERT_OK(parsed.status());
    auto analyzed = calculus::AnalyzeFormula(*parsed, db.schema());
    TXMOD_ASSERT_OK(analyzed.status());
    auto q1 = core::ViolationQuery(*analyzed, db.schema(), with);
    auto q2 = core::ViolationQuery(*analyzed, db.schema(), without);
    TXMOD_ASSERT_OK(q1.status());
    TXMOD_ASSERT_OK(q2.status());
    txn::TxnContext ctx(&db);
    auto v1 = algebra::EvaluateRelExpr(**q1, ctx);
    auto v2 = algebra::EvaluateRelExpr(**q2, ctx);
    TXMOD_ASSERT_OK(v1.status());
    TXMOD_ASSERT_OK(v2.status());
    EXPECT_EQ(v1->empty(), v2->empty())
        << name << " seed " << GetParam() << "\n  with:    "
        << (*q1)->ToString() << "\n  without: " << (*q2)->ToString();
  }
}

TEST_P(PropertyTest, CheckpointRoundTripPreservesEnforcement) {
  // P6: saving and restoring a checkpoint preserves both the state and
  // the subsystem's decisions on subsequent transactions.
  Rng rng(GetParam() + 5000);
  Database db = RandomDatabase(&rng);
  std::ostringstream out;
  TXMOD_ASSERT_OK(SaveDatabase(db, out));
  std::istringstream in(out.str());
  TXMOD_ASSERT_OK_AND_ASSIGN(Database restored, LoadDatabase(in));
  ASSERT_TRUE(restored.SameState(db));

  core::IntegritySubsystem ics1(&db);
  DefineAll(&ics1);
  core::IntegritySubsystem ics2(&restored);
  DefineAll(&ics2);
  for (int round = 0; round < 5; ++round) {
    algebra::Transaction txn = RandomTransaction(&rng);
    auto r1 = ics1.Execute(txn);
    auto r2 = ics2.Execute(txn);
    TXMOD_ASSERT_OK(r1.status());
    TXMOD_ASSERT_OK(r2.status());
    EXPECT_EQ(r1->committed, r2->committed);
    EXPECT_TRUE(db.SameState(restored));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace txmod
