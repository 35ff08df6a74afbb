#include "gtest/gtest.h"
#include "src/algebra/parser.h"
#include "src/core/modifier.h"
#include "src/core/subsystem.h"
#include "src/core/triggering_graph.h"
#include "tests/test_util.h"

namespace txmod::core {
namespace {

using algebra::AlgebraParser;
using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

class ModifierTest : public ::testing::Test {
 protected:
  ModifierTest() : db_(MakeBeerDatabase()) {}

  IntegritySubsystem MakeSubsystem(OptimizationLevel level) {
    SubsystemOptions options;
    options.optimization = level;
    return IntegritySubsystem(&db_, options);
  }

  Transaction ParseTxn(const std::string& text) {
    AlgebraParser parser(&db_.schema());
    auto t = parser.ParseTransaction(text);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : Transaction{};
  }

  Database db_;
};

// --- Example 5.1: the paper's worked example -------------------------------

TEST_F(ModifierTest, Example51ModifiedTransactionMatchesPaper) {
  // Basic technique (Section 5): no differential optimization.
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kNone);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "R1",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies x.alcohol >= 0) "
      "THEN abort"));
  TXMOD_ASSERT_OK(ics.DefineRule(
      "R2",
      "WHEN INS(beer), DEL(brewery) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN temp := project[brewery](beer) - project[name](brewery); "
      "     insert(brewery, project[brewery, null, null](temp))"));

  Transaction txn = ParseTxn(
      "begin "
      "insert(beer, {(\"exportgold\", \"stout\", \"guineken\", 6.0)}); "
      "end");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));

  // The paper's modified transaction: original insert, then the domain
  // alarm, then the compensating statements for referential integrity.
  EXPECT_EQ(modified.ToString(),
            "begin\n"
            "  insert(beer, {(\"exportgold\", \"stout\", \"guineken\", "
            "6.0)});\n"
            "  alarm(select[not alcohol >= 0](beer), "
            "\"integrity violation: rule R1\");\n"
            "  temp := diff(project[brewery](beer), project[name](brewery));\n"
            "  insert(brewery, project[brewery, null, null](temp));\n"
            "end\n");
}

TEST_F(ModifierTest, Example51ExecutionCompensates) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kNone);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "R1",
      "WHEN INS(beer) IF NOT forall x (x in beer implies x.alcohol >= 0) "
      "THEN abort"));
  TXMOD_ASSERT_OK(ics.DefineRule(
      "R2",
      "WHEN INS(beer), DEL(brewery) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN temp := project[brewery](beer) - project[name](brewery); "
      "     insert(brewery, project[brewery, null, null](temp))"));

  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r,
      ics.ExecuteText("insert(beer, {(\"exportgold\", \"stout\", "
                      "\"guineken\", 6.0)});"));
  EXPECT_TRUE(r.committed);
  // The compensating action inserted the unknown brewery with nulls.
  const Relation* brewery = *db_.Find("brewery");
  EXPECT_TRUE(brewery->Contains(
      Tuple({Value::String("guineken"), Value::Null(), Value::Null()})));
}

TEST_F(ModifierTest, Example51NegativeAlcoholAborts) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kNone);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "R1",
      "WHEN INS(beer) IF NOT forall x (x in beer implies x.alcohol >= 0) "
      "THEN abort"));
  Database before = db_.Clone();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r,
      ics.ExecuteText("insert(beer, {(\"bad\", \"stout\", \"g\", -2.0)});"));
  EXPECT_FALSE(r.committed);
  EXPECT_TRUE(db_.SameState(before));
}

// --- modification mechanics --------------------------------------------------

TEST_F(ModifierTest, TransactionWithoutUpdatesIsUnchanged) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  Transaction txn = ParseTxn("t := project[name](beer); alarm(t);");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  EXPECT_EQ(modified.program.statements.size(),
            txn.program.statements.size());
}

TEST_F(ModifierTest, OnlyTriggeredRulesAreAppended) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "beer_domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "brewery_country",
      "forall x (x in brewery implies x.country != \"\")"));
  Transaction txn =
      ParseTxn("insert(brewery, {(\"a\", \"b\", \"c\")});");
  ModifyStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn, &stats));
  // Only the brewery rule fires: 1 original + 1 alarm.
  EXPECT_EQ(stats.programs_appended, 1);
  ASSERT_EQ(modified.program.statements.size(), 2u);
}

TEST_F(ModifierTest, RecursiveTriggeringReachesFixpoint) {
  // audit-chain: inserting into beer triggers a compensating rule that
  // inserts into brewery, which triggers an aborting check on brewery.
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "fix_refint",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN temp := project[brewery](beer) - project[name](brewery); "
      "     insert(brewery, project[brewery, null, null](temp))"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "brewery_named", "forall x (x in brewery implies x.name != \"\")"));

  Transaction txn = ParseTxn(
      "insert(beer, {(\"a\", \"ale\", \"somewhere\", 5.0)});");
  ModifyStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn, &stats));
  // Round 1 appends fix_refint's program (insert into brewery); round 2
  // appends the brewery_named check, which triggers nothing further.
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.programs_appended, 2);
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r, ics.Execute(txn));
  EXPECT_TRUE(r.committed);
}

TEST_F(ModifierTest, DynamicPathProducesSameProgramAsStaticPath) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK(ics.DefineRule(
      "refint",
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) THEN abort"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"a\", \"ale\", \"somewhere\", 5.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction via_static, ics.Modify(txn));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction via_dynamic,
      ModifyTransactionDynamic(txn, ics.rules(), db_.schema(),
                               OptimizationLevel::kDifferential));
  EXPECT_EQ(via_static.ToString(), via_dynamic.ToString());
}

// --- triggering graph and cycle handling -----------------------------------

TEST_F(ModifierTest, CyclicRuleSetIsRejectedAtDefinitionTime) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  // Rule A: inserting into beer inserts into brewery; Rule B: inserting
  // into brewery inserts into beer. A -> B -> A.
  TXMOD_ASSERT_OK(ics.DefineRule(
      "A",
      "WHEN INS(beer) IF NOT cnt(brewery) >= 0 "
      "THEN insert(brewery, {(\"x\", \"y\", \"z\")})"));
  Status st = ics.DefineRule(
      "B",
      "WHEN INS(brewery) IF NOT cnt(beer) >= 0 "
      "THEN insert(beer, {(\"x\", \"y\", \"z\", 1.0)})");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The rejected rule is not in the catalog; the subsystem still works.
  EXPECT_EQ(ics.rules().size(), 1u);
}

TEST_F(ModifierTest, NonTriggeringActionCutsTheCycle) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "A",
      "WHEN INS(beer) IF NOT cnt(brewery) >= 0 "
      "THEN insert(brewery, {(\"x\", \"y\", \"z\")})"));
  // Declaring B's action non-triggering removes the B -> A edge
  // (Definition 6.2), making the graph acyclic.
  TXMOD_ASSERT_OK(ics.DefineRule(
      "B",
      "WHEN INS(brewery) IF NOT cnt(beer) >= 0 "
      "THEN NONTRIGGERING insert(beer, {(\"x\", \"y\", \"z\", 1.0)})"));
  EXPECT_FALSE(ics.graph().HasCycle());
}

TEST_F(ModifierTest, SelfTriggeringRuleIsRejected) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  Status st = ics.DefineRule(
      "self",
      "WHEN INS(brewery) IF NOT cnt(brewery) >= 0 "
      "THEN insert(brewery, {(\"x\", \"y\", \"z\")})");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModifierTest, DepthCapCatchesRuntimeNontermination) {
  // With cycle rejection off, the modifier's round cap
  // (kMaxModificationRounds) is the safety net.
  SubsystemOptions options;
  options.optimization = OptimizationLevel::kDifferential;
  options.reject_cyclic_rule_sets = false;
  IntegritySubsystem ics(&db_, options);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "self",
      "WHEN INS(brewery) IF NOT cnt(brewery) >= 0 "
      "THEN insert(brewery, {(\"x\", \"y\", \"z\")})"));
  Transaction txn = ParseTxn("insert(brewery, {(\"a\", \"b\", \"c\")});");
  Result<Transaction> modified = ics.Modify(txn);
  ASSERT_FALSE(modified.ok());
  EXPECT_EQ(modified.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModifierTest, TriggeringGraphStructure) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "compensate",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN insert(brewery, project[brewery, null, null]("
      "project[brewery](beer) - project[name](brewery)))"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "brewery_named", "forall x (x in brewery implies x.name != \"\")"));
  const TriggeringGraph& g = ics.graph();
  ASSERT_EQ(g.size(), 2u);
  // compensate (inserts into brewery) -> brewery_named; no other edges.
  EXPECT_EQ(g.adjacency()[0], std::vector<int>{1});
  EXPECT_TRUE(g.adjacency()[1].empty());
  // Dot output mentions both rules.
  const std::string dot = g.ToDot();
  EXPECT_NE(dot.find("compensate"), std::string::npos);
  EXPECT_NE(dot.find("brewery_named"), std::string::npos);
}

// --- immediate vs deferred check placement (design-space ablation) ---------

TEST_F(ModifierTest, ImmediatePlacementInterleavesChecks) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"a\", \"t\", \"b\", 1.0)}); "
      "insert(beer, {(\"b\", \"t\", \"b\", 2.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction immediate,
      ModifyTransactionImmediate(txn, ics.compiled()));
  // insert, check, insert, check — not insert, insert, check.
  ASSERT_EQ(immediate.program.statements.size(), 4u);
  EXPECT_EQ(immediate.program.statements[0].kind,
            algebra::StatementKind::kInsert);
  EXPECT_EQ(immediate.program.statements[1].kind,
            algebra::StatementKind::kAlarm);
  EXPECT_EQ(immediate.program.statements[2].kind,
            algebra::StatementKind::kInsert);
  EXPECT_EQ(immediate.program.statements[3].kind,
            algebra::StatementKind::kAlarm);
}

TEST_F(ModifierTest, DeferredCommitsSelfRepairingTxnImmediateAborts) {
  // The semantic difference, demonstrated: delete a referenced brewery,
  // then re-insert it. The post-state satisfies referential integrity —
  // the paper's deferred semantics (intermediate states have no
  // semantics, Definition 2.6) commits; immediate placement aborts at
  // the delete.
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  AddBeer(&db_, "pils", "lager", "heineken", 5.0);
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "delete(brewery, select[name = \"heineken\"](brewery)); "
      "insert(brewery, {(\"heineken\", \"amsterdam\", \"nl\")});");

  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction deferred, ics.Modify(txn));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction immediate,
      ModifyTransactionImmediate(txn, ics.compiled()));

  Database db1 = db_.Clone();
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult deferred_r,
                             txn::ExecuteTransaction(deferred, &db1));
  EXPECT_TRUE(deferred_r.committed);

  Database db2 = db_.Clone();
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult immediate_r,
                             txn::ExecuteTransaction(immediate, &db2));
  EXPECT_FALSE(immediate_r.committed);
  EXPECT_TRUE(db2.SameState(db_));  // atomicity still holds
}

TEST_F(ModifierTest, ImmediateAbortsAtFirstOffendingStatement) {
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"bad\", \"t\", \"b\", -1.0)}); "
      "insert(beer, {(\"later\", \"t\", \"b\", 1.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction immediate,
      ModifyTransactionImmediate(txn, ics.compiled()));
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r,
                             txn::ExecuteTransaction(immediate, &db_));
  EXPECT_FALSE(r.committed);
  // Aborted on the check right after the first insert: statement index 1.
  EXPECT_EQ(r.aborting_statement, 1);
  // Deferred placement executes everything first and aborts at the end.
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction deferred, ics.Modify(txn));
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r2,
                             txn::ExecuteTransaction(deferred, &db_));
  EXPECT_FALSE(r2.committed);
  EXPECT_EQ(r2.aborting_statement, 2);
}

// --- differential enforcement end-to-end ------------------------------------

TEST_F(ModifierTest, DifferentialEnforcementDetectsViolations) {
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  AddBeer(&db_, "pils", "lager", "heineken", 5.0);
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  // Valid insert commits.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult ok_r,
      ics.ExecuteText(
          "insert(beer, {(\"more\", \"ale\", \"heineken\", 6.0)});"));
  EXPECT_TRUE(ok_r.committed);
  // Orphan insert aborts.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult bad_r,
      ics.ExecuteText(
          "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});"));
  EXPECT_FALSE(bad_r.committed);
  // Deleting a referenced brewery aborts (the dminus part).
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult del_r,
      ics.ExecuteText(
          "delete(brewery, select[name = \"heineken\"](brewery));"));
  EXPECT_FALSE(del_r.committed);
  // Deleting beers first, then the brewery, commits (checked post-state).
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult both_r,
      ics.ExecuteText("delete(beer, beer); "
                      "delete(brewery, select[name = \"heineken\"]("
                      "brewery));"));
  EXPECT_TRUE(both_r.committed);
}

TEST_F(ModifierTest, UpdateStatementsTriggerBothParts) {
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  AddBeer(&db_, "pils", "lager", "heineken", 5.0);
  IntegritySubsystem ics = MakeSubsystem(OptimizationLevel::kDifferential);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  // Updating the FK to an unknown brewery must abort.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r,
      ics.ExecuteText(
          "update(beer, name = \"pils\", brewery := \"unknown\");"));
  EXPECT_FALSE(r.committed);
  // Updating alcohol keeps the FK valid and commits.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r2,
      ics.ExecuteText(
          "update(beer, name = \"pils\", alcohol := alcohol + 0.5);"));
  EXPECT_TRUE(r2.committed);
}

}  // namespace
}  // namespace txmod::core
