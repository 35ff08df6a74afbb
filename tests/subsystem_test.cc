#include "gtest/gtest.h"
#include "src/algebra/parser.h"
#include "src/calculus/parser.h"
#include "src/core/subsystem.h"
#include "src/rules/trigger_gen.h"
#include "tests/test_util.h"

namespace txmod::core {
namespace {

using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

class SubsystemTest : public ::testing::Test {
 protected:
  SubsystemTest() : db_(MakeBeerDatabase()), ics_(&db_) {}
  Database db_;
  IntegritySubsystem ics_;
};

TEST_F(SubsystemTest, DefineConstraintGeneratesAbortingRule) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  ASSERT_EQ(ics_.rules().size(), 1u);
  const rules::IntegrityRule& rule = ics_.rules()[0];
  EXPECT_EQ(rule.name, "domain");
  EXPECT_TRUE(rule.triggers_were_generated);
  EXPECT_EQ(rule.action_kind, rules::ActionKind::kAbort);
  ASSERT_EQ(ics_.compiled().size(), 1u);
  EXPECT_TRUE(ics_.compiled().programs()[0].differential);
  EXPECT_TRUE(ics_.compiled().programs()[0].non_triggering);
}

TEST_F(SubsystemTest, DuplicateNamesRejected) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint("c", "cnt(beer) <= 10"));
  Status st = ics_.DefineConstraint("c", "cnt(brewery) <= 10");
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ics_.rules().size(), 1u);
}

TEST_F(SubsystemTest, MalformedDefinitionsRejectedCleanly) {
  // CL syntax error.
  EXPECT_FALSE(ics_.DefineConstraint("bad1", "forall x x in beer").ok());
  // Unknown relation.
  EXPECT_FALSE(
      ics_.DefineConstraint("bad2", "forall x (x in wine implies x.a > 0)")
          .ok());
  // Type error.
  EXPECT_FALSE(
      ics_.DefineConstraint("bad3",
                            "forall x (x in beer implies x.name >= 1)")
          .ok());
  // Constraint that nothing can violate (no triggers derivable).
  EXPECT_FALSE(
      ics_.DefineConstraint(
              "bad4",
              "forall x (x in old(beer) implies x.alcohol >= 0)")
          .ok());
  EXPECT_TRUE(ics_.rules().empty());
  EXPECT_TRUE(ics_.compiled().empty());
}

TEST_F(SubsystemTest, DropRuleRecompiles) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint("c1", "cnt(beer) <= 10"));
  TXMOD_ASSERT_OK(ics_.DefineConstraint("c2", "cnt(brewery) <= 10"));
  EXPECT_EQ(ics_.compiled().size(), 2u);
  TXMOD_ASSERT_OK(ics_.DropRule("c1"));
  EXPECT_EQ(ics_.rules().size(), 1u);
  EXPECT_EQ(ics_.compiled().size(), 1u);
  EXPECT_EQ(ics_.compiled().programs()[0].rule_name, "c2");
  EXPECT_EQ(ics_.DropRule("c1").code(), StatusCode::kNotFound);
}

TEST_F(SubsystemTest, ExecuteTextParsesBrackets) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r1,
      ics_.ExecuteText("begin insert(beer, {(\"a\", \"t\", \"b\", 5.0)}); "
                       "end"));
  EXPECT_TRUE(r1.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r2,
      ics_.ExecuteText("insert(beer, {(\"c\", \"t\", \"b\", 5.0)});"));
  EXPECT_TRUE(r2.committed);
  EXPECT_FALSE(ics_.ExecuteText("insert(nowhere, {(1)});").ok());
}

TEST_F(SubsystemTest, ExecuteUncheckedSkipsEnforcement) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  algebra::AlgebraParser parser(&db_.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      algebra::Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"bad\", \"t\", \"b\", -1.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r, ics_.ExecuteUnchecked(txn));
  EXPECT_TRUE(r.committed);  // violation not caught — by design
  EXPECT_EQ((*db_.Find("beer"))->size(), 1u);
}

TEST_F(SubsystemTest, ValidateRuleTriggersFlagsMissingTriggers) {
  // Designer wrote only INS(beer); GenTrigC would also derive
  // DEL(brewery) for the referential condition.
  TXMOD_ASSERT_OK(ics_.DefineRule(
      "partial",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN abort"));
  const std::vector<std::string> warnings = ics_.ValidateRuleTriggers();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("partial"), std::string::npos);
  EXPECT_NE(warnings[0].find("DEL(brewery)"), std::string::npos);
}

TEST_F(SubsystemTest, ValidateRuleTriggersQuietForGeneratedSets) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  EXPECT_TRUE(ics_.ValidateRuleTriggers().empty());
}

TEST_F(SubsystemTest, ProgrammaticRuleDefinition) {
  auto parsed = calculus::ParseFormula("cnt(beer) <= 2");
  TXMOD_ASSERT_OK(parsed.status());
  auto analyzed = calculus::AnalyzeFormula(*parsed, db_.schema());
  TXMOD_ASSERT_OK(analyzed.status());
  rules::IntegrityRule rule;
  rule.name = "prog";
  rule.condition = *analyzed;
  rule.triggers = rules::GenTrigC(rule.condition.formula);
  rule.action_kind = rules::ActionKind::kAbort;
  TXMOD_ASSERT_OK(ics_.DefineRule(std::move(rule)));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult ok_r,
      ics_.ExecuteText("insert(beer, {(\"a\", \"t\", \"b\", 1.0), "
                       "(\"b\", \"t\", \"b\", 1.0)});"));
  EXPECT_TRUE(ok_r.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult bad_r,
      ics_.ExecuteText("insert(beer, {(\"c\", \"t\", \"b\", 1.0)});"));
  EXPECT_FALSE(bad_r.committed);
}

TEST_F(SubsystemTest, ProgrammaticRuleValidation) {
  rules::IntegrityRule nameless;
  EXPECT_EQ(ics_.DefineRule(std::move(nameless)).code(),
            StatusCode::kInvalidArgument);
  rules::IntegrityRule no_triggers;
  no_triggers.name = "x";
  EXPECT_EQ(ics_.DefineRule(std::move(no_triggers)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SubsystemTest, IntegrityProgramToString) {
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  const std::string s = ics_.compiled().programs()[0].ToString();
  EXPECT_NE(s.find("domain"), std::string::npos);
  EXPECT_NE(s.find("INS(beer)"), std::string::npos);
  EXPECT_NE(s.find("(non-triggering)"), std::string::npos);
  EXPECT_NE(s.find("(differential)"), std::string::npos);
  EXPECT_NE(s.find("alarm("), std::string::npos);
}

TEST_F(SubsystemTest, TransitionConstraintEndToEnd) {
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  // Breweries may be added but never removed.
  TXMOD_ASSERT_OK(ics_.DefineRule(
      "grow_only",
      "WHEN DEL(brewery) "
      "IF NOT forall x (x in old(brewery) implies exists y (y in brewery "
      "and x = y)) "
      "THEN abort"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult add_r,
      ics_.ExecuteText("insert(brewery, {(\"new\", \"x\", \"y\")});"));
  EXPECT_TRUE(add_r.committed);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult del_r,
      ics_.ExecuteText(
          "delete(brewery, select[name = \"new\"](brewery));"));
  EXPECT_FALSE(del_r.committed);
  // Delete + immediate re-insert nets out: the transition holds.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult redo_r,
      ics_.ExecuteText("delete(brewery, select[name = \"new\"](brewery)); "
                       "insert(brewery, {(\"new\", \"x\", \"y\")});"));
  EXPECT_TRUE(redo_r.committed);
}

TEST_F(SubsystemTest, SelfKeyConstraintEndToEnd) {
  // Key constraint via self-pair: beer names are unique.
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "unique_name",
      "forall x, y (x in beer and y in beer implies "
      "x.name != y.name or x = y)"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r1,
      ics_.ExecuteText("insert(beer, {(\"pils\", \"t\", \"b\", 5.0)});"));
  EXPECT_TRUE(r1.committed);
  // Same name, different tuple: violates the key.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r2,
      ics_.ExecuteText("insert(beer, {(\"pils\", \"t\", \"b\", 6.0)});"));
  EXPECT_FALSE(r2.committed);
  // Identical tuple: set semantics, no duplicate, no violation.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r3,
      ics_.ExecuteText("insert(beer, {(\"pils\", \"t\", \"b\", 5.0)});"));
  EXPECT_TRUE(r3.committed);
}

TEST_F(SubsystemTest, MultipleRulesEnforcedTogether) {
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK(ics_.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  TXMOD_ASSERT_OK(ics_.DefineConstraint("cap", "cnt(beer) <= 2"));
  // Violates only the third rule.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r,
      ics_.ExecuteText(
          "insert(beer, {(\"a\", \"t\", \"heineken\", 1.0), "
          "(\"b\", \"t\", \"heineken\", 2.0), "
          "(\"c\", \"t\", \"heineken\", 3.0)});"));
  EXPECT_FALSE(r.committed);
  EXPECT_NE(r.abort_reason.find("cap"), std::string::npos);
}

TEST_F(SubsystemTest, DefiningConstraintsDeclaresCheckIndexes) {
  // The referential constraint's compiled differential checks probe
  // brewery on its name attribute on every triggered transaction; the
  // definition declares the matching relation index up front (pay at
  // definition time, not at enforcement time).
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  TXMOD_ASSERT_OK(
      ics_.DefineConstraint("refint", testing::BeerRefIntConstraint()));
  const Relation* brewery = *db_.Find("brewery");
  EXPECT_GE(brewery->index_count(), 1u);
  EXPECT_NE(brewery->FindIndex({0}), nullptr);
  EXPECT_EQ(brewery->FindIndex({0})->size(), brewery->size());
}

TEST_F(SubsystemTest, IndexesStayCoherentAcrossCommitsAndAborts) {
  AddBrewery(&db_, "heineken", "amsterdam", "nl");
  TXMOD_ASSERT_OK(
      ics_.DefineConstraint("refint", testing::BeerRefIntConstraint()));
  ASSERT_NE((*db_.Find("brewery"))->FindIndex({0}), nullptr);

  // A valid insert commits through the indexed check path.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult ok,
      ics_.ExecuteText(
          "insert(beer, {(\"pils\", \"lager\", \"heineken\", 5.0)});"));
  EXPECT_TRUE(ok.committed);

  // A dangling reference aborts; the rollback restores the database AND
  // the index (Erase maintains it).
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult bad,
      ics_.ExecuteText(
          "insert(beer, {(\"x\", \"lager\", \"nowhere\", 5.0)});"));
  EXPECT_FALSE(bad.committed);
  EXPECT_EQ((*db_.Find("beer"))->size(), 1u);

  // Growing the referenced side through a transaction keeps the index
  // coherent: a beer referencing the new brewery now commits.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult grow,
      ics_.ExecuteText(
          "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")});"));
  EXPECT_TRUE(grow.committed);
  EXPECT_EQ((*db_.Find("brewery"))->FindIndex({0})->size(), 2u);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult ok2,
      ics_.ExecuteText(
          "insert(beer, {(\"urquell\", \"lager\", \"plzen\", 4.4)});"));
  EXPECT_TRUE(ok2.committed);

  // Deleting a still-referenced brewery aborts (the dminus check), and
  // the rollback re-inserts the tuple into both the set and the index.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult del,
      ics_.ExecuteText("delete(brewery, {(\"plzen\", \"pilsen\", \"cz\")});"));
  EXPECT_FALSE(del.committed);
  EXPECT_EQ((*db_.Find("brewery"))->size(), 2u);
  EXPECT_EQ((*db_.Find("brewery"))->FindIndex({0})->size(), 2u);
}

}  // namespace
}  // namespace txmod::core
