#include "gtest/gtest.h"
#include "src/algebra/parser.h"
#include "src/txn/executor.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using algebra::AlgebraParser;
using algebra::RelRefKind;
using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeBeerDatabase();
    AddBeer(&db_, "pils", "lager", "heineken", 5.0);
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
  }

  Result<TxnResult> Run(const std::string& text) {
    AlgebraParser parser(&db_.schema());
    TXMOD_ASSIGN_OR_RETURN(Transaction txn, parser.ParseTransaction(text));
    return ExecuteTransaction(txn, &db_);
  }

  Database db_;
};

TEST_F(TxnTest, CommitAdvancesLogicalTime) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("begin insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)}); end"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(db_.logical_time(), 1u);
  EXPECT_EQ((*db_.Find("beer"))->size(), 2u);
  EXPECT_EQ(r.tuples_inserted, 1u);
}

TEST_F(TxnTest, InsertCoercesIntsIntoDoubleColumns) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"new\", \"ale\", \"heineken\", 6)});"));
  EXPECT_TRUE(r.committed);
  const Relation* beer = *db_.Find("beer");
  EXPECT_TRUE(beer->Contains(
      Tuple({Value::String("new"), Value::String("ale"),
             Value::String("heineken"), Value::Double(6.0)})));
}

TEST_F(TxnTest, DeleteRemovesMatchingTuples) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r, Run("delete(beer, select[name = \"pils\"](beer));"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ((*db_.Find("beer"))->size(), 0u);
  EXPECT_EQ(r.tuples_deleted, 1u);
}

TEST_F(TxnTest, DeleteOfALiteralWidensIntsIntoDoubleColumns) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("delete(beer, {(\"pils\", \"lager\", \"heineken\", 5)});"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.tuples_deleted, 1u);
  EXPECT_EQ((*db_.Find("beer"))->size(), 0u);
}

TEST_F(TxnTest, LiteralWithAShortRowIsAnArityErrorBeforeAnyWrite) {
  // A literal's rows go straight to the written relation, so every row's
  // arity is checked before the first one is written.
  Database before = db_.Clone();
  Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Insert(
      "beer", algebra::RelExpr::Literal(
                  {Tuple({Value::String("a"), Value::String("b"),
                          Value::String("c"), Value::Double(1.0)}),
                   Tuple({Value::String("short"), Value::String("b"),
                          Value::String("c")})},
                  4)));
  Result<TxnResult> r = ExecuteTransaction(txn, &db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("has arity 3, expected 4"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_TRUE(db_.SameState(before));
}

TEST_F(TxnTest, UpdateHasDeleteInsertSemantics) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("update(beer, name = \"pils\", alcohol := alcohol + 1);"));
  EXPECT_TRUE(r.committed);
  const Relation* beer = *db_.Find("beer");
  ASSERT_EQ(beer->size(), 1u);
  EXPECT_DOUBLE_EQ(beer->SortedTuples()[0].at(3).as_double(), 6.0);
  EXPECT_EQ(r.tuples_inserted, 1u);
  EXPECT_EQ(r.tuples_deleted, 1u);
}

TEST_F(TxnTest, AlarmOnNonEmptyAborts) {
  const uint64_t t0 = db_.logical_time();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"bad\", \"ale\", \"x\", -1.0)});"
          "alarm(select[alcohol < 0](beer), \"negative alcohol\");"));
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.abort_reason, "negative alcohol");
  EXPECT_EQ(r.aborting_statement, 1);
  // Atomicity: the insert was rolled back, logical time unchanged.
  EXPECT_EQ((*db_.Find("beer"))->size(), 1u);
  EXPECT_EQ(db_.logical_time(), t0);
}

TEST_F(TxnTest, AlarmOnEmptyHasNoEffect) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r, Run("alarm(select[alcohol < 0](beer));"));
  EXPECT_TRUE(r.committed);
}

TEST_F(TxnTest, AbortStatementRestoresEverything) {
  Database before = db_.Clone();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"a\", \"b\", \"c\", 1.0)});"
          "delete(brewery, brewery);"
          "update(beer, alcohol > 0, alcohol := 0.0);"
          "abort(\"never mind\");"));
  EXPECT_FALSE(r.committed);
  EXPECT_TRUE(db_.SameState(before));
}

TEST_F(TxnTest, TemporariesAreTransactionLocal) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("t := project[name](beer); insert(brewery, "
          "project[name, null, null](t));"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ((*db_.Find("brewery"))->size(), 2u);
  EXPECT_FALSE(db_.Contains("t"));
}

TEST_F(TxnTest, MalformedProgramErrorsAndRollsBack) {
  Database before = db_.Clone();
  AlgebraParser parser(&db_.schema());
  // Build a program that inserts then references a missing temp (parser
  // would reject it, so build the AST by hand).
  Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Insert(
      "beer", algebra::RelExpr::Literal(
                  {Tuple({Value::String("a"), Value::String("b"),
                          Value::String("c"), Value::Double(1.0)})},
                  4)));
  txn.program.statements.push_back(algebra::Statement::Assign(
      "t", algebra::RelExpr::Temp("missing")));
  Result<TxnResult> r = ExecuteTransaction(txn, &db_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.SameState(before));
}

// --- differential bookkeeping (the paper's auxiliary relations) -----------

class DifferentialTest : public TxnTest {};

/// dplus(rel) / dminus(rel) as the transaction's checks resolve them.
const Relation& Delta(const TxnContext& ctx, RelRefKind kind,
                      const std::string& rel) {
  return **ctx.Resolve(kind, rel);
}

TEST_F(DifferentialTest, InsertPopulatesDeltaPlus) {
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      bool inserted,
      ctx.InsertTuple("brewery", Tuple({Value::String("new"), Value::Null(),
                                        Value::Null()})));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaPlus, "brewery").size(), 1u);
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaMinus, "brewery").size(), 0u);
}

TEST_F(DifferentialTest, DeleteThenReinsertNetsOut) {
  TxnContext ctx(&db_);
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  TXMOD_ASSERT_OK_AND_ASSIGN(bool deleted,
                             ctx.DeleteTuple("brewery", heineken));
  EXPECT_TRUE(deleted);
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaMinus, "brewery").size(), 1u);
  TXMOD_ASSERT_OK_AND_ASSIGN(bool inserted,
                             ctx.InsertTuple("brewery", heineken));
  EXPECT_TRUE(inserted);
  // Net change is zero: R_pre = (R \ plus) ∪ minus must hold.
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaPlus, "brewery").size(), 0u);
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaMinus, "brewery").size(), 0u);
  EXPECT_TRUE(ctx.TouchedRelations().empty());
}

TEST_F(DifferentialTest, WriteFootprintDedupesRepeatedAttempts) {
  // A batch re-touching the same tuple N times is ONE tuple-granularity
  // read: the footprint stays a single entry (no per-attempt growth or
  // tuple copies), and no-op attempts still land in it.
  TxnContext ctx(&db_);
  ctx.EnableConflictTracking();
  const Tuple t({Value::String("x"), Value::Null(), Value::Null()});
  for (int i = 0; i < 8; ++i) {
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
    TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", t).status());
  }
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());  // no-op repeat
  EXPECT_EQ(ctx.WriteFootprint("beer").size(), 0u);
  const TxnContext::Footprint footprint = ctx.WriteFootprint("brewery");
  EXPECT_EQ(footprint.size(), 1u);
  EXPECT_TRUE(footprint.Contains(t));
}

TEST_F(DifferentialTest, WriteFootprintHoldsWhatTheLevelDoesNotShow) {
  // The level shows every write that took effect; the footprint adds
  // the attempts it does not show, and keeps what Rollback undid.
  TxnContext ctx(&db_);
  ctx.EnableConflictTracking();
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  const Tuple absent({Value::String("absent"), Value::Null(), Value::Null()});
  const Tuple fresh({Value::String("fresh"), Value::Null(), Value::Null()});
  const Tuple netted({Value::String("netted"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", heineken).status());  // no-op
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", absent).status());    // no-op
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", fresh).status());
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", netted).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", netted).status());
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaPlus, "brewery").size(), 1u);
  EXPECT_TRUE(Delta(ctx, RelRefKind::kDeltaMinus, "brewery").empty());
  for (const Tuple& t : {heineken, absent, fresh, netted}) {
    EXPECT_TRUE(ctx.WriteFootprint("brewery").Contains(t)) << t.ToString();
  }
  EXPECT_EQ(ctx.WriteFootprint("brewery").size(), 4u);
  EXPECT_EQ(ctx.WriteFootprint("beer").size(), 0u);

  ctx.Rollback();
  EXPECT_EQ((*db_.Find("brewery"))->size(), 1u);
  EXPECT_EQ(ctx.WriteFootprint("brewery").size(), 4u);
  EXPECT_TRUE(ctx.WriteFootprint("brewery").Contains(fresh));
}

TEST_F(DifferentialTest, InsertThenDeleteNetsOut) {
  TxnContext ctx(&db_);
  const Tuple t({Value::String("x"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", t).status());
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaPlus, "brewery").size(), 0u);
  EXPECT_EQ(Delta(ctx, RelRefKind::kDeltaMinus, "brewery").size(), 0u);
}

TEST_F(DifferentialTest, OldViewIsPreTransactionState) {
  TxnContext ctx(&db_);
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  const Tuple fresh({Value::String("fresh"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", fresh).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", heineken).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_view,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_view->size(), 1u);
  EXPECT_TRUE(old_view->Contains(heineken));
  EXPECT_FALSE(old_view->Contains(fresh));
  // The current state is the opposite.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* now,
                             ctx.Resolve(RelRefKind::kBase, "brewery"));
  EXPECT_TRUE(now->Contains(fresh));
  EXPECT_FALSE(now->Contains(heineken));
}

TEST_F(DifferentialTest, OldViewComputedEarlyStaysCorrect) {
  TxnContext ctx(&db_);
  // Materialize old(brewery) before any change...
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_before,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_before->size(), 1u);
  // ...then mutate; the old view must still show the pre-state.
  TXMOD_ASSERT_OK(
      ctx.InsertTuple("brewery",
                      Tuple({Value::String("x"), Value::Null(), Value::Null()}))
          .status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_after,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_after->size(), 1u);
}

TEST_F(DifferentialTest, UnwrittenDeltasAreMadeOnFirstResolution) {
  // dplus/dminus of an unwritten relation: one empty relation of its
  // schema, made by the first resolution and kept for the next.
  TxnContext ctx(&db_);
  const Relation* beer = *db_.Find("beer");
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* plus,
                             ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  EXPECT_TRUE(plus->empty());
  EXPECT_EQ(&plus->schema(), &beer->schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* again,
                             ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  EXPECT_EQ(again, plus);
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* minus,
                             ctx.Resolve(RelRefKind::kDeltaMinus, "beer"));
  EXPECT_TRUE(minus->empty());
  EXPECT_EQ(&minus->schema(), &beer->schema());
  for (RelRefKind kind : {RelRefKind::kDeltaPlus, RelRefKind::kDeltaMinus}) {
    EXPECT_EQ(ctx.Resolve(kind, "nosuch").status().code(),
              StatusCode::kNotFound);
  }

  // Once written, they are the level's own inserts and deletes.
  const Tuple fresh({Value::String("fresh"), Value::String("ale"),
                     Value::String("heineken"), Value::Double(6.0)});
  const Tuple pils({Value::String("pils"), Value::String("lager"),
                    Value::String("heineken"), Value::Double(5.0)});
  TXMOD_ASSERT_OK(ctx.InsertTuple("beer", fresh).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("beer", pils).status());
  const Relation* level = *db_.Find("beer");
  TXMOD_ASSERT_OK_AND_ASSIGN(plus, ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(minus,
                             ctx.Resolve(RelRefKind::kDeltaMinus, "beer"));
  EXPECT_EQ(plus, &level->local_inserts());
  EXPECT_EQ(minus, &level->local_deletes());
  EXPECT_EQ(plus->size(), 1u);
  EXPECT_TRUE(plus->Contains(fresh));
  EXPECT_EQ(minus->size(), 1u);
  EXPECT_TRUE(minus->Contains(pils));
}

TEST_F(DifferentialTest, RollbackRestoresState) {
  Database before = db_.Clone();
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK(
      ctx.InsertTuple("brewery",
                      Tuple({Value::String("x"), Value::Null(), Value::Null()}))
          .status());
  TXMOD_ASSERT_OK(
      ctx.DeleteTuple("brewery",
                      Tuple({Value::String("heineken"),
                             Value::String("amsterdam"), Value::String("nl")}))
          .status());
  ctx.Rollback();
  EXPECT_TRUE(db_.SameState(before));
}

TEST_F(DifferentialTest, OverlayLevelIsTheDifferentialWithoutCopies) {
  // The transaction's one differential is its overlay level: old(R) is
  // the pre-transaction state object itself, dplus/dminus are the
  // level's own insert and delete relations, and nothing is copied or
  // collapsed to get them.
  for (int i = 0; i < 10000; ++i) {
    AddBeer(&db_, "beer" + std::to_string(i), "lager", "heineken", 4.0);
  }
  const Relation* pre = *db_.Find("beer");
  const uint64_t collapses = CowStats::overlay_collapses.load();
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK(ctx.InsertTuple("beer",
                                  Tuple({Value::String("one-more"),
                                         Value::String("ale"),
                                         Value::String("heineken"),
                                         Value::Double(6.0)}))
                      .status());
  const Relation* level = *db_.Find("beer");
  ASSERT_TRUE(level->is_overlay());

  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_view,
                             ctx.Resolve(RelRefKind::kOld, "beer"));
  EXPECT_EQ(old_view, pre);
  EXPECT_EQ(old_view->size(), 10001u);  // pils from SetUp + 10^4
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* plus,
                             ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* minus,
                             ctx.Resolve(RelRefKind::kDeltaMinus, "beer"));
  EXPECT_EQ(plus, &level->local_inserts());
  EXPECT_EQ(minus, &level->local_deletes());
  EXPECT_EQ(plus->size(), 1u);
  EXPECT_EQ(minus->size(), 0u);

  // Stable addresses: further writes go to the same level.
  TXMOD_ASSERT_OK(ctx.InsertTuple("beer",
                                  Tuple({Value::String("two-more"),
                                         Value::String("ale"),
                                         Value::String("heineken"),
                                         Value::Double(6.0)}))
                      .status());
  EXPECT_EQ(*ctx.Resolve(RelRefKind::kDeltaPlus, "beer"), plus);
  EXPECT_EQ(*ctx.Resolve(RelRefKind::kDeltaMinus, "beer"), minus);
  EXPECT_EQ(plus->size(), 2u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), collapses);

  // Rollback re-installs the pre-state object itself.
  ctx.Rollback();
  EXPECT_EQ(*db_.Find("beer"), pre);
  EXPECT_EQ(pre->size(), 10001u);
}

TEST_F(DifferentialTest, SerialCommitFoldsTheLevelIntoTheOwnedMaster) {
  const Relation* pre = *db_.Find("brewery");
  ASSERT_FALSE(pre->is_overlay());
  TxnContext ctx(&db_);
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  const Tuple fresh({Value::String("fresh"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", fresh).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", heineken).status());
  ctx.Commit();
  // The same flat state object, now holding the post-state.
  EXPECT_EQ(*db_.Find("brewery"), pre);
  EXPECT_FALSE(pre->is_overlay());
  EXPECT_TRUE(pre->Contains(fresh));
  EXPECT_FALSE(pre->Contains(heineken));
  EXPECT_EQ(pre->size(), 1u);
}

}  // namespace
}  // namespace txmod::txn
