// Pins the pipelined evaluator's work-counter semantics, operator by
// operator, so future perf work cannot silently change what an operator
// scans or emits. The contract (see evaluator.h): every operator adds the
// tuples it reads from its inputs to `tuples_scanned` — a materialized
// build side counts once, an indexed build side counts zero — and the
// tuples it yields to `tuples_emitted` *before* any downstream set-dedup.

#include <cstdint>
#include <map>

#include "gtest/gtest.h"
#include "src/algebra/evaluator.h"
#include "src/algebra/parser.h"
#include "src/core/subsystem.h"
#include "tests/test_util.h"

namespace txmod::algebra {
namespace {

using txmod::testing::MakeBeerDatabase;

class DbContext : public EvalContext {
 public:
  explicit DbContext(const Database* db) : db_(db) {}
  Result<const Relation*> Resolve(RelRefKind kind,
                                  const std::string& name) const override {
    if (kind != RelRefKind::kBase) {
      return Status::FailedPrecondition(
          "auxiliary relations need a transaction context");
    }
    return db_->Find(name);
  }

 private:
  const Database* db_;
};

/// beer: pils/heineken/5.0, stout/guinness/4.2, free/heineken/0.0
/// brewery: heineken, guinness, plzen
class EvaluatorStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeBeerDatabase();
    testing::AddBeer(&db_, "pils", "lager", "heineken", 5.0);
    testing::AddBeer(&db_, "stout", "stout", "guinness", 4.2);
    testing::AddBeer(&db_, "free", "lager", "heineken", 0.0);
    testing::AddBrewery(&db_, "heineken", "amsterdam", "nl");
    testing::AddBrewery(&db_, "guinness", "dublin", "ie");
    testing::AddBrewery(&db_, "plzen", "pilsen", "cz");
  }

  Result<Relation> Eval(const RelExprPtr& e, EvalStats* stats) {
    DbContext ctx(&db_);
    return EvaluateRelExpr(*e, ctx, stats);
  }

  Result<Relation> EvalText(const std::string& text, EvalStats* stats) {
    AlgebraParser parser(&db_.schema());
    TXMOD_ASSIGN_OR_RETURN(RelExprPtr e, parser.ParseExpression(text));
    return Eval(e, stats);
  }

  void ExpectStats(const std::string& text, std::size_t result_size,
                   uint64_t scanned, uint64_t emitted) {
    EvalStats stats;
    TXMOD_ASSERT_OK_AND_ASSIGN(Relation r, EvalText(text, &stats));
    EXPECT_EQ(r.size(), result_size) << text;
    EXPECT_EQ(stats.tuples_scanned, scanned) << text;
    EXPECT_EQ(stats.tuples_emitted, emitted) << text;
  }

  Database db_;
};

TEST_F(EvaluatorStatsTest, RefScansNothing) {
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation r, Eval(RelExpr::Base("beer"), &stats));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(stats.tuples_scanned, 0u);
  EXPECT_EQ(stats.tuples_emitted, 0u);
  EXPECT_EQ(stats.operators, 1u);
}

TEST_F(EvaluatorStatsTest, Select) {
  ExpectStats("select[alcohol > 0](beer)", 2, 3, 2);
}

TEST_F(EvaluatorStatsTest, ProjectEmitsBeforeDedup) {
  // Three input tuples project to two distinct breweries: the operator
  // emits 3, the result set keeps 2.
  ExpectStats("project[brewery](beer)", 2, 3, 3);
}

TEST_F(EvaluatorStatsTest, Product) {
  // Right side (3) is materialized once; left streams 3; 9 rows emitted.
  ExpectStats("product(beer, brewery)", 9, 6, 9);
}

TEST_F(EvaluatorStatsTest, HashJoin) {
  // Build side brewery (3) + probe side beer (3); every beer matches.
  ExpectStats("join[l.brewery = r.name](beer, brewery)", 3, 6, 3);
}

TEST_F(EvaluatorStatsTest, SemiJoin) {
  ExpectStats("semijoin[l.brewery = r.name](beer, brewery)", 3, 6, 3);
}

TEST_F(EvaluatorStatsTest, AntiJoin) {
  ExpectStats("antijoin[l.brewery = r.name](beer, brewery)", 0, 6, 0);
}

TEST_F(EvaluatorStatsTest, NestedLoopJoinWithoutEquiConjunct) {
  // No equality conjunct: nested loops, same counting contract.
  ExpectStats("semijoin[r.alcohol < l.alcohol](beer, beer)", 2, 6, 2);
}

TEST_F(EvaluatorStatsTest, Union) {
  ExpectStats("union(beer, beer)", 3, 6, 6);
}

TEST_F(EvaluatorStatsTest, Difference) {
  ExpectStats("diff(beer, beer)", 0, 6, 0);
}

TEST_F(EvaluatorStatsTest, Intersect) {
  ExpectStats("intersect(beer, beer)", 3, 6, 3);
}

TEST_F(EvaluatorStatsTest, DifferenceAgainstEmptyPassesThrough) {
  // The empty right side is detected before any scan: the left stream is
  // passed through unfiltered and unscanned by the set operator itself.
  ExpectStats("diff(beer, select[alcohol < 0](beer))", 3, 3, 0);
}

TEST_F(EvaluatorStatsTest, ScalarAggregateStreamsUniqueInput) {
  ExpectStats("cnt(beer)", 1, 3, 1);
}

TEST_F(EvaluatorStatsTest, AggregateOverProjectionDeduplicatesFirst) {
  // project[brewery](beer) yields {heineken, guinness}: CNT must see the
  // deduplicated set (2), not the 3 emitted tuples.
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation r,
                             EvalText("cnt(project[brewery](beer))", &stats));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.SortedTuples()[0].at(0), Value::Int(2));
  // The projection emits 3; the aggregate scans the 2 survivors.
  EXPECT_EQ(stats.tuples_scanned, 5u);
  EXPECT_EQ(stats.tuples_emitted, 4u);
}

TEST_F(EvaluatorStatsTest, GroupedAggregate) {
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation r, Eval(RelExpr::GroupAggregate({2}, AggFunc::kCnt, -1,
                                               RelExpr::Base("beer")),
                       &stats));
  EXPECT_EQ(r.size(), 2u);  // heineken x2, guinness x1
  EXPECT_EQ(stats.tuples_scanned, 3u);
  EXPECT_EQ(stats.tuples_emitted, 2u);
}

TEST_F(EvaluatorStatsTest, Literal) {
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation r,
      Eval(RelExpr::Literal({Tuple({Value::Int(1)}), Tuple({Value::Int(1)}),
                             Tuple({Value::Int(2)})},
                            1),
           &stats));
  EXPECT_EQ(r.size(), 2u);  // literals deduplicate (relations are sets)
  EXPECT_EQ(stats.tuples_scanned, 0u);
  EXPECT_EQ(stats.tuples_emitted, 2u);
}

TEST_F(EvaluatorStatsTest, ShortLiteralTupleIsAnErrorNotAnOutOfBoundsRead) {
  // Regression: the schema-inference loop used to read attribute i of
  // every literal tuple before validating per-tuple arity, an OOB read on
  // a short tuple (caught under ASan).
  EvalStats stats;
  auto result = Eval(
      RelExpr::Literal({Tuple({Value::Int(1), Value::Int(2)}),
                        Tuple({Value::Int(3)})},  // arity 1, expected 2
                       2),
      &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorStatsTest, AntiJoinAgainstEmptyRightIsFree) {
  // The differential fast path: an antijoin whose build side is empty
  // passes the left side through without scanning or filtering it.
  EvalStats stats;
  auto pred = ScalarExpr::Binary(ScalarOp::kEq, ScalarExpr::Attr(0, 2),
                                 ScalarExpr::Attr(1, 0));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation r, Eval(RelExpr::AntiJoin(pred, RelExpr::Base("beer"),
                                         RelExpr::Literal({}, 3)),
                       &stats));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(stats.tuples_scanned, 0u);
}

// ---------------------------------------------------------------------------
// Indexed build sides: declared relation indexes change the scan counts
// (that is the point) but never the results.
// ---------------------------------------------------------------------------

TEST_F(EvaluatorStatsTest, IndexedSemiJoinScansOnlyTheProbeSide) {
  EvalStats before;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation expected,
      EvalText("semijoin[l.brewery = r.name](beer, brewery)", &before));
  ASSERT_NE((*db_.FindMutable("brewery"))->IndexOn({0}), nullptr);
  EvalStats after;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation indexed,
      EvalText("semijoin[l.brewery = r.name](beer, brewery)", &after));
  EXPECT_TRUE(indexed.SameTuples(expected));
  EXPECT_EQ(before.tuples_scanned, 6u);  // build 3 + probe 3
  EXPECT_EQ(after.tuples_scanned, 3u);   // probe only
}

TEST_F(EvaluatorStatsTest, IndexedDifferenceSkipsTheProjection) {
  const char* text = "diff(project[brewery](beer), project[name](brewery))";
  EvalStats before;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation expected, EvalText(text, &before));
  ASSERT_NE((*db_.FindMutable("brewery"))->IndexOn({0}), nullptr);
  EvalStats after;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation indexed, EvalText(text, &after));
  EXPECT_TRUE(indexed.SameTuples(expected));
  EXPECT_EQ(expected.size(), 0u);  // every beer's brewery exists
  // Unindexed: left projection (3 in/3 out) + right projection (3 in/3
  // out) + the difference's build (3) and probe (3). Indexed: the right
  // projection is never evaluated.
  EXPECT_EQ(before.tuples_scanned, 12u);
  EXPECT_EQ(after.tuples_scanned, 6u);
}

TEST_F(EvaluatorStatsTest, IndexedIntersectMatchesUnindexed) {
  const char* text =
      "intersect(project[brewery](beer), project[name](brewery))";
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation expected, EvalText(text, nullptr));
  ASSERT_NE((*db_.FindMutable("brewery"))->IndexOn({0}), nullptr);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation indexed, EvalText(text, nullptr));
  EXPECT_TRUE(indexed.SameTuples(expected));
  EXPECT_EQ(indexed.size(), 2u);  // heineken, guinness
}

// ---------------------------------------------------------------------------
// Exact numeric join keys: int64 values above 2^53 must not be conflated
// by the double widening the key normalization used to apply.
// ---------------------------------------------------------------------------

TEST_F(EvaluatorStatsTest, JoinKeysAbove2Pow53StayExact) {
  const int64_t big = int64_t{1} << 53;
  Database db;
  TXMOD_ASSERT_OK(db.CreateRelation(
      RelationSchema("l_rel", {Attribute{"v", AttrType::kInt}})));
  TXMOD_ASSERT_OK(db.CreateRelation(
      RelationSchema("r_rel", {Attribute{"v", AttrType::kInt}})));
  (*db.FindMutable("l_rel"))->Insert(Tuple({Value::Int(big)}));
  (*db.FindMutable("l_rel"))->Insert(Tuple({Value::Int(big + 1)}));
  (*db.FindMutable("r_rel"))->Insert(Tuple({Value::Int(big + 1)}));
  AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr e, parser.ParseExpression("join[l.v = r.v](l_rel, r_rel)"));
  DbContext ctx(&db);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation r, EvaluateRelExpr(*e, ctx));
  // big and big + 1 widen to the same double; exact comparison keeps them
  // apart, so only the true partner joins.
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.SortedTuples()[0].at(0), Value::Int(big + 1));
}

// ---------------------------------------------------------------------------
// Plan-cache counters: a hit is a statement that ran on a check plan
// pinned at rule-definition time, a miss a statement that compiled its own
// tree when it ran. Pinned here next to the other counter contracts.
// ---------------------------------------------------------------------------

TEST_F(EvaluatorStatsTest, ChecksHitPinnedPlansUserStatementsCompile) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(
      ics.DefineConstraint("domain", testing::BeerDomainConstraint()));
  TXMOD_ASSERT_OK(
      ics.DefineConstraint("refint", testing::BeerRefIntConstraint()));
  AlgebraParser parser(&db_.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"bock\", \"lager\", \"plzen\", 6.5)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  const uint64_t checks = modified.program.statements.size() - 1;
  ASSERT_GE(checks, 2u);  // INS(beer) triggers both rules

  TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult result, ics.Execute(txn));
  ASSERT_TRUE(result.committed) << result.abort_reason;
  EXPECT_EQ(result.stats.plan_cache_hits, checks);
  EXPECT_EQ(result.stats.plan_cache_misses, 1u);
}

TEST_F(EvaluatorStatsTest, CacheCountersAggregateAndStripCleanly) {
  EvalStats a;
  a.tuples_scanned = 3;
  a.plan_cache_hits = 2;
  a.plan_cache_misses = 1;
  EvalStats b;
  b.plan_cache_hits = 5;
  b.index_probes = 7;
  a.Add(b);
  EXPECT_EQ(a.plan_cache_hits, 7u);
  EXPECT_EQ(a.plan_cache_misses, 1u);
  const EvalStats stripped = a.WithoutCacheCounters();
  EXPECT_EQ(stripped.plan_cache_hits, 0u);
  EXPECT_EQ(stripped.plan_cache_misses, 0u);
  EXPECT_EQ(stripped.tuples_scanned, 3u);
  EXPECT_EQ(stripped.index_probes, 7u);
}

}  // namespace
}  // namespace txmod::algebra
