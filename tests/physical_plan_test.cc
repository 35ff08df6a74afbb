// Pins the choices of the physical-plan layer (physical_plan.h): which
// operator implementation each logical shape compiles to, which indexes a
// plan requests, and that both the serial pipeline and the fragment-local
// kernel execute the same plans. Plan choices are load-bearing — the
// integrity subsystem derives its index declarations from them — so they
// are pinned by Explain() dumps here, not left incidental.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/algebra/parser.h"
#include "src/algebra/physical_plan.h"
#include "src/core/subsystem.h"
#include "tests/test_util.h"

namespace txmod::algebra {
namespace {

using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
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

Result<RelExprPtr> Parse(const Database& db, const std::string& text) {
  AlgebraParser parser(&db.schema());
  return parser.ParseExpression(text);
}

std::string ExplainText(const Database& db, const std::string& text) {
  auto e = Parse(db, text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  auto plan = PhysicalPlan::Compile(*e);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan->Explain();
}

// ---------------------------------------------------------------------------
// Operator choice, pinned via Explain().
// ---------------------------------------------------------------------------

TEST(PhysicalPlanExplainTest, EquiJoinCompilesToHashJoin) {
  Database db = MakeBeerDatabase();
  EXPECT_EQ(ExplainText(db, "join[l.brewery = r.name](beer, brewery)"),
            "hash_join[join, keys=(2=0)]\n"
            "  scan[base beer]\n"
            "  scan[base brewery]\n");
}

TEST(PhysicalPlanExplainTest, NonEquiJoinCompilesToNestedLoop) {
  Database db = MakeBeerDatabase();
  EXPECT_EQ(ExplainText(db, "semijoin[r.alcohol < l.alcohol](beer, beer)"),
            "nested_loop[semijoin]\n"
            "  scan[base beer]\n"
            "  scan[base beer]\n");
}

TEST(PhysicalPlanExplainTest, ProjectionDifferenceCompilesToIndexSetOp) {
  Database db = MakeBeerDatabase();
  EXPECT_EQ(
      ExplainText(db, "diff(project[brewery](beer), project[name](brewery))"),
      "index_set_op[diff, member=base brewery(0)]\n"
      "  project[brewery]\n"
      "    scan[base beer]\n"
      "  project[name]\n"
      "    scan[base brewery]\n");
}

TEST(PhysicalPlanExplainTest,
     BaseProbedAgainstDifferentialCompilesToIndexLookup) {
  // The delete-heavy referential shape: the big base relation on the
  // probe side, the (small) transaction differential on the build side.
  Database db = MakeBeerDatabase();
  EXPECT_EQ(
      ExplainText(db, "semijoin[l.brewery = r.name](beer, dminus(brewery))"),
      "index_lookup[semijoin, probe=beer(2), keys=(2=0)]\n"
      "  scan[base beer]\n"
      "  scan[dminus brewery]\n");
}

TEST(PhysicalPlanExplainTest, AntiJoinAgainstDifferentialStaysHashJoin) {
  // An antijoin must visit every left tuple, so probe inversion buys
  // nothing and the plan keeps the hash join.
  Database db = MakeBeerDatabase();
  EXPECT_EQ(
      ExplainText(db, "antijoin[l.brewery = r.name](beer, dminus(brewery))"),
      "hash_join[antijoin, keys=(2=0)]\n"
      "  scan[base beer]\n"
      "  scan[dminus brewery]\n");
}

// ---------------------------------------------------------------------------
// Index requests: what a plan asks the subsystem to declare.
// ---------------------------------------------------------------------------

TEST(PhysicalPlanTest, IndexRequestsCoverBuildProbeAndMembershipSides) {
  Database db = MakeBeerDatabase();
  // Hash-join build side.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr join, Parse(db, "join[l.brewery = r.name](beer, brewery)"));
  TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan jp, PhysicalPlan::Compile(join));
  ASSERT_EQ(jp.IndexRequests().size(), 1u);
  EXPECT_EQ(jp.IndexRequests()[0].relation, "brewery");
  EXPECT_EQ(jp.IndexRequests()[0].attrs, std::vector<int>({0}));

  // Index-lookup probe side: the base relation whose index the small
  // differential side probes.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr lookup,
      Parse(db, "semijoin[l.brewery = r.name](beer, dminus(brewery))"));
  TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan lp, PhysicalPlan::Compile(lookup));
  ASSERT_EQ(lp.IndexRequests().size(), 1u);
  EXPECT_EQ(lp.IndexRequests()[0].relation, "beer");
  EXPECT_EQ(lp.IndexRequests()[0].attrs, std::vector<int>({2}));

  // Projection-difference membership side.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr diff,
      Parse(db, "diff(project[brewery](beer), project[name](brewery))"));
  TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan dp, PhysicalPlan::Compile(diff));
  ASSERT_EQ(dp.IndexRequests().size(), 1u);
  EXPECT_EQ(dp.IndexRequests()[0].relation, "brewery");
  EXPECT_EQ(dp.IndexRequests()[0].attrs, std::vector<int>({0}));
}

// ---------------------------------------------------------------------------
// Index-lookup execution: correct with the index, identical without.
// ---------------------------------------------------------------------------

TEST(PhysicalPlanTest, IndexLookupFallsBackWithoutDeclaredIndex) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  for (int i = 0; i < 8; ++i) {
    AddBeer(&db, StrCat("b", i), "lager", i % 2 == 0 ? "heineken" : "gone",
            5.0);
  }
  // dminus is unavailable through DbContext, so aim the same shape at a
  // base relation instead: semijoin(beer, brewery) with brewery tiny.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr e, Parse(db, "semijoin[l.brewery = r.name](beer, brewery)"));
  TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, PhysicalPlan::Compile(e));
  DbContext ctx(&db);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation without, plan.Execute(ctx));
  EXPECT_EQ(without.size(), 4u);

  // Declare the probe-side index the plan would want for the
  // differential variant and re-run through a *recompiled* lookup plan by
  // building the expression with a differential-bounded right side via
  // literal (literals are delta-bounded too).
  TXMOD_ASSERT_OK_AND_ASSIGN(
      RelExprPtr lit_e,
      Parse(db, "semijoin[l.brewery = r.c0](beer, {(\"heineken\")})"));
  TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan lit_plan,
                             PhysicalPlan::Compile(lit_e));
  EXPECT_NE(lit_plan.Explain().find("index_lookup[semijoin, probe=beer(2)"),
            std::string::npos)
      << lit_plan.Explain();

  // Without the index: falls back to a hash join, same result.
  EvalStats no_index;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation r1, lit_plan.Execute(ctx, &no_index));
  EXPECT_EQ(r1.size(), 4u);
  EXPECT_EQ(no_index.index_probes, 0u);

  // With the index: probes instead of scanning beer.
  ASSERT_NE((*db.FindMutable("beer"))->IndexOn({2}), nullptr);
  EvalStats with_index;
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation r2, lit_plan.Execute(ctx, &with_index));
  EXPECT_TRUE(r2.SameTuples(r1));
  EXPECT_GE(with_index.index_probes, 1u);
  // The probe side is never scanned: only the single literal tuple is.
  EXPECT_LT(with_index.tuples_scanned, no_index.tuples_scanned);
}

// ---------------------------------------------------------------------------
// Subsystem integration: the delete-heavy check declares and uses the
// probe-side index (the cost-based index choice of the ROADMAP item).
// ---------------------------------------------------------------------------

TEST(PhysicalPlanTest, SubsystemDeclaresProbeSideIndexForDeleteChecks) {
  Database db = bench::MakeKeyFkDatabase(/*keys=*/200, /*fks=*/2000);
  bench::AddUnreferencedKeys(&db, 5);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));

  // The DEL(key_rel) check semijoins fk_rel against dminus(key_rel); the
  // plan requests an index on fk_rel's probe attribute (ref, #1) — on top
  // of the membership index on key_rel(key, #0) the insert check wants.
  EXPECT_NE((*db.FindMutable("fk_rel"))->FindIndex({1}), nullptr);
  EXPECT_NE((*db.FindMutable("key_rel"))->FindIndex({0}), nullptr);

  bool saw_index_lookup = false;
  for (const auto& [stmt, explain] : ics.ExplainPlans()) {
    if (explain.find("index_lookup[semijoin, probe=fk_rel(1), keys=(1=0)]") !=
        std::string::npos) {
      saw_index_lookup = true;
    }
  }
  EXPECT_TRUE(saw_index_lookup);

  // Deleting an unreferenced key runs the check through the index: the
  // 2000-tuple fk_rel is never scanned.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult result,
      ics.ExecuteText("delete(key_rel, {(\"x0\", \"payload\")});"));
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.stats.index_probes, 1u);
  EXPECT_LT(result.stats.tuples_scanned, 100u);

  // Deleting a referenced key must still abort (the index path finds the
  // referencing fk tuples).
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult abort_result,
      ics.ExecuteText("delete(key_rel, {(\"k0\", \"payload\")});"));
  EXPECT_FALSE(abort_result.committed);
}

// ---------------------------------------------------------------------------
// Plan cache: definition-time plans are cached; lookups are by identity.
// ---------------------------------------------------------------------------

TEST(PhysicalPlanTest, SubsystemCachesCheckPlansAtDefinitionTime) {
  Database db = MakeBeerDatabase();
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  EXPECT_GT(ics.plan_cache().size(), 0u);
  // Every compiled check statement's expression resolves in the cache.
  for (const core::IntegrityProgram& program : ics.compiled().programs()) {
    for (const Statement& stmt : program.program.statements) {
      if (stmt.expr == nullptr) continue;
      EXPECT_NE(ics.plan_cache().Lookup(stmt.expr.get()), nullptr);
    }
  }
  // Unknown expressions miss.
  TXMOD_ASSERT_OK_AND_ASSIGN(RelExprPtr other, Parse(db, "beer"));
  EXPECT_EQ(ics.plan_cache().Lookup(other.get()), nullptr);
}

TEST(PhysicalPlanTest, PinnedCheckPlanProbesIndexDeclaredAfterDefinition) {
  // Plans resolve indexes when they execute, not when they compile, so
  // index declaration needs no invalidation hook: a check plan pinned at
  // rule definition probes an index declared afterwards, unrecompiled.
  Database defined_on = bench::MakeKeyFkDatabase(500, 10);
  core::IntegritySubsystem ics(&defined_on);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  const std::size_t pinned = ics.plan_cache().size();

  // The same state without the indexes the definition declared.
  Database db = bench::MakeKeyFkDatabase(500, 10);
  ASSERT_EQ((*db.Find("key_rel"))->FindIndex({0}), nullptr);
  AlgebraParser parser(&db.schema());

  // The INS(fk_rel) check, diff(project[ref](dplus(fk_rel)),
  // project[key](key_rel)), has no index to probe yet: it scans key_rel.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction first,
      parser.ParseTransaction("insert(fk_rel, {(4000001, \"k1\", 2.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction first_mod, ics.Modify(first));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r1,
      txn::ExecuteTransaction(first_mod, &db, &ics.plan_cache()));
  ASSERT_TRUE(r1.committed) << r1.abort_reason;
  EXPECT_GE(r1.stats.plan_cache_hits, 1u);
  EXPECT_EQ(r1.stats.index_probes, 0u);
  EXPECT_GE(r1.stats.tuples_scanned, 500u);

  ASSERT_NE((*db.FindMutable("key_rel"))->IndexOn({0}), nullptr);

  // The same pinned plan now probes the index instead of scanning.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction second,
      parser.ParseTransaction("insert(fk_rel, {(4000002, \"k2\", 3.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction second_mod, ics.Modify(second));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      txn::TxnResult r2,
      txn::ExecuteTransaction(second_mod, &db, &ics.plan_cache()));
  ASSERT_TRUE(r2.committed) << r2.abort_reason;
  EXPECT_EQ(r2.stats.plan_cache_hits, r1.stats.plan_cache_hits);
  EXPECT_GT(r2.stats.index_probes, 0u);
  EXPECT_LT(r2.stats.tuples_scanned, 100u);
  EXPECT_EQ(ics.plan_cache().size(), pinned);
}

// ---------------------------------------------------------------------------
// Fragment-local kernel: one operator over materialized inputs agrees
// with serial execution of the same plan node.
// ---------------------------------------------------------------------------

TEST(PhysicalPlanTest, FragmentLocalKernelMatchesSerialJoin) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBrewery(&db, "guinness", "dublin", "ie");
  for (int i = 0; i < 10; ++i) {
    AddBeer(&db, StrCat("b", i), "lager",
            i % 3 == 0 ? "heineken" : (i % 3 == 1 ? "guinness" : "nowhere"),
            4.0 + i);
  }
  for (const char* text :
       {"join[l.brewery = r.name](beer, brewery)",
        "semijoin[l.brewery = r.name](beer, brewery)",
        "antijoin[l.brewery = r.name](beer, brewery)",
        "semijoin[r.alcohol < l.alcohol](beer, beer)",
        "diff(beer, select[alcohol > 8](beer))",
        "intersect(beer, select[alcohol > 8](beer))",
        "union(beer, beer)"}) {
    SCOPED_TRACE(text);
    TXMOD_ASSERT_OK_AND_ASSIGN(RelExprPtr e, Parse(db, text));
    TXMOD_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, PhysicalPlan::Compile(e));
    DbContext ctx(&db);
    TXMOD_ASSERT_OK_AND_ASSIGN(Relation serial, plan.Execute(ctx));
    // The kernel gets the already-materialized children.
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation left,
        PhysicalPlan::Compile(e->left()).value().Execute(ctx));
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation right,
        PhysicalPlan::Compile(e->right()).value().Execute(ctx));
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation local, ExecuteNodeLocal(plan.root(), left, &right));
    EXPECT_TRUE(local.SameTuples(serial));
  }
}

// ---------------------------------------------------------------------------
// The fragment-local kernel over fragments: streaming operators scan their
// input once, a hash join builds its right side once, and the index forms
// probe fragment indexes where they lie.
// ---------------------------------------------------------------------------

/// `rel` dealt round-robin into `n` fragments, each indexed on `attrs`.
std::vector<Relation> IndexedFragments(const Relation& rel, std::size_t n,
                                       const std::vector<int>& attrs) {
  std::vector<Relation> frags;
  frags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frags.emplace_back(rel.schema_ptr()).IndexOn(attrs);
  }
  std::size_t i = 0;
  for (const Tuple& t : rel) frags[i++ % n].Insert(t);
  return frags;
}

class NodeLocalTest : public ::testing::Test {
 protected:
  NodeLocalTest() : db_(MakeBeerDatabase()) {
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
    AddBrewery(&db_, "guinness", "dublin", "ie");
    for (int i = 0; i < 23; ++i) {
      AddBeer(&db_, StrCat("beer", i), "lager",
              i % 2 == 0 ? "heineken" : "guinness", 3.0 + (i % 7));
    }
  }

  /// Compiles `text` and returns its plan (kept alive by the fixture), or
  /// nullptr on a parse/compile failure (already reported to gtest).
  const PhysicalPlan* Plan(const std::string& text) {
    auto e = Parse(db_, text);
    if (!e.ok()) {
      ADD_FAILURE() << e.status().ToString();
      return nullptr;
    }
    auto plan = PhysicalPlan::Compile(*std::move(e));
    if (!plan.ok()) {
      ADD_FAILURE() << plan.status().ToString();
      return nullptr;
    }
    plans_.push_back(std::make_unique<PhysicalPlan>(std::move(plan).value()));
    return plans_.back().get();
  }

  const Relation& Rel(const std::string& name) { return **db_.Find(name); }

  Database db_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

TEST_F(NodeLocalTest, StreamingOperatorsMatchSerialExecution) {
  for (const char* text :
       {"select[alcohol > 5](beer)", "project[name, alcohol](beer)"}) {
    SCOPED_TRACE(text);
    const PhysicalPlan* plan = Plan(text);
    ASSERT_NE(plan, nullptr);
    DbContext ctx(&db_);
    TXMOD_ASSERT_OK_AND_ASSIGN(Relation serial, plan->Execute(ctx));
    EvalStats stats;
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation local,
        ExecuteNodeLocal(plan->root(), Rel("beer"), nullptr, &stats));
    EXPECT_TRUE(local.SameTuples(serial));
    EXPECT_EQ(stats.tuples_scanned, Rel("beer").size());
  }
}

TEST_F(NodeLocalTest, HashJoinBuildsItsRightSideOnce) {
  const PhysicalPlan* plan = Plan("join[l.brewery = r.name](beer, brewery)");
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root().op, PhysOpKind::kHashJoin);
  DbContext ctx(&db_);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation serial, plan->Execute(ctx));
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation local, ExecuteNodeLocal(plan->root(), Rel("beer"),
                                       &Rel("brewery"), &stats));
  EXPECT_TRUE(local.SameTuples(serial));
  EXPECT_EQ(stats.tuples_scanned, Rel("beer").size() + Rel("brewery").size());
  EXPECT_EQ(stats.index_probes, 0u);
}

TEST_F(NodeLocalTest, IndexedSetOpProbesEveryFragmentInPlace) {
  const PhysicalPlan* plan =
      Plan("diff(project[brewery](beer), project[name](brewery))");
  ASSERT_NE(plan, nullptr);
  const PhysicalNode& n = plan->root();
  ASSERT_EQ(n.op, PhysOpKind::kIndexSetOp);
  AddBrewery(&db_, "plzen", "pilsen", "cz");      // unreferenced
  AddBeer(&db_, "stray", "ale", "nowhere", 5.0);  // dangling
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation left, ExecuteNodeLocal(n.child(0), Rel("beer"), nullptr));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation members, ExecuteNodeLocal(n.child(1), Rel("brewery"), nullptr));
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation expected,
                             ExecuteNodeLocal(n, left, &members));
  ASSERT_EQ(expected.size(), 1u);  // nowhere

  const std::vector<Relation> frags =
      IndexedFragments(Rel("brewery"), 3, n.setop_attrs);
  FragmentProbe probe;
  for (const Relation& f : frags) {
    probe.views.push_back(f.FindIndexView(n.setop_attrs));
  }
  probe.schema = Rel("brewery").schema_ptr();
  EvalStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Relation probed, ExecuteNodeLocal(n, left, nullptr, &stats, &probe));
  EXPECT_TRUE(probed.SameTuples(expected));
  EXPECT_EQ(stats.tuples_scanned, left.size());  // brewery is not scanned
  EXPECT_GE(stats.index_probes, left.size());
}

TEST_F(NodeLocalTest, IndexLookupJoinStreamsTheDeltaThroughAFragment) {
  const PhysicalPlan* plan = Plan(
      "semijoin[l.brewery = r.0](beer, {(\"heineken\"), (\"nowhere\")})");
  ASSERT_NE(plan, nullptr);
  const PhysicalNode& n = plan->root();
  ASSERT_EQ(n.op, PhysOpKind::kIndexLookupJoin);
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation delta,
                             MaterializeLiteral(*n.child(1).logical));
  TXMOD_ASSERT_OK_AND_ASSIGN(Relation expected,
                             ExecuteNodeLocal(n, Rel("beer"), &delta));
  ASSERT_FALSE(expected.empty());

  // Each fragment streams the (broadcast) delta through its own index;
  // together they find every match, and no beer tuple is scanned.
  const std::vector<Relation> frags =
      IndexedFragments(Rel("beer"), 3, n.left_keys);
  Relation found(expected.schema_ptr());
  for (const Relation& f : frags) {
    FragmentProbe probe;
    probe.views.push_back(f.FindIndexView(n.left_keys));
    probe.schema = f.schema_ptr();
    EvalStats stats;
    TXMOD_ASSERT_OK_AND_ASSIGN(
        Relation part, ExecuteNodeLocal(n, delta, nullptr, &stats, &probe));
    EXPECT_EQ(stats.tuples_scanned, delta.size());
    EXPECT_EQ(stats.index_probes, delta.size());
    for (const Tuple& t : part) {
      EXPECT_TRUE(f.Contains(t));
      found.Insert(t);
    }
  }
  EXPECT_TRUE(found.SameTuples(expected));
}

// ---------------------------------------------------------------------------
// Plain plans print their constants verbatim.
// ---------------------------------------------------------------------------

TEST(PhysicalPlanExplainTest, PlainPlansKeepConstantsVerbatim) {
  Database db = MakeBeerDatabase();
  EXPECT_EQ(ExplainText(db, "select[alcohol >= 4.5](beer)"),
            "select[alcohol >= 4.5]\n"
            "  scan[base beer]\n");
}

}  // namespace
}  // namespace txmod::algebra
