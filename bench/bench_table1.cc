// E1 — Table 1: translation of typical constraint constructs.
//
// For every row of the paper's Table 1, this harness measures
//   (a) TransC translation cost (CL condition -> aborting XRA program),
//   (b) enforcement cost of the produced alarm program on a populated
//       database (the check passes: steady-state cost).
//
// The translated form of each row is verified verbatim against the paper
// in tests/translate_test.cc; here the same constructs are timed.

#include "benchmark/benchmark.h"
#include "bench/workload.h"
#include "src/calculus/analyzer.h"
#include "src/calculus/parser.h"
#include "src/core/translate.h"
#include "src/txn/executor.h"

namespace txmod::bench {
namespace {

struct Row {
  const char* name;
  const char* constraint;
};

// The seven construct rows of Table 1, instantiated on the key/fk schema.
const Row kRows[] = {
    {"row1_universal",
     "forall x (x in fk_rel implies x.amount >= 0)"},
    {"row2_referential",
     "forall x (x in fk_rel implies exists y (y in key_rel and "
     "x.ref = y.key))"},
    {"row3_exclusion",
     "forall x (x in fk_rel implies forall y (y in key_rel implies "
     "x.ref != y.payload))"},
    {"row4_pair",
     "forall x, y ((x in fk_rel and y in key_rel and x.ref = y.key) "
     "implies x.amount >= 1)"},
    {"row5_existential",
     "exists x (x in key_rel and x.payload = \"payload\")"},
    {"row6_aggregate", "sum(fk_rel, amount) >= 0"},
    {"row7_count", "cnt(fk_rel) <= 10000000"},
};

calculus::AnalyzedFormula AnalyzeRow(const Database& db, const Row& row) {
  auto parsed = calculus::ParseFormula(row.constraint);
  TXMOD_BENCH_CHECK_OK(parsed.status());
  auto analyzed = calculus::AnalyzeFormula(*parsed, db.schema());
  TXMOD_BENCH_CHECK_OK(analyzed.status());
  return *std::move(analyzed);
}

void BM_Table1Translate(benchmark::State& state) {
  const Row& row = kRows[state.range(0)];
  state.SetLabel(row.name);
  Database db = MakeKeyFkDatabase(10, 10);
  const calculus::AnalyzedFormula analyzed = AnalyzeRow(db, row);
  for (auto _ : state) {
    auto program = core::TransC(analyzed, db.schema(), "violation");
    TXMOD_BENCH_CHECK_OK(program.status());
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_Table1Translate)->DenseRange(0, 6)->Unit(benchmark::kMicrosecond);

void BM_Table1Enforce(benchmark::State& state) {
  const Row& row = kRows[state.range(0)];
  state.SetLabel(row.name);
  const int keys = static_cast<int>(state.range(1));
  Database db = MakeKeyFkDatabase(keys, keys * 10);
  const calculus::AnalyzedFormula analyzed = AnalyzeRow(db, row);
  auto program = core::TransC(analyzed, db.schema(), "violation");
  TXMOD_BENCH_CHECK_OK(program.status());
  algebra::Transaction txn;
  txn.program = *program;
  for (auto _ : state) {
    auto result = txn::ExecuteTransaction(txn, &db);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("constraint unexpectedly violated");
      return;
    }
  }
  state.counters["key_tuples"] = keys;
  state.counters["fk_tuples"] = keys * 10;
}
BENCHMARK(BM_Table1Enforce)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 6, 1), {100, 1000}})
    ->Unit(benchmark::kMicrosecond);

// E8 — repeated ad-hoc statements.
//
// The paper pays all rule analysis at definition time so enforcement pays
// none: the integrity checks run on the plans pinned when their rules were
// defined, while the user's own statements compile when they run. This
// bench cycles through pre-built transactions of one shape with rotating
// constants, so it times an ad-hoc transaction end to end, the compilation
// of its three statements included.
void BM_AdHocRepeatedShape(benchmark::State& state) {
  const int keys = 200, fks = 1000;
  Database db = MakeKeyFkDatabase(keys, fks);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("domain", DomainConstraint()));
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("refint", RefIntConstraint()));

  // 64 literal-only variants of one multi-operator transaction shape:
  //   tmp := project[ref](select[amount >= A and ref != "kB"](fk_rel));
  //   chk := diff(tmp, project[key](key_rel));
  //   insert(fk_rel, {(id, "kC", 2.5)});
  std::vector<algebra::Transaction> variants;
  int next_id = 5'000'000;
  for (int v = 0; v < 64; ++v) {
    using algebra::RelExpr;
    using algebra::ScalarExpr;
    using algebra::ScalarOp;
    ScalarExpr pred = ScalarExpr::Binary(
        ScalarOp::kAnd,
        ScalarExpr::Binary(ScalarOp::kGe, ScalarExpr::Attr(0, 2, "amount"),
                           ScalarExpr::Const(Value::Double(v % 10))),
        ScalarExpr::Binary(ScalarOp::kNe, ScalarExpr::Attr(0, 1, "ref"),
                           ScalarExpr::Const(
                               Value::String(StrCat("k", v % keys)))));
    algebra::Transaction txn;
    txn.program.statements.push_back(algebra::Statement::Assign(
        "tmp", RelExpr::ProjectAttrs(
                   {1}, RelExpr::Select(std::move(pred),
                                        RelExpr::Base("fk_rel")))));
    txn.program.statements.push_back(algebra::Statement::Assign(
        "chk", RelExpr::Difference(
                   RelExpr::Temp("tmp"),
                   RelExpr::ProjectAttrs({0}, RelExpr::Base("key_rel")))));
    txn.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel",
        RelExpr::Literal({Tuple({Value::Int(next_id++),
                                 Value::String(StrCat("k", v % keys)),
                                 Value::Double(2.5)})},
                         3)));
    variants.push_back(std::move(txn));
  }

  std::size_t i = 0;
  for (auto _ : state) {
    auto result = ics.Execute(variants[i++ % variants.size()]);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("transaction unexpectedly aborted");
      return;
    }
  }
}
BENCHMARK(BM_AdHocRepeatedShape)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace txmod::bench

TXMOD_BENCH_MAIN()
