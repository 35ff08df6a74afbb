#ifndef TXMOD_BENCH_WORKLOAD_H_
#define TXMOD_BENCH_WORKLOAD_H_

// Shared workload generator for the benchmark harness.
//
// The paper's Section 7 test database: a key relation (brewery-like,
// playing the referenced side) and a foreign-key relation (beer-like,
// the referencing side). Sizes are parameters; the paper's headline
// configuration is keys=5000, fks=50000, insert batch=5000.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/algebra/statement.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"

namespace txmod::bench {

#define TXMOD_BENCH_CHECK_OK(expr)                          \
  do {                                                      \
    const ::txmod::Status _st = (expr);                     \
    if (!_st.ok()) {                                        \
      std::cerr << "BENCH FATAL: " << _st << "\n";          \
      std::exit(1);                                         \
    }                                                       \
  } while (false)

/// BENCHMARK_MAIN with one extra flag: `--json <file>` (or `--json=<file>`)
/// writes the Google Benchmark JSON report — including the machine/compiler
/// context block — to <file> while keeping the console reporter on stdout.
/// scripts/bench.sh uses it to record reproducible baselines
/// (BENCH_table1.json at the repo root).
///
/// Only defined when benchmark/benchmark.h was included first (the bench
/// binaries do; tests/workload_test.cc includes this header without linking
/// Google Benchmark and must not see it).
#ifdef BENCHMARK_MAIN
inline int BenchMain(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argc > 0 ? argv[0] : "bench");
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (!json_path.empty()) {
    args.push_back(StrCat("--benchmark_out=", json_path));
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#define TXMOD_BENCH_MAIN()                                  \
  int main(int argc, char** argv) {                         \
    return ::txmod::bench::BenchMain(argc, argv);           \
  }
#endif  // BENCHMARK_MAIN

/// key_rel(key string, payload string)
/// fk_rel(id int, ref string, amount double)
inline Database MakeKeyFkDatabase(int keys, int fks) {
  Database db;
  TXMOD_BENCH_CHECK_OK(db.CreateRelation(RelationSchema(
      "key_rel", {Attribute{"key", AttrType::kString},
                  Attribute{"payload", AttrType::kString}})));
  TXMOD_BENCH_CHECK_OK(db.CreateRelation(RelationSchema(
      "fk_rel", {Attribute{"id", AttrType::kInt},
                 Attribute{"ref", AttrType::kString},
                 Attribute{"amount", AttrType::kDouble}})));
  Relation* key_rel = *db.FindMutable("key_rel");
  for (int i = 0; i < keys; ++i) {
    key_rel->Insert(Tuple({Value::String(StrCat("k", i)),
                           Value::String("payload")}));
  }
  Relation* fk_rel = *db.FindMutable("fk_rel");
  for (int i = 0; i < fks; ++i) {
    fk_rel->Insert(Tuple({Value::Int(i),
                          Value::String(StrCat("k", i % (keys > 0 ? keys : 1))),
                          Value::Double(1.0 + i % 10)}));
  }
  return db;
}

/// A transaction inserting `batch` fresh, valid fk_rel tuples (ids start
/// above the existing range; refs cycle through existing keys).
inline algebra::Transaction MakeFkInsertBatch(int batch, int keys,
                                              int id_base = 1'000'000) {
  std::vector<Tuple> tuples;
  tuples.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    tuples.push_back(Tuple({Value::Int(id_base + i),
                            Value::String(StrCat("k", i % (keys > 0 ? keys : 1))),
                            Value::Double(2.5)}));
  }
  algebra::Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Insert(
      "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
  return txn;
}

/// Adds `extra` keys ("x0", "x1", ...) that no fk_rel tuple references —
/// deletable without violating referential integrity, so delete-heavy
/// workloads can run in steady state (commit, not abort).
inline void AddUnreferencedKeys(Database* db, int extra) {
  Relation* key_rel = *db->FindMutable("key_rel");
  for (int i = 0; i < extra; ++i) {
    key_rel->Insert(Tuple({Value::String(StrCat("x", i)),
                           Value::String("payload")}));
  }
}

/// A transaction deleting the first `batch` unreferenced keys (see
/// AddUnreferencedKeys). Under the referential constraint this triggers
/// the DEL(key_rel) check, whose core is
///   semijoin[l.ref = r.key](fk_rel, dminus(key_rel))
/// — the join-heavy enforcement shape.
inline algebra::Transaction MakeKeyDeleteBatch(int batch) {
  std::vector<Tuple> tuples;
  tuples.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    tuples.push_back(Tuple({Value::String(StrCat("x", i)),
                            Value::String("payload")}));
  }
  algebra::Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Delete(
      "key_rel", algebra::RelExpr::Literal(std::move(tuples), 2)));
  return txn;
}

/// The referential integrity constraint of the Section 7 experiment.
inline const char* RefIntConstraint() {
  return "forall x (x in fk_rel implies exists y (y in key_rel and "
         "x.ref = y.key))";
}

/// The domain constraint of the Section 7 experiment.
inline const char* DomainConstraint() {
  return "forall x (x in fk_rel implies x.amount >= 0)";
}

}  // namespace txmod::bench

#endif  // TXMOD_BENCH_WORKLOAD_H_
