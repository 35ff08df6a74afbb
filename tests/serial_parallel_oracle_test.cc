// Differential oracle: the serial transaction executor and the parallel
// enforcement substrate run the *same* physical operators since the
// shared-plan refactor, so they must agree — exactly — on commit/abort
// outcomes and final database states, for every workload, node count,
// placement and threading mode. This test drives both engines through the
// paper's beer/brewery example (with a transition constraint on
// old(brewery)) and through randomized key/fk transactions
// (bench/workload.h's schema) and asserts equivalence after every
// transaction. Under key/foreign-key placement the checks are node-local;
// under round-robin placement, the benchmark's, index probes cross
// fragments and lookup joins broadcast their delta side. Both engines
// compile the user's statements through the same plan layer, so after
// every step the merged parallel state must also pass PostHocChecker:
// every constraint evaluated in full, sharing none of that code.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/algebra/parser.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/parallel/executor.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::parallel {
namespace {

using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;
using txmod::testing::NamedConstraint;

const std::vector<NamedConstraint> kBeerConstraints = {
    {"domain", "forall x (x in beer implies x.alcohol >= 0)"},
    {"refint",
     "forall x (x in beer implies exists y (y in brewery and "
     "x.brewery = y.name))"},
    // Transition constraint: no brewery disappears. Its check reads
    // old(brewery), the fragments under the transaction's levels.
    {"keep_breweries",
     "forall x (x in old(brewery) implies exists y (y in brewery and "
     "x = y))"}};

const std::vector<NamedConstraint> kKeyFkConstraints = {
    {"domain", bench::DomainConstraint()},
    {"refint", bench::RefIntConstraint()}};

struct OracleParam {
  int nodes;
  bool use_threads;
  /// Round-robin placement for every relation instead of hashing on the
  /// key / foreign-key attributes.
  bool round_robin = false;
  /// Pool width in threaded mode (0 = the shared pool; ignored when
  /// use_threads is false). A pool narrower than the node count runs
  /// several nodes' tasks per thread, one wider leaves threads idle.
  std::size_t workers = 0;
};

/// Both engines execute the same modified transaction against their own
/// copy of the same starting state; outcomes and final states must match,
/// and the parallel state must satisfy every one of `constraints` in
/// full. `serial_db` and `pdb` evolve statefully across calls so multi-
/// transaction histories stay comparable.
void StepBothEngines(const Transaction& modified, Database* serial_db,
                     ParallelDatabase* pdb, const OracleParam& param,
                     const std::vector<NamedConstraint>& constraints,
                     const std::string& trace) {
  SCOPED_TRACE(trace);
  auto serial = txn::ExecuteTransaction(modified, serial_db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ParallelOptions options;
  options.use_threads = param.use_threads;
  options.num_workers = param.workers;
  ParallelExecutor exec(pdb, options);
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult parallel,
                             exec.Execute(modified));

  EXPECT_EQ(serial->committed, parallel.committed);
  Database merged = pdb->Merge();
  EXPECT_TRUE(merged.SameState(*serial_db));
  EXPECT_EQ(testing::FullCheckViolation(std::move(merged), constraints), "");
}

class OracleTest : public ::testing::TestWithParam<OracleParam> {};

// ---------------------------------------------------------------------------
// The paper's beer/brewery e2e workload.
// ---------------------------------------------------------------------------

TEST_P(OracleTest, BeerBreweryWorkloadAgrees) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBrewery(&db, "guinness", "dublin", "ie");
  for (int i = 0; i < 24; ++i) {
    AddBeer(&db, StrCat("beer", i), "lager",
            i % 2 == 0 ? "heineken" : "guinness", 4.0 + (i % 5));
  }
  core::IntegritySubsystem ics(&db);
  for (const NamedConstraint& c : kBeerConstraints) {
    TXMOD_ASSERT_OK(ics.DefineConstraint(c.name, c.cl_text));
  }

  std::map<std::string, FragmentationScheme> schemes;
  if (!GetParam().round_robin) {
    schemes = {{"beer", FragmentationScheme{FragmentationKind::kHash, 2}},
               {"brewery", FragmentationScheme{FragmentationKind::kHash, 0}}};
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, schemes, GetParam().nodes));
  Database serial_db = db.Clone();

  const std::vector<std::string> workload = {
      // Valid insert: commits.
      "insert(beer, {(\"fresh\", \"ale\", \"guinness\", 6.0)});",
      // Orphan insert: aborts on refint.
      "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});",
      // Negative alcohol: aborts on domain.
      "insert(beer, {(\"neg\", \"ale\", \"heineken\", -1.0)});",
      // Deleting a referenced brewery: aborts.
      "delete(brewery, select[name = \"heineken\"](brewery));",
      // Insert a brewery, then delete it again: commits (net no-op).
      "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); "
      "delete(brewery, select[name = \"plzen\"](brewery));",
      // Self-repairing: insert brewery and a beer referencing it.
      "insert(brewery, {(\"newbrew\", \"oslo\", \"no\")}); "
      "insert(beer, {(\"norse\", \"ale\", \"newbrew\", 5.5)});",
      // Multi-statement with a temporary.
      "tmp := select[alcohol > 7](beer); delete(beer, tmp);",
      // An unreferenced brewery: inserting it commits, deleting it
      // aborts on keep_breweries only, deleting and re-inserting commits.
      "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")});",
      "delete(brewery, select[name = \"plzen\"](brewery));",
      "delete(brewery, select[name = \"plzen\"](brewery)); "
      "insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")});",
      // Set membership in a temporary, which declares no index.
      "t := select[country = \"nl\"](brewery); "
      "dead := diff(project[brewery](beer), project[name](t)); "
      "delete(beer, semijoin[l.brewery = r.0](beer, dead));",
      // A temporary holding a written relation's state, then more writes
      // to that relation: the temporary keeps its value.
      "insert(beer, {(\"stout1\", \"stout\", \"guinness\", 7.5)}); "
      "tmp := beer; delete(beer, select[type = \"stout\"](beer)); "
      "insert(beer, project[name, type, brewery, alcohol - 1]("
      "select[alcohol > 7](tmp)));",
  };
  algebra::AlgebraParser parser(&db.schema());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(workload[i]));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
    StepBothEngines(modified, &serial_db, &pdb, GetParam(), kBeerConstraints,
                    StrCat("beer workload #", i, ": ", workload[i]));
  }
}

// ---------------------------------------------------------------------------
// Randomized key/fk transactions (bench/workload.h schema), mixing valid
// and violating inserts/deletes so both commit and abort paths are hit.
// ---------------------------------------------------------------------------

TEST_P(OracleTest, RandomizedKeyFkWorkloadAgrees) {
  const int keys = 50, fks = 400;
  Database db = bench::MakeKeyFkDatabase(keys, fks);
  bench::AddUnreferencedKeys(&db, 20);
  core::IntegritySubsystem ics(&db);
  for (const NamedConstraint& c : kKeyFkConstraints) {
    TXMOD_ASSERT_OK(ics.DefineConstraint(c.name, c.cl_text));
  }

  std::map<std::string, FragmentationScheme> schemes;
  if (!GetParam().round_robin) {
    schemes = {{"fk_rel", FragmentationScheme{FragmentationKind::kHash, 1}},
               {"key_rel", FragmentationScheme{FragmentationKind::kHash, 0}}};
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, schemes, GetParam().nodes));
  Database serial_db = db.Clone();

  std::mt19937 rng(12345u + static_cast<unsigned>(GetParam().nodes));
  auto pick = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  int next_id = 2'000'000;

  for (int step = 0; step < 40; ++step) {
    Transaction txn;
    const int kind = pick(5);
    std::string trace;
    switch (kind) {
      case 0: {  // batch of valid fk inserts
        std::vector<Tuple> tuples;
        const int batch = 1 + pick(5);
        for (int i = 0; i < batch; ++i) {
          tuples.push_back(Tuple({Value::Int(next_id++),
                                  Value::String(StrCat("k", pick(keys))),
                                  Value::Double(1.0 + pick(9))}));
        }
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
        trace = "valid fk insert batch";
        break;
      }
      case 1: {  // fk insert with a dangling ref: aborts
        std::vector<Tuple> tuples;
        tuples.push_back(Tuple({Value::Int(next_id++),
                                Value::String(StrCat("zz", pick(1000))),
                                Value::Double(3.0)}));
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
        trace = "dangling fk insert";
        break;
      }
      case 2: {  // delete an (often unreferenced) key
        const bool referenced = pick(2) == 0;
        const std::string key = referenced ? StrCat("k", pick(keys))
                                           : StrCat("x", pick(20));
        txn.program.statements.push_back(algebra::Statement::Delete(
            "key_rel",
            algebra::RelExpr::Literal(
                {Tuple({Value::String(key), Value::String("payload")})}, 2)));
        trace = StrCat("key delete ", key);
        break;
      }
      case 3: {  // delete some fk tuples (always legal)
        std::vector<Tuple> tuples;
        const int batch = 1 + pick(3);
        for (int i = 0; i < batch; ++i) {
          const int id = pick(fks);
          tuples.push_back(Tuple({Value::Int(id),
                                  Value::String(StrCat("k", id % keys)),
                                  Value::Double(1.0 + id % 10)}));
        }
        txn.program.statements.push_back(algebra::Statement::Delete(
            "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
        trace = "fk delete batch";
        break;
      }
      default: {  // fk insert with a negative amount: aborts on domain
        std::vector<Tuple> tuples;
        tuples.push_back(Tuple({Value::Int(next_id++),
                                Value::String(StrCat("k", pick(keys))),
                                Value::Double(-2.0)}));
        txn.program.statements.push_back(algebra::Statement::Insert(
            "fk_rel", algebra::RelExpr::Literal(std::move(tuples), 3)));
        trace = "negative-amount fk insert";
        break;
      }
    }
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
    StepBothEngines(modified, &serial_db, &pdb, GetParam(), kKeyFkConstraints,
                    StrCat("random step ", step, ": ", trace));
  }
}

// ---------------------------------------------------------------------------
// update(R, θ, f) is delete-plus-insert (Definition 4.5):
// R' = (R − σθ(R)) ∪ f(σθ(R)). Shifting every amount of
// r = {("x",1) … ("x",6)} by one maps selected tuples onto one another, so
// an engine that erases and inserts one tuple at a time erases new tuples
// that equal a selected tuple it reaches later.
// ---------------------------------------------------------------------------

struct Shift {
  const char* statement;
  std::vector<int64_t> amounts;  // of R', sorted
};

const Shift kShifts[] = {
    {"update(r, amount >= 1, amount := amount - 1);", {0, 1, 2, 3, 4, 5}},
    {"update(r, amount >= 1, amount := amount + 1);", {2, 3, 4, 5, 6, 7}},
};

Database MakeShiftDatabase() {
  Database db;
  TXMOD_EXPECT_OK(db.CreateRelation(
      RelationSchema("r", {Attribute{"name", AttrType::kString},
                           Attribute{"amount", AttrType::kInt}})));
  Relation* r = *db.FindMutable("r");
  for (int i = 1; i <= 6; ++i) {
    r->Insert(Tuple({Value::String("x"), Value::Int(i)}));
  }
  return db;
}

std::vector<int64_t> Amounts(const Database& db) {
  std::vector<int64_t> out;
  for (const Tuple& t : **db.Find("r")) out.push_back(t.at(1).as_int());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(UpdateSemanticsTest, SerialEngineAndSessionsApplyTheWholeUpdate) {
  for (const Shift& shift : kShifts) {
    SCOPED_TRACE(shift.statement);
    Database db = MakeShiftDatabase();
    algebra::AlgebraParser parser(&db.schema());
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(shift.statement));
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult direct,
                               txn::ExecuteTransaction(txn, &db));
    EXPECT_TRUE(direct.committed);
    EXPECT_EQ(Amounts(db), shift.amounts);

    Database session_db = MakeShiftDatabase();
    core::IntegritySubsystem ics(&session_db);
    TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, txn::TxnManager::Create(&ics));
    std::unique_ptr<txn::TxnSession> session = manager->Begin();
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult executed,
                               session->Execute(txn));
    EXPECT_TRUE(executed.committed);
    EXPECT_EQ(Amounts(session->snapshot()), shift.amounts);
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult committed, session->Commit());
    EXPECT_TRUE(committed.committed);
    EXPECT_EQ(Amounts(session_db), shift.amounts);
  }
}

struct UpdateParam {
  int nodes;
  bool round_robin;  // else hashed on amount, so updated tuples move
};

class ParallelUpdateTest : public ::testing::TestWithParam<UpdateParam> {};

TEST_P(ParallelUpdateTest, AppliesTheWholeUpdate) {
  for (const Shift& shift : kShifts) {
    SCOPED_TRACE(shift.statement);
    const Database db = MakeShiftDatabase();
    std::map<std::string, FragmentationScheme> schemes;
    if (!GetParam().round_robin) {
      schemes = {{"r", FragmentationScheme{FragmentationKind::kHash, 1}}};
    }
    TXMOD_ASSERT_OK_AND_ASSIGN(
        ParallelDatabase pdb,
        ParallelDatabase::Partition(db, schemes, GetParam().nodes));
    algebra::AlgebraParser parser(&db.schema());
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(shift.statement));
    ParallelExecutor exec(&pdb);
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult result, exec.Execute(txn));
    EXPECT_TRUE(result.committed);
    EXPECT_EQ(Amounts(pdb.Merge()), shift.amounts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndPlacements, ParallelUpdateTest,
    ::testing::Values(UpdateParam{1, false}, UpdateParam{2, false},
                      UpdateParam{4, false}, UpdateParam{1, true},
                      UpdateParam{2, true}, UpdateParam{4, true}),
    [](const ::testing::TestParamInfo<UpdateParam>& param_info) {
      return StrCat(param_info.param.nodes, "nodes_",
                    param_info.param.round_robin ? "round_robin" : "hash");
    });

INSTANTIATE_TEST_SUITE_P(
    NodeCountsAndThreading, OracleTest,
    ::testing::Values(OracleParam{1, false}, OracleParam{2, false},
                      OracleParam{4, false}, OracleParam{8, false},
                      OracleParam{2, true}, OracleParam{4, true},
                      OracleParam{8, true}),
    [](const ::testing::TestParamInfo<OracleParam>& param_info) {
      return StrCat(param_info.param.nodes, "nodes_",
                    param_info.param.use_threads ? "threads" : "sequential");
    });

// The placement parallel_enforce runs: round-robin, where probes cross
// fragments and lookup joins broadcast their delta side.
INSTANTIATE_TEST_SUITE_P(
    RoundRobin, OracleTest,
    ::testing::Values(OracleParam{1, false, true}, OracleParam{2, false, true},
                      OracleParam{4, false, true}, OracleParam{8, false, true},
                      OracleParam{2, true, true}, OracleParam{4, true, true},
                      OracleParam{8, true, true}),
    [](const ::testing::TestParamInfo<OracleParam>& param_info) {
      return StrCat(param_info.param.nodes, "nodes_",
                    param_info.param.use_threads ? "threads" : "sequential");
    });

// Threaded sweep over pool widths: fewer workers than nodes (each thread
// runs several nodes' tasks), as many, and — with the caller — more. Final
// states must match the serial engine (and hence simulate mode, covered
// above) under both placements.
INSTANTIATE_TEST_SUITE_P(
    WorkerSweep, OracleTest,
    ::testing::Values(OracleParam{4, true, false, 1},
                      OracleParam{4, true, false, 2},
                      OracleParam{4, true, false, 4},
                      OracleParam{8, true, false, 8},
                      OracleParam{4, true, true, 1},
                      OracleParam{4, true, true, 2},
                      OracleParam{4, true, true, 4},
                      OracleParam{8, true, true, 8}),
    [](const ::testing::TestParamInfo<OracleParam>& param_info) {
      return StrCat(param_info.param.nodes, "nodes_w",
                    param_info.param.workers, "_",
                    param_info.param.round_robin ? "round_robin" : "hash");
    });

}  // namespace
}  // namespace txmod::parallel
