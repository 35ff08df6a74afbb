// Self-tests of the benchmark's own machinery: generation is a function
// of the seed, percentiles, self times and the fold of rounds add up on
// hand-built inputs, and the gate fails when an expected verdict is wrong.
// Exit code 0 when every check passes.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/subsystem.h"
#include "src/gate.h"
#include "src/gen.h"
#include "src/measure.h"

namespace perfbench {
namespace {

namespace core = txmod::core;
using txmod::Database;
using txmod::Tuple;
using txmod::Value;

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool SameSpecs(const std::vector<TxnSpec>& a, const std::vector<TxnSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].expect != b[i].expect || a[i].text != b[i].text ||
        a[i].txn.ToString() != b[i].txn.ToString() ||
        a[i].user_bytes != b[i].user_bytes) {
      return false;
    }
  }
  return true;
}

void TestGenerationIsAFunctionOfTheSeed() {
  Check(MakeInitialState(7).SameState(MakeInitialState(7)),
        "two initial states from one seed are identical");
  Check(!MakeInitialState(7).SameState(MakeInitialState(8)),
        "initial states from different seeds differ");
  Check(SameSpecs(MakeServedStream(7, 1, 2, 400),
                  MakeServedStream(7, 1, 2, 400)),
        "two served streams from one seed are identical");
  Check(!SameSpecs(MakeServedStream(7, 0, 2, 400),
                   MakeServedStream(7, 1, 2, 400)),
        "connections get different streams");
  for (int cycle = 0; cycle < kAbortEvery; ++cycle) {
    Check(SameSpecs(MakeBulkCycle(7, cycle), MakeBulkCycle(7, cycle)),
          "two bulk cycles from one seed are identical");
  }

  const Database db = MakeInitialState(7);
  Check((*db.Find("fk_rel"))->size() == kFkRows, "fk_rel has 50000 rows");
  Check((*db.Find("key_rel"))->size() == kKeys + kSpareKeys,
        "key_rel has 5000 referenced and 1000 spare keys");

  int commits = 0;
  int aborts = 0;
  int churn = 0;
  for (const TxnSpec& spec : MakeServedStream(7, 0, 2, 4000)) {
    if (spec.expect == Verdict::kCommit) {
      ++commits;
      if (!spec.effects.key_insert.empty() || !spec.effects.key_delete.empty()) {
        ++churn;
      }
    } else {
      ++aborts;
    }
  }
  Check(commits > 3700 && aborts > 100 && churn > 100,
        "served mix is about 90/5/5");
  Check(MakeBulkCycle(7, kAbortEvery - 1).size() == 5 &&
            MakeBulkCycle(7, 0).size() == 4,
        "every kAbortEvery-th bulk cycle carries one violating batch");
}

void TestPercentiles() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Check(Percentile(ten, 0.5) == 5, "p50 of 1..10 is 5");
  Check(Percentile(ten, 0.9) == 9, "p90 of 1..10 is 9");
  Check(Percentile(ten, 1.0) == 10, "p100 of 1..10 is 10");
  Check(Percentile({42}, 0.9) == 42, "percentile of one sample");
  Check(Percentile({}, 0.5) == 0, "percentile of no samples");
  Check(Median({3, 1, 2}) == 2, "median of three");
}

void TestSelfTimes() {
  // root [0, 100] with children a [10, 30] and b [40, 70], and a child of
  // a [15, 25]; a second transaction's root [200, 210].
  std::vector<Span> spans = {
      {"root", 0, 100000, -1, 1},   {"a", 10000, 30000, 0, 1},
      {"b", 40000, 70000, 0, 1},    {"a.child", 15000, 25000, 1, 1},
      {"root", 200000, 210000, -1, 2},
  };
  const std::vector<double> self = SelfTimesUs(spans);
  Check(self[0] == 50, "root self time excludes its children");
  Check(self[1] == 10, "a self time excludes its child");
  Check(self[2] == 30, "b self time is its duration");
  Check(self[3] == 10, "leaf self time is its duration");
  const auto by_txn = SelfTimeByTxn(spans);
  Check(by_txn.at("root").at(1) == 50 && by_txn.at("root").at(2) == 10,
        "self times are kept per transaction");
  double total = 0;
  for (double s : self) total += s;
  Check(total == 110, "self times add up to the roots' wall time");
}

void TestFold() {
  // Windows: the quietest tenth by p50 (here 2 of 20), pooled.
  std::vector<RoundSamples> served(3);
  for (int i = 0; i < 20; ++i) {
    Window w;
    const double base = i == 7 ? 100 : i == 13 ? 110 : 200 + i;
    w.latency_us = {base, base + 1, base + 2, base + 3, base + 50};
    w.p50_us = base + 2;
    w.tps = i == 7 ? 9000 : i == 13 ? 8000 : 1000;
    w.cpu_us_per_txn = i == 7 ? 80 : i == 13 ? 90 : 500;
    served[static_cast<std::size_t>(i % 3)].windows.push_back(w);
  }
  const double setups[] = {0.3, 0.1, 0.2};
  const double rss[] = {20, 22, 21};
  const double recovers[] = {0.5, 0.25, 1.5};
  for (std::size_t r = 0; r < 3; ++r) {
    served[r].setup_s = setups[r];
    served[r].peak_rss_mb = rss[r];
    served[r].recover_s = recovers[r];
  }
  const EndToEnd w = Fold(served);
  // pooled: 100..103, 150, 110..113, 160; p50 = 5th of 10, p90 = 9th
  Check(w.txn_p50_us == 110 && w.txn_p90_us == 150,
        "windowed latency pools the quietest tenth of the windows");
  Check(w.throughput_tps == 8500 && w.cpu_us_per_txn == 85,
        "windowed throughput and CPU are the quiet windows' means");
  Check(w.setup_s == 0.2 && w.peak_rss_mb == 21,
        "set-up and RSS are medians of the rounds");
  Check(w.recover_s == 0.75, "recovery is the mean of the rounds");

  // Transactions: each one's fastest round, then over the transactions.
  std::vector<RoundSamples> bulk(3);
  bulk[0].txn_us = {10, 40, 20};
  bulk[0].txn_cpu_us = {5, 30, 15};
  bulk[1].txn_us = {12, 30, 25};
  bulk[1].txn_cpu_us = {6, 20, 10};
  bulk[2].txn_us = {11, 35, 18};
  bulk[2].txn_cpu_us = {4, 25, 12};
  for (RoundSamples& r : bulk) r.commits = 2;
  const EndToEnd t = Fold(bulk);
  Check(t.txn_p50_us == 18 && t.txn_p90_us == 30,
        "percentiles over each transaction's fastest round");
  Check(std::abs(t.throughput_tps - 2 / 58e-6) < 1e-6,
        "commits over the summed best latency");
  Check(t.cpu_us_per_txn == 34.0 / 3, "mean of each transaction's least CPU");
}

void TestGateRejectsWrongVerdicts() {
  // Real outcomes of the system: a dangling reference and a negative
  // amount against the initial state.
  Database db = MakeInitialState(7);
  core::IntegritySubsystem ics(&db);
  Check(ics.DefineConstraint("domain", DomainConstraint()).ok() &&
            ics.DefineConstraint("refint", RefIntConstraint()).ok(),
        "constraints define");
  TxnSpec dangling;
  dangling.expect = Verdict::kAbortRefint;
  dangling.text = "insert(fk_rel, {(1, \"zz1\", 2.50)});";
  TxnSpec negative;
  negative.expect = Verdict::kAbortDomain;
  negative.text = "insert(fk_rel, {(2, \"k1\", -2.50)});";
  TxnSpec valid;
  valid.expect = Verdict::kCommit;
  valid.text = "insert(fk_rel, {(3, \"k1\", 2.50)});";
  for (const TxnSpec* spec : {&dangling, &negative, &valid}) {
    auto result = ics.ExecuteText(spec->text);
    Observed obs;
    obs.committed = result.ok() && result->committed;
    obs.reason = result.ok() ? result->abort_reason : result.status().ToString();
    Check(VerdictMismatch(*spec, obs).empty() && !IsFailure(*spec, obs),
          "the gate accepts the right verdict for " + spec->text);
    for (Verdict wrong : {Verdict::kCommit, Verdict::kAbortRefint,
                          Verdict::kAbortDomain}) {
      if (wrong == spec->expect) continue;
      TxnSpec mislabeled = *spec;
      mislabeled.expect = wrong;
      Check(!VerdictMismatch(mislabeled, obs).empty() &&
                IsFailure(mislabeled, obs),
            "the gate fails a wrong expected verdict for " + spec->text);
    }
  }

  // Durability: a lost acked tuple and an aborted tuple that appears.
  ExpectedState expected(7);
  TxnSpec acked;
  acked.effects.fk_insert.push_back(
      Tuple({Value::Int(5), Value::String("k1"), Value::Double(1)}));
  Observed committed;
  committed.committed = true;
  expected.Record(acked, committed);
  Check(expected.Diff(MakeInitialState(7)).size() == 1,
        "the gate reports an acked commit missing after recovery");
  Database phantom = expected.db();
  (*phantom.FindMutable("fk_rel"))
      ->Insert(Tuple({Value::Int(6), Value::String("zz6"), Value::Double(1)}));
  Check(expected.Diff(phantom).size() == 1,
        "the gate reports an unacknowledged tuple after recovery");
  Check(expected.Diff(expected.db()).empty(), "equal states pass");
  Check(!PostHocViolation(phantom).empty(),
        "full constraint evaluation rejects a dangling reference");
  Check(PostHocViolation(MakeInitialState(7)).empty(),
        "the initial state satisfies every constraint");

  TxnSpec lost_call;
  lost_call.effects.fk_insert.push_back(
      Tuple({Value::Int(6), Value::String("zz6"), Value::Double(1)}));
  Observed unknown;
  unknown.call_ok = false;
  expected.Record(lost_call, unknown);
  Check(expected.Diff(phantom).empty(),
        "a transaction with unknown outcome may or may not appear");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestGenerationIsAFunctionOfTheSeed();
  perfbench::TestPercentiles();
  perfbench::TestSelfTimes();
  perfbench::TestFold();
  perfbench::TestGateRejectsWrongVerdicts();
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cerr << "perfbench self-tests passed\n";
  return 0;
}
