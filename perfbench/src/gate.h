// The correctness and durability gate every run passes through.
//
// 1. Verdicts: a transaction the generator built valid must commit; a
//    violating one must abort naming the constraint it violates.
// 2. Durability: after the system is stopped without a clean shutdown
//    and recovered, the recovered state must equal the initial state
//    plus the effects of every acknowledged commit: no acked commit is
//    lost and no aborted transaction appears. Only the tuples of
//    transactions whose outcome the caller never learned (transport
//    errors) may differ.
// 3. Integrity: the recovered state passes full evaluation of every
//    constraint by baseline::PostHocChecker with trigger selection off,
//    the paper's guarantee turned into a run check.

#ifndef PERFBENCH_SRC_GATE_H_
#define PERFBENCH_SRC_GATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/gen.h"
#include "src/relational/database.h"

namespace perfbench {

/// What the caller learned about one transaction.
struct Observed {
  bool call_ok = true;    // false: the call itself failed (no outcome)
  bool committed = false;
  bool conflict = false;  // aborted because every attempt lost validation
  std::string reason;     // abort reason or call error
};

/// Empty when `observed` matches `spec`'s expected verdict, otherwise a
/// description of the mismatch. A failed call or a conflict that
/// exhausted its retries is a failure, not a mismatch; see IsFailure.
std::string VerdictMismatch(const TxnSpec& spec, const Observed& observed);

/// Failed calls, exhausted conflicts and verdict mismatches all count as
/// failed transactions.
bool IsFailure(const TxnSpec& spec, const Observed& observed);

/// The state the recovered database must equal.
class ExpectedState {
 public:
  explicit ExpectedState(uint64_t seed);

  /// Folds in one transaction's outcome: effects of acknowledged commits
  /// are applied; effects of transactions with unknown outcome become
  /// uncertain tuples the comparison ignores.
  void Record(const TxnSpec& spec, const Observed& observed);

  /// Mismatches between `recovered` and the expected state, at most
  /// `limit` of them described.
  std::vector<std::string> Diff(const txmod::Database& recovered,
                                std::size_t limit = 8) const;

  const txmod::Database& db() const { return db_; }

 private:
  void Apply(const Effects& effects);
  void MarkUncertain(const Effects& effects);

  txmod::Database db_;
  std::map<std::string, std::unordered_set<txmod::Tuple, txmod::TupleHasher>>
      uncertain_;
};

/// Full constraint evaluation of `db` (which is consumed as the
/// checker's working state). Empty when every constraint holds,
/// otherwise why not.
std::string PostHocViolation(txmod::Database db);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GATE_H_
