#ifndef TXMOD_TXN_EXECUTOR_H_
#define TXMOD_TXN_EXECUTOR_H_

#include <cstdint>
#include <string>

#include "src/algebra/statement.h"
#include "src/common/result.h"
#include "src/txn/txn_context.h"

namespace txmod::txn {

/// Outcome of a committed or cleanly aborted transaction execution.
struct TxnResult {
  bool committed = false;
  std::string abort_reason;          // alarm/abort message when not committed
  int aborting_statement = -1;       // index of the statement that aborted
  uint64_t statements_executed = 0;  // statements fully executed
  algebra::EvalStats stats;          // evaluation work counters

  /// Count of base-relation tuple changes applied before commit/abort.
  uint64_t tuples_inserted = 0;
  uint64_t tuples_deleted = 0;

  /// Concurrent (TxnManager) executions only. `conflict` marks an abort
  /// caused by first-committer-wins validation — another transaction
  /// committed overlapping writes after this one's snapshot — rather than
  /// by an integrity alarm; such aborts are retryable. On commit,
  /// `commit_version` is the logical time the transaction installed
  /// (equal to the snapshot time for read-only commits, which install
  /// nothing). `attempts` counts executions TxnManager::Run needed.
  bool conflict = false;
  uint64_t commit_version = 0;
  uint32_t attempts = 1;
  /// True when the commit installed a new version (write-ful); false for
  /// read-only / fully-netted-out commits, which consume no version.
  bool installed = false;
};

/// Executes one extended relational algebra statement against `ctx`.
///
/// Returns:
///  * OK on success;
///  * kAborted when an alarm fired (Definition 5.1: non-empty argument) or
///    an abort statement ran — the caller must roll back;
///  * any other error for malformed statements (also roll back).
Status ExecuteStatement(const algebra::Statement& stmt, TxnContext* ctx,
                        TxnResult* result);

/// Runs every statement of `txn` through `ctx` WITHOUT committing: on
/// clean completion the context still holds its differentials (and
/// read/footprint records) so the caller decides the transaction's fate —
/// ExecuteTransaction commits immediately; a TxnManager session carries
/// the differentials to commit-time validation instead. On an alarm or
/// abort statement the context is rolled back (every recorded change
/// undone) and the result reports the reason with committed == false; on
/// malformed statements the context is rolled back and the error Status
/// surfaces. `result.committed == true` therefore means "ran to
/// completion, ready to commit", not "installed".
Result<TxnResult> ExecuteProgram(const algebra::Transaction& txn,
                                 TxnContext* ctx);

/// Executes a bracketed transaction against `db` with full atomicity: on
/// commit the post-transaction state D^{t+1} is installed and logical time
/// advances; on abort (alarm/abort statement) the database is restored to
/// D^t and the result reports the reason. Malformed programs (evaluation
/// errors, schema violations) also restore D^t but surface as error
/// Statuses rather than TxnResults.
///
/// `plan_cache` (optional) holds the integrity checks' plans, compiled at
/// rule-definition time: a check statement runs on its pinned plan and
/// never recompiles. Every other statement — and every statement without
/// a cache — compiles its own tree when it runs. TxnResult::stats counts
/// the former as plan-cache hits and the latter as misses.
Result<TxnResult> ExecuteTransaction(
    const algebra::Transaction& txn, Database* db,
    const algebra::PlanCache* plan_cache = nullptr);

}  // namespace txmod::txn

#endif  // TXMOD_TXN_EXECUTOR_H_
