// Seeded input generator. Every input the system receives comes from
// here, and the same seed always yields the same inputs. The generator
// also knows each transaction's expected verdict and its effect on the
// state, which the correctness gate checks against.
//
// The state is the paper's Section 7 test database at its headline size:
// key_rel(key string, payload string) with 5000 referenced keys
// "k0".."k4999" plus 1000 unreferenced keys "x0".."x999" that may be
// deleted, and fk_rel(id int, ref string, amount double) with 50000 rows
// referencing the "k" keys. Both constraints of the experiment, domain
// and refint, are defined on it.

#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algebra/statement.h"
#include "src/relational/database.h"

namespace perfbench {

constexpr int kKeys = 5000;
constexpr int kSpareKeys = 1000;
constexpr int kFkRows = 50000;
/// Rows per insert batch of bulk_enforce / parallel_enforce (the paper's).
constexpr int kBatchRows = 5000;
/// Unreferenced keys deleted and re-inserted per cycle.
constexpr int kKeyBatch = 500;
/// Every kAbortEvery-th cycle submits one extra insert batch carrying a
/// single dangling reference, which must abort.
constexpr int kAbortEvery = 2;

const char* DomainConstraint();
const char* RefIntConstraint();

enum class Verdict { kCommit, kAbortRefint, kAbortDomain };

/// What a transaction changes when it commits.
struct Effects {
  std::vector<txmod::Tuple> fk_insert;
  std::vector<txmod::Tuple> fk_delete;
  std::vector<txmod::Tuple> key_insert;
  std::vector<txmod::Tuple> key_delete;
};

struct TxnSpec {
  Verdict expect = Verdict::kCommit;
  /// The transaction as built through the algebra API (in-process
  /// workloads) ...
  txmod::algebra::Transaction txn;
  /// ... and as protocol text (served_point's `run` request body).
  std::string text;
  /// The tuples the transaction writes; applied to the expected state
  /// only when the verdict is kCommit.
  Effects effects;
  /// Raw value bytes of the written tuples (8 per number, the length of
  /// each string): the user data a commit must make durable.
  uint64_t user_bytes = 0;
};

/// The initial state for `seed`.
txmod::Database MakeInitialState(uint64_t seed);

/// served_point: the `count` requests connection `conn` of `connections`
/// sends. About 90% valid single-row fk_rel inserts, 5% inserts with a
/// dangling reference or a negative amount, 5% deletes or re-inserts of
/// one of the unreferenced keys this connection owns (keys are split
/// between connections, so every verdict is independent of the
/// interleaving).
std::vector<TxnSpec> MakeServedStream(uint64_t seed, int conn,
                                      int connections, int count);

/// bulk_enforce / parallel_enforce: cycle `cycle` of the fixed cycle.
/// Insert kBatchRows valid fk_rel rows, delete them, delete kKeyBatch
/// unreferenced keys, re-insert them; every kAbortEvery-th cycle starts
/// with a batch carrying one dangling reference.
std::vector<TxnSpec> MakeBulkCycle(uint64_t seed, int cycle);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
