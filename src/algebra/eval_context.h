#ifndef TXMOD_ALGEBRA_EVAL_CONTEXT_H_
#define TXMOD_ALGEBRA_EVAL_CONTEXT_H_

#include <cstdint>
#include <string>

#include "src/algebra/rel_expr.h"
#include "src/common/result.h"
#include "src/relational/relation.h"

namespace txmod::algebra {

/// Supplies relation states to the evaluator. Implemented by the
/// transaction executor (src/txn), which resolves base relations against
/// the current intermediate state D^{t,i}, temporaries against the
/// transaction-local environment, and the auxiliary relations old(R) /
/// dplus(R) / dminus(R) against its differential bookkeeping.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// The relation currently denoted by (kind, name); errors with kNotFound
  /// for unknown names, kFailedPrecondition for unsupported kinds.
  virtual Result<const Relation*> Resolve(RelRefKind kind,
                                          const std::string& name) const = 0;

  /// Like Resolve, but the caller promises to use only the relation's
  /// *schema*, never its tuples. The evaluator calls this on short-circuit
  /// paths — e.g. the base side of a join whose differential side turned
  /// out empty — where the result shape is still needed but no data
  /// dependency exists. Contexts that track data reads for optimistic
  /// conflict validation (TxnContext) override it to skip read recording;
  /// the default is a plain Resolve.
  virtual Result<const Relation*> ResolveSchemaOnly(
      RelRefKind kind, const std::string& name) const {
    return Resolve(kind, name);
  }
};

/// Work counters filled during evaluation; the bench harness and the
/// parallel cost model consume these.
struct EvalStats {
  uint64_t tuples_scanned = 0;   // tuples read from any input
  uint64_t tuples_emitted = 0;   // tuples produced by any operator
  uint64_t operators = 0;        // operator nodes evaluated
  uint64_t index_probes = 0;     // probes of declared relation indexes

  // How each statement got its plan: a hit ran on a check plan pinned in
  // the PlanCache at rule-definition time, a miss compiled the statement's
  // own tree when it ran. The work counters above do not depend on which.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  void Add(const EvalStats& other) {
    tuples_scanned += other.tuples_scanned;
    tuples_emitted += other.tuples_emitted;
    operators += other.operators;
    index_probes += other.index_probes;
    plan_cache_hits += other.plan_cache_hits;
    plan_cache_misses += other.plan_cache_misses;
  }

  /// This stats record with the plan-cache counters zeroed: what the
  /// evaluation *work* was, independent of how plans were obtained.
  EvalStats WithoutCacheCounters() const {
    EvalStats out = *this;
    out.plan_cache_hits = 0;
    out.plan_cache_misses = 0;
    return out;
  }
};

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_EVAL_CONTEXT_H_
