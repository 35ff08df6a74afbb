#ifndef TXMOD_ALGEBRA_EVALUATOR_H_
#define TXMOD_ALGEBRA_EVALUATOR_H_

#include "src/algebra/eval_context.h"
#include "src/algebra/rel_expr.h"
#include "src/common/result.h"
#include "src/relational/relation.h"

namespace txmod::algebra {

/// Evaluates `expr` against the relations supplied by `ctx` into a
/// materialized result: compiles a physical plan (physical_plan.h) and
/// executes it as a pull-based pipeline of tuple cursors. Selections,
/// projections, products and join probes stream tuples from their
/// children without building intermediate relations; only pipeline
/// breakers materialize (hash-join build sides, product and
/// difference/intersect right sides, aggregate inputs that may carry
/// duplicates, and the final result). `stats` (optional) accumulates work
/// counters. This is how every statement without a pinned check plan
/// (PlanCache) runs: compiling is one walk over the tree, which copies no
/// tuple, so an ad-hoc statement compiles when it runs.
///
/// Implementation notes:
///  * joins/semijoins/antijoins hash on the equality conjuncts of the
///    predicate when present (Value::KeyHash, which provably agrees with
///    predicate equality — see value.h), falling back to nested loops; a
///    base relation with a declared RelationIndex on exactly the join's
///    right-side key attributes is probed in place with no per-evaluation
///    build work at all;
///  * set operations (union/difference/intersect) use type-exact tuple
///    identity, matching Relation's set semantics;
///  * scalar aggregates produce a single one-attribute tuple; CNT of the
///    empty relation is 0, SUM of the empty relation is 0, AVG/MIN/MAX of
///    the empty relation are null.
///
/// Stats semantics (pinned by tests/evaluator_stats_test.cc): every
/// operator adds the tuples it reads from its inputs to `tuples_scanned`
/// (a materialized build side counts once, an indexed build side counts
/// zero) and the tuples it yields to `tuples_emitted` *before* any
/// downstream set-dedup.
Result<Relation> EvaluateRelExpr(const RelExpr& expr, const EvalContext& ctx,
                                 EvalStats* stats = nullptr);

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_EVALUATOR_H_
