#include "src/algebra/evaluator.h"

#include "src/algebra/physical_plan.h"

namespace txmod::algebra {

Result<Relation> EvaluateRelExpr(const RelExpr& expr, const EvalContext& ctx,
                                 EvalStats* stats) {
  // One-shot path: compile, execute, discard. Integrity checks run on the
  // plans the PlanCache pinned at rule-definition time instead.
  TXMOD_ASSIGN_OR_RETURN(PhysicalPlan plan, PhysicalPlan::Compile(expr));
  return plan.Execute(ctx, stats);
}

}  // namespace txmod::algebra
