#ifndef TXMOD_CORE_OPTIMIZE_H_
#define TXMOD_CORE_OPTIMIZE_H_

#include <vector>

#include "src/calculus/analyzer.h"
#include "src/rules/rule.h"
#include "src/rules/trigger.h"

namespace txmod::core {

/// How much work OptC (Algorithm 5.4) is allowed to do.
enum class OptimizationLevel {
  /// Translate conditions as written — the paper's basic technique of
  /// Section 5 (used by Example 5.1 and the E7 ablation baseline).
  kNone,
  /// Differential optimization (Section 5.2.1, [18, 5, 7]): specialize the
  /// condition per trigger so checks touch the transaction differentials
  /// dplus/dminus instead of full relations wherever soundness permits.
  kDifferential,
};

/// An optimized condition: a list of formulas whose checks, concatenated,
/// enforce the original condition given a correct pre-transaction state.
/// Each part is translated separately by TransC; parts over empty
/// differentials evaluate to no-ops at enforcement time.
struct OptimizedCondition {
  std::vector<calculus::Formula> parts;
  /// True when a differential specialization was applied; false means the
  /// original condition is checked in full (sound fallback).
  bool differential = false;
};

/// OptC: optimizes `condition` for a rule with trigger set `triggers`.
///
/// Recognized classes and their specializations:
///  * single-variable domain constraints ∀x(x∈R ∧ pre(x) ⇒ M(x)) with
///    scalar M — check dplus(R) only;
///  * referential constraints ∀x(x∈R ∧ pre(x) ⇒ ∃y(y∈S ∧ H(x,y))) —
///    check dplus(R) against S, plus (when DEL(S) is triggered) the R
///    tuples whose potential witnesses intersect dminus(S);
///  * pair constraints ∀x∀y(x∈R ∧ y∈S ∧ C(x,y) ⇒ M(x,y)) with scalar
///    C, M — check dplus(R)×S and R×dplus(S);
///  * everything else (aggregates, transition constraints, deeper
///    nesting) falls back to the full condition.
OptimizedCondition OptC(const calculus::AnalyzedFormula& condition,
                        const rules::TriggerSet& triggers,
                        OptimizationLevel level);

/// OptR (Algorithm 5.4): rule-level wrapper — triggers and action pass
/// through, the condition is optimized.
struct OptimizedRule {
  const rules::IntegrityRule* rule = nullptr;
  OptimizedCondition condition;
};

OptimizedRule OptR(const rules::IntegrityRule& rule, OptimizationLevel level);

}  // namespace txmod::core

#endif  // TXMOD_CORE_OPTIMIZE_H_
