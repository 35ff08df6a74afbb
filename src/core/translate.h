#ifndef TXMOD_CORE_TRANSLATE_H_
#define TXMOD_CORE_TRANSLATE_H_

#include <string>

#include "src/algebra/statement.h"
#include "src/calculus/analyzer.h"
#include "src/common/result.h"
#include "src/relational/schema.h"
#include "src/rules/rule.h"

namespace txmod::core {

/// Options for the CL → extended-relational-algebra translation.
struct TranslateOptions {
  /// Emit the classical Table-1 forms for single-equality quantification
  /// patterns in emptiness context: antijoin → π-difference (row 2),
  /// join/semijoin on one equality → π-intersection (row 3). Semantically
  /// the general forms are equivalent (equi-empty); the peepholes produce
  /// smaller intermediates and match the paper's table verbatim.
  bool table1_peepholes = true;
};

/// CalcToAlg, violation form: an algebra expression that evaluates to a
/// non-empty relation exactly when `condition` is *violated*. This is the
/// argument the paper feeds to alarm (Definition 5.1 / Algorithm 5.6).
///
/// Supported fragment (errors are reported, never silently mistranslated):
/// range-restricted formulas whose quantified variables each carry one
/// membership atom, with arbitrary boolean structure, nested
/// quantification correlated with the immediately enclosing level,
/// tuple equality, arithmetic, and aggregate/count terms at the outermost
/// matrix or in closed atoms.
Result<algebra::RelExprPtr> ViolationQuery(
    const calculus::AnalyzedFormula& condition, const DatabaseSchema& schema,
    const TranslateOptions& options = {});

/// TransC (Algorithm 5.6): translates a condition into an aborting
/// program: alarm(ViolationQuery(condition), message).
Result<algebra::Program> TransC(const calculus::AnalyzedFormula& condition,
                                const DatabaseSchema& schema,
                                std::string alarm_message,
                                const TranslateOptions& options = {});

/// TransR (Algorithm 5.5): translates an integrity rule into its triggered
/// program — TransC of the condition for aborting rules; the (analyzed)
/// violation response action itself for compensating rules (TransCA: "in
/// most practical cases, the program produced ... can be equal to the
/// violation response action", Section 5.2.2).
Result<algebra::Program> TransR(const rules::IntegrityRule& rule,
                                const DatabaseSchema& schema,
                                const TranslateOptions& options = {});

}  // namespace txmod::core

#endif  // TXMOD_CORE_TRANSLATE_H_
