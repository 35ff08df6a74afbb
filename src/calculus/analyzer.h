#ifndef TXMOD_CALCULUS_ANALYZER_H_
#define TXMOD_CALCULUS_ANALYZER_H_

#include <map>
#include <string>

#include "src/calculus/ast.h"
#include "src/common/result.h"
#include "src/relational/schema.h"

namespace txmod::calculus {

/// A formula that passed semantic analysis: attribute selections carry
/// resolved indices, every variable has a unique range relation, and the
/// formula is closed and type-correct.
struct AnalyzedFormula {
  Formula formula;
  /// Range relation of each (quantified) tuple variable, derived from its
  /// membership atom. Safe formulas bind every variable to exactly one
  /// tuple-set constant.
  std::map<std::string, CalcRelRef> ranges;
};

/// Semantic analysis of a CL constraint (run once at constraint definition
/// time). Checks and transformations:
///  * every tuple variable is bound by exactly one quantifier (no
///    shadowing) and used within its scope; the formula is closed;
///  * every variable has exactly one membership atom `x in R`, which makes
///    the formula range-restricted (safe) and determines the schema used
///    to resolve `x.attr` selections to attribute indices;
///  * attribute selections, arithmetic, comparisons and aggregates type
///    check against the database schema (old/dplus/dminus references use
///    the base relation's schema);
///  * MLT (multiset multiplicity, from the multi-set extension [8] of the
///    paper) is rejected: this library implements the paper's set
///    semantics.
Result<AnalyzedFormula> AnalyzeFormula(const Formula& formula,
                                       const DatabaseSchema& schema);

}  // namespace txmod::calculus

#endif  // TXMOD_CALCULUS_ANALYZER_H_
