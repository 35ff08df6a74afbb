#ifndef TXMOD_ALGEBRA_REL_EXPR_H_
#define TXMOD_ALGEBRA_REL_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/scalar_expr.h"
#include "src/relational/relation.h"

namespace txmod::algebra {

/// Node kinds of (extended) relational algebra expressions. The standard
/// algebra is extended — as in the paper's Section 2 and PRISMA's XRA —
/// with literal relations, semijoin/antijoin (used by the translator for
/// nested quantifications), and scalar/grouped aggregation.
enum class RelExprKind {
  kRef,         // base relation, temporary, or auxiliary relation
  kLiteral,     // explicit tuple list {(..), (..)}
  kSelect,      // select[pred](E)
  kProject,     // project[e1, e2, ...](E)
  kProduct,     // E1 x E2
  kJoin,        // join[pred](E1, E2)         (theta join)
  kSemiJoin,    // semijoin[pred](E1, E2)     (E1 tuples with a match)
  kAntiJoin,    // antijoin[pred](E1, E2)     (E1 tuples without a match)
  kUnion,       // E1 union E2
  kDifference,  // E1 - E2
  kIntersect,   // E1 intersect E2
  kAggregate,   // sum/avg/min/max[attr](E), cnt(E), optional group-by
};

/// Which relation a kRef node denotes. Besides base relations and program
/// temporaries, the evaluation context provides the paper's *auxiliary
/// relations* (Section 4.1): the pre-transaction state old(R) and the
/// transaction differentials dplus(R) (inserted) / dminus(R) (deleted).
enum class RelRefKind {
  kBase,
  kTemp,
  kOld,
  kDeltaPlus,
  kDeltaMinus,
};

const char* RelRefKindToString(RelRefKind kind);

/// Aggregate functions FA ∪ FC of CL (Definition 4.1).
enum class AggFunc { kSum, kAvg, kMin, kMax, kCnt };

const char* AggFuncToString(AggFunc f);

class RelExpr;
using RelExprPtr = std::shared_ptr<const RelExpr>;

/// One projection output: an expression plus an optional output name.
struct ProjectionItem {
  ScalarExpr expr;
  std::string name;  // empty: derived from expr when possible, else "c<i>"
};

/// An immutable relational algebra expression tree. Construct via the
/// static builders; share via RelExprPtr. Attribute references inside
/// predicates/projections are positional (side 0 = unary input or left
/// join input, side 1 = right join input).
class RelExpr {
 public:
  static RelExprPtr Ref(RelRefKind kind, std::string name);
  static RelExprPtr Base(std::string name) {
    return Ref(RelRefKind::kBase, std::move(name));
  }
  static RelExprPtr Temp(std::string name) {
    return Ref(RelRefKind::kTemp, std::move(name));
  }
  static RelExprPtr Old(std::string name) {
    return Ref(RelRefKind::kOld, std::move(name));
  }
  static RelExprPtr DeltaPlus(std::string name) {
    return Ref(RelRefKind::kDeltaPlus, std::move(name));
  }
  static RelExprPtr DeltaMinus(std::string name) {
    return Ref(RelRefKind::kDeltaMinus, std::move(name));
  }
  static RelExprPtr Literal(std::vector<Tuple> tuples, int arity);
  static RelExprPtr Select(ScalarExpr predicate, RelExprPtr input);
  static RelExprPtr Project(std::vector<ProjectionItem> items,
                            RelExprPtr input);
  /// Convenience: projection onto attribute indices of the input.
  static RelExprPtr ProjectAttrs(const std::vector<int>& attrs,
                                 RelExprPtr input);
  static RelExprPtr Product(RelExprPtr left, RelExprPtr right);
  static RelExprPtr Join(ScalarExpr predicate, RelExprPtr left,
                         RelExprPtr right);
  static RelExprPtr SemiJoin(ScalarExpr predicate, RelExprPtr left,
                             RelExprPtr right);
  static RelExprPtr AntiJoin(ScalarExpr predicate, RelExprPtr left,
                             RelExprPtr right);
  static RelExprPtr Union(RelExprPtr left, RelExprPtr right);
  static RelExprPtr Difference(RelExprPtr left, RelExprPtr right);
  static RelExprPtr Intersect(RelExprPtr left, RelExprPtr right);
  /// Scalar aggregate: one output tuple. For kCnt, `attr` is ignored (-1).
  static RelExprPtr Aggregate(AggFunc func, int attr, RelExprPtr input);
  /// Grouped aggregate (extension; not used by the paper's CL).
  static RelExprPtr GroupAggregate(std::vector<int> group_by, AggFunc func,
                                   int attr, RelExprPtr input);

  RelExprKind kind() const { return kind_; }
  RelRefKind ref_kind() const { return ref_kind_; }
  const std::string& rel_name() const { return rel_name_; }
  const std::vector<Tuple>& literal_tuples() const { return literal_tuples_; }
  int literal_arity() const { return literal_arity_; }
  const ScalarExpr& predicate() const { return predicate_; }
  const std::vector<ProjectionItem>& projections() const {
    return projections_;
  }
  AggFunc agg_func() const { return agg_func_; }
  int agg_attr() const { return agg_attr_; }
  const std::vector<int>& group_by() const { return group_by_; }

  const RelExprPtr& left() const { return inputs_[0]; }
  const RelExprPtr& right() const { return inputs_[1]; }
  const std::vector<RelExprPtr>& inputs() const { return inputs_; }

  /// Structural equality (tests, optimizer).
  bool Equals(const RelExpr& other) const;

  /// Renders in the textual XRA syntax accepted by the algebra parser.
  std::string ToString() const;

 protected:
  RelExpr() = default;

 private:
  RelExprKind kind_ = RelExprKind::kRef;
  RelRefKind ref_kind_ = RelRefKind::kBase;
  std::string rel_name_;
  std::vector<Tuple> literal_tuples_;
  int literal_arity_ = 0;
  ScalarExpr predicate_;
  std::vector<ProjectionItem> projections_;
  AggFunc agg_func_ = AggFunc::kCnt;
  int agg_attr_ = -1;
  std::vector<int> group_by_;
  std::vector<RelExprPtr> inputs_;
};

/// Collects the equality conjuncts `attr(0, i) = attr(1, j)` of a join
/// predicate as (left attr, right attr) pairs, in predicate order. The
/// evaluator keys hash joins on these; the integrity subsystem declares
/// relation indexes on the right-hand lists. Both must extract identically
/// — which is why this lives here and not in either of them.
void CollectEquiPairs(const ScalarExpr& pred,
                      std::vector<std::pair<int, int>>* pairs);

/// True when `e` has the shape project[a1, ..., ak](ref) with every
/// projection a plain side-0 attribute reference; fills `attrs` with the
/// referenced indices. The evaluator answers membership in this shape by
/// probing a relation index instead of materializing the projection, and
/// the integrity subsystem declares the matching index — both must agree
/// on the shape, which is why it lives here.
bool IsAttrProjectionOfRef(const RelExpr& e, std::vector<int>* attrs);

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_REL_EXPR_H_
