#ifndef TXMOD_ALGEBRA_SCALAR_EXPR_H_
#define TXMOD_ALGEBRA_SCALAR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/tuple.h"

namespace txmod::algebra {

/// Node kinds of scalar (tuple-level) expressions: the value functions FV,
/// value predicates PV, and connectives of CL (Definition 4.1), evaluated
/// over one tuple (selections, projections, update functions) or a pair of
/// tuples (join predicates).
enum class ScalarOp {
  // Leaves.
  kConst,
  kAttrRef,
  // Arithmetic (FV = {+, -, *, /}).
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Comparisons (PV = {<, <=, =, !=, >=, >}).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // Connectives.
  kAnd,
  kOr,
  kNot,
};

const char* ScalarOpToString(ScalarOp op);

/// A scalar expression tree. Attribute references carry a side (0 = the
/// current/left tuple, 1 = the right tuple of a join predicate), a resolved
/// index, and optionally the attribute name they were written with (kept
/// for printing).
///
/// Evaluation semantics:
///  * arithmetic over nulls yields null; division by zero is an error;
///  * comparisons use Value::Compare (numeric coercion; any ordering
///    involving null is false; `=` on two nulls is true);
///  * and/or/not are strict two-valued once comparisons collapse to bool.
class ScalarExpr {
 public:
  ScalarExpr() : op_(ScalarOp::kConst), constant_(Value::Null()) {}

  static ScalarExpr Const(Value v);
  static ScalarExpr Attr(int side, int index, std::string name = "");
  static ScalarExpr Binary(ScalarOp op, ScalarExpr lhs, ScalarExpr rhs);
  static ScalarExpr Not(ScalarExpr operand);
  /// Conjunction of `terms`; empty list yields constant true.
  static ScalarExpr And(std::vector<ScalarExpr> terms);
  /// Constant true (internally: 1 = 1 is avoided; a dedicated constant).
  static ScalarExpr True();
  static ScalarExpr False();

  ScalarOp op() const { return op_; }
  const Value& constant() const { return constant_; }
  int side() const { return side_; }
  int attr_index() const { return attr_index_; }
  const std::string& attr_name() const { return attr_name_; }
  const std::vector<ScalarExpr>& children() const { return children_; }

  /// Sets the resolved index of a kAttrRef (name resolution pass).
  void set_attr_index(int index) { attr_index_ = index; }

  /// Mutable traversal used by resolution/rewriting passes.
  std::vector<ScalarExpr>& mutable_children() { return children_; }

  /// Evaluates a value-producing expression. `left` must be non-null;
  /// `right` may be null when no side-1 references occur.
  Result<Value> EvalValue(const Tuple* left, const Tuple* right) const;

  /// Evaluates a predicate; comparison/connective semantics above.
  Result<bool> EvalPredicate(const Tuple* left, const Tuple* right) const;

  /// Structural equality (used by tests and the optimizer).
  bool Equals(const ScalarExpr& other) const;

  /// Renders the expression. In unary contexts side-0 refs print as their
  /// name (or #i); with `qualify_sides` (join predicates) side 0 prints as
  /// l.name / l.i and side 1 as r.name / r.i, so that printing
  /// round-trips through the parser even when both inputs share attribute
  /// names.
  std::string ToString(bool qualify_sides = false) const;

 private:
  ScalarOp op_;
  Value constant_;
  int side_ = 0;
  int attr_index_ = -1;
  std::string attr_name_;
  std::vector<ScalarExpr> children_;

  std::string ToStringPrec(int parent_prec, bool qualify_sides) const;
};

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_SCALAR_EXPR_H_
