#include "src/algebra/scalar_expr.h"

#include "src/common/str_util.h"

namespace txmod::algebra {

const char* ScalarOpToString(ScalarOp op) {
  switch (op) {
    case ScalarOp::kConst:
      return "const";
    case ScalarOp::kAttrRef:
      return "attr";
    case ScalarOp::kAdd:
      return "+";
    case ScalarOp::kSub:
      return "-";
    case ScalarOp::kMul:
      return "*";
    case ScalarOp::kDiv:
      return "/";
    case ScalarOp::kEq:
      return "=";
    case ScalarOp::kNe:
      return "!=";
    case ScalarOp::kLt:
      return "<";
    case ScalarOp::kLe:
      return "<=";
    case ScalarOp::kGt:
      return ">";
    case ScalarOp::kGe:
      return ">=";
    case ScalarOp::kAnd:
      return "and";
    case ScalarOp::kOr:
      return "or";
    case ScalarOp::kNot:
      return "not";
  }
  return "?";
}

ScalarExpr ScalarExpr::Const(Value v) {
  ScalarExpr e;
  e.op_ = ScalarOp::kConst;
  e.constant_ = std::move(v);
  return e;
}

ScalarExpr ScalarExpr::Attr(int side, int index, std::string name) {
  ScalarExpr e;
  e.op_ = ScalarOp::kAttrRef;
  e.side_ = side;
  e.attr_index_ = index;
  e.attr_name_ = std::move(name);
  return e;
}

ScalarExpr ScalarExpr::Binary(ScalarOp op, ScalarExpr lhs, ScalarExpr rhs) {
  ScalarExpr e;
  e.op_ = op;
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

ScalarExpr ScalarExpr::Not(ScalarExpr operand) {
  ScalarExpr e;
  e.op_ = ScalarOp::kNot;
  e.children_.push_back(std::move(operand));
  return e;
}

ScalarExpr ScalarExpr::And(std::vector<ScalarExpr> terms) {
  if (terms.empty()) return True();
  ScalarExpr acc = std::move(terms[0]);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    acc = Binary(ScalarOp::kAnd, std::move(acc), std::move(terms[i]));
  }
  return acc;
}

ScalarExpr ScalarExpr::True() { return Const(Value::Int(1)); }
ScalarExpr ScalarExpr::False() { return Const(Value::Int(0)); }

namespace {

Result<Value> EvalArith(ScalarOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument(
        StrCat("arithmetic requires numeric operands, got ", a.ToString(),
               " ", ScalarOpToString(op), " ", b.ToString()));
  }
  // Integer arithmetic stays integral (except division by zero -> error).
  if (a.is_int() && b.is_int()) {
    const int64_t x = a.as_int();
    const int64_t y = b.as_int();
    switch (op) {
      case ScalarOp::kAdd:
        return Value::Int(x + y);
      case ScalarOp::kSub:
        return Value::Int(x - y);
      case ScalarOp::kMul:
        return Value::Int(x * y);
      case ScalarOp::kDiv:
        if (y == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(x / y);
      default:
        break;
    }
  }
  const double x = a.is_int() ? static_cast<double>(a.as_int()) : a.as_double();
  const double y = b.is_int() ? static_cast<double>(b.as_int()) : b.as_double();
  switch (op) {
    case ScalarOp::kAdd:
      return Value::Double(x + y);
    case ScalarOp::kSub:
      return Value::Double(x - y);
    case ScalarOp::kMul:
      return Value::Double(x * y);
    case ScalarOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(x / y);
    default:
      return Status::Internal("EvalArith called with non-arithmetic op");
  }
}

bool EvalComparison(ScalarOp op, const Value& a, const Value& b) {
  using Ordering = Value::Ordering;
  const Ordering ord = Value::Compare(a, b);
  switch (op) {
    case ScalarOp::kEq:
      return ord == Ordering::kEqual;
    case ScalarOp::kNe:
      // a != b is the negation of a = b, *including* the null cases: two
      // incomparable values are considered unequal.
      return ord != Ordering::kEqual;
    case ScalarOp::kLt:
      return ord == Ordering::kLess;
    case ScalarOp::kLe:
      return ord == Ordering::kLess || ord == Ordering::kEqual;
    case ScalarOp::kGt:
      return ord == Ordering::kGreater;
    case ScalarOp::kGe:
      return ord == Ordering::kGreater || ord == Ordering::kEqual;
    default:
      return false;
  }
}

bool IsComparison(ScalarOp op) {
  switch (op) {
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsConnective(ScalarOp op) {
  return op == ScalarOp::kAnd || op == ScalarOp::kOr || op == ScalarOp::kNot;
}

}  // namespace

Result<Value> ScalarExpr::EvalValue(const Tuple* left,
                                    const Tuple* right) const {
  switch (op_) {
    case ScalarOp::kConst:
      return constant_;
    case ScalarOp::kAttrRef: {
      const Tuple* t = side_ == 0 ? left : right;
      if (t == nullptr) {
        return Status::Internal(
            StrCat("attribute reference to side ", side_, " without tuple"));
      }
      if (attr_index_ < 0 || attr_index_ >= static_cast<int>(t->arity())) {
        return Status::Internal(
            StrCat("attribute index ", attr_index_, " out of range for arity ",
                   t->arity()));
      }
      return t->at(attr_index_);
    }
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
    case ScalarOp::kMul:
    case ScalarOp::kDiv: {
      TXMOD_ASSIGN_OR_RETURN(Value a, children_[0].EvalValue(left, right));
      TXMOD_ASSIGN_OR_RETURN(Value b, children_[1].EvalValue(left, right));
      return EvalArith(op_, a, b);
    }
    default: {
      // A predicate in value position (e.g. a projection of a condition)
      // materializes as 1/0.
      TXMOD_ASSIGN_OR_RETURN(bool b, EvalPredicate(left, right));
      return Value::Int(b ? 1 : 0);
    }
  }
}

Result<bool> ScalarExpr::EvalPredicate(const Tuple* left,
                                       const Tuple* right) const {
  if (IsComparison(op_)) {
    TXMOD_ASSIGN_OR_RETURN(Value a, children_[0].EvalValue(left, right));
    TXMOD_ASSIGN_OR_RETURN(Value b, children_[1].EvalValue(left, right));
    return EvalComparison(op_, a, b);
  }
  if (IsConnective(op_)) {
    if (op_ == ScalarOp::kNot) {
      TXMOD_ASSIGN_OR_RETURN(bool v, children_[0].EvalPredicate(left, right));
      return !v;
    }
    TXMOD_ASSIGN_OR_RETURN(bool a, children_[0].EvalPredicate(left, right));
    if (op_ == ScalarOp::kAnd && !a) return false;
    if (op_ == ScalarOp::kOr && a) return true;
    return children_[1].EvalPredicate(left, right);
  }
  // Value in predicate position: nonzero integers are true (used for the
  // constant true/false predicates).
  TXMOD_ASSIGN_OR_RETURN(Value v, EvalValue(left, right));
  if (v.is_null()) return false;
  if (v.is_int()) return v.as_int() != 0;
  if (v.is_double()) return v.as_double() != 0.0;
  return Status::InvalidArgument(
      StrCat("value ", v.ToString(), " used as a predicate"));
}

bool ScalarExpr::Equals(const ScalarExpr& other) const {
  if (op_ != other.op_) return false;
  switch (op_) {
    case ScalarOp::kConst:
      if (constant_ != other.constant_) return false;
      break;
    case ScalarOp::kAttrRef:
      if (side_ != other.side_ || attr_index_ != other.attr_index_) {
        return false;
      }
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i].Equals(other.children_[i])) return false;
  }
  return true;
}

namespace {

// Precedence: or < and < not < comparison < add < mul < leaf.
int Precedence(ScalarOp op) {
  switch (op) {
    case ScalarOp::kOr:
      return 1;
    case ScalarOp::kAnd:
      return 2;
    case ScalarOp::kNot:
      return 3;
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe:
      return 4;
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
      return 5;
    case ScalarOp::kMul:
    case ScalarOp::kDiv:
      return 6;
    default:
      return 7;
  }
}

}  // namespace

std::string ScalarExpr::ToStringPrec(int parent_prec,
                                     bool qualify_sides) const {
  std::string out;
  switch (op_) {
    case ScalarOp::kConst:
      return constant_.ToString();
    case ScalarOp::kAttrRef: {
      if (qualify_sides) {
        const char* prefix = side_ == 0 ? "l." : "r.";
        return attr_name_.empty() ? StrCat(prefix, attr_index_)
                                  : StrCat(prefix, attr_name_);
      }
      std::string base = attr_name_.empty()
                             ? StrCat("#", attr_index_)
                             : attr_name_;
      return side_ == 0 ? base : StrCat("r.", base);
    }
    case ScalarOp::kNot:
      out = StrCat("not ", children_[0].ToStringPrec(Precedence(op_),
                                                     qualify_sides));
      break;
    default:
      out = StrCat(children_[0].ToStringPrec(Precedence(op_), qualify_sides),
                   " ", ScalarOpToString(op_), " ",
                   children_[1].ToStringPrec(Precedence(op_) + 1,
                                             qualify_sides));
      break;
  }
  if (Precedence(op_) < parent_prec) return StrCat("(", out, ")");
  return out;
}

std::string ScalarExpr::ToString(bool qualify_sides) const {
  return ToStringPrec(0, qualify_sides);
}

}  // namespace txmod::algebra
