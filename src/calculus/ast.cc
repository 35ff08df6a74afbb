#include "src/calculus/ast.h"

#include "src/common/str_util.h"

namespace txmod::calculus {

std::string CalcRelRef::ToString() const {
  switch (kind) {
    case CalcRelKind::kBase:
      return name;
    case CalcRelKind::kOld:
      return StrCat("old(", name, ")");
    case CalcRelKind::kDeltaPlus:
      return StrCat("dplus(", name, ")");
    case CalcRelKind::kDeltaMinus:
      return StrCat("dminus(", name, ")");
  }
  return name;
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

const char* CalcAggToString(CalcAgg agg) {
  switch (agg) {
    case CalcAgg::kSum:
      return "sum";
    case CalcAgg::kAvg:
      return "avg";
    case CalcAgg::kMin:
      return "min";
    case CalcAgg::kMax:
      return "max";
    case CalcAgg::kCnt:
      return "cnt";
    case CalcAgg::kMlt:
      return "mlt";
  }
  return "?";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Term Term::Const(Value v) {
  Term t;
  t.kind = Kind::kConst;
  t.constant = std::move(v);
  return t;
}

Term Term::AttrSel(std::string var, std::string attr_name) {
  Term t;
  t.kind = Kind::kAttrSel;
  t.var = std::move(var);
  t.attr_name = std::move(attr_name);
  return t;
}

Term Term::AttrSelIndex(std::string var, int index) {
  Term t;
  t.kind = Kind::kAttrSel;
  t.var = std::move(var);
  t.attr_index = index;
  return t;
}

Term Term::Arith(ArithOp op, Term lhs, Term rhs) {
  Term t;
  t.kind = Kind::kArith;
  t.arith_op = op;
  t.children.push_back(std::move(lhs));
  t.children.push_back(std::move(rhs));
  return t;
}

Term Term::Aggregate(CalcAgg agg, CalcRelRef rel, std::string attr_name) {
  Term t;
  t.kind = Kind::kAggregate;
  t.agg = agg;
  t.rel = std::move(rel);
  t.agg_attr_name = std::move(attr_name);
  return t;
}

bool Term::Equals(const Term& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kConst:
      return constant == other.constant;
    case Kind::kAttrSel:
      return var == other.var && attr_index == other.attr_index &&
             attr_name == other.attr_name;
    case Kind::kArith:
      return arith_op == other.arith_op &&
             children[0].Equals(other.children[0]) &&
             children[1].Equals(other.children[1]);
    case Kind::kAggregate:
      return agg == other.agg && rel == other.rel &&
             agg_attr_name == other.agg_attr_name &&
             agg_attr_index == other.agg_attr_index;
  }
  return false;
}

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kConst:
      return constant.ToString();
    case Kind::kAttrSel:
      if (!attr_name.empty()) return StrCat(var, ".", attr_name);
      return StrCat(var, ".", attr_index);
    case Kind::kArith:
      return StrCat("(", children[0].ToString(), " ",
                    ArithOpToString(arith_op), " ", children[1].ToString(),
                    ")");
    case Kind::kAggregate: {
      std::string fn = AsciiToLower(CalcAggToString(agg));
      if (agg == CalcAgg::kCnt) return StrCat(fn, "(", rel.ToString(), ")");
      const std::string attr = agg_attr_name.empty()
                                   ? StrCat(agg_attr_index)
                                   : agg_attr_name;
      return StrCat(fn, "(", rel.ToString(), ", ", attr, ")");
    }
  }
  return "?";
}

Formula Formula::Compare(CompareOp op, Term lhs, Term rhs) {
  Formula f;
  f.kind = Kind::kCompare;
  f.cmp = op;
  f.terms.push_back(std::move(lhs));
  f.terms.push_back(std::move(rhs));
  return f;
}

Formula Formula::Membership(std::string var, CalcRelRef rel) {
  Formula f;
  f.kind = Kind::kMembership;
  f.var = std::move(var);
  f.rel = std::move(rel);
  return f;
}

Formula Formula::TupleEq(std::string var1, std::string var2) {
  Formula f;
  f.kind = Kind::kTupleEq;
  f.var = std::move(var1);
  f.var2 = std::move(var2);
  return f;
}

Formula Formula::Not(Formula inner) {
  Formula f;
  f.kind = Kind::kNot;
  f.children.push_back(std::move(inner));
  return f;
}

namespace {

Formula BinaryFormula(Formula::Kind kind, Formula lhs, Formula rhs) {
  Formula f;
  f.kind = kind;
  f.children.push_back(std::move(lhs));
  f.children.push_back(std::move(rhs));
  return f;
}

Formula QuantFormula(Formula::Kind kind, std::string var, Formula body) {
  Formula f;
  f.kind = kind;
  f.var = std::move(var);
  f.children.push_back(std::move(body));
  return f;
}

}  // namespace

Formula Formula::And(Formula lhs, Formula rhs) {
  return BinaryFormula(Kind::kAnd, std::move(lhs), std::move(rhs));
}
Formula Formula::Or(Formula lhs, Formula rhs) {
  return BinaryFormula(Kind::kOr, std::move(lhs), std::move(rhs));
}
Formula Formula::Implies(Formula lhs, Formula rhs) {
  return BinaryFormula(Kind::kImplies, std::move(lhs), std::move(rhs));
}
Formula Formula::Forall(std::string var, Formula body) {
  return QuantFormula(Kind::kForall, std::move(var), std::move(body));
}
Formula Formula::Exists(std::string var, Formula body) {
  return QuantFormula(Kind::kExists, std::move(var), std::move(body));
}

bool Formula::Equals(const Formula& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kCompare:
      if (cmp != other.cmp) return false;
      return terms[0].Equals(other.terms[0]) &&
             terms[1].Equals(other.terms[1]);
    case Kind::kMembership:
      return var == other.var && rel == other.rel;
    case Kind::kTupleEq:
      return var == other.var && var2 == other.var2;
    case Kind::kForall:
    case Kind::kExists:
      if (var != other.var) return false;
      break;
    default:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (!children[i].Equals(other.children[i])) return false;
  }
  return true;
}

namespace {

// Precedence: implies < or < and < not < atoms.
int FormulaPrecedence(Formula::Kind kind) {
  switch (kind) {
    case Formula::Kind::kImplies:
      return 1;
    case Formula::Kind::kOr:
      return 2;
    case Formula::Kind::kAnd:
      return 3;
    case Formula::Kind::kNot:
      return 4;
    default:
      return 5;
  }
}

std::string ToStringPrec(const Formula& f, int parent_prec) {
  std::string out;
  switch (f.kind) {
    case Formula::Kind::kCompare:
      out = StrCat(f.terms[0].ToString(), " ", CompareOpToString(f.cmp), " ",
                   f.terms[1].ToString());
      break;
    case Formula::Kind::kMembership:
      out = StrCat(f.var, " in ", f.rel.ToString());
      break;
    case Formula::Kind::kTupleEq:
      out = StrCat(f.var, " = ", f.var2);
      break;
    case Formula::Kind::kNot:
      out = StrCat("not ",
                   ToStringPrec(f.children[0],
                                FormulaPrecedence(Formula::Kind::kNot)));
      break;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies: {
      const char* op = f.kind == Formula::Kind::kAnd
                           ? "and"
                           : f.kind == Formula::Kind::kOr ? "or" : "implies";
      const int prec = FormulaPrecedence(f.kind);
      // implies is right-associative; and/or are left-associative.
      const int lhs_prec =
          f.kind == Formula::Kind::kImplies ? prec + 1 : prec;
      const int rhs_prec =
          f.kind == Formula::Kind::kImplies ? prec : prec + 1;
      out = StrCat(ToStringPrec(f.children[0], lhs_prec), " ", op, " ",
                   ToStringPrec(f.children[1], rhs_prec));
      break;
    }
    case Formula::Kind::kForall:
    case Formula::Kind::kExists: {
      const char* q =
          f.kind == Formula::Kind::kForall ? "forall" : "exists";
      // Quantifier bodies are always parenthesized: forall x (...).
      return StrCat(q, " ", f.var, " (", ToStringPrec(f.children[0], 0),
                    ")");
    }
  }
  if (FormulaPrecedence(f.kind) < parent_prec && !f.IsAtom()) {
    return StrCat("(", out, ")");
  }
  return out;
}

void CollectTermRelRefs(const Term& t, std::vector<CalcRelRef>* refs) {
  switch (t.kind) {
    case Term::Kind::kAggregate:
      refs->push_back(t.rel);
      break;
    case Term::Kind::kArith:
      for (const Term& c : t.children) CollectTermRelRefs(c, refs);
      break;
    default:
      break;
  }
}

}  // namespace

std::string Formula::ToString() const { return ToStringPrec(*this, 0); }

void Formula::CollectRelRefs(std::vector<CalcRelRef>* refs) const {
  switch (kind) {
    case Kind::kMembership:
      refs->push_back(rel);
      break;
    case Kind::kCompare:
      for (const Term& t : terms) CollectTermRelRefs(t, refs);
      break;
    default:
      break;
  }
  for (const Formula& c : children) c.CollectRelRefs(refs);
}

}  // namespace txmod::calculus
