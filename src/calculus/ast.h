#ifndef TXMOD_CALCULUS_AST_H_
#define TXMOD_CALCULUS_AST_H_

#include <string>
#include <vector>

#include "src/relational/value.h"

namespace txmod::calculus {

/// Tuple-set constants of CL (Definition 4.1): base relations plus the
/// auxiliary relations the DBMS maintains for integrity control
/// (Section 4.1) — the pre-transaction state old(R) and the transaction
/// differentials. Plain constraints reference only base relations;
/// transition constraints reference old(R); the differential references
/// are introduced by the rule optimizer (OptC), not by users.
enum class CalcRelKind { kBase, kOld, kDeltaPlus, kDeltaMinus };

struct CalcRelRef {
  CalcRelKind kind = CalcRelKind::kBase;
  std::string name;

  bool operator==(const CalcRelRef& other) const {
    return kind == other.kind && name == other.name;
  }
  std::string ToString() const;
};

/// Arithmetic function symbols FV = {+, -, *, /} (Definition 4.1).
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Aggregate function symbols FA ∪ FC (Definition 4.1). kMlt is the
/// multiset multiplicity function of the paper's multi-set extension [8];
/// it is recognized by the parser and rejected by the analyzer (this
/// library implements set semantics).
enum class CalcAgg { kSum, kAvg, kMin, kMax, kCnt, kMlt };

const char* ArithOpToString(ArithOp op);
const char* CalcAggToString(CalcAgg agg);

/// Terms (Definition 4.2): value constants, attribute selections x.i,
/// arithmetic applications, aggregate/counting applications.
struct Term {
  enum class Kind { kConst, kAttrSel, kArith, kAggregate };

  Kind kind = Kind::kConst;

  // kConst
  Value constant;

  // kAttrSel: variable x plus attribute (written as name or index; the
  // analyzer fills attr_index from the range relation's schema).
  std::string var;
  std::string attr_name;
  int attr_index = -1;

  // kArith
  ArithOp arith_op = ArithOp::kAdd;
  std::vector<Term> children;  // exactly 2 for kArith

  // kAggregate: func(rel, attr) for FA, func(rel) for CNT/MLT.
  CalcAgg agg = CalcAgg::kCnt;
  CalcRelRef rel;
  std::string agg_attr_name;
  int agg_attr_index = -1;

  static Term Const(Value v);
  static Term AttrSel(std::string var, std::string attr_name);
  static Term AttrSelIndex(std::string var, int index);
  static Term Arith(ArithOp op, Term lhs, Term rhs);
  static Term Aggregate(CalcAgg agg, CalcRelRef rel,
                        std::string attr_name = "");

  bool Equals(const Term& other) const;
  std::string ToString() const;
};

/// Value predicate symbols PV (Definition 4.1).
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// Well-formed formulas (Definitions 4.3-4.4): atomic formulas
/// (comparisons, set membership, tuple equality), connectives, and
/// quantifications.
struct Formula {
  enum class Kind {
    kCompare,     // T1 θ T2
    kMembership,  // x ∈ R
    kTupleEq,     // x = y (tuple predicate)
    kNot,
    kAnd,
    kOr,
    kImplies,
    kForall,      // (∀x)(W)
    kExists,      // (∃x)(W)
  };

  Kind kind = Kind::kCompare;

  // kCompare
  CompareOp cmp = CompareOp::kEq;
  std::vector<Term> terms;  // exactly 2 for kCompare

  // kMembership / kTupleEq / quantifiers
  std::string var;
  std::string var2;  // kTupleEq only
  CalcRelRef rel;    // kMembership only

  std::vector<Formula> children;  // 1 for kNot/quantifiers, 2 for binary

  static Formula Compare(CompareOp op, Term lhs, Term rhs);
  static Formula Membership(std::string var, CalcRelRef rel);
  static Formula TupleEq(std::string var1, std::string var2);
  static Formula Not(Formula f);
  static Formula And(Formula lhs, Formula rhs);
  static Formula Or(Formula lhs, Formula rhs);
  static Formula Implies(Formula lhs, Formula rhs);
  static Formula Forall(std::string var, Formula body);
  static Formula Exists(std::string var, Formula body);

  bool IsAtom() const {
    return kind == Kind::kCompare || kind == Kind::kMembership ||
           kind == Kind::kTupleEq;
  }
  bool IsQuantifier() const {
    return kind == Kind::kForall || kind == Kind::kExists;
  }

  bool Equals(const Formula& other) const;

  /// Renders in the textual CL syntax accepted by the parser, e.g.
  /// "forall x (x in beer implies x.alcohol >= 0)".
  std::string ToString() const;

  /// Collects every CalcRelRef mentioned (memberships and aggregates).
  void CollectRelRefs(std::vector<CalcRelRef>* refs) const;
};

}  // namespace txmod::calculus

#endif  // TXMOD_CALCULUS_AST_H_
