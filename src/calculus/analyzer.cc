#include "src/calculus/analyzer.h"

#include <set>

#include "src/common/str_util.h"

namespace txmod::calculus {

namespace {

/// Result type of term type checking: an attribute type or "null constant"
/// (which compares with anything).
struct TermType {
  bool is_null_const = false;
  AttrType type = AttrType::kInt;
};

class Analyzer {
 public:
  explicit Analyzer(const DatabaseSchema& schema) : schema_(schema) {}

  Result<AnalyzedFormula> Run(Formula formula) {
    // Pass 1: scopes and ranges.
    TXMOD_RETURN_IF_ERROR(CollectScopes(formula, {}));
    // Safety: every quantified variable needs a range membership, or the
    // formula is domain-dependent (it would quantify over the infinite
    // universe rather than a tuple-set constant).
    for (const std::string& var : all_vars_) {
      if (ranges_.count(var) == 0) {
        return Status::InvalidArgument(
            StrCat("variable ", var,
                   " has no membership atom; formulas must be "
                   "range-restricted (safe)"));
      }
    }
    // Pass 2: resolve attribute selections and type check (in place).
    TXMOD_RETURN_IF_ERROR(Resolve(&formula));
    AnalyzedFormula out;
    out.formula = std::move(formula);
    out.ranges = std::move(ranges_);
    return out;
  }

 private:
  Result<const RelationSchema*> SchemaOf(const CalcRelRef& ref) {
    // Auxiliary relations share the base relation's schema (Section 4.1).
    TXMOD_ASSIGN_OR_RETURN(const RelationSchema* s, schema_.Find(ref.name));
    return s;
  }

  // --- pass 1: scope and range collection ---------------------------------

  Status CollectScopes(const Formula& f, std::set<std::string> in_scope) {
    switch (f.kind) {
      case Formula::Kind::kForall:
      case Formula::Kind::kExists: {
        if (all_vars_.count(f.var) > 0) {
          return Status::InvalidArgument(
              StrCat("variable ", f.var,
                     " bound more than once (shadowing is not allowed)"));
        }
        all_vars_.insert(f.var);
        in_scope.insert(f.var);
        return CollectScopes(f.children[0], std::move(in_scope));
      }
      case Formula::Kind::kMembership: {
        TXMOD_RETURN_IF_ERROR(CheckVarInScope(f.var, in_scope));
        TXMOD_RETURN_IF_ERROR(SchemaOf(f.rel).status());
        auto it = ranges_.find(f.var);
        if (it != ranges_.end() && !(it->second == f.rel)) {
          return Status::InvalidArgument(
              StrCat("variable ", f.var, " ranges over both ",
                     it->second.ToString(), " and ", f.rel.ToString(),
                     "; a variable must have a unique range"));
        }
        ranges_.emplace(f.var, f.rel);
        return Status::OK();
      }
      case Formula::Kind::kTupleEq:
        TXMOD_RETURN_IF_ERROR(CheckVarInScope(f.var, in_scope));
        return CheckVarInScope(f.var2, in_scope);
      case Formula::Kind::kCompare:
        for (const Term& t : f.terms) {
          TXMOD_RETURN_IF_ERROR(CollectTermVars(t, in_scope));
        }
        return Status::OK();
      default:
        for (const Formula& c : f.children) {
          TXMOD_RETURN_IF_ERROR(CollectScopes(c, in_scope));
        }
        return Status::OK();
    }
  }

  Status CollectTermVars(const Term& t, const std::set<std::string>& scope) {
    switch (t.kind) {
      case Term::Kind::kAttrSel:
        return CheckVarInScope(t.var, scope);
      case Term::Kind::kArith:
        for (const Term& c : t.children) {
          TXMOD_RETURN_IF_ERROR(CollectTermVars(c, scope));
        }
        return Status::OK();
      case Term::Kind::kAggregate:
        if (t.agg == CalcAgg::kMlt) {
          return Status::Unimplemented(
              "MLT belongs to the multi-set algebra extension [8]; this "
              "library implements the paper's set semantics");
        }
        return SchemaOf(t.rel).status();
      case Term::Kind::kConst:
        return Status::OK();
    }
    return Status::OK();
  }

  Status CheckVarInScope(const std::string& var,
                         const std::set<std::string>& scope) {
    if (scope.count(var) == 0) {
      return Status::InvalidArgument(
          StrCat("variable ", var,
                 " is free; constraints must be closed formulas"));
    }
    return Status::OK();
  }

  // --- pass 2: resolution and type checking --------------------------------

  Status Resolve(Formula* f) {
    switch (f->kind) {
      case Formula::Kind::kCompare: {
        TXMOD_ASSIGN_OR_RETURN(TermType lt, ResolveTerm(&f->terms[0]));
        TXMOD_ASSIGN_OR_RETURN(TermType rt, ResolveTerm(&f->terms[1]));
        if (!lt.is_null_const && !rt.is_null_const) {
          const bool l_num = lt.type != AttrType::kString;
          const bool r_num = rt.type != AttrType::kString;
          if (l_num != r_num) {
            return Status::InvalidArgument(
                StrCat("type mismatch in comparison: ",
                       f->terms[0].ToString(), " ", CompareOpToString(f->cmp),
                       " ", f->terms[1].ToString()));
          }
        }
        return Status::OK();
      }
      case Formula::Kind::kTupleEq: {
        // Both sides must range over relations of equal arity.
        TXMOD_ASSIGN_OR_RETURN(const RelationSchema* s1,
                               RangeSchema(f->var));
        TXMOD_ASSIGN_OR_RETURN(const RelationSchema* s2,
                               RangeSchema(f->var2));
        if (s1->arity() != s2->arity()) {
          return Status::InvalidArgument(
              StrCat("tuple comparison ", f->var, " = ", f->var2,
                     " over different arities"));
        }
        return Status::OK();
      }
      case Formula::Kind::kMembership:
        return Status::OK();
      default:
        for (Formula& c : f->children) {
          TXMOD_RETURN_IF_ERROR(Resolve(&c));
        }
        return Status::OK();
    }
  }

  Result<const RelationSchema*> RangeSchema(const std::string& var) {
    auto it = ranges_.find(var);
    if (it == ranges_.end()) {
      return Status::InvalidArgument(
          StrCat("variable ", var,
                 " has no membership atom; formulas must be "
                 "range-restricted (safe)"));
    }
    return SchemaOf(it->second);
  }

  Result<TermType> ResolveTerm(Term* t) {
    switch (t->kind) {
      case Term::Kind::kConst: {
        TermType tt;
        if (t->constant.is_null()) {
          tt.is_null_const = true;
        } else if (t->constant.is_int()) {
          tt.type = AttrType::kInt;
        } else if (t->constant.is_double()) {
          tt.type = AttrType::kDouble;
        } else {
          tt.type = AttrType::kString;
        }
        return tt;
      }
      case Term::Kind::kAttrSel: {
        TXMOD_ASSIGN_OR_RETURN(const RelationSchema* s, RangeSchema(t->var));
        if (t->attr_index < 0) {
          TXMOD_ASSIGN_OR_RETURN(t->attr_index,
                                 s->AttributeIndex(t->attr_name));
        } else if (t->attr_index >= static_cast<int>(s->arity())) {
          return Status::InvalidArgument(
              StrCat("attribute index ", t->attr_index, " of variable ",
                     t->var, " out of range for ", s->name()));
        } else if (t->attr_name.empty()) {
          t->attr_name = s->attribute(t->attr_index).name;
        }
        TermType tt;
        tt.type = s->attribute(t->attr_index).type;
        return tt;
      }
      case Term::Kind::kArith: {
        TXMOD_ASSIGN_OR_RETURN(TermType lt, ResolveTerm(&t->children[0]));
        TXMOD_ASSIGN_OR_RETURN(TermType rt, ResolveTerm(&t->children[1]));
        if ((!lt.is_null_const && lt.type == AttrType::kString) ||
            (!rt.is_null_const && rt.type == AttrType::kString)) {
          return Status::InvalidArgument(
              StrCat("arithmetic over non-numeric operands in ",
                     t->ToString()));
        }
        TermType tt;
        tt.type = (lt.type == AttrType::kDouble || rt.type == AttrType::kDouble)
                      ? AttrType::kDouble
                      : AttrType::kInt;
        return tt;
      }
      case Term::Kind::kAggregate: {
        if (t->agg == CalcAgg::kMlt) {
          return Status::Unimplemented(
              "MLT belongs to the multi-set algebra extension [8]; this "
              "library implements the paper's set semantics");
        }
        TXMOD_ASSIGN_OR_RETURN(const RelationSchema* s, SchemaOf(t->rel));
        TermType tt;
        if (t->agg == CalcAgg::kCnt) {
          tt.type = AttrType::kInt;
          return tt;
        }
        if (t->agg_attr_index < 0) {
          if (t->agg_attr_name.empty()) {
            return Status::InvalidArgument(
                StrCat(CalcAggToString(t->agg),
                       " requires an attribute argument"));
          }
          TXMOD_ASSIGN_OR_RETURN(t->agg_attr_index,
                                 s->AttributeIndex(t->agg_attr_name));
        } else if (t->agg_attr_index >= static_cast<int>(s->arity())) {
          return Status::InvalidArgument(
              StrCat("aggregate attribute index ", t->agg_attr_index,
                     " out of range for ", s->name()));
        } else if (t->agg_attr_name.empty()) {
          t->agg_attr_name = s->attribute(t->agg_attr_index).name;
        }
        const AttrType attr_type = s->attribute(t->agg_attr_index).type;
        if ((t->agg == CalcAgg::kSum || t->agg == CalcAgg::kAvg) &&
            attr_type == AttrType::kString) {
          return Status::InvalidArgument(
              StrCat(CalcAggToString(t->agg), " over non-numeric attribute ",
                     t->agg_attr_name, " of ", s->name()));
        }
        tt.type = t->agg == CalcAgg::kAvg ? AttrType::kDouble : attr_type;
        return tt;
      }
    }
    return Status::Internal("unknown term kind");
  }

  const DatabaseSchema& schema_;
  std::set<std::string> all_vars_;
  std::map<std::string, CalcRelRef> ranges_;
};

}  // namespace

Result<AnalyzedFormula> AnalyzeFormula(const Formula& formula,
                                       const DatabaseSchema& schema) {
  Analyzer analyzer(schema);
  return analyzer.Run(formula);
}

}  // namespace txmod::calculus
