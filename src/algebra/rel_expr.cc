#include "src/algebra/rel_expr.h"

#include "src/common/str_util.h"

namespace txmod::algebra {

const char* RelRefKindToString(RelRefKind kind) {
  switch (kind) {
    case RelRefKind::kBase:
      return "base";
    case RelRefKind::kTemp:
      return "temp";
    case RelRefKind::kOld:
      return "old";
    case RelRefKind::kDeltaPlus:
      return "dplus";
    case RelRefKind::kDeltaMinus:
      return "dminus";
  }
  return "?";
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kCnt:
      return "cnt";
  }
  return "?";
}

// make_shared needs an accessible constructor; each builder allocates via a
// local struct that befriends the private default constructor by derivation.
RelExprPtr RelExpr::Ref(RelRefKind kind, std::string name) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kRef;
  n->ref_kind_ = kind;
  n->rel_name_ = std::move(name);
  return n;
}

RelExprPtr RelExpr::Literal(std::vector<Tuple> tuples, int arity) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kLiteral;
  n->literal_tuples_ = std::move(tuples);
  n->literal_arity_ = arity;
  return n;
}

RelExprPtr RelExpr::Select(ScalarExpr predicate, RelExprPtr input) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kSelect;
  n->predicate_ = std::move(predicate);
  n->inputs_ = {std::move(input)};
  return n;
}

RelExprPtr RelExpr::Project(std::vector<ProjectionItem> items,
                            RelExprPtr input) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kProject;
  n->projections_ = std::move(items);
  n->inputs_ = {std::move(input)};
  return n;
}

RelExprPtr RelExpr::ProjectAttrs(const std::vector<int>& attrs,
                                 RelExprPtr input) {
  std::vector<ProjectionItem> items;
  items.reserve(attrs.size());
  for (int a : attrs) {
    items.push_back(ProjectionItem{ScalarExpr::Attr(0, a), ""});
  }
  return Project(std::move(items), std::move(input));
}

#define TXMOD_DEFINE_BINARY(Name, Kind)                                  \
  RelExprPtr RelExpr::Name(RelExprPtr left, RelExprPtr right) {          \
    struct Node : RelExpr {};                                            \
    auto n = std::make_shared<Node>();                                   \
    n->kind_ = RelExprKind::Kind;                                        \
    n->inputs_ = {std::move(left), std::move(right)};                    \
    return n;                                                            \
  }

TXMOD_DEFINE_BINARY(Product, kProduct)
TXMOD_DEFINE_BINARY(Union, kUnion)
TXMOD_DEFINE_BINARY(Difference, kDifference)
TXMOD_DEFINE_BINARY(Intersect, kIntersect)
#undef TXMOD_DEFINE_BINARY

#define TXMOD_DEFINE_PRED_BINARY(Name, Kind)                             \
  RelExprPtr RelExpr::Name(ScalarExpr predicate, RelExprPtr left,        \
                           RelExprPtr right) {                           \
    struct Node : RelExpr {};                                            \
    auto n = std::make_shared<Node>();                                   \
    n->kind_ = RelExprKind::Kind;                                        \
    n->predicate_ = std::move(predicate);                                \
    n->inputs_ = {std::move(left), std::move(right)};                    \
    return n;                                                            \
  }

TXMOD_DEFINE_PRED_BINARY(Join, kJoin)
TXMOD_DEFINE_PRED_BINARY(SemiJoin, kSemiJoin)
TXMOD_DEFINE_PRED_BINARY(AntiJoin, kAntiJoin)
#undef TXMOD_DEFINE_PRED_BINARY

RelExprPtr RelExpr::Aggregate(AggFunc func, int attr, RelExprPtr input) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kAggregate;
  n->agg_func_ = func;
  n->agg_attr_ = attr;
  n->inputs_ = {std::move(input)};
  return n;
}

RelExprPtr RelExpr::GroupAggregate(std::vector<int> group_by, AggFunc func,
                                   int attr, RelExprPtr input) {
  struct Node : RelExpr {};
  auto n = std::make_shared<Node>();
  n->kind_ = RelExprKind::kAggregate;
  n->agg_func_ = func;
  n->agg_attr_ = attr;
  n->group_by_ = std::move(group_by);
  n->inputs_ = {std::move(input)};
  return n;
}

bool RelExpr::Equals(const RelExpr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case RelExprKind::kRef:
      if (ref_kind_ != other.ref_kind_ || rel_name_ != other.rel_name_) {
        return false;
      }
      break;
    case RelExprKind::kLiteral:
      if (literal_arity_ != other.literal_arity_ ||
          literal_tuples_ != other.literal_tuples_) {
        return false;
      }
      break;
    case RelExprKind::kSelect:
    case RelExprKind::kJoin:
    case RelExprKind::kSemiJoin:
    case RelExprKind::kAntiJoin:
      if (!predicate_.Equals(other.predicate_)) return false;
      break;
    case RelExprKind::kProject:
      if (projections_.size() != other.projections_.size()) return false;
      for (std::size_t i = 0; i < projections_.size(); ++i) {
        if (!projections_[i].expr.Equals(other.projections_[i].expr)) {
          return false;
        }
      }
      break;
    case RelExprKind::kAggregate:
      if (agg_func_ != other.agg_func_ || agg_attr_ != other.agg_attr_ ||
          group_by_ != other.group_by_) {
        return false;
      }
      break;
    default:
      break;
  }
  if (inputs_.size() != other.inputs_.size()) return false;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (!inputs_[i]->Equals(*other.inputs_[i])) return false;
  }
  return true;
}

std::string RelExpr::ToString() const {
  switch (kind_) {
    case RelExprKind::kRef:
      switch (ref_kind_) {
        case RelRefKind::kBase:
        case RelRefKind::kTemp:
          return rel_name_;
        case RelRefKind::kOld:
          return StrCat("old(", rel_name_, ")");
        case RelRefKind::kDeltaPlus:
          return StrCat("dplus(", rel_name_, ")");
        case RelRefKind::kDeltaMinus:
          return StrCat("dminus(", rel_name_, ")");
      }
      return rel_name_;
    case RelExprKind::kLiteral: {
      std::vector<std::string> parts;
      parts.reserve(literal_tuples_.size());
      for (const Tuple& t : literal_tuples_) parts.push_back(t.ToString());
      return StrCat("{", txmod::Join(parts, ", "), "}");
    }
    case RelExprKind::kSelect:
      return StrCat("select[", predicate_.ToString(), "](",
                    left()->ToString(), ")");
    case RelExprKind::kProject: {
      std::vector<std::string> parts;
      parts.reserve(projections_.size());
      for (const ProjectionItem& item : projections_) {
        if (item.name.empty()) {
          parts.push_back(item.expr.ToString());
        } else {
          parts.push_back(StrCat(item.expr.ToString(), " as ", item.name));
        }
      }
      return StrCat("project[", txmod::Join(parts, ", "), "](", left()->ToString(),
                    ")");
    }
    case RelExprKind::kProduct:
      return StrCat("product(", left()->ToString(), ", ",
                    right()->ToString(), ")");
    case RelExprKind::kJoin:
      return StrCat("join[", predicate_.ToString(/*qualify_sides=*/true),
                    "](", left()->ToString(), ", ", right()->ToString(),
                    ")");
    case RelExprKind::kSemiJoin:
      return StrCat("semijoin[",
                    predicate_.ToString(/*qualify_sides=*/true), "](",
                    left()->ToString(), ", ", right()->ToString(), ")");
    case RelExprKind::kAntiJoin:
      return StrCat("antijoin[",
                    predicate_.ToString(/*qualify_sides=*/true), "](",
                    left()->ToString(), ", ", right()->ToString(), ")");
    case RelExprKind::kUnion:
      return StrCat("union(", left()->ToString(), ", ", right()->ToString(),
                    ")");
    case RelExprKind::kDifference:
      return StrCat("diff(", left()->ToString(), ", ", right()->ToString(),
                    ")");
    case RelExprKind::kIntersect:
      return StrCat("intersect(", left()->ToString(), ", ",
                    right()->ToString(), ")");
    case RelExprKind::kAggregate: {
      std::string inner = left()->ToString();
      std::string head = AggFuncToString(agg_func_);
      std::string args;
      if (!group_by_.empty()) {
        std::vector<std::string> gs;
        for (int g : group_by_) gs.push_back(StrCat("#", g));
        args = StrCat("group ", txmod::Join(gs, " "), "; ");
      }
      if (agg_func_ == AggFunc::kCnt) {
        if (args.empty()) return StrCat("cnt(", inner, ")");
        return StrCat("cnt[", args, "](", inner, ")");
      }
      return StrCat(head, "[", args, "#", agg_attr_, "](", inner, ")");
    }
  }
  return "?";
}

void CollectEquiPairs(const ScalarExpr& pred,
                      std::vector<std::pair<int, int>>* pairs) {
  if (pred.op() == ScalarOp::kAnd) {
    CollectEquiPairs(pred.children()[0], pairs);
    CollectEquiPairs(pred.children()[1], pairs);
    return;
  }
  if (pred.op() != ScalarOp::kEq) return;
  const ScalarExpr& a = pred.children()[0];
  const ScalarExpr& b = pred.children()[1];
  if (a.op() != ScalarOp::kAttrRef || b.op() != ScalarOp::kAttrRef) return;
  if (a.side() == 0 && b.side() == 1) {
    pairs->emplace_back(a.attr_index(), b.attr_index());
  } else if (a.side() == 1 && b.side() == 0) {
    pairs->emplace_back(b.attr_index(), a.attr_index());
  }
}

bool IsAttrProjectionOfRef(const RelExpr& e, std::vector<int>* attrs) {
  if (e.kind() != RelExprKind::kProject ||
      e.left()->kind() != RelExprKind::kRef) {
    return false;
  }
  attrs->clear();
  attrs->reserve(e.projections().size());
  for (const ProjectionItem& item : e.projections()) {
    if (item.expr.op() != ScalarOp::kAttrRef || item.expr.side() != 0) {
      return false;
    }
    attrs->push_back(item.expr.attr_index());
  }
  return !attrs->empty();
}

}  // namespace txmod::algebra
