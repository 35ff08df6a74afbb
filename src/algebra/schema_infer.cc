#include "src/algebra/schema_infer.h"

#include "src/common/str_util.h"

namespace txmod::algebra {

namespace {

AttrType ValueAttrType(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return AttrType::kInt;
    case ValueType::kDouble:
      return AttrType::kDouble;
    case ValueType::kString:
      return AttrType::kString;
    case ValueType::kNull:
      break;
  }
  return AttrType::kString;
}

std::vector<Attribute> ConcatAttrs(const RelationSchema& a,
                                   const RelationSchema& b) {
  std::vector<Attribute> attrs = a.attributes();
  attrs.insert(attrs.end(), b.attributes().begin(), b.attributes().end());
  return attrs;
}

}  // namespace

AttrType InferScalarType(const ScalarExpr& e, const RelationSchema& input) {
  switch (e.op()) {
    case ScalarOp::kConst:
      return ValueAttrType(e.constant());
    case ScalarOp::kAttrRef: {
      const int i = e.attr_index();
      if (e.side() == 0 && i >= 0 && i < static_cast<int>(input.arity())) {
        return input.attribute(i).type;
      }
      return AttrType::kString;
    }
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
    case ScalarOp::kMul:
    case ScalarOp::kDiv: {
      const AttrType a = InferScalarType(e.children()[0], input);
      const AttrType b = InferScalarType(e.children()[1], input);
      return (a == AttrType::kDouble || b == AttrType::kDouble)
                 ? AttrType::kDouble
                 : AttrType::kInt;
    }
    default:
      return AttrType::kInt;
  }
}

std::string ProjectionItemName(const ProjectionItem& item,
                               const RelationSchema& input, std::size_t i) {
  if (!item.name.empty()) return item.name;
  if (item.expr.op() == ScalarOp::kAttrRef && item.expr.side() == 0) {
    const int idx = item.expr.attr_index();
    if (idx >= 0 && idx < static_cast<int>(input.arity())) {
      return input.attribute(idx).name;
    }
  }
  return StrCat("c", i);
}

Result<RelationSchema> InferSchema(const RelExpr& expr,
                                   const SchemaResolver& resolver) {
  switch (expr.kind()) {
    case RelExprKind::kRef:
      return resolver(expr.ref_kind(), expr.rel_name());
    case RelExprKind::kLiteral: {
      std::vector<Attribute> attrs;
      for (int i = 0; i < expr.literal_arity(); ++i) {
        AttrType type = AttrType::kString;
        for (const Tuple& t : expr.literal_tuples()) {
          if (!t.at(i).is_null()) {
            type = ValueAttrType(t.at(i));
            break;
          }
        }
        attrs.push_back(Attribute{StrCat("c", i), type});
      }
      return RelationSchema("", std::move(attrs));
    }
    case RelExprKind::kSelect:
    case RelExprKind::kSemiJoin:
    case RelExprKind::kAntiJoin:
    case RelExprKind::kUnion:
    case RelExprKind::kDifference:
    case RelExprKind::kIntersect:
      return InferSchema(*expr.left(), resolver);
    case RelExprKind::kProject: {
      TXMOD_ASSIGN_OR_RETURN(RelationSchema in,
                             InferSchema(*expr.left(), resolver));
      std::vector<Attribute> attrs;
      for (std::size_t i = 0; i < expr.projections().size(); ++i) {
        attrs.push_back(
            Attribute{ProjectionItemName(expr.projections()[i], in, i),
                      InferScalarType(expr.projections()[i].expr, in)});
      }
      return RelationSchema("", std::move(attrs));
    }
    case RelExprKind::kProduct:
    case RelExprKind::kJoin: {
      TXMOD_ASSIGN_OR_RETURN(RelationSchema l,
                             InferSchema(*expr.left(), resolver));
      TXMOD_ASSIGN_OR_RETURN(RelationSchema r,
                             InferSchema(*expr.right(), resolver));
      return RelationSchema("", ConcatAttrs(l, r));
    }
    case RelExprKind::kAggregate: {
      TXMOD_ASSIGN_OR_RETURN(RelationSchema in,
                             InferSchema(*expr.left(), resolver));
      std::vector<Attribute> attrs;
      for (int g : expr.group_by()) {
        if (g < 0 || g >= static_cast<int>(in.arity())) {
          return Status::InvalidArgument("group-by attribute out of range");
        }
        attrs.push_back(in.attribute(g));
      }
      AttrType agg_type = AttrType::kInt;
      if (expr.agg_func() == AggFunc::kAvg) {
        agg_type = AttrType::kDouble;
      } else if (expr.agg_func() != AggFunc::kCnt) {
        const int a = expr.agg_attr();
        if (a < 0 || a >= static_cast<int>(in.arity())) {
          return Status::InvalidArgument("aggregate attribute out of range");
        }
        agg_type = in.attribute(a).type;
      }
      attrs.push_back(Attribute{AggFuncToString(expr.agg_func()), agg_type});
      return RelationSchema("", std::move(attrs));
    }
  }
  return Status::Internal("unknown RelExpr kind in InferSchema");
}

}  // namespace txmod::algebra
