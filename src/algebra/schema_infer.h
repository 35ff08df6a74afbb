#ifndef TXMOD_ALGEBRA_SCHEMA_INFER_H_
#define TXMOD_ALGEBRA_SCHEMA_INFER_H_

#include <functional>
#include <string>

#include "src/algebra/rel_expr.h"
#include "src/common/result.h"
#include "src/relational/schema.h"

namespace txmod::algebra {

/// Callback mapping a relation reference to its schema. Implementations:
/// the algebra parser (database schema + temporaries seen so far) and the
/// transaction executor (live relations).
using SchemaResolver =
    std::function<Result<RelationSchema>(RelRefKind, const std::string&)>;

/// Static output schema of `expr`: attribute names and (best-effort) types
/// of the materialized result. Intermediate results carry an empty relation
/// name. Fails when a referenced relation is unknown or attribute indices
/// are out of range.
Result<RelationSchema> InferSchema(const RelExpr& expr,
                                   const SchemaResolver& resolver);

/// Best-effort static type of scalar expression `e` whose side-0 attribute
/// references target `input` (predicates type as int 0/1).
AttrType InferScalarType(const ScalarExpr& e, const RelationSchema& input);

/// Output attribute name for projection item `item` at position `i`:
/// the explicit name, the referenced input attribute's name, or "c<i>".
std::string ProjectionItemName(const ProjectionItem& item,
                               const RelationSchema& input, std::size_t i);

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_SCHEMA_INFER_H_
