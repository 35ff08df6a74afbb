#ifndef TXMOD_ALGEBRA_PARSER_H_
#define TXMOD_ALGEBRA_PARSER_H_

#include <map>
#include <string>

#include "src/algebra/statement.h"
#include "src/common/result.h"
#include "src/relational/schema.h"

namespace txmod::algebra {

/// Parser for the textual extended relational algebra (XRA) syntax. Used
/// for the THEN-actions of RL integrity rules, for examples, and by tests.
///
/// Expression grammar (keywords case-insensitive):
///
///   relexpr    := diffexpr ('union' diffexpr)*
///   diffexpr   := isectexpr ('-' isectexpr)*
///   isectexpr  := primary ('intersect' primary)*
///   primary    := 'select'   '[' pred ']' '(' relexpr ')'
///               | 'project'  '[' projitem {',' projitem} ']' '(' relexpr ')'
///               | 'join'     '[' pred ']' '(' relexpr ',' relexpr ')'
///               | 'semijoin' '[' pred ']' '(' relexpr ',' relexpr ')'
///               | 'antijoin' '[' pred ']' '(' relexpr ',' relexpr ')'
///               | 'product'  '(' relexpr ',' relexpr ')'
///               | 'union' | 'diff' | 'intersect'  '(' relexpr ',' relexpr ')'
///               | ('sum'|'avg'|'min'|'max') '[' attr ']' '(' relexpr ')'
///               | 'cnt' '(' relexpr ')'
///               | ('old'|'dplus'|'dminus') '(' name ')'
///               | '{' tuple {',' tuple} '}'
///               | name | '(' relexpr ')'
///   projitem   := scalar ['as' name]
///
/// Scalar expressions use the usual precedence (or < and < not <
/// comparison < +- < */). Attribute references: bare names in unary
/// contexts; `l.name` / `r.name` (or bare, when unambiguous) in join
/// predicates; positional `#i` (unary) and `l.i` / `r.i`.
///
/// Statement grammar:
///
///   program    := stmt {';' stmt} [';']
///   stmt       := name ':=' relexpr
///               | 'insert' '(' name ',' relexpr ')'
///               | 'delete' '(' name ',' relexpr ')'
///               | 'update' '(' name ',' pred ',' name ':=' scalar
///                              {',' name ':=' scalar} ')'
///               | 'alarm'  '(' relexpr [',' string] ')'
///               | 'abort'  ['(' string ')']
///
/// A transaction is a program optionally enclosed in `begin` ... `end`.
class AlgebraParser {
 public:
  /// `db_schema` must outlive the parser; it resolves base relation names
  /// and attribute names.
  explicit AlgebraParser(const DatabaseSchema* db_schema)
      : db_schema_(db_schema) {}

  /// Parses a statement sequence. Temporaries defined by `t := E` become
  /// visible to subsequent statements of the same program.
  Result<Program> ParseProgram(const std::string& text);

  /// Parses a single relational expression (no temporaries in scope).
  Result<RelExprPtr> ParseExpression(const std::string& text);

  /// Parses a program optionally enclosed in begin/end brackets.
  Result<Transaction> ParseTransaction(const std::string& text);

 private:
  const DatabaseSchema* db_schema_;
  std::map<std::string, RelationSchema> temp_schemas_;
};

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_PARSER_H_
