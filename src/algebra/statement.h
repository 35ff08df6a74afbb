#ifndef TXMOD_ALGEBRA_STATEMENT_H_
#define TXMOD_ALGEBRA_STATEMENT_H_

#include <string>
#include <vector>

#include "src/algebra/rel_expr.h"
#include "src/algebra/scalar_expr.h"

namespace txmod::algebra {

/// Kinds of extended relational algebra statements (Definition 2.4: the
/// extended algebra adds assignments, insert, delete, and update statements
/// to the standard algebra; Definition 5.1 adds the alarm statement used by
/// aborting integrity programs).
enum class StatementKind {
  kAssign,  // temp := E
  kInsert,  // insert(R, E)
  kDelete,  // delete(R, E)        (removes the tuples of E from R)
  kUpdate,  // update(R, pred, a1 := e1, ...)   (delete + insert semantics)
  kAlarm,   // alarm(E [, message])  aborts the transaction iff E non-empty
  kAbort,   // unconditional abort
};

/// One attribute assignment of an update statement.
struct UpdateSet {
  int attr = -1;          // target attribute index in the relation
  std::string attr_name;  // as written (printing)
  ScalarExpr expr;        // evaluated over the *old* tuple
};

/// A single extended relational algebra statement.
struct Statement {
  StatementKind kind = StatementKind::kAbort;
  std::string target;           // kAssign: temp name; kInsert/kDelete/kUpdate: relation
  RelExprPtr expr;              // kAssign/kInsert/kDelete source, kAlarm condition
  ScalarExpr predicate;         // kUpdate selection predicate
  std::vector<UpdateSet> sets;  // kUpdate assignments
  std::string message;          // kAlarm / kAbort reason text

  static Statement Assign(std::string temp, RelExprPtr e);
  static Statement Insert(std::string relation, RelExprPtr e);
  static Statement Delete(std::string relation, RelExprPtr e);
  static Statement Update(std::string relation, ScalarExpr predicate,
                          std::vector<UpdateSet> sets);
  static Statement Alarm(RelExprPtr e, std::string message = "");
  static Statement Abort(std::string message = "");

  /// kUpdate: `old_tuple` with every assignment applied (expressions
  /// over `old_tuple`); InvalidArgument for an out-of-range attribute.
  Result<Tuple> UpdatedTuple(const Tuple& old_tuple) const;

  std::string ToString() const;
};

/// An extended relational algebra program P = a1; ...; an (Definition 2.4).
/// The paper's program concatenation operator ⊕ is Concat; the empty
/// program P_epsilon is a default-constructed Program.
///
/// `non_triggering` implements Definition 6.2: a program flagged
/// non-triggering is skipped by trigger extraction (GetTrigPX), which cuts
/// edges out of the triggering graph.
struct Program {
  std::vector<Statement> statements;
  bool non_triggering = false;

  bool empty() const { return statements.empty(); }

  /// The ⊕ operator. The result is non-triggering only if both parts are.
  static Program Concat(Program a, Program b);

  /// Renders one statement per line, ';'-terminated.
  std::string ToString() const;
};

/// A transaction: a program enclosed in transaction brackets (Definition
/// 2.6). The debracketing operator ↓ is `program`; bracketing ↑ is the
/// constructor.
struct Transaction {
  Program program;
  std::string label;  // optional, diagnostics only

  std::string ToString() const;
};

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_STATEMENT_H_
