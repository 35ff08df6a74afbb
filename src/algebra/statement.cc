#include "src/algebra/statement.h"

#include "src/common/str_util.h"

namespace txmod::algebra {

Statement Statement::Assign(std::string temp, RelExprPtr e) {
  Statement s;
  s.kind = StatementKind::kAssign;
  s.target = std::move(temp);
  s.expr = std::move(e);
  return s;
}

Statement Statement::Insert(std::string relation, RelExprPtr e) {
  Statement s;
  s.kind = StatementKind::kInsert;
  s.target = std::move(relation);
  s.expr = std::move(e);
  return s;
}

Statement Statement::Delete(std::string relation, RelExprPtr e) {
  Statement s;
  s.kind = StatementKind::kDelete;
  s.target = std::move(relation);
  s.expr = std::move(e);
  return s;
}

Statement Statement::Update(std::string relation, ScalarExpr predicate,
                            std::vector<UpdateSet> sets) {
  Statement s;
  s.kind = StatementKind::kUpdate;
  s.target = std::move(relation);
  s.predicate = std::move(predicate);
  s.sets = std::move(sets);
  return s;
}

Result<Tuple> Statement::UpdatedTuple(const Tuple& old_tuple) const {
  Tuple out = old_tuple;
  for (const UpdateSet& u : sets) {
    TXMOD_ASSIGN_OR_RETURN(Value v, u.expr.EvalValue(&old_tuple, nullptr));
    if (u.attr < 0 || u.attr >= static_cast<int>(out.arity())) {
      return Status::InvalidArgument(StrCat("update of ", target,
                                            ": attribute #", u.attr,
                                            " out of range"));
    }
    out.at(static_cast<std::size_t>(u.attr)) = std::move(v);
  }
  return out;
}

Statement Statement::Alarm(RelExprPtr e, std::string message) {
  Statement s;
  s.kind = StatementKind::kAlarm;
  s.expr = std::move(e);
  s.message = std::move(message);
  return s;
}

Statement Statement::Abort(std::string message) {
  Statement s;
  s.kind = StatementKind::kAbort;
  s.message = std::move(message);
  return s;
}

std::string Statement::ToString() const {
  switch (kind) {
    case StatementKind::kAssign:
      return StrCat(target, " := ", expr->ToString());
    case StatementKind::kInsert:
      return StrCat("insert(", target, ", ", expr->ToString(), ")");
    case StatementKind::kDelete:
      return StrCat("delete(", target, ", ", expr->ToString(), ")");
    case StatementKind::kUpdate: {
      std::vector<std::string> parts;
      for (const UpdateSet& u : sets) {
        const std::string name =
            u.attr_name.empty() ? StrCat("#", u.attr) : u.attr_name;
        parts.push_back(StrCat(name, " := ", u.expr.ToString()));
      }
      return StrCat("update(", target, ", ", predicate.ToString(), ", ",
                    Join(parts, ", "), ")");
    }
    case StatementKind::kAlarm:
      if (message.empty()) return StrCat("alarm(", expr->ToString(), ")");
      return StrCat("alarm(", expr->ToString(), ", \"", message, "\")");
    case StatementKind::kAbort:
      if (message.empty()) return "abort";
      return StrCat("abort(\"", message, "\")");
  }
  return "?";
}

Program Program::Concat(Program a, Program b) {
  Program out;
  out.non_triggering = a.non_triggering && b.non_triggering;
  out.statements = std::move(a.statements);
  out.statements.insert(out.statements.end(),
                        std::make_move_iterator(b.statements.begin()),
                        std::make_move_iterator(b.statements.end()));
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Statement& s : statements) {
    out += s.ToString();
    out += ";\n";
  }
  return out;
}

std::string Transaction::ToString() const {
  std::string out = "begin\n";
  for (const Statement& s : program.statements) {
    out += "  ";
    out += s.ToString();
    out += ";\n";
  }
  out += "end\n";
  return out;
}

}  // namespace txmod::algebra
