#include "src/txn/executor.h"

#include "src/algebra/evaluator.h"
#include "src/common/str_util.h"

namespace txmod::txn {

using algebra::EvaluateRelExpr;
using algebra::Statement;
using algebra::StatementKind;

namespace {

/// Evaluates a statement's expression against `ctx`: an integrity check
/// runs on the plan the context's cache pinned for it at rule-definition
/// time (a plan-cache hit); any other statement compiles its own tree now
/// (a miss).
Result<Relation> EvalStatementExpr(const Statement& stmt, TxnContext* ctx,
                                   TxnResult* result) {
  algebra::EvalStats* stats = &result->stats;
  if (const algebra::PlanCache* cache = ctx->plan_cache()) {
    if (const algebra::PhysicalPlan* plan = cache->Lookup(stmt.expr.get())) {
      ++stats->plan_cache_hits;
      return plan->Execute(*ctx, stats);
    }
  }
  ++stats->plan_cache_misses;
  return EvaluateRelExpr(*stmt.expr, *ctx, stats);
}

Status ExecuteAssign(const Statement& stmt, TxnContext* ctx,
                     TxnResult* result) {
  TXMOD_ASSIGN_OR_RETURN(Relation value,
                         EvalStatementExpr(stmt, ctx, result));
  ctx->SetTemp(stmt.target, std::move(value));
  return Status::OK();
}

/// Calls `write` on each row of an insert's or delete's source. A
/// literal without a pinned plan hands over its own rows, with no
/// temporary relation between them and the level; it counts as the
/// compiled literal would: a plan-cache miss, one operator, its rows
/// emitted.
template <typename Write>
Status ForEachSourceRow(const Statement& stmt, TxnContext* ctx,
                        TxnResult* result, Write&& write) {
  const algebra::RelExpr& e = *stmt.expr;
  const algebra::PlanCache* cache = ctx->plan_cache();
  if (e.kind() == algebra::RelExprKind::kLiteral &&
      (cache == nullptr || cache->Lookup(&e) == nullptr)) {
    TXMOD_RETURN_IF_ERROR(algebra::CheckLiteralArity(e));
    ++result->stats.plan_cache_misses;
    ++result->stats.operators;
    result->stats.tuples_emitted += e.literal_tuples().size();
    for (const Tuple& t : e.literal_tuples()) {
      TXMOD_RETURN_IF_ERROR(write(t));
    }
    return Status::OK();
  }
  TXMOD_ASSIGN_OR_RETURN(Relation value,
                         EvalStatementExpr(stmt, ctx, result));
  for (const Tuple& t : value) TXMOD_RETURN_IF_ERROR(write(t));
  return Status::OK();
}

Status ExecuteInsert(const Statement& stmt, TxnContext* ctx,
                     TxnResult* result) {
  return ForEachSourceRow(stmt, ctx, result, [&](const Tuple& t) -> Status {
    // The row's one copy, which the level keeps.
    TXMOD_ASSIGN_OR_RETURN(bool inserted, ctx->InsertTuple(stmt.target, t));
    if (inserted) ++result->tuples_inserted;
    return Status::OK();
  });
}

Status ExecuteDelete(const Statement& stmt, TxnContext* ctx,
                     TxnResult* result) {
  return ForEachSourceRow(stmt, ctx, result, [&](const Tuple& t) -> Status {
    TXMOD_ASSIGN_OR_RETURN(bool deleted, ctx->DeleteTuple(stmt.target, t));
    if (deleted) ++result->tuples_deleted;
    return Status::OK();
  });
}

Status ExecuteUpdate(const Statement& stmt, TxnContext* ctx,
                     TxnResult* result) {
  // update(R, θ, f) is delete-plus-insert (Definition 4.5 maps it to
  // {INS(R), DEL(R)}): R' = (R − σθ(R)) ∪ f(σθ(R)). Every new tuple is
  // computed before anything is written, so an evaluation error writes
  // nothing; every selected tuple is deleted before any new one is
  // inserted, so a new tuple equal to a selected one stays.
  TXMOD_ASSIGN_OR_RETURN(const Relation* rel,
                         ctx->Resolve(algebra::RelRefKind::kBase,
                                      stmt.target));
  std::vector<Tuple> selected;
  for (const Tuple& t : *rel) {
    TXMOD_ASSIGN_OR_RETURN(bool match,
                           stmt.predicate.EvalPredicate(&t, nullptr));
    if (match) selected.push_back(t);
  }
  result->stats.tuples_scanned += rel->size();
  std::vector<Tuple> updated;
  updated.reserve(selected.size());
  for (const Tuple& old_tuple : selected) {
    TXMOD_ASSIGN_OR_RETURN(Tuple new_tuple, stmt.UpdatedTuple(old_tuple));
    updated.push_back(std::move(new_tuple));
  }
  for (const Tuple& old_tuple : selected) {
    TXMOD_ASSIGN_OR_RETURN(bool deleted,
                           ctx->DeleteTuple(stmt.target, old_tuple));
    if (deleted) ++result->tuples_deleted;
  }
  for (Tuple& new_tuple : updated) {
    TXMOD_ASSIGN_OR_RETURN(bool inserted,
                           ctx->InsertTuple(stmt.target, std::move(new_tuple)));
    if (inserted) ++result->tuples_inserted;
  }
  return Status::OK();
}

Status ExecuteAlarm(const Statement& stmt, TxnContext* ctx,
                    TxnResult* result) {
  TXMOD_ASSIGN_OR_RETURN(Relation value,
                         EvalStatementExpr(stmt, ctx, result));
  if (value.empty()) return Status::OK();  // Definition 5.1: no effect
  std::string reason = stmt.message.empty()
                           ? StrCat("alarm raised: ", stmt.expr->ToString(),
                                    " is non-empty (", value.size(),
                                    " tuple(s))")
                           : stmt.message;
  return Status::Aborted(std::move(reason));
}

}  // namespace

Status ExecuteStatement(const Statement& stmt, TxnContext* ctx,
                        TxnResult* result) {
  switch (stmt.kind) {
    case StatementKind::kAssign:
      return ExecuteAssign(stmt, ctx, result);
    case StatementKind::kInsert:
      return ExecuteInsert(stmt, ctx, result);
    case StatementKind::kDelete:
      return ExecuteDelete(stmt, ctx, result);
    case StatementKind::kUpdate:
      return ExecuteUpdate(stmt, ctx, result);
    case StatementKind::kAlarm:
      return ExecuteAlarm(stmt, ctx, result);
    case StatementKind::kAbort:
      return Status::Aborted(stmt.message.empty() ? "abort statement"
                                                  : stmt.message);
  }
  return Status::Internal("unknown statement kind");
}

Result<TxnResult> ExecuteProgram(const algebra::Transaction& txn,
                                 TxnContext* ctx) {
  TxnResult result;
  const std::vector<Statement>& stmts = txn.program.statements;
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Status st = ExecuteStatement(stmts[i], ctx, &result);
    if (st.ok()) {
      ++result.statements_executed;
      continue;
    }
    ctx->Rollback();
    if (st.code() == StatusCode::kAborted) {
      result.committed = false;
      result.abort_reason = st.message();
      result.aborting_statement = static_cast<int>(i);
      return result;
    }
    return st;  // malformed program: error out (state already restored)
  }
  result.committed = true;  // ran to completion; caller commits
  return result;
}

Result<TxnResult> ExecuteTransaction(const algebra::Transaction& txn,
                                     Database* db,
                                     const algebra::PlanCache* plan_cache) {
  // The single-session fast path: execute and commit in one step. A
  // TxnManager session runs the same ExecuteProgram against a snapshot
  // and defers the commit decision to first-committer-wins validation.
  TxnContext ctx(db);
  ctx.set_plan_cache(plan_cache);
  TXMOD_ASSIGN_OR_RETURN(TxnResult result, ExecuteProgram(txn, &ctx));
  if (result.committed) {
    ctx.Commit();
    result.commit_version = db->logical_time();
    result.installed = true;
  }
  return result;
}

}  // namespace txmod::txn
