#include "src/txn/executor.h"

#include <set>

#include "src/algebra/evaluator.h"
#include "src/common/str_util.h"
#include "src/parallel/thread_pool.h"

namespace txmod::txn {

using algebra::EvaluateRelExpr;
using algebra::Statement;
using algebra::StatementKind;

namespace {

/// Evaluates a statement's expression against `eval_ctx`: an integrity
/// check runs on the plan `cache` pinned for it at rule-definition time
/// (a plan-cache hit); any other statement compiles its own tree now (a
/// miss).
Result<Relation> EvalStatementExpr(const Statement& stmt,
                                   const algebra::PlanCache* cache,
                                   const algebra::EvalContext& eval_ctx,
                                   algebra::EvalStats* stats) {
  if (cache != nullptr) {
    if (const algebra::PhysicalPlan* plan = cache->Lookup(stmt.expr.get())) {
      ++stats->plan_cache_hits;
      return plan->Execute(eval_ctx, stats);
    }
  }
  ++stats->plan_cache_misses;
  return EvaluateRelExpr(*stmt.expr, eval_ctx, stats);
}

Result<Relation> EvalStatementExpr(const Statement& stmt, TxnContext* ctx,
                                   TxnResult* result) {
  return EvalStatementExpr(stmt, ctx->plan_cache(), *ctx, &result->stats);
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

// ---------------------------------------------------------------------------
// Parallel integrity-check runs.
//
// Compiled integrity programs are alarm-only (TransC emits one alarm per
// rule; the transaction modifier appends triggered programs back to
// back), so a modified transaction ends in a run of consecutive alarm
// statements — independent, read-only checks over the same intermediate
// state. When the context carries a check pool, such runs evaluate
// concurrently, one task per alarm, each through its own proxy context;
// the results fold back serially in statement order so the abort
// decision, abort message, statement counters, and optimistic read set
// are byte-identical to serial execution.
// ---------------------------------------------------------------------------

/// EvalContext proxy for one concurrent check task. Resolution goes
/// straight to the parent context, which only looks state up (old(R),
/// dplus(R) and dminus(R) are the written relations' overlay levels), so
/// tasks resolve concurrently without a lock. Base reads are recorded per
/// task and merged later in statement order, keeping the optimistic
/// footprint identical to serial execution.
class CheckTaskContext : public algebra::EvalContext {
 public:
  CheckTaskContext(const TxnContext* parent, std::set<std::string>* reads)
      : parent_(parent), reads_(reads) {}

  Result<const Relation*> Resolve(algebra::RelRefKind kind,
                                  const std::string& name) const override {
    if (kind == algebra::RelRefKind::kBase ||
        kind == algebra::RelRefKind::kOld) {
      reads_->insert(name);
    }
    return parent_->ResolveUnrecorded(kind, name);
  }

  Result<const Relation*> ResolveSchemaOnly(
      algebra::RelRefKind kind, const std::string& name) const override {
    return parent_->ResolveSchemaOnly(kind, name);
  }

 private:
  const TxnContext* parent_;
  std::set<std::string>* reads_;
};

/// One check task's outcome: the alarm's verdict plus the evaluation
/// work and reads it performed, folded into the transaction serially.
struct CheckOutcome {
  Status status;
  algebra::EvalStats stats;
  std::set<std::string> reads;
};

/// Evaluates one alarm statement against `eval_ctx` (same abort message
/// as ExecuteAlarm). The PlanCache is only read after rule definition, so
/// tasks share it without a lock.
Status EvalAlarmTask(const Statement& stmt, const algebra::PlanCache* cache,
                     const algebra::EvalContext& eval_ctx,
                     algebra::EvalStats* stats) {
  Result<Relation> value = EvalStatementExpr(stmt, cache, eval_ctx, stats);
  if (!value.ok()) return value.status();
  if (value->empty()) return Status::OK();  // Definition 5.1: no effect
  std::string reason = stmt.message.empty()
                           ? StrCat("alarm raised: ", stmt.expr->ToString(),
                                    " is non-empty (", value->size(),
                                    " tuple(s))")
                           : stmt.message;
  return Status::Aborted(std::move(reason));
}

/// Runs alarm statements [begin, end) of `stmts` concurrently on the
/// context's check pool, one task per alarm on its own work queue (idle
/// workers steal across queues). Outcomes are written into disjoint
/// slots; the caller folds them in statement order.
void RunChecksParallel(const std::vector<Statement>& stmts,
                       std::size_t begin, std::size_t end, TxnContext* ctx,
                       std::vector<CheckOutcome>* outcomes) {
  parallel::PhasePlan plan;
  plan.queues.resize(end - begin);
  for (std::size_t k = 0; k < end - begin; ++k) {
    const Statement* stmt = &stmts[begin + k];
    CheckOutcome* out = &(*outcomes)[k];
    const algebra::PlanCache* cache = ctx->plan_cache();
    const TxnContext* parent = ctx;
    plan.queues[k].push_back([stmt, out, cache, parent] {
      CheckTaskContext eval_ctx(parent, &out->reads);
      out->status = EvalAlarmTask(*stmt, cache, eval_ctx, &out->stats);
    });
  }
  ctx->check_pool()->Run(std::move(plan));
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
  for (std::size_t i = 0; i < stmts.size();) {
    // A run of >= 2 consecutive alarms with a check pool available:
    // evaluate concurrently, fold serially.
    std::size_t run_end = i;
    if (ctx->check_pool() != nullptr) {
      while (run_end < stmts.size() &&
             stmts[run_end].kind == StatementKind::kAlarm) {
        ++run_end;
      }
    }
    if (run_end - i >= 2) {
      std::vector<CheckOutcome> outcomes(run_end - i);
      RunChecksParallel(stmts, i, run_end, ctx, &outcomes);
      Status run_status = Status::OK();
      std::size_t k = 0;
      for (; k < outcomes.size(); ++k) {
        // Merge in statement order, stopping at the first failing check:
        // its own work counts (the serial engine evaluated it too), later
        // tasks' work and reads are discarded — serial execution never
        // reached them.
        result.stats.Add(outcomes[k].stats);
        for (const std::string& r : outcomes[k].reads) {
          ctx->RecordBaseRead(r);
        }
        if (!outcomes[k].status.ok()) {
          run_status = outcomes[k].status;
          break;
        }
        ++result.statements_executed;
      }
      if (!run_status.ok()) {
        ctx->Rollback();
        if (run_status.code() == StatusCode::kAborted) {
          result.committed = false;
          result.abort_reason = run_status.message();
          result.aborting_statement = static_cast<int>(i + k);
          return result;
        }
        return run_status;
      }
      i = run_end;
      continue;
    }
    const Status st = ExecuteStatement(stmts[i], ctx, &result);
    if (st.ok()) {
      ++result.statements_executed;
      ++i;
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
