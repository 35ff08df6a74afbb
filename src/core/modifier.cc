#include "src/core/modifier.h"

#include "src/common/str_util.h"

namespace txmod::core {

using algebra::Program;
using algebra::Transaction;
using rules::TriggerSet;

namespace {

/// One fixpoint round: the integrity programs triggered by `trigger_set`,
/// in definition order (SelPS of Algorithm 6.2). The programs are kept
/// separate so each retains its own non-triggering flag for the next
/// round's GetTrigPX.
std::vector<const IntegrityProgram*> SelPS(const TriggerSet& trigger_set,
                                           const CompiledRuleSet& rules) {
  std::vector<const IntegrityProgram*> selected;
  for (const IntegrityProgram& p : rules.programs()) {
    if (p.triggers.Intersects(trigger_set)) selected.push_back(&p);
  }
  return selected;
}

TriggerSet TriggersOfRound(
    const std::vector<const IntegrityProgram*>& round) {
  TriggerSet out;
  for (const IntegrityProgram* p : round) {
    out.UnionWith(rules::GetTrigPX(p->program));
  }
  return out;
}

}  // namespace

Result<Transaction> ModifyTransaction(const Transaction& txn,
                                      const CompiledRuleSet& rules,
                                      ModifyStats* stats) {
  Transaction out = txn;
  // ModP unrolled as a worklist: round 0 is the user program; round i+1 is
  // the concatenation of the programs triggered by round i.
  TriggerSet pending = rules::GetTrigP(txn.program);
  int depth = 0;
  while (!pending.empty()) {
    std::vector<const IntegrityProgram*> round = SelPS(pending, rules);
    if (round.empty()) break;
    if (++depth > kMaxModificationRounds) {
      return Status::FailedPrecondition(
          StrCat("transaction modification did not terminate within ",
                 kMaxModificationRounds,
                 " rounds; the rule set triggers itself indefinitely "
                 "(Section 6.1: semantically incorrect rule set)"));
    }
    for (const IntegrityProgram* p : round) {
      out.program = Program::Concat(std::move(out.program), p->program);
      if (stats != nullptr) {
        ++stats->programs_appended;
        stats->statements_added +=
            static_cast<int>(p->program.statements.size());
      }
    }
    if (stats != nullptr) stats->rounds = depth;
    pending = TriggersOfRound(round);
  }
  return out;
}

Result<Transaction> ModifyTransactionImmediate(const Transaction& txn,
                                               const CompiledRuleSet& rules,
                                               ModifyStats* stats) {
  Transaction out;
  out.label = txn.label;
  for (const algebra::Statement& stmt : txn.program.statements) {
    out.program.statements.push_back(stmt);
    // Fixpoint over the checks triggered by this one statement.
    TriggerSet pending = rules::GetTrigS(stmt);
    int depth = 0;
    while (!pending.empty()) {
      std::vector<const IntegrityProgram*> round = SelPS(pending, rules);
      if (round.empty()) break;
      if (++depth > kMaxModificationRounds) {
        return Status::FailedPrecondition(
            StrCat("transaction modification did not terminate within ",
                   kMaxModificationRounds, " rounds (immediate placement)"));
      }
      for (const IntegrityProgram* p : round) {
        out.program = Program::Concat(std::move(out.program), p->program);
        if (stats != nullptr) {
          ++stats->programs_appended;
          stats->statements_added +=
              static_cast<int>(p->program.statements.size());
        }
      }
      if (stats != nullptr) stats->rounds = std::max(stats->rounds, depth);
      pending = TriggersOfRound(round);
    }
  }
  return out;
}

Result<Transaction> ModifyTransactionDynamic(
    const Transaction& txn, const std::vector<rules::IntegrityRule>& rules,
    const DatabaseSchema& schema, OptimizationLevel level,
    ModifyStats* stats) {
  // The literal Algorithm 5.1: SelRS selects *rules*, and TrOptRS
  // optimizes + translates them on every modification round.
  Transaction out = txn;
  TriggerSet pending = rules::GetTrigP(txn.program);
  int depth = 0;
  while (!pending.empty()) {
    std::vector<const rules::IntegrityRule*> selected;
    for (const rules::IntegrityRule& rule : rules) {
      if (rule.triggers.Intersects(pending)) selected.push_back(&rule);
    }
    if (selected.empty()) break;
    if (++depth > kMaxModificationRounds) {
      return Status::FailedPrecondition(
          StrCat("transaction modification did not terminate within ",
                 kMaxModificationRounds, " rounds"));
    }
    TriggerSet next;
    for (const rules::IntegrityRule* rule : selected) {
      // TrOptRS: TransR(OptR(rule)) at enforcement time.
      TXMOD_ASSIGN_OR_RETURN(IntegrityProgram compiled,
                             GetIntP(*rule, schema, level));
      next.UnionWith(rules::GetTrigPX(compiled.program));
      out.program =
          Program::Concat(std::move(out.program), std::move(compiled.program));
      if (stats != nullptr) ++stats->programs_appended;
    }
    if (stats != nullptr) stats->rounds = depth;
    pending = std::move(next);
  }
  return out;
}

}  // namespace txmod::core
