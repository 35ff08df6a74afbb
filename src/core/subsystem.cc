#include "src/core/subsystem.h"

#include "src/algebra/parser.h"
#include "src/calculus/parser.h"
#include "src/common/str_util.h"
#include "src/rules/rule_parser.h"
#include "src/rules/trigger_gen.h"

namespace txmod::core {

namespace {

/// Declares the persistent equi-key indexes a compiled check plan asked
/// for (PhysicalPlan::IndexRequests): hash-join build sides, projection-
/// difference membership sides, and — for the delete-heavy differential
/// shapes — index-lookup probe sides. Declared once at rule definition
/// time (the paper's Section 6.2 point: pay at definition time, not at
/// enforcement time); Relation::Insert/Erase keep them coherent
/// afterwards. Dropping a rule does not retract a declaration — an index
/// another rule may still use is cheap to keep and expensive to guess
/// about.
void DeclarePlanIndexes(const algebra::PhysicalPlan& plan, Database* db) {
  for (algebra::PhysicalPlan::IndexRequest& req : plan.IndexRequests()) {
    Result<Relation*> rel = db->FindMutable(req.relation);
    if (rel.ok()) (*rel)->IndexOn(std::move(req.attrs));
  }
}

}  // namespace

IntegritySubsystem::IntegritySubsystem(Database* db, SubsystemOptions options)
    : db_(db), options_(std::move(options)) {}

Status IntegritySubsystem::DefineConstraint(const std::string& name,
                                            const std::string& cl_text) {
  rules::IntegrityRule rule;
  rule.name = name;
  rule.source_text = cl_text;
  TXMOD_ASSIGN_OR_RETURN(calculus::Formula raw,
                         calculus::ParseFormula(cl_text));
  TXMOD_ASSIGN_OR_RETURN(rule.condition,
                         calculus::AnalyzeFormula(raw, db_->schema()));
  rule.triggers = rules::GenTrigC(rule.condition.formula);
  rule.triggers_were_generated = true;
  if (rule.triggers.empty()) {
    return Status::InvalidArgument(
        StrCat("constraint ", name,
               ": no update type can violate this condition; nothing to "
               "enforce"));
  }
  rule.action_kind = rules::ActionKind::kAbort;
  return AddRule(std::move(rule));
}

Status IntegritySubsystem::DefineRule(const std::string& name,
                                      const std::string& rl_text) {
  TXMOD_ASSIGN_OR_RETURN(rules::IntegrityRule rule,
                         rules::ParseRule(name, rl_text, db_->schema()));
  return AddRule(std::move(rule));
}

Status IntegritySubsystem::DefineRule(rules::IntegrityRule rule) {
  if (rule.name.empty()) {
    return Status::InvalidArgument("rule needs a name");
  }
  if (rule.triggers.empty()) {
    return Status::InvalidArgument(
        StrCat("rule ", rule.name, " has an empty trigger set"));
  }
  return AddRule(std::move(rule));
}

Status IntegritySubsystem::AddRule(rules::IntegrityRule rule) {
  for (const rules::IntegrityRule& existing : rules_) {
    if (existing.name == rule.name) {
      return Status::AlreadyExists(
          StrCat("rule ", rule.name, " already defined"));
    }
  }
  rules_.push_back(std::move(rule));
  const Status compile_status = Recompile();
  if (!compile_status.ok()) {
    rules_.pop_back();  // reject the definition, restore the catalog
    const Status restore = Recompile();
    if (!restore.ok()) return restore;
    return compile_status;
  }
  return Status::OK();
}

Status IntegritySubsystem::DropRule(const std::string& name) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->name == name) {
      rules_.erase(it);
      return Recompile();
    }
  }
  return Status::NotFound(StrCat("rule ", name, " not defined"));
}

Status IntegritySubsystem::Recompile() {
  CompiledRuleSet compiled;
  for (const rules::IntegrityRule& rule : rules_) {
    TXMOD_ASSIGN_OR_RETURN(
        IntegrityProgram program,
        GetIntP(rule, db_->schema(), options_.optimization,
                options_.translate));
    compiled.Add(std::move(program));
  }
  TriggeringGraph graph = TriggeringGraph::Build(compiled);
  if (options_.reject_cyclic_rule_sets && graph.HasCycle()) {
    return Status::FailedPrecondition(graph.DescribeCycles());
  }
  // Compile every check expression to a physical plan now — enforcement
  // reuses these via the plan cache — and declare whatever indexes the
  // chosen operators want. Operator and index choice both live in the
  // plan layer; this loop only carries decisions out.
  algebra::PlanCache cache;
  for (const IntegrityProgram& program : compiled.programs()) {
    for (const algebra::Statement& stmt : program.program.statements) {
      if (stmt.expr == nullptr) continue;
      TXMOD_ASSIGN_OR_RETURN(const algebra::PhysicalPlan* plan,
                             cache.GetOrCompile(stmt.expr));
      DeclarePlanIndexes(*plan, db_);
    }
  }
  compiled_ = std::move(compiled);
  graph_ = std::move(graph);
  plan_cache_ = std::move(cache);
  return Status::OK();
}

Result<algebra::Transaction> IntegritySubsystem::Modify(
    const algebra::Transaction& txn, ModifyStats* stats) const {
  return ModifyTransaction(txn, compiled_, stats);
}

Result<txn::TxnResult> IntegritySubsystem::Execute(
    const algebra::Transaction& txn) {
  TXMOD_ASSIGN_OR_RETURN(algebra::Transaction modified, Modify(txn));
  // The appended check statements share their expression trees with the
  // compiled rule set, so they hit the definition-time plan cache.
  return txn::ExecuteTransaction(modified, db_, &plan_cache_);
}

Result<txn::TxnResult> IntegritySubsystem::ExecuteText(
    const std::string& txn_text) {
  algebra::AlgebraParser parser(&db_->schema());
  TXMOD_ASSIGN_OR_RETURN(algebra::Transaction txn,
                         parser.ParseTransaction(txn_text));
  return Execute(txn);
}

Result<txn::TxnResult> IntegritySubsystem::ExecuteUnchecked(
    const algebra::Transaction& txn) {
  return txn::ExecuteTransaction(txn, db_);
}

std::map<std::string, std::string> IntegritySubsystem::ExplainPlans() const {
  std::map<std::string, std::string> out;
  for (const IntegrityProgram& program : compiled_.programs()) {
    for (const algebra::Statement& stmt : program.program.statements) {
      if (stmt.expr == nullptr) continue;
      const algebra::PhysicalPlan* plan =
          plan_cache_.Lookup(stmt.expr.get());
      if (plan != nullptr) out.emplace(stmt.ToString(), plan->Explain());
    }
  }
  return out;
}

std::vector<std::string> IntegritySubsystem::ValidateRuleTriggers() const {
  std::vector<std::string> warnings;
  for (const rules::IntegrityRule& rule : rules_) {
    if (rule.triggers_were_generated) continue;
    const rules::TriggerSet generated = rules::GenTrigC(
        rule.condition.formula);
    std::vector<std::string> missing;
    for (const rules::Trigger& t : generated) {
      if (!rule.triggers.Contains(t)) missing.push_back(t.ToString());
    }
    if (!missing.empty()) {
      warnings.push_back(
          StrCat("rule ", rule.name, ": WHEN clause misses generated "
                 "trigger(s) ", Join(missing, ", "),
                 "; updates of these types will not be checked"));
    }
  }
  return warnings;
}

}  // namespace txmod::core
