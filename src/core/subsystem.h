#ifndef TXMOD_CORE_SUBSYSTEM_H_
#define TXMOD_CORE_SUBSYSTEM_H_

#include <map>
#include <string>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/core/modifier.h"
#include "src/core/triggering_graph.h"
#include "src/relational/database.h"
#include "src/txn/executor.h"

namespace txmod::core {

/// When the appended integrity programs run relative to the user's
/// statements (see ModifyTransactionImmediate for the semantics).
enum class CheckPlacement {
  /// The paper's ModP: checks run after the whole user program
  /// (Definition 2.6 gives intermediate states no semantics).
  kDeferred,
  /// SQL-IMMEDIATE-style: checks run directly after each triggering
  /// statement. Stricter — self-repairing transactions abort.
  kImmediate,
};

/// Configuration of the integrity control subsystem.
struct SubsystemOptions {
  OptimizationLevel optimization = OptimizationLevel::kDifferential;
  CheckPlacement placement = CheckPlacement::kDeferred;
  TranslateOptions translate;
  ModifierOptions modifier;
  /// Reject rule definitions that make the triggering graph cyclic
  /// (Section 6.1). Cycles cut by NONTRIGGERING actions are fine. With
  /// this off, the modifier's depth cap is the only protection.
  bool reject_cyclic_rule_sets = true;
};

/// The transaction modification subsystem: the public facade tying
/// together rule definition (RL), compilation to integrity programs
/// (Section 6.2), triggering-graph validation (Section 6.1), transaction
/// modification (Algorithm 6.2), and execution with full atomicity.
///
/// Typical use:
///
///   Database db;                       // create relations...
///   IntegritySubsystem ics(&db);
///   ics.DefineConstraint("domain", "forall x (x in beer implies "
///                                  "x.alcohol >= 0)");
///   ics.DefineRule("ref", "WHEN INS(beer), DEL(brewery) IF NOT ... "
///                         "THEN ...");
///   auto result = ics.ExecuteText("insert(beer, {(\"x\",...)});");
///
/// The subsystem guarantees: a transaction executed through Execute /
/// ExecuteText either commits a database state satisfying every defined
/// constraint, or aborts leaving the database unchanged.
class IntegritySubsystem {
 public:
  explicit IntegritySubsystem(Database* db, SubsystemOptions options = {});

  /// Defines a purely declarative constraint (Section 4: "if integrity
  /// control is to be performed in a default way ... the specification of
  /// integrity constraints is sufficient and rules can be derived
  /// automatically"): the constraint becomes an aborting rule with a
  /// generated trigger set.
  Status DefineConstraint(const std::string& name,
                          const std::string& cl_text);

  /// Defines a full RL integrity rule: WHEN ... IF NOT ... THEN ....
  Status DefineRule(const std::string& name, const std::string& rl_text);

  /// Defines a programmatically constructed rule. Needed when the action
  /// uses algebra constructs outside the textual syntax (e.g. grouped
  /// aggregates for materialized view maintenance, Section 7). The
  /// condition must already be analyzed against this database's schema.
  Status DefineRule(rules::IntegrityRule rule);

  Status DropRule(const std::string& name);

  const std::vector<rules::IntegrityRule>& rules() const { return rules_; }
  const CompiledRuleSet& compiled() const { return compiled_; }
  const TriggeringGraph& graph() const { return graph_; }

  /// The physical plans of every compiled integrity-check expression,
  /// compiled once at rule-definition time. Execute() and the transaction
  /// manager's sessions run transactions against this cache, so
  /// enforcement never recompiles a check; the user's own statements
  /// compile when they run. Index declarations (Relation::IndexOn) are
  /// derived from the plans' IndexRequests — operator choice and index
  /// choice live in the plan layer, not here. Defining or dropping a rule
  /// rebuilds the cache: quiesce concurrent sessions first.
  const algebra::PlanCache& plan_cache() const { return plan_cache_; }

  /// Explain() dumps of every compiled check plan, keyed by the check
  /// statement's textual form. Diagnostics; tests pin plan choices on it.
  std::map<std::string, std::string> ExplainPlans() const;
  Database* database() { return db_; }
  const SubsystemOptions& options() const { return options_; }

  /// ModT: the modified transaction (Algorithm 6.2), guaranteed correct.
  Result<algebra::Transaction> Modify(const algebra::Transaction& txn,
                                      ModifyStats* stats = nullptr) const;

  /// Modify + execute with atomicity.
  Result<txn::TxnResult> Execute(const algebra::Transaction& txn);

  /// Parses the textual transaction (begin ... end optional), then
  /// Execute.
  Result<txn::TxnResult> ExecuteText(const std::string& txn_text);

  /// Executes WITHOUT modification (no integrity control). Used by
  /// baselines and benches; never by production callers.
  Result<txn::TxnResult> ExecuteUnchecked(const algebra::Transaction& txn);

  /// Diagnostics for explicitly specified trigger sets: one message per
  /// rule whose WHEN clause misses a trigger GenTrigC derives from its
  /// condition (enforcement gaps the designer may not have intended).
  std::vector<std::string> ValidateRuleTriggers() const;

 private:
  Status AddRule(rules::IntegrityRule rule);
  Status Recompile();

  Database* db_;
  SubsystemOptions options_;
  std::vector<rules::IntegrityRule> rules_;
  CompiledRuleSet compiled_;
  TriggeringGraph graph_;
  algebra::PlanCache plan_cache_;
};

}  // namespace txmod::core

#endif  // TXMOD_CORE_SUBSYSTEM_H_
