#ifndef TXMOD_CORE_MODIFIER_H_
#define TXMOD_CORE_MODIFIER_H_

#include <vector>

#include "src/algebra/statement.h"
#include "src/core/integrity_program.h"

namespace txmod::core {

/// Cap on the fixpoint rounds of one modification: a rule set whose
/// triggering graph has been validated acyclic terminates long before
/// this; the cap protects against semantically incorrect rule sets
/// (Section 6.1: a rule set that inherently implies infinite triggering
/// "has to be considered semantically incorrect"). Past it, the Modify*
/// functions return FailedPrecondition.
inline constexpr int kMaxModificationRounds = 64;

/// Statistics of one modification (E6 bench, diagnostics).
struct ModifyStats {
  int rounds = 0;              // fixpoint iterations (recursion depth)
  int programs_appended = 0;   // triggered integrity programs concatenated
  int statements_added = 0;    // statements appended to the transaction
};

/// ModT over compiled integrity programs (Algorithm 6.2, the static-
/// compilation production path): extends `txn` with every integrity
/// program it triggers, recursively, until the appended programs trigger
/// nothing further:
///
///   ModT(T, K) = (ModP(T↓, K))↑
///   ModP(P, K) = P                          if TrigP(P, K) = P_ε
///                P ⊕ ModP(TrigP(P, K), K)   otherwise
///   TrigP(P, K) = ConcatP(SelPS(P, K)),
///   SelPS(P, K) = { K ∈ K | triggers(K) ∩ GetTrigPX(P) ≠ ∅ }
///
/// Programs are selected in rule-definition order. Per-program
/// non-triggering flags are honoured (GetTrigPX, Definition 6.2): the
/// trigger extraction of an appended round considers each appended
/// integrity program separately, so one rule's non-triggering action never
/// masks (or leaks into) another's.
Result<algebra::Transaction> ModifyTransaction(
    const algebra::Transaction& txn, const CompiledRuleSet& rules,
    ModifyStats* stats = nullptr);

/// ModT in the literal Algorithm 5.1 form (the dynamic path): integrity
/// rules are optimized and translated *at modification time* via
/// TrOptRS(SelRS(...)). Functionally identical to the static path; kept
/// for the Section 6.2 ablation (bench E6).
Result<algebra::Transaction> ModifyTransactionDynamic(
    const algebra::Transaction& txn,
    const std::vector<rules::IntegrityRule>& rules,
    const DatabaseSchema& schema, OptimizationLevel level,
    ModifyStats* stats = nullptr);

/// ModT with *immediate* check placement (design-space ablation; the
/// paper's ModP appends all checks after the whole program).
///
/// The integrity programs triggered by each statement are placed directly
/// after that statement, recursively. This is SQL's IMMEDIATE constraint
/// timing, against the paper's DEFERRED timing, and it is deliberately
/// *stricter*, not equivalent: checks observe intermediate states, which
/// Definition 2.6 gives no semantics — a transaction that violates
/// mid-way and repairs itself before the end (e.g. delete a referenced
/// key, then re-insert it) commits under deferred placement but aborts
/// under immediate placement. In exchange, a genuinely violating
/// transaction aborts at the first offending statement rather than after
/// executing everything (bench_modification's detection-latency series).
Result<algebra::Transaction> ModifyTransactionImmediate(
    const algebra::Transaction& txn, const CompiledRuleSet& rules,
    ModifyStats* stats = nullptr);

}  // namespace txmod::core

#endif  // TXMOD_CORE_MODIFIER_H_
