#ifndef TXMOD_ALGEBRA_PHYSICAL_PLAN_H_
#define TXMOD_ALGEBRA_PHYSICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/eval_context.h"
#include "src/algebra/rel_expr.h"
#include "src/common/result.h"
#include "src/relational/relation.h"

namespace txmod::algebra {

/// Physical operator implementations a logical RelExpr node compiles to.
/// The compilation step (PhysicalPlan::Compile) chooses these once, in one
/// place; both execution engines — the serial pull-based pipeline and the
/// fragment-local parallel executor — then run the *same* operators.
enum class PhysOpKind {
  kScan,            // relation reference, resolved through the EvalContext
  kLiteral,         // explicit tuple list
  kSelect,          // streaming filter
  kProject,         // streaming projection
  kProduct,         // cartesian product (materialized right side)
  kHashJoin,        // join-like on equality conjuncts: build right, probe
                    // left; a declared index on the build side skips the
                    // build entirely
  kIndexLookupJoin, // join/semijoin whose probe side is a base relation
                    // and whose build side is differential-bounded: the
                    // small side drives lookups into the base relation's
                    // declared index, so the base side is never scanned
  kNestedLoopJoin,  // join-like without equality conjuncts
  kUnion,           // streamed concatenation (dedup at materialization)
  kHashSetOp,       // difference/intersect by membership in the
                    // materialized right side
  kIndexSetOp,      // difference/intersect against a pure attribute
                    // projection of an indexed relation: one index probe
                    // per left tuple, the projection never materializes
  kAggregate,       // scalar or grouped aggregation (pipeline breaker)
};

const char* PhysOpKindToString(PhysOpKind op);

/// One node of a compiled physical plan. `logical` points into the
/// RelExpr tree the plan was compiled from (predicates, projection items,
/// aggregate specs, and reference names are read from it); the plan —
/// or, for borrowing compiles, the caller — keeps that tree alive.
struct PhysicalNode {
  PhysOpKind op = PhysOpKind::kScan;
  const RelExpr* logical = nullptr;

  /// Equality-conjunct key attributes of join-like nodes, probe (left)
  /// and build (right) side, in predicate order.
  std::vector<int> left_keys;
  std::vector<int> right_keys;

  /// kIndexSetOp: the membership side — a projection of this reference
  /// onto these attributes.
  RelRefKind setop_ref_kind = RelRefKind::kBase;
  std::string setop_rel;
  std::vector<int> setop_attrs;

  std::vector<std::unique_ptr<PhysicalNode>> children;

  const PhysicalNode& child(std::size_t i) const { return *children[i]; }
};

/// A compiled physical plan: the operator tree plus the logical expression
/// it was compiled from. Compile once (at rule-definition time for
/// integrity checks, per statement otherwise), execute many times.
class PhysicalPlan {
 public:
  /// Borrowing compile: `expr` must outlive the plan.
  static Result<PhysicalPlan> Compile(const RelExpr& expr);
  /// Owning compile: the plan keeps the expression tree alive.
  static Result<PhysicalPlan> Compile(RelExprPtr expr);

  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  const PhysicalNode& root() const { return *root_; }

  /// Serial execution: runs the plan as a pull-based cursor pipeline
  /// against the relations supplied by `ctx`, materializing only at
  /// pipeline breakers and the final result. See EvaluateRelExpr
  /// (evaluator.h) for the operator and stats contracts. Indexes are
  /// resolved here, not at compile time: a plan probes an index declared
  /// after it was compiled.
  Result<Relation> Execute(const EvalContext& ctx,
                           EvalStats* stats = nullptr) const;

  /// Human-readable operator-tree dump, one node per line, children
  /// indented. Tests pin plan choices against this.
  std::string Explain() const;

  /// An index this plan wants declared on a base relation so its chosen
  /// operators hit their fast paths: hash-join build sides, index-set-op
  /// membership sides, and index-lookup-join probe sides.
  struct IndexRequest {
    std::string relation;
    std::vector<int> attrs;
  };

  /// Every index request of this plan, in plan order. The integrity
  /// subsystem declares these at rule-definition time — index choice
  /// falls out of plan compilation, not hand-coded shape matching.
  std::vector<IndexRequest> IndexRequests() const;

 private:
  PhysicalPlan() = default;

  RelExprPtr owned_;  // null for borrowing compiles
  std::unique_ptr<PhysicalNode> root_;
};

/// The fragment indexes an index form probes where they lie, in place of
/// a hash table built over a shipped operand — the parallel engine's
/// fragments declare the indexes the check plans request.
///
///  * kIndexLookupJoin: `views` holds one view, on the join's left keys,
///    of the node's own fragment of the base side (its overlay level when
///    the transaction wrote it). The kernel streams the delta side — the
///    plan's right child, shipped to the node — through the serial
///    engine's IndexLookupJoinCursor, so the base side is never scanned.
///  * kIndexSetOp: `views` holds a view, on the projected attributes, of
///    each fragment of the membership relation that can hold a member of
///    the node's left tuples — its own, or every one. The kernel streams
///    the left side through the serial engine's IndexedSetOpCursor, which
///    counts a tuple as a member when some view holds it; the membership
///    side never moves.
///
/// Views are read concurrently by every node's task of a phase (a node
/// may probe other nodes' fragments); nothing may write the fragments
/// while the phase runs.
struct FragmentProbe {
  std::vector<RelationIndexView> views;
  /// The probed relation's schema: a lookup join's output starts with it.
  std::shared_ptr<const RelationSchema> schema;
};

/// Executes the single operator `node` over already-materialized inputs —
/// the fragment-local kernel of the parallel engine, built from the same
/// cursors serial execution runs, so operator semantics cannot diverge
/// between the two engines. Children of `node` are NOT executed; the
/// caller supplies their (per-fragment) results. `input` is the streamed
/// side: the left operand, or for a kIndexLookupJoin with `probe` its
/// (shipped) right operand. `right` is the materialized right operand of
/// the hash forms and of a union (null for unary operators and for index
/// forms with `probe`). Without `probe`, the index forms run as their
/// hash equivalents over `right`. Thread-safe for concurrent calls on
/// disjoint outputs: inputs and probe views are only read.
Result<Relation> ExecuteNodeLocal(const PhysicalNode& node,
                                  const Relation& input,
                                  const Relation* right,
                                  EvalStats* stats = nullptr,
                                  const FragmentProbe* probe = nullptr);

/// Materializes a literal node (validates per-tuple arity, infers column
/// types). Shared by both engines.
Result<Relation> MaterializeLiteral(const RelExpr& e,
                                    EvalStats* stats = nullptr);

/// InvalidArgument naming the first tuple of literal `e` whose arity is
/// not the literal's.
Status CheckLiteralArity(const RelExpr& e);

/// Partial state of a scalar aggregate, mergeable across fragments: each
/// node accumulates locally, the coordinator merges and finalizes.
struct AggPartial {
  int64_t count = 0;
  int64_t non_null = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  bool any_double = false;
  bool saw_non_numeric = false;  // SUM/AVG over a non-numeric value
  std::optional<Value> min;
  std::optional<Value> max;

  /// Folds one attribute value in (pass func so SUM/AVG can flag
  /// non-numeric inputs; CNT callers use ObserveCount instead).
  void Observe(const Value& v, AggFunc func);
  void ObserveCount() { count += 1; }
  void Merge(const AggPartial& other);
};

/// Accumulates `node`'s scalar aggregate over one materialized input
/// (grouped aggregates are serial-only and rejected here).
Result<AggPartial> AggregateLocal(const PhysicalNode& node,
                                  const Relation& input,
                                  EvalStats* stats = nullptr);

/// Finalizes a (merged) partial into the aggregate's result value.
Result<Value> FinalizeAggregate(const AggPartial& acc, AggFunc func);

/// The integrity checks' definition-time plans (the paper's Section 6.2:
/// rule analysis is paid once, when a rule is defined). Keyed by the check
/// expression's pointer and filled once per rule-set recompile; entries
/// own their expression trees (RelExprPtr), so a key can never dangle or
/// be reused while cached. The modifier appends check statements that
/// share these trees, so ExecuteTransaction finds their plans by
/// identity and integrity checks never recompile. Every other statement
/// compiles its own tree when it runs: one CompileNode walk, which copies
/// no tuple, is cheaper than keying a cache on the statement's constants.
///
/// Concurrency: filled at rule-definition time (single-threaded, before
/// sessions run) and then only read, so Lookup() takes no lock. Rule
/// definition/drop — which rebuilds and moves the whole cache — must
/// therefore be quiesced against concurrent execution, the same contract
/// the transaction manager documents.
class PlanCache {
 public:
  /// The pinned plan for `expr`, compiling and inserting on first use.
  Result<const PhysicalPlan*> GetOrCompile(const RelExprPtr& expr);

  /// The pinned plan for `expr`, or nullptr (never compiles).
  const PhysicalPlan* Lookup(const RelExpr* expr) const;

  std::size_t size() const { return plans_.size(); }

 private:
  std::unordered_map<const RelExpr*, std::unique_ptr<PhysicalPlan>> plans_;
};

}  // namespace txmod::algebra

#endif  // TXMOD_ALGEBRA_PHYSICAL_PLAN_H_
