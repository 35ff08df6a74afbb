#ifndef TXMOD_TXN_TXN_CONTEXT_H_
#define TXMOD_TXN_TXN_CONTEXT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/eval_context.h"
#include "src/algebra/physical_plan.h"
#include "src/common/result.h"
#include "src/relational/database.h"

namespace txmod::txn {

/// Transaction-local execution state over a Database: the intermediate
/// states D^{t,i} of Definition 2.6. The first write to a relation R
/// installs a fresh overlay level over R's pre-transaction state
/// (Database::PushLevel), and every later write goes to that level. The
/// level is the transaction's one differential:
///  1. its local inserts and deletes are the paper's *auxiliary
///     relations* dplus(R) / dminus(R) (Section 4.1), read zero-copy;
///  2. they drive the differential optimization of rule conditions
///     (Section 5.2.1, references [18, 5, 7]);
///  3. its base is old(R), O(1);
///  4. it is the *undo log* that implements atomicity (Section 2.2:
///     T(D) = [D^{t,n}] or T(D) = D): rollback re-installs the
///     pre-transaction state pointer, O(1);
///  5. under conflict tracking, it is the *write footprint* that commit
///     validation probes: its inserts and deletes hold every write that
///     took effect, so the context records beside it only the attempts
///     the level does not show (see WriteFootprint).
/// An inserted tuple is therefore copied once, into the level. The
/// context also holds the temporaries created by assignments. The
/// Database must not be copied while a transaction is in flight (a copy
/// would share the levels the transaction still writes).
///
/// A context is single-threaded: one thread runs a transaction's
/// statements, its checks included, in program order. dplus/dminus of a
/// relation the transaction has not written are made the first time they
/// are resolved, so a context that never resolves one builds none.
class TxnContext : public algebra::EvalContext {
 public:
  explicit TxnContext(Database* db);

  /// EvalContext: resolves base relations against the current intermediate
  /// state, kTemp against the transaction-local environment, kOld /
  /// kDeltaPlus / kDeltaMinus against the relation's overlay level (its
  /// base and its local inserts/deletes; the current state and empty
  /// relations when the transaction has not written it). Every kind
  /// resolves in O(1), without copying tuples. Under conflict tracking,
  /// resolving kBase or kOld records the relation in BaseReads (the
  /// optimistic read set); ResolveSchemaOnly resolves the same relation
  /// but records nothing — the evaluator uses it where only the result
  /// shape is needed (e.g. the base side of a join whose differential
  /// side is empty), keeping the read set free of false conflicts.
  Result<const Relation*> Resolve(algebra::RelRefKind kind,
                                  const std::string& name) const override;
  Result<const Relation*> ResolveSchemaOnly(
      algebra::RelRefKind kind, const std::string& name) const override;

  /// Optional per-subsystem plan cache: the integrity checks' plans,
  /// compiled at rule-definition time. A check statement runs on its
  /// pinned plan; every other statement compiles when it runs.
  void set_plan_cache(const algebra::PlanCache* cache) { plan_cache_ = cache; }
  const algebra::PlanCache* plan_cache() const { return plan_cache_; }

  /// Stores (replaces) a temporary relation.
  void SetTemp(const std::string& name, Relation value);

  /// Inserts one schema-checked, coerced tuple into base relation `rel`
  /// (through its overlay level), moving `tuple` into the level. Returns
  /// true when the tuple was new.
  Result<bool> InsertTuple(const std::string& rel, Tuple tuple);

  /// Deletes one tuple; returns true when the tuple was present. A
  /// deleted base tuple is copied once, into the level's deletes.
  Result<bool> DeleteTuple(const std::string& rel, const Tuple& tuple);

  /// Names of relations whose net differential is non-empty so far (the
  /// commit-time write set; changes that netted out are not listed).
  std::vector<std::string> TouchedRelations() const;

  // -------------------------------------------------------------------
  // Conflict footprint for optimistic (snapshot) execution. A session
  // executing against a snapshot records what it observed of the
  // committed state; the transaction manager validates these against
  // concurrently committed writes (first-committer-wins). Recording is
  // OPT-IN (EnableConflictTracking, called by TxnSession): the serial
  // single-session engine never consumes these sets and must not pay
  // for building them.
  // -------------------------------------------------------------------

  /// Turns on BaseReads/WriteFootprint recording for this context.
  void EnableConflictTracking() { track_conflicts_ = true; }

  /// Base relations resolved during evaluation (kBase and kOld
  /// references): the relation-granularity read set. A rule check
  /// probing key_rel lands key_rel here; dplus/dminus and temporaries
  /// are transaction-local and never recorded.
  const std::set<std::string>& BaseReads() const { return base_reads_; }

  /// One relation's write footprint: every tuple this transaction
  /// attempted to insert into or delete from it, *including* no-ops
  /// (inserting a present tuple, deleting an absent one). No-ops are
  /// reads of the committed state at tuple granularity: whether they
  /// were no-ops depends on it, so commit validation must see them even
  /// though they leave no differential.
  ///
  /// Nothing is copied to keep it. The footprint reads the relation's
  /// level, whose inserts and deletes hold every write that took effect,
  /// the levels Rollback dropped, and a side set of the attempts that
  /// did not grow the level's inserts (an insert) or deletes (a delete):
  ///  * no-ops;
  ///  * writes that netted out: deleting a tuple the transaction
  ///    inserted, or re-inserting a base tuple it deleted.
  /// A tuple may sit in more than one of these parts.
  class Footprint {
   public:
    /// Distinct tuples attempted.
    std::size_t size() const;
    bool Contains(const Tuple& t) const;
    /// Whether a tuple of `plus` or `minus` (flat sets: a commit's net
    /// differential of the relation) was attempted. Probes from the
    /// smaller side: the two sets with each footprint tuple when the
    /// footprint's parts hold fewer tuples than they do, the footprint
    /// with each of their tuples otherwise.
    bool Overlaps(const Relation& plus, const Relation& minus) const;

   private:
    friend class TxnContext;
    std::vector<const Relation*> parts_;  // flat sets
  };

  /// `rel`'s write footprint; empty when the transaction never wrote it.
  Footprint WriteFootprint(const std::string& rel) const;

  /// Undoes every change in O(#written relations): each written
  /// relation's pre-transaction state is re-installed in place of its
  /// level. Temporaries are dropped. BaseReads and the write footprint
  /// survive — under conflict tracking the dropped levels are kept, not
  /// freed: an aborted transaction's outcome (the abort) was still
  /// decided by what it read and attempted, and the transaction manager
  /// validates that against concurrent commits too.
  void Rollback();

  /// Installs D^{t+1} and advances the database's logical time
  /// (Definition 2.6's end bracket): each level is folded back into its
  /// pre-transaction state when the database owned that state
  /// exclusively (O(|delta|); serial masters stay flat), and otherwise
  /// stays installed. Drops transaction-local state.
  void Commit();

 private:
  /// Resolve without touching the conflict read set: Resolve's and
  /// ResolveSchemaOnly's lookup.
  Result<const Relation*> ResolveUnrecorded(algebra::RelRefKind kind,
                                            const std::string& name) const;

  /// The overlay level a write of `t` to `rel` goes to, installed on the
  /// first write; null for a no-op write before any level exists (an
  /// insert of a present `t`, a delete of an absent one).
  Result<Relation*> LevelForWrite(const std::string& rel,
                                  const Relation& current, const Tuple& t,
                                  bool noop_when_present);

  /// The parts of `rel`'s write footprint that no installed level holds.
  struct Unshown {
    Relation side;  // the side set (see Footprint)
    std::vector<std::shared_ptr<const Relation>> dropped;  // by Rollback
  };
  /// `rel`'s entry, made with `of`'s schema on first use.
  Unshown& UnshownOf(const std::string& rel, const Relation& of);

  Database* db_;
  const algebra::PlanCache* plan_cache_ = nullptr;
  std::map<std::string, Relation> temps_;
  // One overlay level per written relation.
  std::map<std::string, Database::Level> levels_;
  // dplus(R)/dminus(R) of a relation the transaction has not written: an
  // empty relation of R's schema, made by the first resolution. Mutable
  // because resolution is const; a context is single-threaded.
  mutable std::map<std::string, Relation> unwritten_deltas_;
  // Conflict footprint (see BaseReads/WriteFootprint). base_reads_ is
  // mutable because reads are recorded from const Resolve. unshown_ is
  // touched only by writes the level does not show, and by Rollback.
  bool track_conflicts_ = false;
  mutable std::set<std::string> base_reads_;
  std::map<std::string, Unshown> unshown_;
};

}  // namespace txmod::txn

#endif  // TXMOD_TXN_TXN_CONTEXT_H_
