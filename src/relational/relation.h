#ifndef TXMOD_RELATIONAL_RELATION_H_
#define TXMOD_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/relational/schema.h"
#include "src/relational/tuple.h"

namespace txmod {

class Relation;

/// Process-wide instrumentation of the copy-on-write / overlay machinery
/// (monotonic atomic counters; Reset() for tests and benchmarks). These
/// exist so tests can *prove* cost claims — "checkpointing never copied a
/// relation", "a session's first write did not scan the base" — instead of
/// timing them.
struct CowStats {
  /// O(1) overlay layerings installed by Database::FindMutable and
  /// Database::PushLevel.
  static std::atomic<uint64_t> overlays_created;
  /// Overlay maintenance (Relation::Compact): replacements that merged
  /// levels (amortized-geometric) and collapses to a flat state (the
  /// large-delta case).
  static std::atomic<uint64_t> overlay_merges;
  static std::atomic<uint64_t> overlay_collapses;
  /// The delta weight of every level a merge took (Relation::Compact's
  /// merges and Relation::Reapply's): the work the amortized O(log) per
  /// changed tuple bound is about.
  static std::atomic<uint64_t> overlay_merged_tuples;

  static void Reset();
};

/// A persistent equi-key lookup index on one attribute list of a Relation:
/// EquiKeyHash(tuple, attrs) -> tuple node. Buckets are *candidate* sets —
/// the hash is predicate-equality consistent (Value::KeyHash), and the
/// evaluator re-verifies its join predicate on every candidate, so hash
/// collisions cost time, never correctness.
///
/// Indexes are declared once (Relation::IndexOn, typically at rule
/// definition time by the integrity subsystem) and then maintained
/// incrementally by Relation::Insert/Erase/Clear. That is what lets the
/// compiled differential checks probe the same base relation transaction
/// after transaction without rebuilding a hash table per evaluation.
///
/// An index covers exactly one level of a relation state: a flat state's
/// whole tuple set, or one overlay level's local inserts. Probing an
/// overlay chain goes through RelationIndexView, which composes the
/// per-level indexes and filters deleted tuples.
class RelationIndex {
 public:
  using Map = std::unordered_multimap<std::size_t, const Tuple*>;
  using Iterator = Map::const_iterator;

  explicit RelationIndex(std::vector<int> attrs) : attrs_(std::move(attrs)) {}

  const std::vector<int>& attrs() const { return attrs_; }
  std::size_t size() const { return map_.size(); }

  /// Candidates whose key hashes to `key_hash` (computed by the caller via
  /// EquiKeyHash over the *probe* side's attribute list).
  std::pair<Iterator, Iterator> Probe(std::size_t key_hash) const {
    return map_.equal_range(key_hash);
  }

 private:
  friend class Relation;

  void Add(const Tuple* t) { map_.emplace(EquiKeyHash(*t, attrs_), t); }
  void Remove(const Tuple* t);
  void Rebuild(const std::unordered_set<Tuple, TupleHasher>& tuples);

  std::vector<int> attrs_;
  Map map_;
};

/// An overlay-aware probe view over one declared index attribute list of a
/// relation state: the composition of the per-level RelationIndexes of the
/// state's overlay chain. Probing yields every *visible* candidate —
/// inserts of outer levels first, then base candidates that no outer
/// level's deleted-set shadows — so the evaluator's index paths see
/// base ∪ plus ∖ minus without materializing anything.
///
/// Obtained from Relation::FindIndexView. A default-constructed (or
/// failed-lookup) view is !valid(); callers fall back to their scan/build
/// path exactly as they do for an undeclared index. The view borrows the
/// relation's levels: it is valid only while the relation (and the
/// snapshot chain it layers over) is alive and unmodified — the same
/// single-evaluation lifetime every cursor already assumes.
class RelationIndexView {
 public:
  RelationIndexView() = default;

  bool valid() const { return attrs_ != nullptr; }
  const std::vector<int>& attrs() const { return *attrs_; }

  /// A pull stream of visible candidates for one probe.
  class Candidates {
   public:
    Candidates() = default;

    /// The next visible candidate, or nullptr when exhausted.
    const Tuple* Next();

   private:
    friend class RelationIndexView;

    const RelationIndexView* view_ = nullptr;
    std::size_t hash_ = 0;
    std::size_t level_ = 0;
    RelationIndex::Iterator it_{};
    RelationIndex::Iterator end_{};
  };

  Candidates Probe(std::size_t key_hash) const;

 private:
  friend class Relation;

  struct Level {
    const RelationIndex* index;  // null only when the level has no tuples
    const std::unordered_set<Tuple, TupleHasher>* minus;  // null when flat
  };

  /// True when a level *outside* `level` (index < level; outermost first)
  /// deleted `t`.
  bool Shadowed(std::size_t level, const Tuple& t) const;

  std::vector<Level> levels_;  // outermost (most recent writes) first
  const std::vector<int>* attrs_ = nullptr;
};

/// A relation state R: a *set* of tuples of dom(R) (Definition 2.1).
///
/// PRISMA/DB was a main-memory system; a Relation is simply an in-memory
/// hash set keyed by tuple identity, which gives O(1) membership for the
/// set operations (difference, intersection) that integrity checking leans
/// on. Iteration order is unspecified; use SortedTuples() for deterministic
/// output.
///
/// Overlay states: a Relation may layer local inserts (`plus_`) and
/// deletes (`minus_`) over an immutable shared base state (MakeOverlay) —
/// the visible contents are base ∪ plus ∖ minus, and every read
/// (Contains, size, iteration, index views) sees exactly that without
/// materializing. This is what makes a transaction's first write to a
/// relation O(1) instead of an O(|R|) copy: mutation cost is O(|delta|),
/// the transaction-modification bound the paper's integrity checking is
/// built around. Invariants maintained by Insert/Erase (and by every
/// level Compact builds): minus ⊆ visible(base), plus is disjoint from
/// visible(base), and plus and minus are disjoint — so plus and minus are
/// exactly the level's net differential against its base. A level is
/// immutable once installed (the Database ownership discipline): only the
/// outermost level of an exclusively-owned state is ever mutated, and
/// compaction never rewrites a level, it builds a replacement (Compact).
/// Concurrent readers of installed levels are therefore safe, and a
/// snapshot keeps reading the chain it began on while a replacement is
/// swapped in under it.
///
/// Index semantics: declared indexes (IndexOn) hold pointers into the
/// level's own tuple set (the whole contents of a flat state, the plus
/// set of an overlay level), so *copies drop them* — a copy has no indexes
/// until IndexOn is called on it again (the IntegritySubsystem re-declares
/// on every Recompile; FindIndex never builds). Moves keep indexes:
/// unordered_set nodes keep their addresses across a move. An overlay
/// mirrors its base's declared attribute lists as (initially empty)
/// local indexes at creation, so FindIndexView can compose the chain.
/// Mutation through Insert/Erase/Clear keeps every declared index
/// coherent. Not thread-safe: one writer / no concurrent readers, like
/// every other mutation of this class.
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::shared_ptr<const RelationSchema> schema)
      : schema_(std::move(schema)) {}

  Relation(const Relation& other) { *this = other; }
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      schema_ = other.schema_;
      tuples_ = other.tuples_;
      base_ = other.base_;
      plus_ = other.plus_ ? std::make_shared<Relation>(*other.plus_) : nullptr;
      minus_ =
          other.minus_ ? std::make_shared<Relation>(*other.minus_) : nullptr;
      indexes_.clear();
    }
    return *this;
  }
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// An O(#declared indexes) overlay state over `base`: initially equal to
  /// *base, mutations stay local (plus/minus sets), `base` is never
  /// touched. The caller promises `base` is immutable for the overlay's
  /// lifetime (the Database ownership discipline supplies exactly that).
  static Relation MakeOverlay(std::shared_ptr<const Relation> base);

  const RelationSchema& schema() const { return *schema_; }
  std::shared_ptr<const RelationSchema> schema_ptr() const { return schema_; }
  const std::string& name() const { return schema_->name(); }
  std::size_t arity() const { return schema_->arity(); }

  std::size_t size() const {
    // Invariants make the arithmetic exact: every minus entry shadows a
    // distinct visible base tuple, every plus entry is otherwise unseen.
    if (base_ == nullptr) return tuples_.size();
    return base_->size() + plus_->tuples_.size() - minus_->tuples_.size();
  }
  bool empty() const {
    return base_ == nullptr ? tuples_.empty() : size() == 0;
  }

  bool Contains(const Tuple& t) const {
    if (own_tuples().count(t) > 0) return true;
    return base_ != nullptr && minus_->tuples_.count(t) == 0 &&
           base_->Contains(t);
  }

  /// Inserts `t`; returns true when the tuple was not visible before.
  /// The tuple must already be schema-checked / coerced by the caller.
  /// On an overlay level, `t` is copied (or moved from) only when it
  /// lands in the level's own inserts: a no-op, or a re-insert that
  /// un-shadows a base tuple, leaves it untouched.
  bool Insert(const Tuple& t);
  bool Insert(Tuple&& t);

  /// Removes `t` from the visible contents; returns true when present.
  bool Erase(const Tuple& t);

  // On an overlay level, the set a write landed in shows in O(1) in the
  // sizes of local_inserts() and local_deletes(): an Insert that grew the
  // inserts, or an Erase that grew the deletes, is shown by them. Any
  // other write (a no-op, a re-insert that shrank the deletes, a delete
  // that shrank the inserts) leaves no trace in the level.

  void Clear();

  /// Declares (and immediately builds) a persistent equi-key index on
  /// `attrs`; returns the existing one when already declared. Returns
  /// nullptr when `attrs` is empty or out of range for the schema. On an
  /// overlay state the chain is collapsed flat first (rule definition is
  /// rare and quiesced; an index declared only over local inserts would
  /// silently miss base tuples).
  const RelationIndex* IndexOn(std::vector<int> attrs);

  /// The declared index on exactly `attrs`, or nullptr. Never builds one:
  /// ad-hoc queries must not leave permanent index maintenance costs
  /// behind, so only explicitly declared indexes are ever used. On an
  /// overlay state this is always nullptr — a raw per-level index cannot
  /// answer membership over the chain; use FindIndexView.
  const RelationIndex* FindIndex(const std::vector<int>& attrs) const;

  /// The overlay-aware probe view on `attrs`: valid when every level that
  /// holds tuples declares the index (overlays mirror declarations, so
  /// chains over an indexed base qualify). For flat states this is
  /// equivalent to FindIndex. An invalid view means "no usable index" —
  /// callers fall back exactly as for FindIndex == nullptr.
  RelationIndexView FindIndexView(const std::vector<int>& attrs) const;

  std::size_t index_count() const { return indexes_.size(); }

  /// Pre-sizes a flat state's tuple set and every declared index for `n`
  /// tuples, so filling it does not rehash them as it grows.
  void Reserve(std::size_t n);

  /// Attribute lists of every declared index, in declaration order. This
  /// is what lets an overlay (MakeOverlay) mirror the declarations of the
  /// base it layers over.
  std::vector<std::vector<int>> DeclaredIndexes() const;

  // -------------------------------------------------------------------
  // Overlay introspection and maintenance. Mutators may only be called
  // on an exclusively-owned state (they rewrite the outermost level and
  // re-point its base; inner levels are read, never written).
  // -------------------------------------------------------------------

  bool is_overlay() const { return base_ != nullptr; }

  /// This overlay level's own inserts and deletes (requires is_overlay()),
  /// at addresses stable for the level's lifetime: on a transaction's
  /// level, the paper's dplus(R) and dminus(R), read without a copy.
  const Relation& local_inserts() const { return *plus_; }
  const Relation& local_deletes() const { return *minus_; }

  /// The same two sets, shared: a holder keeps them alive without the
  /// level or the chain under it. Nothing writes them once the level is
  /// shared (the Database ownership discipline), so a committed
  /// transaction's log record and validation window read the very sets
  /// its installed level holds (txn::TxnManager).
  std::shared_ptr<const Relation> shared_inserts() const { return plus_; }
  std::shared_ptr<const Relation> shared_deletes() const { return minus_; }

  /// Re-points this overlay level at `base` in place of its base, in O(1);
  /// its inserts and deletes stay as they are. Only on an exclusively
  /// owned level, and only when the level's invariants hold over `base`
  /// exactly as over its old base: minus ⊆ visible(base), plus disjoint
  /// from visible(base), and the same declared indexes. The old base is
  /// released, not necessarily freed: the caller decides who holds it.
  void Rebase(std::shared_ptr<const Relation> base) { base_ = std::move(base); }

  /// Applies and consumes `level`, an overlay level over this very state:
  /// O(|delta|), inserted tuples are moved, not copied; a flat state
  /// relinks the level's nodes (the serial commit's fold,
  /// Database::FoldLevel).
  void Absorb(Relation&& level);

  /// Number of overlay levels above the flat base (0 for a flat state).
  std::size_t overlay_depth() const;

  /// This level's own tuple count: |plus| + |minus| on an overlay level,
  /// |R| on a flat state.
  std::size_t delta_weight() const {
    return own_tuples().size() + (base_ == nullptr ? 0 : minus_->size());
  }

  /// Cumulative delta weight across every overlay level of the chain.
  std::size_t overlay_weight() const;

  /// Tuple count of the innermost flat level (== size() when flat).
  std::size_t flat_size() const;

  /// True when `level` is this state or one of the levels under it.
  bool ChainHolds(const Relation* level) const;

  /// Flattens the chain into a single owned level, in place (rule
  /// definition's IndexOn). Declared indexes are rebuilt over the flat
  /// set. No-op when already flat.
  void CollapseOverlay();

  /// A chain deeper than this collapses on its next compaction.
  static constexpr std::size_t kMaxOverlayDepth = 40;

  /// The compaction policy, as a function from an immutable chain to its
  /// replacement; `chain` and every level under it are only read, so
  /// snapshots keep reading them while the replacement is built.
  ///  * Geometric merging: the top levels merge into one fresh level over
  ///    the first level that outweighs them all, which bounds the merge
  ///    work at amortized O(log) per changed tuple and keeps the depth
  ///    logarithmic in the delta volume. A merge nets (a tuple deleted
  ///    below and re-inserted above is in neither set), and a merge that
  ///    nets out entirely yields the level underneath itself.
  ///  * Large-delta case: once the remaining overlay weight reaches half
  ///    the flat base (or the depth passes kMaxOverlayDepth), the chain
  ///    collapses into one fresh flat state with its declared indexes —
  ///    O(|R|) against at least |R|/2 delta work already paid.
  /// Returns null when the policy keeps `chain` as it is. A call runs to
  /// the end, a collapse of a large relation included: what lands above
  /// `chain` meanwhile is the swap's to keep (Reapply).
  static std::shared_ptr<const Relation> Compact(
      const std::shared_ptr<const Relation>& chain);

  /// The levels of `top`'s chain above `start` (a level of it), re-applied
  /// over `onto` — a state with `start`'s visible contents — as one fresh
  /// level holding their net differential; `onto` itself when they net
  /// out. O(their delta weight): nothing under `start` is read but `onto`
  /// and nothing merges into it. This is how a compaction's swap keeps the
  /// commits that landed while the replacement was built.
  static std::shared_ptr<const Relation> Reapply(
      const Relation& top, const Relation* start,
      std::shared_ptr<const Relation> onto);

  /// Forward iteration over the visible contents: each level's local
  /// inserts, outermost level first, skipping tuples deleted by an outer
  /// level. O(overlay depth) per step in the worst case; empty minus sets
  /// (the insert-only common case) cost one branch per level.
  class ConstIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    ConstIterator() = default;

    const Tuple& operator*() const { return *it_; }
    const Tuple* operator->() const { return &*it_; }

    ConstIterator& operator++() {
      ++it_;
      Settle();
      return *this;
    }

    bool operator==(const ConstIterator& other) const {
      return level_ == other.level_ &&
             (level_ == nullptr || it_ == other.it_);
    }
    bool operator!=(const ConstIterator& other) const {
      return !(*this == other);
    }

   private:
    friend class Relation;

    ConstIterator(const Relation* top, const Relation* level,
                  std::unordered_set<Tuple, TupleHasher>::const_iterator it)
        : top_(top), level_(level), it_(it) {
      Settle();
    }

    void Settle();
    bool ShadowedAboveCurrent() const;

    const Relation* top_ = nullptr;
    const Relation* level_ = nullptr;  // null == end
    std::unordered_set<Tuple, TupleHasher>::const_iterator it_{};
  };

  ConstIterator begin() const {
    return ConstIterator(this, this, own_tuples().begin());
  }
  ConstIterator end() const { return ConstIterator(); }

  /// Tuples in lexicographic order (deterministic; for printing and tests).
  std::vector<Tuple> SortedTuples() const;

  /// Set equality (schema name is not part of equality; contents are).
  bool SameTuples(const Relation& other) const;

  /// Renders as name{(..),(..)} in sorted order; long relations elided.
  std::string ToString(std::size_t max_tuples = 16) const;

 private:
  using TupleSet = std::unordered_set<Tuple, TupleHasher>;

  template <typename T>
  bool InsertValue(T&& t);

  /// The net differential of `levels` (outermost first, each layered over
  /// the next) as one fresh level over `onto`, a state with the visible
  /// contents of the innermost level's base. Each tuple is decided once,
  /// at its outermost mention: visible after the levels when that mention
  /// is an insert, visible before them when its innermost mention is a
  /// delete. Only the tuples that survive are copied.
  static Relation MergeLevels(const std::vector<const Relation*>& levels,
                              std::shared_ptr<const Relation> onto);

  /// A fresh flat state with `chain`'s visible contents and declared
  /// indexes.
  static Relation Flattened(const Relation& chain);

  /// The tuple set this level's declared indexes cover.
  const TupleSet& own_tuples() const {
    return base_ == nullptr ? tuples_ : plus_->tuples_;
  }
  TupleSet& own_tuples() { return base_ == nullptr ? tuples_ : plus_->tuples_; }

  /// This level's own declared index on `attrs` (ignores the chain).
  const RelationIndex* FindLocalIndex(const std::vector<int>& attrs) const;

  std::shared_ptr<const RelationSchema> schema_;
  // The whole contents of a flat state (empty on an overlay level).
  TupleSet tuples_;
  // Overlay state (all null == flat): the immutable shared state underneath
  // and this level's local inserts and deletes, as flat index-free states.
  // The sets may be shared out (shared_inserts/shared_deletes), but only
  // the level writes them, and only while it is exclusively owned.
  std::shared_ptr<const Relation> base_;
  std::shared_ptr<Relation> plus_;
  std::shared_ptr<Relation> minus_;
  std::vector<std::unique_ptr<RelationIndex>> indexes_;
};

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_RELATION_H_
