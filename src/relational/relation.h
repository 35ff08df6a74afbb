#ifndef TXMOD_RELATIONAL_RELATION_H_
#define TXMOD_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
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
  /// Live rows a dead-row compaction moved to a lower row id. A
  /// compaction runs only once a level's dead rows outnumber its live
  /// ones, so this stays below the number of erases.
  static std::atomic<uint64_t> rows_compacted;

  static void Reset();
};

/// A chained hash table over row ids 0, 1, 2, ...: a head table from
/// bucket to the newest row whose key lands in it, and per row the next
/// row of its bucket and its key hash. A walk compares the stored key
/// hashes, so it yields exactly the rows added with the probed hash and
/// never reads a row of another key. The rows themselves live with the
/// caller: a relation level's index (RelationIndex) and a hash join's
/// transient build side both key their own rows with it.
class KeyTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Adds the next row, numbered by how many were added before it, under
  /// `key`.
  void Add(std::size_t key);

  /// The newest row added under `key`, or kEnd; Next continues the walk
  /// towards older rows.
  uint32_t First(std::size_t key) const {
    return heads_.empty() ? kEnd : Skip(heads_[Bucket(key)], key);
  }
  uint32_t Next(uint32_t row, std::size_t key) const {
    return Skip(next_[row], key);
  }

  /// Sizes the table for `rows` rows, so adding them does not relink.
  void Reserve(std::size_t rows);
  void Clear();

  /// Keeps the rows `keep(row)` accepts, renumbered in row order.
  template <typename Keep>
  void Retain(Keep keep) {
    std::size_t to = 0;
    for (std::size_t row = 0; row < keys_.size(); ++row) {
      if (keep(row)) keys_[to++] = keys_[row];
    }
    keys_.resize(to);
    next_.resize(to);
    Relink(BucketsFor(to));
  }

 private:
  std::size_t Bucket(std::size_t key) const;
  uint32_t Skip(uint32_t row, std::size_t key) const {
    while (row != kEnd && keys_[row] != key) row = next_[row];
    return row;
  }
  static std::size_t BucketsFor(std::size_t rows);
  /// Rebuilds every chain over `buckets` buckets, newest row first.
  void Relink(std::size_t buckets);

  std::vector<uint32_t> heads_;  // empty, or a power of two of buckets
  std::vector<uint32_t> next_;
  std::vector<std::size_t> keys_;
};

/// The tuples of one relation level, as rows: row r is the r-th tuple the
/// level took, in chunks that grow geometrically and never move, so a
/// `const Tuple*` into a level stays valid for the level's lifetime. Each
/// row keeps its tuple's hash beside it, and membership is an
/// open-addressing table of row ids (linear probing, at most 3/4 full),
/// whose slots also hold part of the hash, so a probe reads only the rows
/// that match it. Erasing a row frees its values and marks it dead; the
/// owning Relation compacts its dead rows, in row order, once they
/// outnumber the live ones. Only Relation writes a RowBlock.
class RowBlock {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  RowBlock() = default;
  RowBlock(const RowBlock& other) { *this = other; }
  RowBlock& operator=(const RowBlock& other);
  RowBlock(RowBlock&& other) noexcept { *this = std::move(other); }
  RowBlock& operator=(RowBlock&& other) noexcept;

  /// The hash a row stores for `t`: Tuple::Hash mixed, in 63 bits.
  static uint64_t HashOf(const Tuple& t);

  /// Live rows.
  std::size_t size() const { return live_; }
  /// Row ids in use, live and dead: rows are 0 .. rows() - 1.
  std::size_t rows() const { return rows_; }
  std::size_t dead() const { return rows_ - live_; }

  bool alive(std::size_t r) const { return (At(r).hash & kDead) == 0; }
  const Tuple& tuple(std::size_t r) const { return At(r).tuple; }
  /// Row r's HashOf (meaningful while it is alive).
  uint64_t hash(std::size_t r) const { return At(r).hash & ~kDead; }

  /// The live row holding `t`, whose HashOf is `h`, or kNone.
  std::size_t Find(const Tuple& t, uint64_t h) const;

  /// The first live row at or after `r`, or rows().
  std::size_t SkipDead(std::size_t r) const {
    while (r < rows_ && !alive(r)) ++r;
    return r;
  }

 private:
  friend class Relation;

  struct Row {
    Tuple tuple;
    uint64_t hash;  // HashOf(tuple), with kDead set once erased
  };

  static constexpr uint64_t kDead = uint64_t{1} << 63;
  // Chunk 0 holds rows [0, 4); chunk c > 0 holds [2^(c+1), 2^(c+2)).
  static constexpr unsigned kFirstChunkLog = 2;

  static std::size_t ChunkOf(std::size_t r);
  static std::size_t ChunkCapacity(std::size_t c) {
    return c == 0 ? std::size_t{1} << kFirstChunkLog
                  : std::size_t{1} << (kFirstChunkLog + c - 1);
  }
  const Row& At(std::size_t r) const;
  Row& At(std::size_t r) {
    return const_cast<Row&>(static_cast<const RowBlock*>(this)->At(r));
  }

  /// Appends `t` as a new live row; the caller knows it is absent.
  template <typename T>
  std::size_t Append(T&& t, uint64_t h) {
    if (rows_ == capacity_) AddChunk();
    if ((live_ + 1) * 4 > slots_.size() * 3) Rehash(SlotsFor(live_ + 1));
    const std::size_t r = rows_;
    chunks_[ChunkOf(r)].push_back(Row{Tuple(std::forward<T>(t)), h});
    PlaceSlot(r, h);
    ++rows_;
    ++live_;
    return r;
  }

  /// Frees row r's values and marks it dead.
  void Kill(std::size_t r);
  /// Drops the dead rows; the live ones keep their order. Returns how
  /// many live rows moved.
  std::size_t Compact();
  /// Room for `n` rows, and a table that holds them within its bound.
  void Reserve(std::size_t n);
  void Clear();

  void AddChunk();
  static std::size_t SlotsFor(std::size_t live);
  /// A table of `slots` slots holding every live row.
  void Rehash(std::size_t slots);
  void PlaceSlot(std::size_t r, uint64_t h);

  std::vector<std::vector<Row>> chunks_;  // each reserved to its capacity
  std::size_t rows_ = 0;
  std::size_t live_ = 0;
  std::size_t capacity_ = 0;
  // 0, or (the hash's bits 31..62) << 32 | (row + 1). A slot's home is
  // its hash bits masked, so the table relocates slots without the rows.
  std::vector<uint64_t> slots_;
};

/// A persistent equi-key lookup index on one attribute list of a Relation
/// level: a KeyTable keyed by EquiKeyHash(tuple, attrs) over the level's
/// rows, one entry per row, live or dead. Candidates are the live rows
/// whose key hash equals the probe's — the hash is predicate-equality
/// consistent (Value::KeyHash), and the evaluator re-verifies its join
/// predicate on every candidate, so hash collisions cost time, never
/// correctness.
///
/// Indexes are declared once (Relation::IndexOn, typically at rule
/// definition time by the integrity subsystem) and then maintained
/// incrementally by Relation::Insert/Erase/Clear: an insert adds its row
/// at the head of its bucket, an erase only kills the row (O(1), however
/// long its key's chain), and a dead-row compaction renumbers the table
/// with the rows. That is what lets the compiled differential checks
/// probe the same base relation transaction after transaction without
/// rebuilding a hash table per evaluation.
///
/// An index covers exactly one level of a relation state: a flat state's
/// whole contents, or one overlay level's local inserts. Probing an
/// overlay chain goes through RelationIndexView, which composes the
/// per-level indexes and filters deleted tuples.
class RelationIndex {
 public:
  explicit RelationIndex(std::vector<int> attrs) : attrs_(std::move(attrs)) {}

  const std::vector<int>& attrs() const { return attrs_; }
  /// Live tuples covered.
  std::size_t size() const { return rows_ == nullptr ? 0 : rows_->size(); }

  /// A pull stream of one probe's candidates, newest row first.
  class Candidates {
   public:
    Candidates() = default;

    /// The next candidate, or nullptr when exhausted.
    const Tuple* Next() {
      const uint32_t r = NextRow();
      return r == KeyTable::kEnd ? nullptr : &index_->rows_->tuple(r);
    }

   private:
    friend class RelationIndex;
    friend class RelationIndexView;

    /// The next live candidate row, or KeyTable::kEnd.
    uint32_t NextRow();

    const RelationIndex* index_ = nullptr;
    std::size_t key_ = 0;
    uint32_t row_ = KeyTable::kEnd;
  };

  /// Candidates whose key hashes to `key_hash` (computed by the caller via
  /// EquiKeyHash over the *probe* side's attribute list).
  Candidates Probe(std::size_t key_hash) const;

 private:
  friend class Relation;
  friend class RelationIndexView;

  std::vector<int> attrs_;
  KeyTable table_;
  // The rows the index keys: its level's own rows. Re-pointed by every
  // Relation operation that moves them (Relation::Repoint).
  const RowBlock* rows_ = nullptr;
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
    std::size_t level_ = 0;
    RelationIndex::Candidates level_candidates_;
  };

  Candidates Probe(std::size_t key_hash) const;

 private:
  friend class Relation;

  struct Level {
    const RelationIndex* index;  // null only when the level has no tuples
    const RowBlock* minus;       // null when flat
  };

  /// True when a level *outside* `level` (index < level; outermost first)
  /// deleted `t`, whose HashOf is `h`.
  bool Shadowed(std::size_t level, const Tuple& t, uint64_t h) const;

  std::vector<Level> levels_;  // outermost (most recent writes) first
  const std::vector<int>* attrs_ = nullptr;
};

/// A relation state R: a *set* of tuples of dom(R) (Definition 2.1).
///
/// PRISMA/DB was a main-memory system; a Relation keeps its tuples in
/// memory as rows (RowBlock): one array of tuples in the order the level
/// took them, a hash per row, and an open-addressing table of row ids
/// that gives O(1) membership for the set operations (difference,
/// intersection) that integrity checking leans on. Iteration follows row
/// order, level by level; use SortedTuples() for an order that does not
/// depend on the write history.
///
/// Overlay states: a Relation may layer local inserts (`plus_`) and
/// deletes (`minus_`) over an immutable shared base state (MakeOverlay) —
/// the visible contents are base ∪ plus ∖ minus, and every read
/// (Contains, size, iteration, index views) sees exactly that without
/// materializing. This is what makes a transaction's first write to a
/// relation O(1) instead of an O(|R|) copy: mutation cost is O(|delta|),
/// the transaction-modification bound the paper's integrity checking is
/// built around. A write hashes its tuple once and passes the hash down
/// the chain. Invariants maintained by Insert/Erase (and by every level
/// Compact builds): minus ⊆ visible(base), plus is disjoint from
/// visible(base), and plus and minus are disjoint — so plus and minus are
/// exactly the level's net differential against its base. A level is
/// immutable once installed (the Database ownership discipline): only the
/// outermost level of an exclusively-owned state is ever mutated, and
/// compaction never rewrites a level, it builds a replacement (Compact).
/// Concurrent readers of installed levels are therefore safe, and a
/// snapshot keeps reading the chain it began on while a replacement is
/// swapped in under it.
///
/// Erase kills a row in O(1); once a level's dead rows outnumber its
/// live ones, that Erase compacts the level in row order, renumbering
/// its rows and indexes. Only an exclusively owned state is ever erased
/// from, and no cursor over it is live while it is written (a statement
/// materializes its source before writing), so nothing holds a row it
/// moves.
///
/// Index semantics: declared indexes (IndexOn) key the level's own rows
/// (the whole contents of a flat state, the plus set of an overlay
/// level), so *copies drop them* — a copy has no indexes until IndexOn
/// is called on it again (the IntegritySubsystem re-declares on every
/// Recompile; FindIndex never builds). Moves keep indexes: chunks keep
/// their addresses across a move, and the move re-points each index at
/// the moved rows. An overlay mirrors its base's declared attribute
/// lists as (initially empty) local indexes at creation, so
/// FindIndexView can compose the chain. Mutation through
/// Insert/Erase/Clear keeps every declared index coherent. Not
/// thread-safe: one writer / no concurrent readers, like every other
/// mutation of this class.
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::shared_ptr<const RelationSchema> schema)
      : schema_(std::move(schema)) {}

  Relation(const Relation& other) { *this = other; }
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      schema_ = other.schema_;
      rows_ = other.rows_;
      base_ = other.base_;
      plus_ = other.plus_ ? std::make_shared<Relation>(*other.plus_) : nullptr;
      minus_ =
          other.minus_ ? std::make_shared<Relation>(*other.minus_) : nullptr;
      indexes_.clear();
    }
    return *this;
  }
  Relation(Relation&& other) noexcept { *this = std::move(other); }
  Relation& operator=(Relation&& other) noexcept;

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
    if (base_ == nullptr) return rows_.size();
    return base_->size() + plus_->rows_.size() - minus_->rows_.size();
  }
  bool empty() const {
    return base_ == nullptr ? rows_.size() == 0 : size() == 0;
  }

  bool Contains(const Tuple& t) const {
    return ContainsHashed(t, RowBlock::HashOf(t));
  }

  /// Inserts `t`; returns true when the tuple was not visible before.
  /// The tuple must already be schema-checked / coerced by the caller.
  /// On an overlay level, `t` is copied (or moved from) only when it
  /// lands in the level's own inserts: a no-op, or a re-insert that
  /// un-shadows a base tuple, leaves it untouched.
  bool Insert(const Tuple& t);
  bool Insert(Tuple&& t);

  /// Removes `t` from the visible contents; returns true when present.
  bool Erase(const Tuple& t) { return EraseHashed(t, RowBlock::HashOf(t)); }

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

  /// Sizes this level's own rows, its membership table and every declared
  /// index for `n` tuples, so filling it relinks and rehashes nothing.
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
  /// level, the paper's dplus(R) and dminus(R), read without a copy. Each
  /// iterates in the order the level took its tuples.
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
  /// O(|delta|), inserted tuples are moved, not copied, and keep the hash
  /// the level computed (the serial commit's fold, Database::FoldLevel).
  void Absorb(Relation&& level);

  /// Number of overlay levels above the flat base (0 for a flat state).
  std::size_t overlay_depth() const;

  /// This level's own tuple count: |plus| + |minus| on an overlay level,
  /// |R| on a flat state.
  std::size_t delta_weight() const {
    return own_rows().size() + (base_ == nullptr ? 0 : minus_->size());
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
  /// inserts in row order, outermost level first, skipping tuples deleted
  /// by an outer level. O(overlay depth) per step in the worst case;
  /// empty minus sets (the insert-only common case) cost one branch per
  /// level.
  class ConstIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    ConstIterator() = default;

    const Tuple& operator*() const { return *tuple_; }
    const Tuple* operator->() const { return tuple_; }

    ConstIterator& operator++() {
      ++row_;
      Settle();
      return *this;
    }

    bool operator==(const ConstIterator& other) const {
      return level_ == other.level_ &&
             (level_ == nullptr || row_ == other.row_);
    }
    bool operator!=(const ConstIterator& other) const {
      return !(*this == other);
    }

   private:
    friend class Relation;

    ConstIterator(const Relation* top, const Relation* level)
        : top_(top), level_(level) {
      Settle();
    }

    void Settle();
    bool ShadowedAboveCurrent() const;

    const Relation* top_ = nullptr;
    const Relation* level_ = nullptr;  // null == end
    std::size_t row_ = 0;              // a row of level_'s own rows
    const Tuple* tuple_ = nullptr;
  };

  ConstIterator begin() const { return ConstIterator(this, this); }
  ConstIterator end() const { return ConstIterator(); }

  /// Tuples in lexicographic order (deterministic; for printing and tests).
  std::vector<Tuple> SortedTuples() const;

  /// Set equality (schema name is not part of equality; contents are).
  bool SameTuples(const Relation& other) const;

  /// Renders as name{(..),(..)} in sorted order; long relations elided.
  std::string ToString(std::size_t max_tuples = 16) const;

 private:
  /// Contains, given the tuple's RowBlock::HashOf.
  bool ContainsHashed(const Tuple& t, uint64_t h) const;

  /// Insert, given the tuple's RowBlock::HashOf.
  template <typename T>
  bool InsertHashed(T&& t, uint64_t h);

  /// Erase, given the tuple's RowBlock::HashOf.
  bool EraseHashed(const Tuple& t, uint64_t h);

  /// Appends `t`, whose HashOf is `h` and which is not visible, as a new
  /// own row keyed in every declared index.
  template <typename T>
  void AppendRow(T&& t, uint64_t h);

  /// Erases own row r, and compacts the level once its dead rows
  /// outnumber its live ones.
  void EraseRow(std::size_t r);

  /// Drops this level's dead rows from its rows and its indexes.
  void CompactRows();

  /// Points every declared index at this level's own rows.
  void Repoint();

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

  /// The rows this level's declared indexes cover.
  const RowBlock& own_rows() const {
    return base_ == nullptr ? rows_ : plus_->rows_;
  }
  RowBlock& own_rows() { return base_ == nullptr ? rows_ : plus_->rows_; }

  /// This level's own declared index on `attrs` (ignores the chain).
  const RelationIndex* FindLocalIndex(const std::vector<int>& attrs) const;

  std::shared_ptr<const RelationSchema> schema_;
  // The whole contents of a flat state (empty on an overlay level).
  RowBlock rows_;
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
