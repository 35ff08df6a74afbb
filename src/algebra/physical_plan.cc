#include "src/algebra/physical_plan.h"

#include <unordered_map>
#include <utility>

#include "src/algebra/schema_infer.h"
#include "src/common/str_util.h"

namespace txmod::algebra {

namespace {

// ---------------------------------------------------------------------------
// Borrow-or-own handle: kRef inputs are borrowed from the context (no copy);
// computed inputs are owned by the handle.
// ---------------------------------------------------------------------------

class RelHandle {
 public:
  static RelHandle Borrowed(const Relation* rel) {
    RelHandle h;
    h.ptr_ = rel;
    return h;
  }
  static RelHandle Owned(Relation rel) {
    RelHandle h;
    h.owned_ = std::move(rel);
    h.ptr_ = &*h.owned_;
    return h;
  }
  RelHandle() = default;
  RelHandle(RelHandle&& other) noexcept { *this = std::move(other); }
  RelHandle& operator=(RelHandle&& other) noexcept {
    owned_ = std::move(other.owned_);
    ptr_ = owned_.has_value() ? &*owned_ : other.ptr_;
    return *this;
  }

  const Relation& get() const { return *ptr_; }

  /// Moves the relation out, copying when it was merely borrowed.
  Relation Take() && {
    if (owned_.has_value()) return *std::move(owned_);
    return *ptr_;  // deep copy
  }

 private:
  const Relation* ptr_ = nullptr;
  std::optional<Relation> owned_;
};

// ---------------------------------------------------------------------------
// Schema synthesis helpers.
// ---------------------------------------------------------------------------

std::shared_ptr<const RelationSchema> MakeSchema(
    std::vector<Attribute> attrs, std::string name = "") {
  return std::make_shared<const RelationSchema>(std::move(name),
                                                std::move(attrs));
}

AttrType ValueAttrType(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return AttrType::kInt;
    case ValueType::kDouble:
      return AttrType::kDouble;
    case ValueType::kString:
      return AttrType::kString;
    case ValueType::kNull:
      break;
  }
  return AttrType::kString;  // fallback for untyped (all-null) columns
}

std::vector<Attribute> ConcatAttrs(const RelationSchema& a,
                                   const RelationSchema& b) {
  std::vector<Attribute> attrs = a.attributes();
  attrs.insert(attrs.end(), b.attributes().begin(), b.attributes().end());
  return attrs;
}

void CountScan(EvalStats* stats, std::size_t n) {
  if (stats != nullptr) stats->tuples_scanned += n;
}
void CountEmit(EvalStats* stats, std::size_t n) {
  if (stats != nullptr) stats->tuples_emitted += n;
}
void CountProbe(EvalStats* stats, std::size_t n) {
  if (stats != nullptr) stats->index_probes += n;
}
void CountOperator(EvalStats* stats) {
  if (stats != nullptr) ++stats->operators;
}

// ---------------------------------------------------------------------------
// TupleCursor: the pull-based pipeline. Next() yields a borrowed pointer
// that stays valid until the next call on the same cursor (operators with
// computed output own a scratch tuple they overwrite in place). nullptr
// means end-of-stream. Pipelines materialize only at breakers: hash-join
// build sides, set-operation right sides, product right sides, aggregate
// inputs that may carry duplicates, and the final result relation.
// ---------------------------------------------------------------------------

class TupleCursor {
 public:
  virtual ~TupleCursor() = default;
  virtual Result<const Tuple*> Next() = 0;
};

/// A cursor plus the statically known properties of its stream. `unique`
/// is true when the stream provably cannot yield the same tuple twice —
/// set semantics then need no dedup step downstream. Projections, unions
/// and index-lookup semijoins forfeit it; everything else preserves it.
struct Stream {
  std::unique_ptr<TupleCursor> cursor;
  std::shared_ptr<const RelationSchema> schema;
  bool unique = true;
};

class ScanCursor : public TupleCursor {
 public:
  explicit ScanCursor(RelHandle rel)
      : rel_(std::move(rel)),
        it_(rel_.get().begin()),
        end_(rel_.get().end()) {}

  Result<const Tuple*> Next() override {
    if (it_ == end_) return static_cast<const Tuple*>(nullptr);
    const Tuple* t = &*it_;
    ++it_;
    return t;
  }

 private:
  RelHandle rel_;
  Relation::ConstIterator it_;
  Relation::ConstIterator end_;
};

class EmptyCursor : public TupleCursor {
 public:
  Result<const Tuple*> Next() override {
    return static_cast<const Tuple*>(nullptr);
  }
};

/// Re-yields one already-pulled tuple ahead of the rest of the stream:
/// the peek-then-continue pattern. The short-circuit joins peek their
/// differential-bounded side to decide whether the base side needs
/// resolving at all; when it does, the peeked tuple is handed back
/// through this wrapper so counting and results stay exact.
class PrependCursor : public TupleCursor {
 public:
  PrependCursor(Tuple first, std::unique_ptr<TupleCursor> rest)
      : first_(std::move(first)), rest_(std::move(rest)) {}

  Result<const Tuple*> Next() override {
    if (!first_done_) {
      first_done_ = true;
      return &first_;
    }
    return rest_->Next();
  }

 private:
  Tuple first_;
  std::unique_ptr<TupleCursor> rest_;
  bool first_done_ = false;
};

class SelectCursor : public TupleCursor {
 public:
  SelectCursor(Stream child, const ScalarExpr* pred, EvalStats* stats)
      : child_(std::move(child)), pred_(pred), stats_(stats) {}

  Result<const Tuple*> Next() override {
    for (;;) {
      TXMOD_ASSIGN_OR_RETURN(const Tuple* t, child_.cursor->Next());
      if (t == nullptr) return t;
      CountScan(stats_, 1);
      TXMOD_ASSIGN_OR_RETURN(bool keep, pred_->EvalPredicate(t, nullptr));
      if (keep) {
        CountEmit(stats_, 1);
        return t;
      }
    }
  }

 private:
  Stream child_;
  const ScalarExpr* pred_;
  EvalStats* stats_;
};

class ProjectCursor : public TupleCursor {
 public:
  ProjectCursor(Stream child, const std::vector<ProjectionItem>* items,
                EvalStats* stats)
      : child_(std::move(child)),
        items_(items),
        stats_(stats),
        scratch_(std::vector<Value>(items->size())) {}

  Result<const Tuple*> Next() override {
    TXMOD_ASSIGN_OR_RETURN(const Tuple* t, child_.cursor->Next());
    if (t == nullptr) return t;
    CountScan(stats_, 1);
    for (std::size_t i = 0; i < items_->size(); ++i) {
      TXMOD_ASSIGN_OR_RETURN(Value v, (*items_)[i].expr.EvalValue(t, nullptr));
      scratch_.at(i) = std::move(v);
    }
    CountEmit(stats_, 1);
    return &scratch_;
  }

 private:
  Stream child_;
  const std::vector<ProjectionItem>* items_;
  EvalStats* stats_;
  Tuple scratch_;
};

/// Copies `src` into `dst` starting at `offset` (scratch concatenation for
/// products and joins — no fresh Tuple allocation per output row).
void FillScratch(Tuple* dst, const Tuple& src, std::size_t offset) {
  for (std::size_t i = 0; i < src.arity(); ++i) {
    dst->at(offset + i) = src.at(i);
  }
}

class ProductCursor : public TupleCursor {
 public:
  ProductCursor(Stream left, RelHandle right, std::size_t left_arity,
                std::size_t right_arity, EvalStats* stats)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_arity_(left_arity),
        stats_(stats),
        scratch_(std::vector<Value>(left_arity + right_arity)) {}

  Result<const Tuple*> Next() override {
    for (;;) {
      if (lt_ == nullptr || rit_ == right_.get().end()) {
        TXMOD_ASSIGN_OR_RETURN(lt_, left_.cursor->Next());
        if (lt_ == nullptr) return lt_;
        CountScan(stats_, 1);
        FillScratch(&scratch_, *lt_, 0);
        rit_ = right_.get().begin();
        if (rit_ == right_.get().end()) continue;  // empty right operand
      }
      FillScratch(&scratch_, *rit_, left_arity_);
      ++rit_;
      CountEmit(stats_, 1);
      return &scratch_;
    }
  }

 private:
  Stream left_;
  RelHandle right_;
  std::size_t left_arity_;
  EvalStats* stats_;
  Tuple scratch_;
  const Tuple* lt_ = nullptr;
  Relation::ConstIterator rit_;
};

/// Join / semijoin / antijoin over the equality conjuncts of the
/// predicate. The right (build) side is either a transient table built
/// once per evaluation, or — the differential-check fast path — an
/// overlay-aware view of the persistent indexes declared on a base
/// relation (RelationIndexView), in which case this cursor does no build
/// work at all. Probing hashes the left tuple's key attributes in place
/// (EquiKeyHash): no per-probe Tuple allocation. Candidates are verified
/// against the full predicate, so hash collisions (and the predicate's
/// extra non-equality conjuncts) stay correct.
class HashJoinCursor : public TupleCursor {
 public:
  HashJoinCursor(RelExprKind kind, const ScalarExpr* pred, Stream left,
                 RelHandle right, RelationIndexView view,
                 std::vector<int> lattrs, std::vector<int> rattrs,
                 std::size_t out_arity, EvalStats* stats)
      : kind_(kind),
        pred_(pred),
        left_(std::move(left)),
        right_(std::move(right)),
        view_(std::move(view)),
        lattrs_(std::move(lattrs)),
        stats_(stats),
        scratch_(std::vector<Value>(out_arity)) {
    if (!view_.valid()) {
      build_.reserve(right_.get().size());
      table_.Reserve(right_.get().size());
      for (const Tuple& rt : right_.get()) {
        build_.push_back(&rt);
        table_.Add(EquiKeyHash(rt, rattrs));
      }
    }
  }

  Result<const Tuple*> Next() override {
    for (;;) {
      if (kind_ == RelExprKind::kJoin && lt_ != nullptr) {
        while (const Tuple* rt = NextCandidate()) {
          TXMOD_ASSIGN_OR_RETURN(bool match,
                                 pred_->EvalPredicate(lt_, rt));
          if (match) {
            FillScratch(&scratch_, *rt, lt_->arity());
            CountEmit(stats_, 1);
            return &scratch_;
          }
        }
      }
      TXMOD_ASSIGN_OR_RETURN(lt_, left_.cursor->Next());
      if (lt_ == nullptr) return lt_;
      CountScan(stats_, 1);
      const std::size_t h = EquiKeyHash(*lt_, lattrs_);
      if (view_.valid()) {
        CountProbe(stats_, 1);
        cand_ = view_.Probe(h);
      } else {
        key_ = h;
        row_ = table_.First(h);
      }
      if (kind_ == RelExprKind::kJoin) {
        FillScratch(&scratch_, *lt_, 0);
        continue;
      }
      bool matched = false;
      while (const Tuple* rt = NextCandidate()) {
        TXMOD_ASSIGN_OR_RETURN(bool match,
                               pred_->EvalPredicate(lt_, rt));
        if (match) {
          matched = true;
          break;
        }
      }
      if (matched == (kind_ == RelExprKind::kSemiJoin)) {
        CountEmit(stats_, 1);
        return lt_;
      }
    }
  }

 private:
  const Tuple* NextCandidate() {
    if (view_.valid()) return cand_.Next();
    if (row_ == KeyTable::kEnd) return nullptr;
    const Tuple* t = build_[row_];
    row_ = table_.Next(row_, key_);
    return t;
  }

  RelExprKind kind_;
  const ScalarExpr* pred_;
  Stream left_;
  RelHandle right_;
  RelationIndexView view_;
  std::vector<int> lattrs_;
  EvalStats* stats_;
  // The transient build, without a view: the right side's tuples as rows
  // of a key table.
  std::vector<const Tuple*> build_;
  KeyTable table_;
  Tuple scratch_;
  const Tuple* lt_ = nullptr;
  RelationIndexView::Candidates cand_;
  std::size_t key_ = 0;
  uint32_t row_ = KeyTable::kEnd;
};

/// The index-lookup join: the small (differential-bounded) right side
/// drives lookups into a declared index on the left base relation, which
/// is never scanned. This inverts the probe direction of HashJoinCursor —
/// the shape the translator emits for delete-heavy referential checks,
/// semijoin[l.ref = r.key](F, dminus(K)), costs O(|dminus(K)|) probes
/// instead of O(|F|). Join output order stays (left, right); semijoin
/// emits left tuples and may emit one twice (set-dedup at the
/// materialization boundary), so the stream is not unique.
class IndexLookupJoinCursor : public TupleCursor {
 public:
  IndexLookupJoinCursor(RelExprKind kind, const ScalarExpr* pred,
                        RelationIndexView view, Stream right,
                        std::vector<int> rattrs, std::size_t left_arity,
                        std::size_t out_arity, EvalStats* stats)
      : kind_(kind),
        pred_(pred),
        view_(std::move(view)),
        right_(std::move(right)),
        rattrs_(std::move(rattrs)),
        left_arity_(left_arity),
        stats_(stats),
        scratch_(std::vector<Value>(out_arity)) {}

  Result<const Tuple*> Next() override {
    for (;;) {
      while (const Tuple* lt = cand_.Next()) {
        TXMOD_ASSIGN_OR_RETURN(bool match,
                               pred_->EvalPredicate(lt, rt_));
        if (!match) continue;
        CountEmit(stats_, 1);
        if (kind_ == RelExprKind::kSemiJoin) return lt;
        FillScratch(&scratch_, *lt, 0);
        return &scratch_;
      }
      TXMOD_ASSIGN_OR_RETURN(rt_, right_.cursor->Next());
      if (rt_ == nullptr) return rt_;
      CountScan(stats_, 1);
      CountProbe(stats_, 1);
      cand_ = view_.Probe(EquiKeyHash(*rt_, rattrs_));
      if (kind_ == RelExprKind::kJoin) {
        // Pre-fill the right half of the output scratch for this probe's
        // candidates (harmlessly overwritten if none survive).
        FillScratch(&scratch_, *rt_, left_arity_);
      }
    }
  }

 private:
  RelExprKind kind_;
  const ScalarExpr* pred_;
  RelationIndexView view_;
  Stream right_;
  std::vector<int> rattrs_;
  std::size_t left_arity_;
  EvalStats* stats_;
  Tuple scratch_;
  const Tuple* rt_ = nullptr;
  RelationIndexView::Candidates cand_;
};

/// Join-like fallback when the predicate has no equality conjunct: stream
/// the left side against the materialized right side.
class NestedJoinCursor : public TupleCursor {
 public:
  NestedJoinCursor(RelExprKind kind, const ScalarExpr* pred, Stream left,
                   RelHandle right, std::size_t out_arity, EvalStats* stats)
      : kind_(kind),
        pred_(pred),
        left_(std::move(left)),
        right_(std::move(right)),
        stats_(stats),
        scratch_(std::vector<Value>(out_arity)) {}

  Result<const Tuple*> Next() override {
    for (;;) {
      if (kind_ == RelExprKind::kJoin && lt_ != nullptr) {
        while (rit_ != right_.get().end()) {
          const Tuple* rt = &*rit_;
          ++rit_;
          TXMOD_ASSIGN_OR_RETURN(bool match,
                                 pred_->EvalPredicate(lt_, rt));
          if (match) {
            FillScratch(&scratch_, *rt, lt_->arity());
            CountEmit(stats_, 1);
            return &scratch_;
          }
        }
      }
      TXMOD_ASSIGN_OR_RETURN(lt_, left_.cursor->Next());
      if (lt_ == nullptr) return lt_;
      CountScan(stats_, 1);
      if (kind_ == RelExprKind::kJoin) {
        rit_ = right_.get().begin();
        FillScratch(&scratch_, *lt_, 0);
        continue;
      }
      bool matched = false;
      for (const Tuple& rt : right_.get()) {
        TXMOD_ASSIGN_OR_RETURN(bool match,
                               pred_->EvalPredicate(lt_, &rt));
        if (match) {
          matched = true;
          break;
        }
      }
      if (matched == (kind_ == RelExprKind::kSemiJoin)) {
        CountEmit(stats_, 1);
        return lt_;
      }
    }
  }

 private:
  RelExprKind kind_;
  const ScalarExpr* pred_;
  Stream left_;
  RelHandle right_;
  EvalStats* stats_;
  Tuple scratch_;
  const Tuple* lt_ = nullptr;
  Relation::ConstIterator rit_;
};

class UnionCursor : public TupleCursor {
 public:
  UnionCursor(Stream left, Stream right, EvalStats* stats)
      : left_(std::move(left)), right_(std::move(right)), stats_(stats) {}

  Result<const Tuple*> Next() override {
    if (!left_done_) {
      TXMOD_ASSIGN_OR_RETURN(const Tuple* t, left_.cursor->Next());
      if (t != nullptr) {
        CountScan(stats_, 1);
        CountEmit(stats_, 1);
        return t;
      }
      left_done_ = true;
    }
    TXMOD_ASSIGN_OR_RETURN(const Tuple* t, right_.cursor->Next());
    if (t != nullptr) {
      CountScan(stats_, 1);
      CountEmit(stats_, 1);
    }
    return t;
  }

 private:
  Stream left_;
  Stream right_;
  EvalStats* stats_;
  bool left_done_ = false;
};

/// Difference (want_in = false) / intersection (want_in = true) against a
/// *projection of an indexed base relation*, without materializing the
/// projection: x is a member of project[attrs](R) iff some R-tuple carries
/// exactly x's values at `attrs`, which one probe of R's index answers.
/// This is the shape the translator emits for the paper's differential
/// referential checks — diff(project[ref](dplus(F)), project[key](K)) —
/// and is what turns their cost from O(|K|) into O(|dplus(F)|).
/// Membership is type-exact (set semantics), verified on each candidate;
/// KeyHash never separates identical values, so no member is missed.
///
/// `views` holds R's index view: one for a whole relation, or one per
/// fragment of a fragmented one that can hold a member, all on the same
/// attributes. A tuple is a member when some view holds it.
class IndexedSetOpCursor : public TupleCursor {
 public:
  IndexedSetOpCursor(Stream left, std::vector<RelationIndexView> views,
                     bool want_in, EvalStats* stats)
      : left_(std::move(left)),
        views_(std::move(views)),
        want_in_(want_in),
        stats_(stats) {
    probe_attrs_.reserve(views_[0].attrs().size());
    for (std::size_t i = 0; i < views_[0].attrs().size(); ++i) {
      probe_attrs_.push_back(static_cast<int>(i));
    }
  }

  Result<const Tuple*> Next() override {
    for (;;) {
      TXMOD_ASSIGN_OR_RETURN(const Tuple* t, left_.cursor->Next());
      if (t == nullptr) return t;
      CountScan(stats_, 1);
      const std::size_t h = EquiKeyHash(*t, probe_attrs_);
      bool found = false;
      for (std::size_t i = 0; i < views_.size() && !found; ++i) {
        found = Member(views_[i], h, *t);
      }
      if (found == want_in_) {
        CountEmit(stats_, 1);
        return t;
      }
    }
  }

 private:
  bool Member(const RelationIndexView& view, std::size_t h, const Tuple& t) {
    CountProbe(stats_, 1);
    RelationIndexView::Candidates cand = view.Probe(h);
    while (const Tuple* c = cand.Next()) {
      bool equal = true;
      for (std::size_t i = 0; i < view.attrs().size(); ++i) {
        const std::size_t a = static_cast<std::size_t>(view.attrs()[i]);
        if (!(c->at(a) == t.at(i))) {
          equal = false;
          break;
        }
      }
      if (equal) return true;
    }
    return false;
  }

  Stream left_;
  std::vector<RelationIndexView> views_;
  bool want_in_;
  EvalStats* stats_;
  std::vector<int> probe_attrs_;
};

/// Difference (want_in = false) / intersection (want_in = true): stream
/// the left side, membership-test against the materialized right side.
class FilterSetOpCursor : public TupleCursor {
 public:
  FilterSetOpCursor(Stream left, RelHandle right, bool want_in,
                    EvalStats* stats)
      : left_(std::move(left)),
        right_(std::move(right)),
        want_in_(want_in),
        stats_(stats) {}

  Result<const Tuple*> Next() override {
    for (;;) {
      TXMOD_ASSIGN_OR_RETURN(const Tuple* t, left_.cursor->Next());
      if (t == nullptr) return t;
      CountScan(stats_, 1);
      if (right_.get().Contains(*t) == want_in_) {
        CountEmit(stats_, 1);
        return t;
      }
    }
  }

 private:
  Stream left_;
  RelHandle right_;
  bool want_in_;
  EvalStats* stats_;
};

Result<Relation> Drain(Stream* s) {
  Relation out(s->schema);
  for (;;) {
    TXMOD_ASSIGN_OR_RETURN(const Tuple* t, s->cursor->Next());
    if (t == nullptr) break;
    out.Insert(*t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Compilation: logical RelExpr -> physical operator tree. All operator
// choice lives here; execution below only follows the chosen ops.
// ---------------------------------------------------------------------------

/// True when `e`'s result size is bounded by the transaction's
/// differentials (and literals), independent of base-relation sizes — the
/// compiled differential checks' "small side". Such a side may safely
/// drive an index-lookup join into a base relation.
bool DeltaBounded(const RelExpr& e) {
  switch (e.kind()) {
    case RelExprKind::kRef:
      return e.ref_kind() == RelRefKind::kDeltaPlus ||
             e.ref_kind() == RelRefKind::kDeltaMinus;
    case RelExprKind::kLiteral:
      return true;
    case RelExprKind::kAggregate:
      // A scalar aggregate is one tuple; grouped output is bounded by its
      // input.
      return e.group_by().empty() || DeltaBounded(*e.left());
    case RelExprKind::kSelect:
    case RelExprKind::kProject:
      return DeltaBounded(*e.left());
    case RelExprKind::kSemiJoin:
    case RelExprKind::kAntiJoin:
    case RelExprKind::kDifference:
    case RelExprKind::kIntersect:
      return DeltaBounded(*e.left());  // output is a subset of the left
    case RelExprKind::kUnion:
    case RelExprKind::kProduct:
    case RelExprKind::kJoin:
      return DeltaBounded(*e.left()) && DeltaBounded(*e.right());
  }
  return false;
}

std::unique_ptr<PhysicalNode> CompileNode(const RelExpr& e) {
  auto n = std::make_unique<PhysicalNode>();
  n->logical = &e;
  switch (e.kind()) {
    case RelExprKind::kRef:
      n->op = PhysOpKind::kScan;
      return n;
    case RelExprKind::kLiteral:
      n->op = PhysOpKind::kLiteral;
      return n;
    case RelExprKind::kSelect:
      n->op = PhysOpKind::kSelect;
      n->children.push_back(CompileNode(*e.left()));
      return n;
    case RelExprKind::kProject:
      n->op = PhysOpKind::kProject;
      n->children.push_back(CompileNode(*e.left()));
      return n;
    case RelExprKind::kProduct:
      n->op = PhysOpKind::kProduct;
      n->children.push_back(CompileNode(*e.left()));
      n->children.push_back(CompileNode(*e.right()));
      return n;
    case RelExprKind::kJoin:
    case RelExprKind::kSemiJoin:
    case RelExprKind::kAntiJoin: {
      std::vector<std::pair<int, int>> equi;
      CollectEquiPairs(e.predicate(), &equi);
      for (const auto& [a, b] : equi) {
        n->left_keys.push_back(a);
        n->right_keys.push_back(b);
      }
      n->children.push_back(CompileNode(*e.left()));
      n->children.push_back(CompileNode(*e.right()));
      if (equi.empty()) {
        n->op = PhysOpKind::kNestedLoopJoin;
      } else if (e.kind() != RelExprKind::kAntiJoin &&
                 e.left()->kind() == RelExprKind::kRef &&
                 e.left()->ref_kind() == RelRefKind::kBase &&
                 DeltaBounded(*e.right())) {
        // The delete-heavy differential shape: a large base relation
        // probed against a small differential side. Drive from the small
        // side through the base relation's index. (Antijoins must visit
        // every left tuple, so they gain nothing from this inversion.)
        n->op = PhysOpKind::kIndexLookupJoin;
      } else {
        n->op = PhysOpKind::kHashJoin;
      }
      return n;
    }
    case RelExprKind::kUnion:
      n->op = PhysOpKind::kUnion;
      n->children.push_back(CompileNode(*e.left()));
      n->children.push_back(CompileNode(*e.right()));
      return n;
    case RelExprKind::kDifference:
    case RelExprKind::kIntersect: {
      n->children.push_back(CompileNode(*e.left()));
      n->children.push_back(CompileNode(*e.right()));
      std::vector<int> attrs;
      if (IsAttrProjectionOfRef(*e.right(), &attrs)) {
        n->op = PhysOpKind::kIndexSetOp;
        n->setop_ref_kind = e.right()->left()->ref_kind();
        n->setop_rel = e.right()->left()->rel_name();
        n->setop_attrs = std::move(attrs);
      } else {
        n->op = PhysOpKind::kHashSetOp;
      }
      return n;
    }
    case RelExprKind::kAggregate:
      n->op = PhysOpKind::kAggregate;
      n->children.push_back(CompileNode(*e.left()));
      return n;
  }
  n->op = PhysOpKind::kScan;
  return n;
}

// ---------------------------------------------------------------------------
// Serial execution: the pull-based pipeline over a compiled plan.
// ---------------------------------------------------------------------------

class PlanExecutor {
 public:
  PlanExecutor(const EvalContext& ctx, EvalStats* stats)
      : ctx_(ctx), stats_(stats) {}

  Result<Relation> Evaluate(const PhysicalNode& n) {
    // Nodes that are whole relations already (references) or inherently
    // eager (literals, aggregates) skip the cursor layer at the root.
    switch (n.op) {
      case PhysOpKind::kScan:
      case PhysOpKind::kLiteral:
      case PhysOpKind::kAggregate: {
        TXMOD_ASSIGN_OR_RETURN(RelHandle h, Materialize(n));
        return std::move(h).Take();
      }
      default:
        break;
    }
    TXMOD_ASSIGN_OR_RETURN(Stream s, Open(n));
    return Drain(&s);
  }

 private:
  /// A whole-relation view of `n`: borrowed for references, owned (and
  /// deduplicated) for everything else. Build sides of joins, products and
  /// set operations — the pipeline breakers — come through here.
  Result<RelHandle> Materialize(const PhysicalNode& n) {
    switch (n.op) {
      case PhysOpKind::kScan: {
        CountOperator(stats_);
        TXMOD_ASSIGN_OR_RETURN(
            const Relation* rel,
            ctx_.Resolve(n.logical->ref_kind(), n.logical->rel_name()));
        return RelHandle::Borrowed(rel);
      }
      case PhysOpKind::kLiteral: {
        CountOperator(stats_);
        TXMOD_ASSIGN_OR_RETURN(Relation out,
                               MaterializeLiteral(*n.logical, stats_));
        return RelHandle::Owned(std::move(out));
      }
      case PhysOpKind::kAggregate: {
        CountOperator(stats_);
        return EvalAggregate(n);
      }
      default: {
        TXMOD_ASSIGN_OR_RETURN(Stream s, Open(n));
        TXMOD_ASSIGN_OR_RETURN(Relation out, Drain(&s));
        return RelHandle::Owned(std::move(out));
      }
    }
  }

  Result<Stream> Open(const PhysicalNode& n) {
    switch (n.op) {
      case PhysOpKind::kScan:
      case PhysOpKind::kLiteral:
      case PhysOpKind::kAggregate: {
        TXMOD_ASSIGN_OR_RETURN(RelHandle h, Materialize(n));
        Stream s;
        s.schema = h.get().schema_ptr();
        s.unique = true;
        s.cursor = std::make_unique<ScanCursor>(std::move(h));
        return s;
      }
      case PhysOpKind::kSelect:
        return OpenSelect(n);
      case PhysOpKind::kProject:
        return OpenProject(n);
      case PhysOpKind::kProduct:
        return OpenProduct(n);
      case PhysOpKind::kHashJoin:
      case PhysOpKind::kNestedLoopJoin:
        return OpenJoinLike(n);
      case PhysOpKind::kIndexLookupJoin:
        return OpenIndexLookupJoin(n);
      case PhysOpKind::kUnion:
        return OpenUnion(n);
      case PhysOpKind::kHashSetOp:
      case PhysOpKind::kIndexSetOp:
        return OpenSetOp(n);
    }
    return Status::Internal("unknown physical operator");
  }

  Result<Stream> OpenSelect(const PhysicalNode& n) {
    CountOperator(stats_);
    TXMOD_ASSIGN_OR_RETURN(Stream in, Open(n.child(0)));
    Stream s;
    s.schema = in.schema;
    s.unique = in.unique;
    s.cursor = std::make_unique<SelectCursor>(
        std::move(in), &n.logical->predicate(), stats_);
    return s;
  }

  Result<Stream> OpenProject(const PhysicalNode& n) {
    CountOperator(stats_);
    TXMOD_ASSIGN_OR_RETURN(Stream in, Open(n.child(0)));
    const std::vector<ProjectionItem>& items = n.logical->projections();
    std::vector<Attribute> attrs;
    attrs.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      attrs.push_back(
          Attribute{ProjectionItemName(items[i], *in.schema, i),
                    InferScalarType(items[i].expr, *in.schema)});
    }
    Stream s;
    s.schema = MakeSchema(std::move(attrs));
    s.unique = false;  // distinct inputs may project to the same output
    s.cursor = std::make_unique<ProjectCursor>(std::move(in), &items, stats_);
    return s;
  }

  Result<Stream> OpenProduct(const PhysicalNode& n) {
    CountOperator(stats_);
    TXMOD_ASSIGN_OR_RETURN(RelHandle right, Materialize(n.child(1)));
    CountScan(stats_, right.get().size());  // build side is read once
    TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
    const std::size_t larity = l.schema->arity();
    const std::size_t rarity = right.get().arity();
    Stream s;
    s.schema = MakeSchema(ConcatAttrs(*l.schema, right.get().schema()));
    s.unique = l.unique;  // the right side, a set, cannot repeat
    s.cursor = std::make_unique<ProductCursor>(std::move(l), std::move(right),
                                               larity, rarity, stats_);
    return s;
  }

  Result<Stream> OpenJoinLike(const PhysicalNode& n) {
    CountOperator(stats_);
    // The build side. A borrowed base relation with a declared index on
    // exactly the join's key attributes is probed in place: no scan, no
    // table build — this is what makes the compiled differential checks
    // cheap on every transaction after the first.
    TXMOD_ASSIGN_OR_RETURN(RelHandle right, Materialize(n.child(1)));
    return OpenJoinWithRight(n, std::move(right));
  }

  /// The rest of a join-like open, once the build side is in hand (the
  /// index-lookup fallback re-enters here with its already-peeked side).
  /// The caller has counted the operator.
  Result<Stream> OpenJoinWithRight(const PhysicalNode& n, RelHandle right) {
    const RelExpr& e = *n.logical;
    const Relation& r = right.get();
    const RelationIndexView view = n.right_keys.empty()
                                       ? RelationIndexView()
                                       : r.FindIndexView(n.right_keys);

    const bool is_join = e.kind() == RelExprKind::kJoin;
    if (r.empty()) {
      // An antijoin with nothing to exclude is the left side itself; a
      // join or semijoin with nothing to match is empty without reading
      // the left side at all — its schema is resolved without recording a
      // data read, which keeps optimistic read sets free of relations a
      // trivially-satisfied differential check never actually consulted.
      if (e.kind() == RelExprKind::kAntiJoin) return Open(n.child(0));
      TXMOD_ASSIGN_OR_RETURN(std::shared_ptr<const RelationSchema> lschema,
                             SubtreeSchema(n.child(0)));
      if (lschema != nullptr) {
        Stream s;
        s.schema = is_join ? MakeSchema(ConcatAttrs(*lschema, r.schema()))
                           : std::move(lschema);
        s.unique = true;
        s.cursor = std::make_unique<EmptyCursor>();
        return s;
      }
      // Schema inference could not type the subtree; open it (the
      // cursor below never pulls from it).
      TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
      Stream s;
      s.schema = is_join ? MakeSchema(ConcatAttrs(*l.schema, r.schema()))
                         : l.schema;
      s.unique = true;
      s.cursor = std::make_unique<EmptyCursor>();
      return s;
    }

    TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
    Stream s;
    s.schema = is_join ? MakeSchema(ConcatAttrs(*l.schema, r.schema()))
                       : l.schema;
    s.unique = l.unique;
    const std::size_t out_arity = s.schema->arity();
    if (!n.right_keys.empty()) {
      // A transient build scans the right side once; an index build side
      // is not scanned at all.
      if (!view.valid()) CountScan(stats_, r.size());
      s.cursor = std::make_unique<HashJoinCursor>(
          e.kind(), &e.predicate(), std::move(l), std::move(right), view,
          n.left_keys, n.right_keys, out_arity, stats_);
    } else {
      CountScan(stats_, r.size());
      s.cursor = std::make_unique<NestedJoinCursor>(
          e.kind(), &e.predicate(), std::move(l), std::move(right),
          out_arity, stats_);
    }
    return s;
  }

  Result<Stream> OpenIndexLookupJoin(const PhysicalNode& n) {
    const RelExpr& e = *n.logical;
    const bool is_join = e.kind() == RelExprKind::kJoin;
    // Peek the differential-bounded right side before touching the base
    // probe side: a rule check over an untouched differential then never
    // resolves the base relation at all — no scan, no index probe, and
    // (for optimistic sessions) no recorded read to conflict on.
    TXMOD_ASSIGN_OR_RETURN(Stream r, Open(n.child(1)));
    TXMOD_ASSIGN_OR_RETURN(const Tuple* first, r.cursor->Next());
    if (first == nullptr) {
      CountOperator(stats_);
      TXMOD_ASSIGN_OR_RETURN(
          const Relation* base,
          ctx_.ResolveSchemaOnly(e.left()->ref_kind(),
                                 e.left()->rel_name()));
      Stream s;
      s.schema = is_join
                     ? MakeSchema(ConcatAttrs(base->schema(), *r.schema))
                     : base->schema_ptr();
      s.unique = true;
      s.cursor = std::make_unique<EmptyCursor>();
      return s;
    }
    Tuple first_copy = *first;
    r.cursor = std::make_unique<PrependCursor>(std::move(first_copy),
                                               std::move(r.cursor));

    TXMOD_ASSIGN_OR_RETURN(
        const Relation* base,
        ctx_.Resolve(e.left()->ref_kind(), e.left()->rel_name()));
    RelationIndexView view = base->FindIndexView(n.left_keys);
    // Without a declared probe-side index the inversion has no advantage;
    // run the node as the plain hash join it would otherwise have been,
    // materializing the (already peeked) right side as its build.
    if (!view.valid()) {
      CountOperator(stats_);
      TXMOD_ASSIGN_OR_RETURN(Relation right_rel, Drain(&r));
      return OpenJoinWithRight(n, RelHandle::Owned(std::move(right_rel)));
    }

    CountOperator(stats_);
    Stream s;
    s.schema = is_join
                   ? MakeSchema(ConcatAttrs(base->schema(), *r.schema))
                   : base->schema_ptr();
    // A semijoin may surface the same base tuple for two different right
    // tuples; a join's output pairs repeat only if the right stream does.
    s.unique = is_join ? r.unique : false;
    const std::size_t out_arity = s.schema->arity();
    const std::size_t left_arity = base->arity();
    s.cursor = std::make_unique<IndexLookupJoinCursor>(
        e.kind(), &e.predicate(), std::move(view), std::move(r),
        n.right_keys, left_arity, out_arity, stats_);
    return s;
  }

  Result<Stream> OpenUnion(const PhysicalNode& n) {
    CountOperator(stats_);
    TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
    TXMOD_ASSIGN_OR_RETURN(Stream r, Open(n.child(1)));
    if (l.schema->arity() != r.schema->arity()) {
      return Status::InvalidArgument(
          StrCat("set operation over different arities: ", l.schema->arity(),
                 " vs ", r.schema->arity()));
    }
    Stream s;
    s.schema = l.schema;
    s.unique = false;  // the same tuple may arrive from both sides
    s.cursor = std::make_unique<UnionCursor>(std::move(l), std::move(r),
                                             stats_);
    return s;
  }

  Result<Stream> OpenSetOp(const PhysicalNode& n) {
    const RelExpr& e = *n.logical;
    const bool want_in = e.kind() == RelExprKind::kIntersect;
    // Indexed membership fast path: when the right side is a pure
    // attribute projection of a reference whose resolved relation carries
    // a declared index on exactly those attributes, the projection is
    // never materialized — each left tuple costs one index probe. Neither
    // the projection nor its input count as scanned. The left side is
    // peeked first: an empty left (an untouched differential, the common
    // rule-check case) makes both diff and intersect empty without the
    // membership relation ever being resolved — so it is not recorded as
    // a read.
    if (n.op == PhysOpKind::kIndexSetOp) {
      TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
      if (l.schema->arity() != n.setop_attrs.size()) {
        return Status::InvalidArgument(
            StrCat("set operation over different arities: ",
                   l.schema->arity(), " vs ", n.setop_attrs.size()));
      }
      TXMOD_ASSIGN_OR_RETURN(const Tuple* first, l.cursor->Next());
      if (first == nullptr) {
        CountOperator(stats_);
        Stream s;
        s.schema = l.schema;
        s.unique = true;
        s.cursor = std::make_unique<EmptyCursor>();
        return s;
      }
      Tuple first_copy = *first;
      l.cursor = std::make_unique<PrependCursor>(std::move(first_copy),
                                                 std::move(l.cursor));
      TXMOD_ASSIGN_OR_RETURN(const Relation* base,
                             ctx_.Resolve(n.setop_ref_kind, n.setop_rel));
      RelationIndexView view = base->FindIndexView(n.setop_attrs);
      if (view.valid()) {
        CountOperator(stats_);
        Stream s;
        s.schema = l.schema;
        s.unique = l.unique;
        std::vector<RelationIndexView> views;
        views.push_back(std::move(view));
        s.cursor = std::make_unique<IndexedSetOpCursor>(
            std::move(l), std::move(views), want_in, stats_);
        return s;
      }
      // No declared index after all: generic membership over the
      // already-open (peeked) left stream.
      CountOperator(stats_);
      TXMOD_ASSIGN_OR_RETURN(RelHandle right, Materialize(n.child(1)));
      return OpenSetOpWithInputs(std::move(l), std::move(right), want_in);
    }

    CountOperator(stats_);
    TXMOD_ASSIGN_OR_RETURN(RelHandle right, Materialize(n.child(1)));
    TXMOD_ASSIGN_OR_RETURN(Stream l, Open(n.child(0)));
    return OpenSetOpWithInputs(std::move(l), std::move(right), want_in);
  }

  Result<Stream> OpenSetOpWithInputs(Stream l, RelHandle right,
                                     bool want_in) {
    if (l.schema->arity() != right.get().arity()) {
      return Status::InvalidArgument(
          StrCat("set operation over different arities: ", l.schema->arity(),
                 " vs ", right.get().arity()));
    }
    if (right.get().empty()) {
      // Difference against nothing passes the left side through;
      // intersection with nothing is empty. No scans either way.
      if (!want_in) return l;
      Stream s;
      s.schema = l.schema;
      s.unique = true;
      s.cursor = std::make_unique<EmptyCursor>();
      return s;
    }
    CountScan(stats_, right.get().size());
    Stream s;
    s.schema = l.schema;
    s.unique = l.unique;
    s.cursor = std::make_unique<FilterSetOpCursor>(
        std::move(l), std::move(right), want_in, stats_);
    return s;
  }

  /// Static schema of the subtree under `n` without executing it and
  /// without recording data reads: a direct schema-only resolve for
  /// scans, logical-tree inference otherwise. Returns null (not an
  /// error) when inference cannot type the tree; the caller then falls
  /// back to opening the subtree.
  Result<std::shared_ptr<const RelationSchema>> SubtreeSchema(
      const PhysicalNode& n) {
    if (n.op == PhysOpKind::kScan) {
      TXMOD_ASSIGN_OR_RETURN(
          const Relation* rel,
          ctx_.ResolveSchemaOnly(n.logical->ref_kind(),
                                 n.logical->rel_name()));
      return rel->schema_ptr();
    }
    Result<RelationSchema> inferred = InferSchema(
        *n.logical,
        [this](RelRefKind kind,
               const std::string& name) -> Result<RelationSchema> {
          TXMOD_ASSIGN_OR_RETURN(const Relation* rel,
                                 ctx_.ResolveSchemaOnly(kind, name));
          return rel->schema();
        });
    if (!inferred.ok()) return std::shared_ptr<const RelationSchema>();
    return std::make_shared<const RelationSchema>(*std::move(inferred));
  }

  /// Aggregates are pipeline breakers: the whole input is consumed before
  /// the single output (or group rows) exist. A provably duplicate-free
  /// input streams straight into the accumulators; anything else (e.g. a
  /// projection) is materialized first, because relations are sets and
  /// CNT/SUM/AVG must not observe a tuple twice.
  Result<RelHandle> EvalAggregate(const PhysicalNode& n) {
    const RelExpr& e = *n.logical;
    TXMOD_ASSIGN_OR_RETURN(Stream in, Open(n.child(0)));
    const RelationSchema& in_schema = *in.schema;

    const int attr = e.agg_attr();
    const bool needs_attr = e.agg_func() != AggFunc::kCnt;
    if (needs_attr &&
        (attr < 0 || attr >= static_cast<int>(in_schema.arity()))) {
      return Status::InvalidArgument(
          StrCat("aggregate attribute #", attr, " out of range for arity ",
                 in_schema.arity()));
    }

    // Output schema: group attrs then the aggregate column.
    std::vector<Attribute> attrs;
    for (int g : e.group_by()) {
      if (g < 0 || g >= static_cast<int>(in_schema.arity())) {
        return Status::InvalidArgument(
            StrCat("group-by attribute #", g, " out of range"));
      }
      attrs.push_back(in_schema.attribute(static_cast<std::size_t>(g)));
    }
    AttrType agg_type = AttrType::kInt;
    switch (e.agg_func()) {
      case AggFunc::kCnt:
        agg_type = AttrType::kInt;
        break;
      case AggFunc::kAvg:
        agg_type = AttrType::kDouble;
        break;
      default:
        agg_type = needs_attr
                       ? in_schema.attribute(static_cast<std::size_t>(attr))
                             .type
                       : AttrType::kInt;
        break;
    }
    attrs.push_back(Attribute{AggFuncToString(e.agg_func()), agg_type});
    Relation out(MakeSchema(std::move(attrs)));

    auto observe = [&](AggPartial* acc, const Tuple& t) {
      if (!needs_attr) {
        acc->ObserveCount();
        return;
      }
      acc->Observe(t.at(static_cast<std::size_t>(attr)), e.agg_func());
    };

    AggPartial scalar_acc;
    std::unordered_map<Tuple, AggPartial, TupleHasher> groups;
    const bool grouped = !e.group_by().empty();
    auto process = [&](const Tuple& t) {
      CountScan(stats_, 1);
      if (!grouped) {
        observe(&scalar_acc, t);
        return;
      }
      std::vector<Value> key_vals;
      key_vals.reserve(e.group_by().size());
      for (int g : e.group_by()) {
        key_vals.push_back(t.at(static_cast<std::size_t>(g)));
      }
      observe(&groups[Tuple(std::move(key_vals))], t);
    };

    if (in.unique) {
      for (;;) {
        TXMOD_ASSIGN_OR_RETURN(const Tuple* t, in.cursor->Next());
        if (t == nullptr) break;
        process(*t);
      }
    } else {
      TXMOD_ASSIGN_OR_RETURN(Relation dedup, Drain(&in));
      for (const Tuple& t : dedup) {
        process(t);
      }
    }

    if (!grouped) {
      TXMOD_ASSIGN_OR_RETURN(Value v,
                             FinalizeAggregate(scalar_acc, e.agg_func()));
      out.Insert(Tuple({std::move(v)}));
    } else {
      for (const auto& [key, acc] : groups) {
        TXMOD_ASSIGN_OR_RETURN(Value v, FinalizeAggregate(acc, e.agg_func()));
        Tuple row = key;
        row.Append(std::move(v));
        out.Insert(std::move(row));
      }
    }
    CountEmit(stats_, out.size());
    return RelHandle::Owned(std::move(out));
  }

  const EvalContext& ctx_;
  EvalStats* stats_;
};

// ---------------------------------------------------------------------------
// Explain.
// ---------------------------------------------------------------------------

std::string KeyPairs(const PhysicalNode& n) {
  std::vector<std::string> parts;
  parts.reserve(n.left_keys.size());
  for (std::size_t i = 0; i < n.left_keys.size(); ++i) {
    parts.push_back(StrCat(n.left_keys[i], "=", n.right_keys[i]));
  }
  return Join(parts, ",");
}

std::string AttrList(const std::vector<int>& attrs) {
  std::vector<std::string> parts;
  parts.reserve(attrs.size());
  for (int a : attrs) parts.push_back(StrCat(a));
  return Join(parts, ",");
}

const char* JoinKindName(const RelExpr& e) {
  switch (e.kind()) {
    case RelExprKind::kJoin:
      return "join";
    case RelExprKind::kSemiJoin:
      return "semijoin";
    case RelExprKind::kAntiJoin:
      return "antijoin";
    default:
      return "?";
  }
}

void ExplainNode(const PhysicalNode& n, int depth, std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  const RelExpr& e = *n.logical;
  switch (n.op) {
    case PhysOpKind::kScan:
      out->append(StrCat("scan[", RelRefKindToString(e.ref_kind()), " ",
                         e.rel_name(), "]"));
      break;
    case PhysOpKind::kLiteral:
      out->append(StrCat("literal[", e.literal_tuples().size(), " tuples]"));
      break;
    case PhysOpKind::kSelect:
      out->append(StrCat("select[", e.predicate().ToString(), "]"));
      break;
    case PhysOpKind::kProject: {
      std::vector<std::string> items;
      for (const ProjectionItem& item : e.projections()) {
        items.push_back(item.name.empty() ? item.expr.ToString()
                                          : item.name);
      }
      out->append(StrCat("project[", Join(items, ","), "]"));
      break;
    }
    case PhysOpKind::kProduct:
      out->append("product");
      break;
    case PhysOpKind::kHashJoin:
      out->append(StrCat("hash_join[", JoinKindName(e), ", keys=(",
                         KeyPairs(n), ")]"));
      break;
    case PhysOpKind::kIndexLookupJoin:
      out->append(StrCat("index_lookup[", JoinKindName(e), ", probe=",
                         e.left()->rel_name(), "(", AttrList(n.left_keys),
                         "), keys=(", KeyPairs(n), ")]"));
      break;
    case PhysOpKind::kNestedLoopJoin:
      out->append(StrCat("nested_loop[", JoinKindName(e), "]"));
      break;
    case PhysOpKind::kUnion:
      out->append("union");
      break;
    case PhysOpKind::kHashSetOp:
      out->append(StrCat(
          "hash_set_op[",
          e.kind() == RelExprKind::kIntersect ? "intersect" : "diff", "]"));
      break;
    case PhysOpKind::kIndexSetOp:
      out->append(StrCat(
          "index_set_op[",
          e.kind() == RelExprKind::kIntersect ? "intersect" : "diff",
          ", member=", RelRefKindToString(n.setop_ref_kind), " ",
          n.setop_rel, "(", AttrList(n.setop_attrs), ")]"));
      break;
    case PhysOpKind::kAggregate:
      out->append(StrCat("aggregate[", AggFuncToString(e.agg_func()),
                         e.agg_func() == AggFunc::kCnt
                             ? std::string()
                             : StrCat(" #", e.agg_attr()),
                         "]"));
      break;
  }
  out->push_back('\n');
  // An index-lookup join never opens its probe-side child as an operator;
  // the scan line still prints so the shape stays readable.
  for (const auto& c : n.children) {
    ExplainNode(*c, depth + 1, out);
  }
}

void CollectIndexRequests(const PhysicalNode& n,
                          std::vector<PhysicalPlan::IndexRequest>* out) {
  switch (n.op) {
    case PhysOpKind::kHashJoin: {
      const RelExpr& right = *n.logical->right();
      if (right.kind() == RelExprKind::kRef &&
          right.ref_kind() == RelRefKind::kBase && !n.right_keys.empty()) {
        out->push_back({right.rel_name(), n.right_keys});
      }
      break;
    }
    case PhysOpKind::kIndexLookupJoin:
      out->push_back({n.logical->left()->rel_name(), n.left_keys});
      break;
    case PhysOpKind::kIndexSetOp:
      if (n.setop_ref_kind == RelRefKind::kBase) {
        out->push_back({n.setop_rel, n.setop_attrs});
      }
      break;
    default:
      break;
  }
  for (const auto& c : n.children) {
    CollectIndexRequests(*c, out);
  }
}

}  // namespace

const char* PhysOpKindToString(PhysOpKind op) {
  switch (op) {
    case PhysOpKind::kScan:
      return "scan";
    case PhysOpKind::kLiteral:
      return "literal";
    case PhysOpKind::kSelect:
      return "select";
    case PhysOpKind::kProject:
      return "project";
    case PhysOpKind::kProduct:
      return "product";
    case PhysOpKind::kHashJoin:
      return "hash_join";
    case PhysOpKind::kIndexLookupJoin:
      return "index_lookup_join";
    case PhysOpKind::kNestedLoopJoin:
      return "nested_loop_join";
    case PhysOpKind::kUnion:
      return "union";
    case PhysOpKind::kHashSetOp:
      return "hash_set_op";
    case PhysOpKind::kIndexSetOp:
      return "index_set_op";
    case PhysOpKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

Result<PhysicalPlan> PhysicalPlan::Compile(const RelExpr& expr) {
  PhysicalPlan plan;
  plan.root_ = CompileNode(expr);
  return plan;
}

Result<PhysicalPlan> PhysicalPlan::Compile(RelExprPtr expr) {
  if (expr == nullptr) {
    return Status::InvalidArgument("cannot compile a null expression");
  }
  TXMOD_ASSIGN_OR_RETURN(PhysicalPlan plan, Compile(*expr));
  plan.owned_ = std::move(expr);
  return plan;
}

Result<Relation> PhysicalPlan::Execute(const EvalContext& ctx,
                                       EvalStats* stats) const {
  PlanExecutor exec(ctx, stats);
  return exec.Evaluate(*root_);
}

std::string PhysicalPlan::Explain() const {
  std::string out;
  ExplainNode(*root_, 0, &out);
  return out;
}

std::vector<PhysicalPlan::IndexRequest> PhysicalPlan::IndexRequests() const {
  std::vector<IndexRequest> out;
  CollectIndexRequests(*root_, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Shared eager kernels: literals and fragment-local operator execution.
// ---------------------------------------------------------------------------

Status CheckLiteralArity(const RelExpr& e) {
  for (const Tuple& t : e.literal_tuples()) {
    if (static_cast<int>(t.arity()) != e.literal_arity()) {
      return Status::InvalidArgument(
          StrCat("literal tuple ", t.ToString(), " has arity ", t.arity(),
                 ", expected ", e.literal_arity()));
    }
  }
  return Status::OK();
}

Result<Relation> MaterializeLiteral(const RelExpr& e, EvalStats* stats) {
  const std::vector<Tuple>& tuples = e.literal_tuples();
  // Every tuple's arity is validated before the schema-inference loop
  // below reads attribute i of arbitrary tuples: a short tuple used to
  // be an out-of-bounds read.
  TXMOD_RETURN_IF_ERROR(CheckLiteralArity(e));
  std::vector<Attribute> attrs;
  for (int i = 0; i < e.literal_arity(); ++i) {
    const std::size_t col = static_cast<std::size_t>(i);
    AttrType type = AttrType::kString;
    for (const Tuple& t : tuples) {
      if (!t.at(col).is_null()) {
        type = ValueAttrType(t.at(col));
        break;
      }
    }
    attrs.push_back(Attribute{StrCat("c", i), type});
  }
  Relation out(MakeSchema(std::move(attrs)));
  for (const Tuple& t : tuples) {
    out.Insert(t);
  }
  CountEmit(stats, out.size());
  return out;
}

Result<Relation> ExecuteNodeLocal(const PhysicalNode& n,
                                  const Relation& input,
                                  const Relation* right, EvalStats* stats,
                                  const FragmentProbe* probe) {
  const RelExpr& e = *n.logical;
  const bool want_in = e.kind() == RelExprKind::kIntersect;
  Stream in;
  in.schema = input.schema_ptr();
  in.cursor = std::make_unique<ScanCursor>(RelHandle::Borrowed(&input));
  Stream s;
  if (probe != nullptr && n.op == PhysOpKind::kIndexLookupJoin) {
    // The streamed side is the shipped delta; the base side is probed in
    // place, so nothing is built or scanned up front.
    s.schema = e.kind() == RelExprKind::kJoin
                   ? MakeSchema(ConcatAttrs(*probe->schema, *in.schema))
                   : probe->schema;
    s.cursor = std::make_unique<IndexLookupJoinCursor>(
        e.kind(), &e.predicate(), probe->views[0], std::move(in),
        n.right_keys, probe->schema->arity(), s.schema->arity(), stats);
    return Drain(&s);
  }
  if (probe != nullptr && n.op == PhysOpKind::kIndexSetOp) {
    if (in.schema->arity() != n.setop_attrs.size()) {
      return Status::InvalidArgument("set operation over different arities");
    }
    s.schema = in.schema;
    s.cursor = std::make_unique<IndexedSetOpCursor>(std::move(in),
                                                    probe->views, want_in,
                                                    stats);
    return Drain(&s);
  }
  switch (n.op) {
    case PhysOpKind::kSelect:
      s.schema = in.schema;
      s.cursor = std::make_unique<SelectCursor>(std::move(in),
                                                &e.predicate(), stats);
      break;
    case PhysOpKind::kProject: {
      const std::vector<ProjectionItem>& items = e.projections();
      std::vector<Attribute> attrs;
      attrs.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        attrs.push_back(
            Attribute{ProjectionItemName(items[i], *in.schema, i),
                      InferScalarType(items[i].expr, *in.schema)});
      }
      s.schema = MakeSchema(std::move(attrs));
      s.cursor = std::make_unique<ProjectCursor>(std::move(in), &items, stats);
      break;
    }
    case PhysOpKind::kHashJoin:
    case PhysOpKind::kIndexLookupJoin:
    case PhysOpKind::kNestedLoopJoin: {
      // Without a probe target, the hash variant (transient build over the
      // — small — right fragment) is the local form of both kHashJoin and
      // kIndexLookupJoin.
      if (right == nullptr) return Status::Internal("join needs a right");
      s.schema = e.kind() == RelExprKind::kJoin
                     ? MakeSchema(ConcatAttrs(*in.schema, right->schema()))
                     : in.schema;
      CountScan(stats, right->size());
      if (!n.right_keys.empty()) {
        s.cursor = std::make_unique<HashJoinCursor>(
            e.kind(), &e.predicate(), std::move(in),
            RelHandle::Borrowed(right), /*view=*/RelationIndexView(),
            n.left_keys, n.right_keys, s.schema->arity(), stats);
      } else {
        s.cursor = std::make_unique<NestedJoinCursor>(
            e.kind(), &e.predicate(), std::move(in),
            RelHandle::Borrowed(right), s.schema->arity(), stats);
      }
      break;
    }
    case PhysOpKind::kUnion: {
      if (right == nullptr) return Status::Internal("union needs a right");
      if (in.schema->arity() != right->arity()) {
        return Status::InvalidArgument(
            "set operation over different arities");
      }
      s.schema = in.schema;
      Stream r;
      r.schema = right->schema_ptr();
      r.cursor = std::make_unique<ScanCursor>(RelHandle::Borrowed(right));
      s.cursor = std::make_unique<UnionCursor>(std::move(in), std::move(r),
                                               stats);
      break;
    }
    case PhysOpKind::kHashSetOp:
    case PhysOpKind::kIndexSetOp: {
      if (right == nullptr) return Status::Internal("set op needs a right");
      if (in.schema->arity() != right->arity()) {
        return Status::InvalidArgument(
            "set operation over different arities");
      }
      s.schema = in.schema;
      CountScan(stats, right->size());
      s.cursor = std::make_unique<FilterSetOpCursor>(
          std::move(in), RelHandle::Borrowed(right), want_in, stats);
      break;
    }
    case PhysOpKind::kScan:
    case PhysOpKind::kLiteral:
    case PhysOpKind::kProduct:
    case PhysOpKind::kAggregate:
      return Status::Internal(
          StrCat(PhysOpKindToString(n.op),
                 " is not a fragment-local operator"));
  }
  return Drain(&s);
}

// ---------------------------------------------------------------------------
// Aggregate partials.
// ---------------------------------------------------------------------------

void AggPartial::Observe(const Value& v, AggFunc func) {
  count += 1;
  if (v.is_null()) return;
  non_null += 1;
  if (v.is_numeric()) {
    if (v.is_int()) {
      isum += v.as_int();
      dsum += static_cast<double>(v.as_int());
    } else {
      any_double = true;
      dsum += v.as_double();
    }
  } else if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    saw_non_numeric = true;
  }
  if (!min.has_value() ||
      Value::Compare(v, *min) == Value::Ordering::kLess) {
    min = v;
  }
  if (!max.has_value() ||
      Value::Compare(v, *max) == Value::Ordering::kGreater) {
    max = v;
  }
}

void AggPartial::Merge(const AggPartial& other) {
  count += other.count;
  non_null += other.non_null;
  isum += other.isum;
  dsum += other.dsum;
  any_double = any_double || other.any_double;
  saw_non_numeric = saw_non_numeric || other.saw_non_numeric;
  if (other.min.has_value() &&
      (!min.has_value() ||
       Value::Compare(*other.min, *min) == Value::Ordering::kLess)) {
    min = other.min;
  }
  if (other.max.has_value() &&
      (!max.has_value() ||
       Value::Compare(*other.max, *max) == Value::Ordering::kGreater)) {
    max = other.max;
  }
}

Result<AggPartial> AggregateLocal(const PhysicalNode& n,
                                  const Relation& input, EvalStats* stats) {
  const RelExpr& e = *n.logical;
  if (!e.group_by().empty()) {
    return Status::Unimplemented(
        "grouped aggregates have no fragment-local form");
  }
  const int attr = e.agg_attr();
  const bool needs_attr = e.agg_func() != AggFunc::kCnt;
  if (needs_attr && (attr < 0 || attr >= static_cast<int>(input.arity()))) {
    return Status::InvalidArgument(
        StrCat("aggregate attribute #", attr, " out of range for arity ",
               input.arity()));
  }
  AggPartial acc;
  for (const Tuple& t : input) {
    CountScan(stats, 1);
    if (!needs_attr) {
      acc.ObserveCount();
      continue;
    }
    acc.Observe(t.at(static_cast<std::size_t>(attr)), e.agg_func());
  }
  return acc;
}

Result<Value> FinalizeAggregate(const AggPartial& acc, AggFunc func) {
  switch (func) {
    case AggFunc::kCnt:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (acc.saw_non_numeric) {
        return Status::InvalidArgument("SUM over non-numeric attribute");
      }
      return acc.any_double ? Value::Double(acc.dsum) : Value::Int(acc.isum);
    case AggFunc::kAvg:
      if (acc.saw_non_numeric) {
        return Status::InvalidArgument("AVG over non-numeric attribute");
      }
      if (acc.non_null == 0) return Value::Null();
      return Value::Double(acc.dsum / static_cast<double>(acc.non_null));
    case AggFunc::kMin:
      return acc.min.has_value() ? *acc.min : Value::Null();
    case AggFunc::kMax:
      return acc.max.has_value() ? *acc.max : Value::Null();
  }
  return Status::Internal("unknown aggregate function");
}

// ---------------------------------------------------------------------------
// PlanCache.
// ---------------------------------------------------------------------------

Result<const PhysicalPlan*> PlanCache::GetOrCompile(const RelExprPtr& expr) {
  if (expr == nullptr) {
    return Status::InvalidArgument("cannot compile a null expression");
  }
  auto it = plans_.find(expr.get());
  if (it != plans_.end()) return it->second.get();
  TXMOD_ASSIGN_OR_RETURN(PhysicalPlan plan, PhysicalPlan::Compile(expr));
  auto owned = std::make_unique<PhysicalPlan>(std::move(plan));
  const PhysicalPlan* raw = owned.get();
  plans_.emplace(expr.get(), std::move(owned));
  return raw;
}

const PhysicalPlan* PlanCache::Lookup(const RelExpr* expr) const {
  auto it = plans_.find(expr);
  return it != plans_.end() ? it->second.get() : nullptr;
}

}  // namespace txmod::algebra
