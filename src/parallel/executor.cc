#include "src/parallel/executor.h"

#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "src/algebra/physical_plan.h"
#include "src/algebra/schema_infer.h"
#include "src/common/str_util.h"

namespace txmod::parallel {

using algebra::AggFunc;
using algebra::AggPartial;
using algebra::PhysOpKind;
using algebra::PhysicalNode;
using algebra::PhysicalPlan;
using algebra::RelExpr;
using algebra::RelExprKind;
using algebra::RelRefKind;
using algebra::ScalarExpr;
using algebra::ScalarOp;
using algebra::Statement;
using algebra::StatementKind;

namespace {

/// How the fragments of an intermediate result are aligned across nodes.
enum class Alignment {
  kNone,         // tuples may be anywhere (and may duplicate across nodes)
  kAttr,         // hash-partitioned on one attribute (attr index below)
  kWholeTuple,   // hash-partitioned on the full tuple (set-op safe)
  kCoordinator,  // all tuples on node 0 (literals, aggregate results)
};

/// A fragmented intermediate result. Its fragments are borrowed where the
/// data already lies — base fragments, the transaction's overlay levels
/// and their dplus/dminus, temporaries — and owned only where this result
/// computed them. Move-only: `frags` may point into `owned`, whose
/// elements keep their addresses when the vector moves, not when it is
/// copied.
struct FragRel {
  FragRel() = default;
  FragRel(FragRel&&) = default;
  FragRel& operator=(FragRel&&) = default;
  FragRel(const FragRel&) = delete;
  FragRel& operator=(const FragRel&) = delete;

  /// A result made of `computed`, one fragment per node.
  static FragRel Owning(std::vector<Relation> computed) {
    FragRel out;
    out.owned = std::move(computed);
    out.frags.reserve(out.owned.size());
    for (const Relation& f : out.owned) out.frags.push_back(&f);
    return out;
  }

  const Relation& frag(std::size_t node) const { return *frags[node]; }

  std::size_t TotalSize() const {
    std::size_t n = 0;
    for (const Relation* f : frags) n += f->size();
    return n;
  }

  std::vector<const Relation*> frags;  // one per node
  std::vector<Relation> owned;         // what `frags` computed points into
  Alignment alignment = Alignment::kNone;
  int attr = -1;  // kAttr only
  /// False when tuples are globally duplicate-free under set semantics.
  bool maybe_duplicated = false;
  /// True when `frags` borrows state a later statement of the transaction
  /// can change — an overlay level, its dplus/dminus, a temporary — so a
  /// temporary must not keep it without a copy.
  bool borrows_mutable = false;
};

std::shared_ptr<const RelationSchema> MakeSchema(
    std::vector<Attribute> attrs) {
  return std::make_shared<const RelationSchema>("", std::move(attrs));
}

std::vector<Attribute> ConcatAttrs(const RelationSchema& a,
                                   const RelationSchema& b) {
  std::vector<Attribute> attrs = a.attributes();
  attrs.insert(attrs.end(), b.attributes().begin(), b.attributes().end());
  return attrs;
}

/// Node ids cross the fragmentation API as int; containers index with
/// size_t. One named conversion point instead of a cast per call site.
constexpr std::size_t U(int node) { return static_cast<std::size_t>(node); }

/// Wall clock around one operator phase (the measured side of
/// ParallelStats, next to the simulated makespan).
class PhaseTimer {
 public:
  PhaseTimer() : t0_(std::chrono::steady_clock::now()) {}
  double us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

bool DefaultUseThreads() {
  return std::thread::hardware_concurrency() > 1;
}

// ---------------------------------------------------------------------------
// Implementation: one Impl per transaction execution.
// ---------------------------------------------------------------------------

class ParallelExecutor::Impl {
 public:
  Impl(ParallelDatabase* db, const ParallelOptions& options, ThreadPool* pool)
      : db_(db),
        options_(options),
        pool_(pool),
        nodes_(db->num_nodes()),
        width_(U(db->num_nodes())),
        result_{false, "", ParallelStats(db->num_nodes()),
                algebra::EvalStats{}} {}

  Result<ParallelTxnResult> Run(const algebra::Transaction& txn) {
    for (const Statement& stmt : txn.program.statements) {
      const Status st = ExecuteStatement(stmt);
      if (st.ok()) continue;
      // The fragments were never written: dropping the levels is the
      // whole rollback.
      temps_.clear();
      levels_.clear();
      if (st.code() == StatusCode::kAborted) {
        result_.committed = false;
        result_.abort_reason = st.message();
        return result_;
      }
      return st;
    }
    Commit();
    result_.committed = true;
    return result_;
  }

 private:
  /// A written relation's overlay levels, one slot per node; null where
  /// the transaction has not written that fragment.
  using Levels = std::vector<std::unique_ptr<Relation>>;

  // --- statement execution -------------------------------------------------

  Status ExecuteStatement(const Statement& stmt) {
    switch (stmt.kind) {
      case StatementKind::kAssign: {
        TXMOD_ASSIGN_OR_RETURN(FragRel value, EvalExpr(*stmt.expr));
        if (value.borrows_mutable) value = Materialized(value);
        temps_.insert_or_assign(stmt.target, std::move(value));
        return Status::OK();
      }
      case StatementKind::kInsert:
        return ExecuteWrite(stmt, /*insert=*/true);
      case StatementKind::kDelete:
        return ExecuteWrite(stmt, /*insert=*/false);
      case StatementKind::kUpdate:
        return ExecuteUpdate(stmt);
      case StatementKind::kAlarm: {
        TXMOD_ASSIGN_OR_RETURN(FragRel value, EvalExpr(*stmt.expr));
        if (value.TotalSize() == 0) return Status::OK();
        return Status::Aborted(stmt.message.empty()
                                   ? StrCat("alarm raised: ",
                                            stmt.expr->ToString())
                                   : stmt.message);
      }
      case StatementKind::kAbort:
        return Status::Aborted(stmt.message.empty() ? "abort statement"
                                                    : stmt.message);
    }
    return Status::Internal("unknown statement kind");
  }

  /// insert/delete: routes every tuple of the value to the fragment that
  /// owns it (a tuple produced on a different node is a transfer), then
  /// writes it through that fragment's level. The whole value is routed
  /// before the first write, since it may borrow the very level written.
  /// Mutation stays on the coordinator, in statement order, so each
  /// level's plus/minus stay the net differential of its fragment.
  Status ExecuteWrite(const Statement& stmt, bool insert) {
    TXMOD_ASSIGN_OR_RETURN(FragRel value, EvalExpr(*stmt.expr));
    TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* target,
                           db_->Find(stmt.target));
    const RelationSchema& schema = target->fragments[0].schema();
    const PhaseTimer timer;
    uint64_t transferred = 0;
    std::vector<uint64_t> local(width_, 0);
    std::vector<std::pair<std::size_t, Tuple>> routed;
    routed.reserve(value.TotalSize());
    for (std::size_t src = 0; src < width_; ++src) {
      for (const Tuple& raw : value.frag(src)) {
        if (insert) TXMOD_RETURN_IF_ERROR(schema.CheckTuple(raw));
        Tuple t = schema.CoerceTuple(raw);
        const std::size_t dst = U(FragmentOf(t, target->scheme, nodes_));
        if (dst != src) ++transferred;
        ++local[src];
        routed.emplace_back(dst, std::move(t));
      }
    }
    Levels& levels = LevelsFor(stmt.target);
    for (auto& [dst, t] : routed) {
      Relation* level = LevelOn(&levels, *target, dst);
      if (insert) {
        level->Insert(std::move(t));
      } else {
        level->Erase(t);
      }
    }
    result_.stats.AddPhaseTimed(local, transferred, transferred > 0 ? 1 : 0,
                                timer.us());
    return Status::OK();
  }

  Status ExecuteUpdate(const Statement& stmt) {
    TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* target,
                           db_->Find(stmt.target));
    const RelationSchema& schema = target->fragments[0].schema();
    const PhaseTimer timer;
    uint64_t transferred = 0;
    std::vector<uint64_t> local(width_, 0);
    // Delete-plus-insert semantics, as in the serial engine:
    // R' = (R − σθ(R)) ∪ f(σθ(R)). Select on every node and compute every
    // new tuple before writing anything, so an evaluation error writes
    // nothing; then erase every selected tuple before inserting any new
    // one, so a new tuple equal to a selected one stays, wherever either
    // lies.
    const std::vector<const Relation*> current =
        Fragments(RelRefKind::kBase, stmt.target, *target);
    std::vector<std::vector<Tuple>> selected(width_);
    for (std::size_t node = 0; node < width_; ++node) {
      for (const Tuple& t : *current[node]) {
        TXMOD_ASSIGN_OR_RETURN(bool match,
                               stmt.predicate.EvalPredicate(&t, nullptr));
        if (match) selected[node].push_back(t);
      }
      local[node] += current[node]->size();
    }
    std::vector<std::pair<std::size_t, Tuple>> routed;
    for (std::size_t node = 0; node < width_; ++node) {
      for (const Tuple& old_tuple : selected[node]) {
        TXMOD_ASSIGN_OR_RETURN(Tuple new_tuple, stmt.UpdatedTuple(old_tuple));
        TXMOD_RETURN_IF_ERROR(schema.CheckTuple(new_tuple));
        new_tuple = schema.CoerceTuple(std::move(new_tuple));
        const std::size_t dst =
            U(FragmentOf(new_tuple, target->scheme, nodes_));
        if (dst != node) ++transferred;
        routed.emplace_back(dst, std::move(new_tuple));
      }
    }
    Levels& levels = LevelsFor(stmt.target);
    for (std::size_t node = 0; node < width_; ++node) {
      for (const Tuple& old_tuple : selected[node]) {
        LevelOn(&levels, *target, node)->Erase(old_tuple);
      }
    }
    for (auto& [dst, t] : routed) {
      LevelOn(&levels, *target, dst)->Insert(std::move(t));
    }
    result_.stats.AddPhaseTimed(local, transferred, transferred > 0 ? 1 : 0,
                                timer.us());
    return Status::OK();
  }

  // --- overlay levels: the transaction's differential and undo log ----------

  Levels& LevelsFor(const std::string& name) {
    Levels& levels = levels_[name];
    if (levels.empty()) levels.resize(width_);
    return levels;
  }

  /// The level the transaction writes `target`'s fragment on `node`
  /// through, installed over the fragment on first use in O(#declared
  /// indexes) (Relation::MakeOverlay mirrors them). The fragment stays
  /// the pre-transaction state, old(R), until Commit absorbs the level.
  Relation* LevelOn(Levels* levels, const FragmentedRelation& target,
                    std::size_t node) {
    std::unique_ptr<Relation>& level = (*levels)[node];
    if (level == nullptr) {
      // A non-owning pointer: the fragment outlives the transaction and
      // nothing writes it while the level is installed.
      std::shared_ptr<const Relation> fragment(
          std::shared_ptr<const Relation>(), &target.fragments[node]);
      level = std::make_unique<Relation>(
          Relation::MakeOverlay(std::move(fragment)));
    }
    return level.get();
  }

  /// Where the fragments a reference of `kind` reads lie: a written
  /// fragment's level (kBase) or its own inserts/deletes (dplus/dminus),
  /// the fragment itself otherwise (and always for old(R)).
  std::vector<const Relation*> Fragments(RelRefKind kind,
                                         const std::string& name,
                                         const FragmentedRelation& base) {
    auto it = levels_.find(name);
    const Levels* levels = it != levels_.end() ? &it->second : nullptr;
    std::vector<const Relation*> out(width_);
    for (std::size_t i = 0; i < width_; ++i) {
      const Relation* level = levels != nullptr ? (*levels)[i].get() : nullptr;
      const Relation* fragment = &base.fragments[i];
      switch (kind) {
        case RelRefKind::kBase:
          out[i] = level != nullptr ? level : fragment;
          break;
        case RelRefKind::kOld:
        case RelRefKind::kTemp:  // temporaries never reach here (EvalRef)
          out[i] = fragment;
          break;
        case RelRefKind::kDeltaPlus:
          out[i] = level != nullptr ? &level->local_inserts()
                                    : &EmptyOf(name, base);
          break;
        case RelRefKind::kDeltaMinus:
          out[i] = level != nullptr ? &level->local_deletes()
                                    : &EmptyOf(name, base);
          break;
      }
    }
    return out;
  }

  /// The differential of a fragment the transaction has not written.
  const Relation& EmptyOf(const std::string& name,
                          const FragmentedRelation& base) {
    auto it = empty_.find(name);
    if (it == empty_.end()) {
      it = empty_.emplace(name, Relation(base.fragments[0].schema_ptr()))
               .first;
    }
    return it->second;
  }

  /// Makes the writes the fragments' state: each fragment absorbs its
  /// level, O(|delta|), its indexes taking the level's index nodes.
  void Commit() {
    temps_.clear();
    for (auto& [name, levels] : levels_) {
      FragmentedRelation* target = *db_->FindMutable(name);
      for (std::size_t i = 0; i < width_; ++i) {
        if (levels[i] != nullptr) {
          target->fragments[i].Absorb(std::move(*levels[i]));
        }
      }
    }
    levels_.clear();
  }

  // --- expression evaluation -------------------------------------------------

  /// Evaluates `e` on the physical plan the serial engine would run,
  /// compiled from the statement's own tree now (a plan-cache miss in
  /// EvalStats' terms) — this executor decides *where* each operator's
  /// work happens (alignment, redistribution, broadcast — charged to the
  /// cost model), and the shared fragment-local kernel
  /// (algebra::ExecuteNodeLocal) decides *how* a fragment's tuples are
  /// joined, filtered, probed and projected.
  /// Redistribution keys and the partition-vs-broadcast choice are read
  /// off the plan nodes' equality-key metadata.
  Result<FragRel> EvalExpr(const RelExpr& e) {
    ++result_.eval_stats.plan_cache_misses;
    TXMOD_ASSIGN_OR_RETURN(PhysicalPlan plan, PhysicalPlan::Compile(e));
    return Eval(plan.root());
  }

  Result<FragRel> Eval(const PhysicalNode& n) {
    switch (n.op) {
      case PhysOpKind::kScan:
        return EvalRef(*n.logical);
      case PhysOpKind::kLiteral:
        return EvalLiteral(*n.logical);
      case PhysOpKind::kSelect:
      case PhysOpKind::kProject:
        return EvalUnary(n);
      case PhysOpKind::kHashJoin:
      case PhysOpKind::kIndexLookupJoin:
      case PhysOpKind::kNestedLoopJoin:
        return EvalJoinLike(n);
      case PhysOpKind::kUnion:
      case PhysOpKind::kHashSetOp:
      case PhysOpKind::kIndexSetOp:
        return EvalSetOp(n);
      case PhysOpKind::kAggregate:
        return EvalAggregate(n);
      case PhysOpKind::kProduct:
        return Status::Unimplemented(
            "cartesian products are not part of the parallel enforcement "
            "substrate (no integrity program needs them; see executor.h)");
    }
    return Status::Internal("unknown physical operator");
  }

  Alignment BaseAlignment(const FragmentedRelation& f, int* attr) const {
    if (f.scheme.kind == FragmentationKind::kHash) {
      *attr = f.scheme.attr;
      return Alignment::kAttr;
    }
    *attr = -1;
    return Alignment::kNone;
  }

  /// A reference borrows the fragments it names; nothing is copied.
  Result<FragRel> EvalRef(const RelExpr& e) {
    FragRel out;
    if (e.ref_kind() == RelRefKind::kTemp) {
      auto it = temps_.find(e.rel_name());
      if (it == temps_.end()) {
        return Status::NotFound(StrCat("unknown temporary ", e.rel_name()));
      }
      const FragRel& temp = it->second;
      out.frags = temp.frags;
      out.alignment = temp.alignment;
      out.attr = temp.attr;
      out.maybe_duplicated = temp.maybe_duplicated;
      out.borrows_mutable = true;  // the temporary may be reassigned
      return out;
    }
    TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* base,
                           db_->Find(e.rel_name()));
    out.frags = Fragments(e.ref_kind(), e.rel_name(), *base);
    out.alignment = BaseAlignment(*base, &out.attr);
    out.maybe_duplicated = false;
    out.borrows_mutable = e.ref_kind() != RelRefKind::kOld &&
                          levels_.count(e.rel_name()) > 0;
    return out;
  }

  /// `in` with every fragment copied into storage of its own.
  FragRel Materialized(const FragRel& in) const {
    std::vector<Relation> copies;
    copies.reserve(width_);
    for (const Relation* f : in.frags) {
      Relation& copy = copies.emplace_back(f->schema_ptr());
      copy.Reserve(f->size());
      for (const Tuple& t : *f) copy.Insert(t);
    }
    FragRel out = FragRel::Owning(std::move(copies));
    out.alignment = in.alignment;
    out.attr = in.attr;
    out.maybe_duplicated = in.maybe_duplicated;
    return out;
  }

  FragRel Empty(const std::shared_ptr<const RelationSchema>& schema) const {
    return FragRel::Owning(std::vector<Relation>(width_, Relation(schema)));
  }

  Result<FragRel> EvalLiteral(const RelExpr& e) {
    TXMOD_ASSIGN_OR_RETURN(Relation lit,
                           algebra::MaterializeLiteral(e, &result_.eval_stats));
    std::vector<Relation> frags(width_, Relation(lit.schema_ptr()));
    frags[0] = std::move(lit);
    FragRel out = FragRel::Owning(std::move(frags));
    out.alignment = Alignment::kCoordinator;
    return out;
  }

  /// An empty result with `n`'s schema, resolved without evaluating `n`,
  /// as the serial engine does: the logical tree's inferred schema, or a
  /// reference's own (borrowing one reads no tuple). A tree inference
  /// cannot type is evaluated, as in the serial engine.
  Result<FragRel> EmptyLike(const PhysicalNode& n) {
    if (n.op != PhysOpKind::kScan) {
      Result<RelationSchema> inferred = algebra::InferSchema(
          *n.logical,
          [this](RelRefKind kind,
                 const std::string& name) -> Result<RelationSchema> {
            if (kind == RelRefKind::kTemp) {
              auto it = temps_.find(name);
              if (it == temps_.end()) {
                return Status::NotFound(StrCat("unknown temporary ", name));
              }
              return it->second.frag(0).schema();
            }
            TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* base,
                                   db_->Find(name));
            return base->fragments[0].schema();
          });
      if (inferred.ok()) {
        return Empty(
            std::make_shared<const RelationSchema>(*std::move(inferred)));
      }
    }
    TXMOD_ASSIGN_OR_RETURN(FragRel in, Eval(n));
    FragRel out = Empty(in.frag(0).schema_ptr());
    out.alignment = in.alignment;
    out.attr = in.attr;
    return out;
  }

  // --- phase machinery -------------------------------------------------------

  /// Runs `fn(node)` once per node and returns the results in node order,
  /// or the error of the first node that failed. The executor's one
  /// choice between inline and pooled execution: simulate mode runs the
  /// nodes inline in node order, threaded mode runs one task per node on
  /// the pool. A task writes only its own node's slot, so the results —
  /// and anything else `fn` keeps per node — do not depend on which
  /// thread ran which node.
  template <typename T, typename Fn>
  Result<std::vector<T>> PerNode(Fn fn) {
    std::vector<std::optional<Result<T>>> slots(width_);
    const std::function<void(std::size_t)> task = [&](std::size_t node) {
      slots[node].emplace(fn(node));
    };
    if (pool_ == nullptr) {
      for (std::size_t node = 0; node < width_; ++node) task(node);
    } else {
      pool_->Run(width_, task);
    }
    std::vector<T> out;
    out.reserve(width_);
    for (std::optional<Result<T>>& slot : slots) {
      TXMOD_RETURN_IF_ERROR(slot->status());
      out.push_back(std::move(*slot).value());
    }
    return out;
  }

  /// One fragment-local operator phase: each node runs its fragments
  /// through the shared kernel (algebra::ExecuteNodeLocal). `in` is the
  /// streamed side on every node; `r` the hash forms' right side; `probes`
  /// (one per node) the fragment indexes the index forms probe where they
  /// lie. Each node counts into its own EvalStats, folded in afterwards.
  Result<FragRel> RunKernelPhase(
      const PhysicalNode& n, const FragRel& in, const FragRel* r,
      const std::vector<algebra::FragmentProbe>* probes, Alignment align,
      int attr, bool maybe_dup) {
    std::vector<uint64_t> scanned(width_);
    for (std::size_t i = 0; i < width_; ++i) {
      scanned[i] = in.frag(i).size() + (r != nullptr ? r->frag(i).size() : 0);
    }
    std::vector<algebra::EvalStats> node_stats(width_);
    const PhaseTimer timer;
    TXMOD_ASSIGN_OR_RETURN(
        std::vector<Relation> frags,
        PerNode<Relation>([&](std::size_t i) {
          return algebra::ExecuteNodeLocal(
              n, in.frag(i), r != nullptr ? &r->frag(i) : nullptr,
              &node_stats[i], probes != nullptr ? &(*probes)[i] : nullptr);
        }));
    MergeNodeStats(node_stats);
    result_.stats.AddPhaseTimed(scanned, 0, 0, timer.us());
    FragRel out = FragRel::Owning(std::move(frags));
    out.alignment = align;
    out.attr = attr;
    out.maybe_duplicated = maybe_dup;
    return out;
  }

  /// One redistribution phase: every input tuple moves to the node
  /// `route` names, routed inline on the coordinator. The cost model is
  /// charged from the per-(source, destination) tallies: the tuples that
  /// changed node, and one message per pair used (`per_pair_messages`)
  /// or one for the whole phase. Each pair used is one exchange batch.
  template <typename RouteFn>
  FragRel ExchangePhase(const FragRel& in, RouteFn route, Alignment align,
                        int attr, bool maybe_dup, bool per_pair_messages) {
    std::vector<Relation> frags(width_, Relation(in.frag(0).schema_ptr()));
    std::vector<uint64_t> scanned(width_, 0);
    uint64_t transferred = 0;
    uint64_t pairs = 0;
    std::vector<std::vector<bool>> pair_used(
        width_, std::vector<bool>(width_, false));
    const PhaseTimer timer;
    for (std::size_t src = 0; src < width_; ++src) {
      scanned[src] = in.frag(src).size();
      for (const Tuple& t : in.frag(src)) {
        const std::size_t dst = route(t);
        if (dst != src) {
          ++transferred;
          if (!pair_used[src][dst]) {
            pair_used[src][dst] = true;
            ++pairs;
          }
        }
        frags[dst].Insert(t);
      }
    }
    result_.stats.AddExchangeBatches(pairs);
    const uint64_t messages =
        per_pair_messages ? pairs : (transferred > 0 ? 1 : 0);
    result_.stats.AddPhaseTimed(scanned, transferred, messages, timer.us());
    FragRel out = FragRel::Owning(std::move(frags));
    out.alignment = align;
    out.attr = attr;
    out.maybe_duplicated = maybe_dup;
    return out;
  }

  /// Hash-redistributes `in` on attribute `attr` (FragmentOfValue).
  FragRel RedistributeOnAttr(const FragRel& in, int attr) {
    const int nodes = nodes_;
    return ExchangePhase(
        in,
        [attr, nodes](const Tuple& t) {
          return U(FragmentOfValue(t.at(U(attr)), nodes));
        },
        Alignment::kAttr, attr, in.maybe_duplicated,
        /*per_pair_messages=*/true);
  }

  /// Hash-redistributes on the whole tuple (set-operation alignment).
  FragRel RedistributeWholeTuple(const FragRel& in) {
    const std::size_t w = width_;
    return ExchangePhase(
        in, [w](const Tuple& t) { return t.Hash() % w; },
        Alignment::kWholeTuple, /*attr=*/-1,
        /*maybe_dup=*/false,  // equal tuples co-locate and dedup
        /*per_pair_messages=*/false);
  }

  /// Replicates every right-side tuple to every node (join predicates
  /// without equality conjuncts), inline on the coordinator. Every
  /// non-empty fragment is one exchange batch to each other node.
  FragRel BroadcastAll(const FragRel& r, std::size_t right_total) {
    std::vector<Relation> frags(width_, Relation(r.frag(0).schema_ptr()));
    const PhaseTimer timer;
    for (std::size_t i = 0; i < width_; ++i) {
      for (std::size_t src = 0; src < width_; ++src) {
        for (const Tuple& t : r.frag(src)) frags[i].Insert(t);
      }
    }
    for (std::size_t src = 0; src < width_; ++src) {
      if (!r.frag(src).empty()) result_.stats.AddExchangeBatches(width_ - 1);
    }
    result_.stats.AddPhaseTimed(
        std::vector<uint64_t>(width_, 0),
        static_cast<uint64_t>(right_total) * (width_ - 1),
        width_ > 1 ? width_ - 1 : 0, timer.us());
    return FragRel::Owning(std::move(frags));
  }

  /// Selections and projections run fragment-local through the shared
  /// kernel; only the distribution metadata is computed here.
  Result<FragRel> EvalUnary(const PhysicalNode& n) {
    TXMOD_ASSIGN_OR_RETURN(FragRel in, Eval(n.child(0)));
    const RelExpr& e = *n.logical;
    Alignment align;
    int attr;
    bool maybe_dup;
    if (n.op == PhysOpKind::kSelect) {
      align = in.alignment;
      attr = in.attr;
      maybe_dup = in.maybe_duplicated;
    } else {
      // Partitioning survives when some output item is exactly the
      // input's partitioning attribute.
      align = Alignment::kNone;
      attr = -1;
      maybe_dup = true;
      if (in.alignment == Alignment::kAttr) {
        for (std::size_t i = 0; i < e.projections().size(); ++i) {
          const ScalarExpr& pe = e.projections()[i].expr;
          if (pe.op() == ScalarOp::kAttrRef && pe.attr_index() == in.attr) {
            align = Alignment::kAttr;
            attr = static_cast<int>(i);
            maybe_dup = false;  // equal keys co-locate
            break;
          }
        }
      }
      if (in.alignment == Alignment::kCoordinator) {
        align = Alignment::kCoordinator;
        maybe_dup = false;
      }
    }
    return RunKernelPhase(n, in, nullptr, nullptr, align, attr, maybe_dup);
  }

  bool SetOpAligned(const FragRel& a, const FragRel& b) const {
    if (width_ == 1) return true;  // single node: everything co-located
    if (a.alignment == Alignment::kCoordinator &&
        b.alignment == Alignment::kCoordinator) {
      return true;
    }
    if (a.alignment == Alignment::kWholeTuple &&
        b.alignment == Alignment::kWholeTuple) {
      return true;
    }
    // Arity-1 results hash-partitioned on their only attribute do NOT
    // align with kWholeTuple (different hash normalization), but do align
    // with each other.
    if (a.alignment == Alignment::kAttr && b.alignment == Alignment::kAttr &&
        a.attr == b.attr) {
      return true;
    }
    return false;
  }

  Result<FragRel> EvalSetOp(const PhysicalNode& n) {
    TXMOD_ASSIGN_OR_RETURN(FragRel l, Eval(n.child(0)));
    if (n.op == PhysOpKind::kIndexSetOp) {
      if (l.frag(0).arity() != n.setop_attrs.size()) {
        return Status::InvalidArgument("set operation over different arities");
      }
      // As in the serial engine, an empty left side (an untouched
      // differential) is the result: the membership side is not read.
      if (l.TotalSize() == 0) return l;
      if (n.setop_ref_kind != RelRefKind::kTemp) {
        TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* member,
                               db_->Find(n.setop_rel));
        std::vector<RelationIndexView> views;
        if (IndexViews(Fragments(n.setop_ref_kind, n.setop_rel, *member),
                       n.setop_attrs, &views)) {
          return ProbeSetOp(n, std::move(l), *member, views);
        }
      }
    }
    TXMOD_ASSIGN_OR_RETURN(FragRel r, Eval(n.child(1)));
    if (l.frag(0).arity() != r.frag(0).arity()) {
      return Status::InvalidArgument("set operation over different arities");
    }
    if (!SetOpAligned(l, r)) {
      l = RedistributeWholeTuple(l);
      r = RedistributeWholeTuple(r);
    }
    return RunKernelPhase(n, l, &r, nullptr, l.alignment, l.attr,
                          /*maybe_dup=*/false);
  }

  /// The views of `frags` on the declared index on `attrs`; false when a
  /// fragment lacks it (dplus/dminus, copies), and the caller falls back
  /// to shipping operands.
  static bool IndexViews(const std::vector<const Relation*>& frags,
                         const std::vector<int>& attrs,
                         std::vector<RelationIndexView>* views) {
    for (const Relation* f : frags) {
      views->push_back(f->FindIndexView(attrs));
      if (!views->back().valid()) return false;
    }
    return true;
  }

  /// The position in `attrs` of the attribute `f` is hash-partitioned on,
  /// or -1: under that placement, a tuple matching a probe key can only
  /// lie on the fragment the key's value at that position hashes to.
  static int HashedPosition(const FragmentedRelation& f,
                            const std::vector<int>& attrs) {
    if (f.scheme.kind != FragmentationKind::kHash) return -1;
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == f.scheme.attr) return static_cast<int>(i);
    }
    return -1;
  }

  /// kIndexSetOp where the membership side lies: it never moves, and each
  /// left tuple probes the fragment indexes in place. Under hash placement
  /// on a projected attribute, the left side is partitioned on it (if it
  /// is not already) and each node probes its own fragment; otherwise
  /// every node probes every fragment, which the cost model charges as
  /// the broadcast of the left side it stands for.
  Result<FragRel> ProbeSetOp(const PhysicalNode& n, FragRel l,
                             const FragmentedRelation& member,
                             const std::vector<RelationIndexView>& views) {
    const int owner_pos = HashedPosition(member, n.setop_attrs);
    std::vector<algebra::FragmentProbe> probes(width_);
    for (std::size_t i = 0; i < width_; ++i) {
      probes[i].views = owner_pos >= 0 ? std::vector{views[i]} : views;
    }
    if (width_ > 1 && owner_pos < 0) {
      result_.stats.AddPhaseTimed(
          std::vector<uint64_t>(width_, 0),
          static_cast<uint64_t>(l.TotalSize()) * (width_ - 1), width_ - 1, 0);
    } else if (width_ > 1 &&
               (l.alignment != Alignment::kAttr || l.attr != owner_pos)) {
      l = RedistributeOnAttr(l, owner_pos);
    }
    return RunKernelPhase(n, l, nullptr, &probes, l.alignment, l.attr,
                          l.maybe_duplicated);
  }

  Result<FragRel> EvalJoinLike(const PhysicalNode& n) {
    const RelExpr& e = *n.logical;
    TXMOD_ASSIGN_OR_RETURN(FragRel r, Eval(n.child(1)));
    // Empty right operand: an antijoin is its left side; a join or
    // semijoin is empty, with the left side's schema taken without
    // evaluating it (the differential fast path).
    const std::size_t right_total = r.TotalSize();
    if (right_total == 0) {
      if (e.kind() == RelExprKind::kAntiJoin) return Eval(n.child(0));
      TXMOD_ASSIGN_OR_RETURN(FragRel l, EmptyLike(n.child(0)));
      if (e.kind() != RelExprKind::kJoin) return l;
      FragRel out = Empty(MakeSchema(
          ConcatAttrs(l.frag(0).schema(), r.frag(0).schema())));
      out.alignment = l.alignment;
      out.attr = l.attr;
      return out;
    }
    if (n.op == PhysOpKind::kIndexLookupJoin) {
      const RelExpr& ref = *e.left();
      TXMOD_ASSIGN_OR_RETURN(const FragmentedRelation* base,
                             db_->Find(ref.rel_name()));
      std::vector<RelationIndexView> views;
      if (IndexViews(Fragments(ref.ref_kind(), ref.rel_name(), *base),
                     n.left_keys, &views)) {
        return LookupJoin(n, *base, std::move(r), views);
      }
    }
    TXMOD_ASSIGN_OR_RETURN(FragRel l, Eval(n.child(0)));
    if (!n.left_keys.empty()) {
      const int la = n.left_keys[0];
      const int ra = n.right_keys[0];
      // Co-located already? (The paper's key/foreign-key fragmentation.)
      const bool l_ok = width_ == 1 ||
                        (l.alignment == Alignment::kAttr && l.attr == la);
      const bool r_ok = width_ == 1 ||
                        (r.alignment == Alignment::kAttr && r.attr == ra);
      if (!l_ok) l = RedistributeOnAttr(l, la);
      if (!r_ok) r = RedistributeOnAttr(r, ra);
    } else {
      // No equality: broadcast the right operand to every node.
      r = BroadcastAll(r, right_total);
    }

    // Fragment-local join execution through the shared kernel: a hash
    // join (build over the smaller right fragment, probe the left) for
    // equality predicates, nested loops otherwise.
    return RunKernelPhase(n, l, &r, nullptr, l.alignment, l.attr,
                          l.maybe_duplicated);
  }

  /// kIndexLookupJoin where the base side lies: only the delta side `r`
  /// moves — to the owner of its key under hash placement on a join key,
  /// to every node otherwise — and each node streams what it received
  /// through its own fragment's index (`views`, one per node). The base
  /// side is never scanned.
  Result<FragRel> LookupJoin(const PhysicalNode& n,
                             const FragmentedRelation& base, FragRel r,
                             const std::vector<RelationIndexView>& views) {
    const int k = HashedPosition(base, n.left_keys);
    if (width_ > 1 && k < 0) {
      r = BroadcastAll(r, r.TotalSize());
    } else if (width_ > 1 && (r.alignment != Alignment::kAttr ||
                              r.attr != n.right_keys[U(k)])) {
      r = RedistributeOnAttr(r, n.right_keys[U(k)]);
    }
    std::vector<algebra::FragmentProbe> probes(width_);
    for (std::size_t i = 0; i < width_; ++i) {
      probes[i].views.push_back(views[i]);
      probes[i].schema = base.fragments[0].schema_ptr();
    }
    // Each output tuple extends a base tuple of the node's own fragment:
    // the result keeps the base side's placement and cannot repeat across
    // nodes.
    int attr = -1;
    const Alignment align = BaseAlignment(base, &attr);
    return RunKernelPhase(n, r, nullptr, &probes, align, attr,
                          /*maybe_dup=*/false);
  }

  Result<FragRel> EvalAggregate(const PhysicalNode& n) {
    const RelExpr& e = *n.logical;
    if (!e.group_by().empty()) {
      return Status::Unimplemented(
          "grouped aggregates are not part of the parallel enforcement "
          "substrate");
    }
    TXMOD_ASSIGN_OR_RETURN(FragRel in, Eval(n.child(0)));
    // Set semantics: counting a possibly-duplicated intermediate would
    // overcount; dedup by whole-tuple redistribution first.
    if (in.maybe_duplicated) in = RedistributeWholeTuple(in);

    // Node-local partials through the shared aggregate kernel, merged at
    // the coordinator in node order: one partial record per node crosses
    // the interconnect, and even floating-point sums cannot differ
    // between modes.
    std::vector<uint64_t> scanned(width_);
    for (std::size_t i = 0; i < width_; ++i) scanned[i] = in.frag(i).size();
    std::vector<algebra::EvalStats> node_stats(width_);
    const PhaseTimer timer;
    TXMOD_ASSIGN_OR_RETURN(
        std::vector<AggPartial> partials,
        PerNode<AggPartial>([&](std::size_t i) {
          return algebra::AggregateLocal(n, in.frag(i), &node_stats[i]);
        }));
    MergeNodeStats(node_stats);
    result_.stats.AddPhaseTimed(scanned, 0, 0, timer.us());
    result_.stats.AddPhaseTimed(std::vector<uint64_t>(width_, 0),
                                static_cast<uint64_t>(width_ - 1),
                                width_ > 1
                                    ? static_cast<uint64_t>(width_ - 1)
                                    : 0,
                                0);
    AggPartial total;
    for (const AggPartial& p : partials) total.Merge(p);
    TXMOD_ASSIGN_OR_RETURN(Value result,
                           algebra::FinalizeAggregate(total, e.agg_func()));
    auto schema = MakeSchema(
        {Attribute{AggFuncToString(e.agg_func()),
                   result.is_double() ? AttrType::kDouble : AttrType::kInt}});
    std::vector<Relation> frags(width_, Relation(schema));
    frags[0].Insert(Tuple({std::move(result)}));
    FragRel out = FragRel::Owning(std::move(frags));
    out.alignment = Alignment::kCoordinator;
    return out;
  }

  /// Folds per-node kernel counters into the transaction's EvalStats.
  /// Each node's task writes its own record; the fold runs after the
  /// phase, so no counter is shared across threads.
  void MergeNodeStats(const std::vector<algebra::EvalStats>& node_stats) {
    for (const algebra::EvalStats& s : node_stats) {
      result_.eval_stats.Add(s);
    }
  }

  ParallelDatabase* db_;
  const ParallelOptions& options_;
  ThreadPool* pool_;         // null = simulate mode (see PerNode)
  const int nodes_;          // node count for the fragmentation API
  const std::size_t width_;  // the same count, as a container extent
  ParallelTxnResult result_;
  std::map<std::string, FragRel> temps_;
  /// The transaction's writes: per written relation, one overlay level
  /// per written fragment — dplus/dminus are a level's own inserts and
  /// deletes, old(R) the fragment underneath.
  std::map<std::string, Levels> levels_;
  /// dplus/dminus of relations the transaction has not written.
  std::map<std::string, Relation> empty_;
};

ParallelExecutor::ParallelExecutor(ParallelDatabase* db,
                                   ParallelOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.use_threads) {
    if (options_.num_workers > 0) {
      owned_pool_ = std::make_unique<ThreadPool>(options_.num_workers);
      pool_ = owned_pool_.get();
    } else {
      pool_ = &ThreadPool::Shared();
    }
  }
}

Result<ParallelTxnResult> ParallelExecutor::Execute(
    const algebra::Transaction& txn) {
  Impl impl(db_, options_, pool_);
  return impl.Run(txn);
}

}  // namespace txmod::parallel
