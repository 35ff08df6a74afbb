#include "src/relational/relation.h"

#include <algorithm>

#include "src/common/str_util.h"

namespace txmod {

std::atomic<uint64_t> CowStats::overlays_created{0};
std::atomic<uint64_t> CowStats::overlay_merges{0};
std::atomic<uint64_t> CowStats::overlay_collapses{0};
std::atomic<uint64_t> CowStats::overlay_merged_tuples{0};

void CowStats::Reset() {
  overlays_created.store(0);
  overlay_merges.store(0);
  overlay_collapses.store(0);
  overlay_merged_tuples.store(0);
}

void RelationIndex::Remove(const Tuple* t) {
  auto [begin, end] = map_.equal_range(EquiKeyHash(*t, attrs_));
  for (auto it = begin; it != end; ++it) {
    if (it->second == t) {
      map_.erase(it);
      return;
    }
  }
}

void RelationIndex::Rebuild(
    const std::unordered_set<Tuple, TupleHasher>& tuples) {
  map_.clear();
  map_.reserve(tuples.size());
  for (const Tuple& t : tuples) Add(&t);
}

// ---------------------------------------------------------------------------
// RelationIndexView.
// ---------------------------------------------------------------------------

RelationIndexView::Candidates RelationIndexView::Probe(
    std::size_t key_hash) const {
  Candidates c;
  c.view_ = this;
  c.hash_ = key_hash;
  c.level_ = 0;
  if (!levels_.empty() && levels_[0].index != nullptr) {
    std::tie(c.it_, c.end_) = levels_[0].index->Probe(key_hash);
  }
  return c;
}

const Tuple* RelationIndexView::Candidates::Next() {
  if (view_ == nullptr) return nullptr;
  for (;;) {
    while (it_ != end_) {
      const Tuple* t = it_->second;
      ++it_;
      if (!view_->Shadowed(level_, *t)) return t;
    }
    ++level_;
    if (level_ >= view_->levels_.size()) return nullptr;
    const RelationIndex* index = view_->levels_[level_].index;
    if (index == nullptr) {
      it_ = RelationIndex::Iterator{};
      end_ = it_;
      continue;
    }
    std::tie(it_, end_) = index->Probe(hash_);
  }
}

bool RelationIndexView::Shadowed(std::size_t level, const Tuple& t) const {
  for (std::size_t i = 0; i < level; ++i) {
    const auto* minus = levels_[i].minus;
    if (minus != nullptr && !minus->empty() && minus->count(t) > 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Relation.
// ---------------------------------------------------------------------------

Relation Relation::MakeOverlay(std::shared_ptr<const Relation> base) {
  Relation overlay(base->schema_ptr());
  // Mirror the base's declared attribute lists as empty local indexes so
  // FindIndexView can compose the chain. Building is O(#indexes), never
  // O(|base|): the mirrors cover only this level's future inserts.
  for (std::vector<int>& attrs : base->DeclaredIndexes()) {
    overlay.indexes_.push_back(
        std::make_unique<RelationIndex>(std::move(attrs)));
  }
  overlay.plus_ = std::make_shared<Relation>(base->schema_ptr());
  overlay.minus_ = std::make_shared<Relation>(base->schema_ptr());
  overlay.base_ = std::move(base);
  return overlay;
}

template <typename T>
bool Relation::InsertValue(T&& t) {
  if (base_ != nullptr) {
    if (plus_->Contains(t)) return false;  // visible via a local insert
    // Resurrect a base tuple this level deleted: un-shadow it.
    if (minus_->Erase(t)) return true;
    if (base_->Contains(t)) return false;  // visible through the base
  }
  auto [it, inserted] = own_tuples().insert(std::forward<T>(t));
  if (inserted) {
    for (const auto& index : indexes_) index->Add(&*it);
  }
  return inserted;
}

bool Relation::Insert(const Tuple& t) { return InsertValue(t); }

bool Relation::Insert(Tuple&& t) { return InsertValue(std::move(t)); }

bool Relation::Erase(const Tuple& t) {
  TupleSet& own = own_tuples();
  auto it = own.find(t);
  const bool local = it != own.end();
  if (local) {
    for (const auto& index : indexes_) index->Remove(&*it);
    own.erase(it);
  }
  // A visible base tuple gets shadowed.
  if (base_ != nullptr && !minus_->Contains(t) && base_->Contains(t)) {
    minus_->Insert(t);
    return true;
  }
  return local;
}

void Relation::Clear() {
  tuples_.clear();
  base_.reset();
  plus_.reset();
  minus_.reset();
  for (const auto& index : indexes_) index->map_.clear();
}

void Relation::Absorb(Relation&& level) {
  for (const Tuple& t : *level.minus_) Erase(t);
  if (base_ == nullptr) {
    // Relink the level's tuple and index nodes, where Insert would
    // allocate both anew: every serial commit pays that. The level's
    // inserts are disjoint from this flat state, so every node moves.
    tuples_.merge(level.plus_->tuples_);
    for (const auto& index : indexes_) {
      for (const auto& mirror : level.indexes_) {
        if (mirror->attrs() != index->attrs()) continue;
        // Node by node: a multimap merge reserves first, which can
        // rehash the whole index.
        RelationIndex::Map& from = mirror->map_;
        while (!from.empty()) index->map_.insert(from.extract(from.begin()));
      }
    }
    return;
  }
  level.indexes_.clear();  // they point at the nodes extracted below
  TupleSet& plus = level.plus_->tuples_;
  while (!plus.empty()) Insert(std::move(plus.extract(plus.begin()).value()));
}

const RelationIndex* Relation::IndexOn(std::vector<int> attrs) {
  if (attrs.empty() || schema_ == nullptr) return nullptr;
  for (const int a : attrs) {
    if (a < 0 || a >= static_cast<int>(arity())) return nullptr;
  }
  // The returned index must cover the whole visible contents (a mirrored
  // overlay index covers only local inserts); flatten first so the build
  // below sees every tuple. Definition-time only — FindIndex/FindIndexView
  // never reach here.
  CollapseOverlay();
  if (const RelationIndex* existing = FindLocalIndex(attrs)) return existing;
  auto index = std::make_unique<RelationIndex>(std::move(attrs));
  index->Rebuild(tuples_);
  indexes_.push_back(std::move(index));
  return indexes_.back().get();
}

const RelationIndex* Relation::FindIndex(
    const std::vector<int>& attrs) const {
  // A raw per-level index cannot answer membership over an overlay chain
  // (it misses base tuples and deleted ones); overlay callers must go
  // through FindIndexView.
  if (base_ != nullptr) return nullptr;
  return FindLocalIndex(attrs);
}

const RelationIndex* Relation::FindLocalIndex(
    const std::vector<int>& attrs) const {
  for (const auto& index : indexes_) {
    if (index->attrs() == attrs) return index.get();
  }
  return nullptr;
}

RelationIndexView Relation::FindIndexView(
    const std::vector<int>& attrs) const {
  RelationIndexView view;
  for (const Relation* level = this; level != nullptr;
       level = level->base_.get()) {
    const RelationIndex* index = level->FindLocalIndex(attrs);
    if (index == nullptr && !level->own_tuples().empty()) {
      return RelationIndexView();  // a populated level lacks the index
    }
    view.levels_.push_back(RelationIndexView::Level{
        index, level->minus_ == nullptr ? nullptr : &level->minus_->tuples_});
    if (index != nullptr && view.attrs_ == nullptr) {
      view.attrs_ = &index->attrs();
    }
  }
  if (view.attrs_ == nullptr) return RelationIndexView();  // undeclared
  return view;
}

void Relation::Reserve(std::size_t n) {
  own_tuples().reserve(n);
  for (const auto& index : indexes_) index->map_.reserve(n);
}

std::vector<std::vector<int>> Relation::DeclaredIndexes() const {
  std::vector<std::vector<int>> out;
  out.reserve(indexes_.size());
  for (const auto& index : indexes_) out.push_back(index->attrs());
  return out;
}

std::size_t Relation::overlay_depth() const {
  std::size_t depth = 0;
  for (const Relation* r = base_.get(); r != nullptr; r = r->base_.get()) {
    ++depth;
  }
  return depth;
}

std::size_t Relation::overlay_weight() const {
  std::size_t weight = 0;
  for (const Relation* r = this; r->base_ != nullptr; r = r->base_.get()) {
    weight += r->delta_weight();
  }
  return weight;
}

std::size_t Relation::flat_size() const {
  const Relation* r = this;
  while (r->base_ != nullptr) r = r->base_.get();
  return r->tuples_.size();
}

bool Relation::ChainHolds(const Relation* level) const {
  for (const Relation* r = this; r != nullptr; r = r->base_.get()) {
    if (r == level) return true;
  }
  return false;
}

void Relation::CollapseOverlay() {
  if (base_ == nullptr) return;
  *this = Flattened(*this);
  ++CowStats::overlay_collapses;
}

namespace {

// A chain's overlay weight collapses it once it reaches half the flat
// base, and never below this.
constexpr std::size_t kCollapseMinWeight = 64;

}  // namespace

Relation Relation::MergeLevels(const std::vector<const Relation*>& levels,
                               std::shared_ptr<const Relation> onto) {
  Relation merged = MakeOverlay(std::move(onto));
  std::size_t taken = 0;
  for (const Relation* level : levels) taken += level->delta_weight();
  CowStats::overlay_merged_tuples += taken;
  const auto holds = [](const Relation* set, const Tuple& t) {
    return !set->tuples_.empty() && set->tuples_.count(t) > 0;
  };
  const auto mentions = [&](const Relation* level, const Tuple& t) {
    return holds(level->plus_.get(), t) || holds(level->minus_.get(), t);
  };
  for (std::size_t i = 0; i < levels.size(); ++i) {
    for (const bool inserted : {true, false}) {
      const Relation& set = inserted ? *levels[i]->plus_ : *levels[i]->minus_;
      for (const Tuple& t : set.tuples_) {
        bool outermost = true;
        for (std::size_t j = 0; j < i && outermost; ++j) {
          outermost = !mentions(levels[j], t);
        }
        if (!outermost) continue;  // decided at its outermost mention
        // Visible before the levels exactly when the innermost mention
        // is a delete (a level deletes only visible tuples and inserts
        // only invisible ones).
        bool visible_before = !inserted;
        for (std::size_t j = levels.size() - 1; j > i; --j) {
          if (holds(levels[j]->plus_.get(), t)) {
            visible_before = false;
            break;
          }
          if (holds(levels[j]->minus_.get(), t)) {
            visible_before = true;
            break;
          }
        }
        if (inserted && !visible_before) merged.plus_->tuples_.insert(t);
        if (!inserted && visible_before) merged.minus_->tuples_.insert(t);
      }
    }
  }
  for (const auto& index : merged.indexes_) {
    index->map_.reserve(merged.plus_->tuples_.size());
    for (const Tuple& t : merged.plus_->tuples_) index->Add(&t);
  }
  return merged;
}

Relation Relation::Flattened(const Relation& chain) {
  Relation flat(chain.schema_);
  flat.tuples_.reserve(chain.size());
  for (const Tuple& t : chain) flat.tuples_.insert(t);
  for (std::vector<int>& attrs : chain.DeclaredIndexes()) {
    auto index = std::make_unique<RelationIndex>(std::move(attrs));
    index->map_.reserve(flat.tuples_.size());
    for (const Tuple& t : flat.tuples_) index->Add(&t);
    flat.indexes_.push_back(std::move(index));
  }
  return flat;
}

std::shared_ptr<const Relation> Relation::Compact(
    const std::shared_ptr<const Relation>& chain) {
  if (chain->base_ == nullptr) return nullptr;
  // The overlay levels a merge may take.
  std::vector<const Relation*> levels;
  for (const Relation* r = chain.get(); r->base_ != nullptr;
       r = r->base_.get()) {
    levels.push_back(r);
  }
  // Geometric merging: take levels from the top while they weigh at least
  // as much as the next one down — the binary-counter argument bounds
  // the merge work at O(log) per changed tuple.
  std::size_t take = 1;
  for (std::size_t weight = chain->delta_weight();
       take < levels.size() && weight >= levels[take]->delta_weight();
       ++take) {
    weight += levels[take]->delta_weight();
  }
  levels.resize(take);
  std::shared_ptr<const Relation> result = chain;
  if (levels.size() > 1) {
    const std::shared_ptr<const Relation>& under = levels.back()->base_;
    Relation merged = MergeLevels(levels, under);
    result = merged.delta_weight() == 0
                 ? under
                 : std::make_shared<const Relation>(std::move(merged));
    ++CowStats::overlay_merges;
  }
  if (result->base_ != nullptr) {
    // Large-delta case: once the accumulated overlay rivals the flat base,
    // a collapse costs O(|R|) against ≥ |R|/2 delta work already paid —
    // amortized constant — and restores flat-state read speed. The depth
    // bound is a backstop for non-geometric chains.
    const std::size_t threshold =
        std::max<std::size_t>(kCollapseMinWeight, result->flat_size() / 2);
    if (result->overlay_weight() >= threshold ||
        result->overlay_depth() > kMaxOverlayDepth) {
      result = std::make_shared<const Relation>(Flattened(*result));
      ++CowStats::overlay_collapses;
    }
  }
  return result == chain ? nullptr : result;
}

std::shared_ptr<const Relation> Relation::Reapply(
    const Relation& top, const Relation* start,
    std::shared_ptr<const Relation> onto) {
  std::vector<const Relation*> above;
  for (const Relation* r = &top; r != start; r = r->base_.get()) {
    above.push_back(r);
  }
  if (above.empty()) return onto;
  Relation level = MergeLevels(above, onto);
  if (level.delta_weight() == 0) return onto;
  return std::make_shared<const Relation>(std::move(level));
}

void Relation::ConstIterator::Settle() {
  while (level_ != nullptr) {
    if (it_ == level_->own_tuples().end()) {
      level_ = level_->base_.get();
      if (level_ != nullptr) it_ = level_->own_tuples().begin();
      continue;
    }
    if (level_ == top_ || !ShadowedAboveCurrent()) return;
    ++it_;
  }
}

bool Relation::ConstIterator::ShadowedAboveCurrent() const {
  for (const Relation* r = top_; r != level_; r = r->base_.get()) {
    if (!r->minus_->empty() && r->minus_->Contains(*it_)) return true;
  }
  return false;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (const Tuple& t : *this) out.push_back(t);
  std::sort(out.begin(), out.end(), Tuple::Less);
  return out;
}

bool Relation::SameTuples(const Relation& other) const {
  if (size() != other.size()) return false;
  for (const Tuple& t : *this) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

std::string Relation::ToString(std::size_t max_tuples) const {
  std::vector<std::string> parts;
  const std::vector<Tuple> sorted = SortedTuples();
  for (std::size_t i = 0; i < sorted.size() && i < max_tuples; ++i) {
    parts.push_back(sorted[i].ToString());
  }
  std::string body = Join(parts, ", ");
  if (sorted.size() > max_tuples) {
    body += StrCat(", ... (", sorted.size() - max_tuples, " more)");
  }
  return StrCat(schema_ ? name() : std::string("?"), "{", body, "}");
}

}  // namespace txmod
