#include "src/relational/relation.h"

#include <algorithm>
#include <utility>

#include "src/common/str_util.h"

namespace txmod {

std::atomic<uint64_t> CowStats::overlays_created{0};
std::atomic<uint64_t> CowStats::overlay_merges{0};
std::atomic<uint64_t> CowStats::overlay_collapses{0};
std::atomic<uint64_t> CowStats::overlay_merged_tuples{0};
std::atomic<uint64_t> CowStats::rows_compacted{0};

void CowStats::Reset() {
  overlays_created.store(0);
  overlay_merges.store(0);
  overlay_collapses.store(0);
  overlay_merged_tuples.store(0);
  rows_compacted.store(0);
}

namespace {

/// A 64-bit finalizer (MurmurHash3's fmix64): Tuple::Hash and EquiKeyHash
/// combine values with few multiplications, so their low bits alone would
/// crowd a power-of-two table.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= UINT64_C(0xff51afd7ed558ccd);
  h ^= h >> 33;
  h *= UINT64_C(0xc4ceb9fe1a85ec53);
  h ^= h >> 33;
  return h;
}

/// The number of bits `x` needs (0 for 0).
std::size_t BitWidth(std::size_t x) {
  return x == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(x));
}

/// The part of a row hash a membership slot holds; its low bits pick the
/// slot's home.
uint64_t Fragment(uint64_t h) { return h >> 31; }

}  // namespace

// ---------------------------------------------------------------------------
// KeyTable.
// ---------------------------------------------------------------------------

std::size_t KeyTable::Bucket(std::size_t key) const {
  return Mix(key) & (heads_.size() - 1);
}

std::size_t KeyTable::BucketsFor(std::size_t rows) {
  std::size_t buckets = 8;
  while (buckets < rows) buckets *= 2;
  return buckets;
}

void KeyTable::Add(std::size_t key) {
  const auto row = static_cast<uint32_t>(keys_.size());
  keys_.push_back(key);
  next_.push_back(kEnd);
  if (keys_.size() > heads_.size()) {
    Relink(BucketsFor(keys_.size()));
    return;
  }
  uint32_t& head = heads_[Bucket(key)];
  next_[row] = head;
  head = row;
}

void KeyTable::Reserve(std::size_t rows) {
  keys_.reserve(rows);
  next_.reserve(rows);
  if (rows > heads_.size()) Relink(BucketsFor(rows));
}

void KeyTable::Clear() {
  heads_ = {};
  next_ = {};
  keys_ = {};
}

void KeyTable::Relink(std::size_t buckets) {
  heads_.assign(buckets, kEnd);
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    uint32_t& head = heads_[Bucket(keys_[row])];
    next_[row] = head;
    head = static_cast<uint32_t>(row);
  }
}

// ---------------------------------------------------------------------------
// RowBlock.
// ---------------------------------------------------------------------------

RowBlock& RowBlock::operator=(const RowBlock& other) {
  if (this == &other) return *this;
  // Element-wise: a copied chunk must keep its full capacity, or the next
  // append to it would move its rows.
  chunks_.clear();
  chunks_.reserve(other.chunks_.size());
  for (std::size_t c = 0; c < other.chunks_.size(); ++c) {
    std::vector<Row>& chunk = chunks_.emplace_back();
    chunk.reserve(ChunkCapacity(c));
    chunk.insert(chunk.end(), other.chunks_[c].begin(),
                 other.chunks_[c].end());
  }
  rows_ = other.rows_;
  live_ = other.live_;
  capacity_ = other.capacity_;
  slots_ = other.slots_;
  return *this;
}

RowBlock& RowBlock::operator=(RowBlock&& other) noexcept {
  chunks_ = std::move(other.chunks_);
  slots_ = std::move(other.slots_);
  rows_ = std::exchange(other.rows_, 0);
  live_ = std::exchange(other.live_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  other.chunks_.clear();
  other.slots_.clear();
  return *this;
}

uint64_t RowBlock::HashOf(const Tuple& t) { return Mix(t.Hash()) >> 1; }

std::size_t RowBlock::ChunkOf(std::size_t r) {
  return BitWidth(r >> kFirstChunkLog);
}

const RowBlock::Row& RowBlock::At(std::size_t r) const {
  const std::size_t c = ChunkOf(r);
  // A row of chunk c > 0 sits at r less the chunk's first row, r's top bit.
  const std::size_t offset =
      c == 0 ? r : r ^ (std::size_t{1} << (kFirstChunkLog + c - 1));
  return chunks_[c][offset];
}

std::size_t RowBlock::Find(const Tuple& t, uint64_t h) const {
  if (live_ == 0) return kNone;
  const uint64_t fragment = Fragment(h);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = fragment & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return kNone;
    if ((slot >> 32) != fragment) continue;
    const std::size_t r = (slot & UINT32_MAX) - 1;
    const Row& row = At(r);
    if (row.hash == h && row.tuple == t) return r;
  }
}

void RowBlock::PlaceSlot(std::size_t r, uint64_t h) {
  const uint64_t fragment = Fragment(h);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = fragment & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = fragment << 32 | (r + 1);
}

void RowBlock::AddChunk() {
  const std::size_t c = chunks_.size();
  chunks_.emplace_back().reserve(ChunkCapacity(c));
  capacity_ += ChunkCapacity(c);
}

std::size_t RowBlock::SlotsFor(std::size_t live) {
  std::size_t slots = 8;
  while (live * 4 > slots * 3) slots *= 2;
  return slots;
}

void RowBlock::Rehash(std::size_t slots) {
  std::vector<uint64_t> old = std::exchange(slots_, {});
  slots_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    std::size_t i = (slot >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void RowBlock::Kill(std::size_t r) {
  Row& row = At(r);
  const uint64_t fragment = Fragment(row.hash);
  const uint64_t want = fragment << 32 | (r + 1);
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = fragment & mask;
  while (slots_[hole] != want) hole = (hole + 1) & mask;
  // Backward-shift deletion: move each later slot of the cluster whose
  // home is not after the hole into it, so no tombstone is left.
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = (slots_[j] >> 32) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  row.tuple = Tuple();
  row.hash |= kDead;
  --live_;
}

std::size_t RowBlock::Compact() {
  if (live_ == 0) {
    Clear();
    return 0;
  }
  std::size_t to = 0;
  std::size_t moved = 0;
  for (std::size_t from = 0; from < rows_; ++from) {
    Row& row = At(from);
    if ((row.hash & kDead) != 0) continue;
    if (from != to) {
      At(to) = std::move(row);
      ++moved;
    }
    ++to;
  }
  rows_ = to;
  // Drop the rows past the live ones, and every chunk they emptied but
  // the first.
  while (chunks_.size() > 1 &&
         (std::size_t{1} << (kFirstChunkLog + chunks_.size() - 2)) >= rows_) {
    capacity_ -= ChunkCapacity(chunks_.size() - 1);
    chunks_.pop_back();
  }
  std::vector<Row>& last = chunks_.back();
  const std::size_t last_start = capacity_ - ChunkCapacity(chunks_.size() - 1);
  last.erase(last.begin() + static_cast<std::ptrdiff_t>(rows_ - last_start),
             last.end());
  slots_.assign(SlotsFor(live_), 0);
  for (std::size_t r = 0; r < rows_; ++r) PlaceSlot(r, At(r).hash);
  return moved;
}

void RowBlock::Reserve(std::size_t n) {
  while (capacity_ < n) AddChunk();
  if (SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n));
}

void RowBlock::Clear() {
  chunks_ = {};
  slots_ = {};
  rows_ = 0;
  live_ = 0;
  capacity_ = 0;
}

// ---------------------------------------------------------------------------
// RelationIndex and RelationIndexView.
// ---------------------------------------------------------------------------

RelationIndex::Candidates RelationIndex::Probe(std::size_t key_hash) const {
  Candidates c;
  c.index_ = this;
  c.key_ = key_hash;
  c.row_ = table_.First(key_hash);
  return c;
}

uint32_t RelationIndex::Candidates::NextRow() {
  while (row_ != KeyTable::kEnd) {
    const uint32_t r = row_;
    row_ = index_->table_.Next(r, key_);
    if (index_->rows_->alive(r)) return r;
  }
  return KeyTable::kEnd;
}

RelationIndexView::Candidates RelationIndexView::Probe(
    std::size_t key_hash) const {
  Candidates c;
  c.view_ = this;
  // The walk starts at the first level that has an index; each later
  // level is probed with the same key.
  while (c.level_ < levels_.size() && levels_[c.level_].index == nullptr) {
    ++c.level_;
  }
  if (c.level_ < levels_.size()) {
    c.level_candidates_ = levels_[c.level_].index->Probe(key_hash);
  }
  return c;
}

const Tuple* RelationIndexView::Candidates::Next() {
  if (view_ == nullptr) return nullptr;
  while (level_ < view_->levels_.size()) {
    const uint32_t r = level_candidates_.NextRow();
    if (r != KeyTable::kEnd) {
      const RowBlock& rows = *level_candidates_.index_->rows_;
      const Tuple& t = rows.tuple(r);
      if (!view_->Shadowed(level_, t, rows.hash(r))) return &t;
      continue;
    }
    // The next level that has an index.
    while (++level_ < view_->levels_.size()) {
      const RelationIndex* index = view_->levels_[level_].index;
      if (index != nullptr) {
        level_candidates_ = index->Probe(level_candidates_.key_);
        break;
      }
    }
  }
  return nullptr;
}

bool RelationIndexView::Shadowed(std::size_t level, const Tuple& t,
                                 uint64_t h) const {
  for (std::size_t i = 0; i < level; ++i) {
    const RowBlock* minus = levels_[i].minus;
    if (minus != nullptr && minus->size() > 0 &&
        minus->Find(t, h) != RowBlock::kNone) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Relation.
// ---------------------------------------------------------------------------

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    base_ = std::move(other.base_);
    plus_ = std::move(other.plus_);
    minus_ = std::move(other.minus_);
    indexes_ = std::move(other.indexes_);
    other.indexes_.clear();
    Repoint();
  }
  return *this;
}

void Relation::Repoint() {
  for (const auto& index : indexes_) index->rows_ = &own_rows();
}

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
  overlay.Repoint();
  return overlay;
}

bool Relation::ContainsHashed(const Tuple& t, uint64_t h) const {
  for (const Relation* level = this;; level = level->base_.get()) {
    if (level->own_rows().Find(t, h) != RowBlock::kNone) return true;
    if (level->base_ == nullptr ||
        level->minus_->rows_.Find(t, h) != RowBlock::kNone) {
      return false;
    }
  }
}

template <typename T>
void Relation::AppendRow(T&& t, uint64_t h) {
  RowBlock& own = own_rows();
  const Tuple& stored = own.tuple(own.Append(std::forward<T>(t), h));
  for (const auto& index : indexes_) {
    index->table_.Add(EquiKeyHash(stored, index->attrs_));
  }
}

template <typename T>
bool Relation::InsertHashed(T&& t, uint64_t h) {
  if (own_rows().Find(t, h) != RowBlock::kNone) return false;
  if (base_ != nullptr) {
    // Resurrect a base tuple this level deleted: un-shadow it.
    if (const std::size_t r = minus_->rows_.Find(t, h); r != RowBlock::kNone) {
      minus_->EraseRow(r);
      return true;
    }
    if (base_->ContainsHashed(t, h)) return false;  // visible through it
  }
  AppendRow(std::forward<T>(t), h);
  return true;
}

bool Relation::Insert(const Tuple& t) {
  return InsertHashed(t, RowBlock::HashOf(t));
}

bool Relation::Insert(Tuple&& t) {
  const uint64_t h = RowBlock::HashOf(t);
  return InsertHashed(std::move(t), h);
}

bool Relation::EraseHashed(const Tuple& t, uint64_t h) {
  if (const std::size_t r = own_rows().Find(t, h); r != RowBlock::kNone) {
    // A local insert is not visible through the base (the invariants),
    // so there is nothing to shadow.
    EraseRow(r);
    return true;
  }
  // A visible base tuple gets shadowed.
  if (base_ == nullptr || minus_->rows_.Find(t, h) != RowBlock::kNone ||
      !base_->ContainsHashed(t, h)) {
    return false;
  }
  minus_->AppendRow(t, h);
  return true;
}

void Relation::EraseRow(std::size_t r) {
  own_rows().Kill(r);
  if (own_rows().dead() > own_rows().size()) CompactRows();
}

void Relation::CompactRows() {
  const RowBlock& own = own_rows();
  for (const auto& index : indexes_) {
    index->table_.Retain([&own](std::size_t row) { return own.alive(row); });
  }
  CowStats::rows_compacted += own_rows().Compact();
}

void Relation::Clear() {
  rows_.Clear();
  base_.reset();
  plus_.reset();
  minus_.reset();
  for (const auto& index : indexes_) index->table_.Clear();
  Repoint();
}

void Relation::Absorb(Relation&& level) {
  const RowBlock& deletes = level.minus_->rows_;
  for (std::size_t r = 0; r < deletes.rows(); ++r) {
    if (deletes.alive(r)) EraseHashed(deletes.tuple(r), deletes.hash(r));
  }
  RowBlock& inserts = level.plus_->rows_;
  if (base_ == nullptr) {
    // The level's inserts are disjoint from this flat state: each moves
    // in as a row with the hash the level computed.
    for (std::size_t r = 0; r < inserts.rows(); ++r) {
      if (inserts.alive(r)) {
        AppendRow(std::move(inserts.At(r).tuple), inserts.hash(r));
      }
    }
    return;
  }
  for (std::size_t r = 0; r < inserts.rows(); ++r) {
    if (!inserts.alive(r)) continue;
    InsertHashed(std::move(inserts.At(r).tuple), inserts.hash(r));
  }
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
  if (rows_.dead() > 0) CompactRows();  // every row takes its own key
  auto index = std::make_unique<RelationIndex>(std::move(attrs));
  index->rows_ = &rows_;
  index->table_.Reserve(rows_.rows());
  for (std::size_t r = 0; r < rows_.rows(); ++r) {
    index->table_.Add(EquiKeyHash(rows_.tuple(r), index->attrs_));
  }
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
    if (index == nullptr && level->own_rows().size() > 0) {
      return RelationIndexView();  // a populated level lacks the index
    }
    view.levels_.push_back(RelationIndexView::Level{
        index, level->minus_ == nullptr ? nullptr : &level->minus_->rows_});
    if (index != nullptr && view.attrs_ == nullptr) {
      view.attrs_ = &index->attrs();
    }
  }
  if (view.attrs_ == nullptr) return RelationIndexView();  // undeclared
  return view;
}

void Relation::Reserve(std::size_t n) {
  own_rows().Reserve(n);
  for (const auto& index : indexes_) index->table_.Reserve(n);
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
  return r->rows_.size();
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
  const auto holds = [](const Relation* set, const Tuple& t, uint64_t h) {
    return set->rows_.Find(t, h) != RowBlock::kNone;
  };
  const auto mentions = [&](const Relation* level, const Tuple& t,
                            uint64_t h) {
    return holds(level->plus_.get(), t, h) || holds(level->minus_.get(), t, h);
  };
  for (std::size_t i = 0; i < levels.size(); ++i) {
    for (const bool inserted : {true, false}) {
      const RowBlock& rows =
          inserted ? levels[i]->plus_->rows_ : levels[i]->minus_->rows_;
      for (std::size_t r = 0; r < rows.rows(); ++r) {
        if (!rows.alive(r)) continue;
        const Tuple& t = rows.tuple(r);
        const uint64_t h = rows.hash(r);
        bool outermost = true;
        for (std::size_t j = 0; j < i && outermost; ++j) {
          outermost = !mentions(levels[j], t, h);
        }
        if (!outermost) continue;  // decided at its outermost mention
        // Visible before the levels exactly when the innermost mention
        // is a delete (a level deletes only visible tuples and inserts
        // only invisible ones).
        bool visible_before = !inserted;
        for (std::size_t j = levels.size() - 1; j > i; --j) {
          if (holds(levels[j]->plus_.get(), t, h)) {
            visible_before = false;
            break;
          }
          if (holds(levels[j]->minus_.get(), t, h)) {
            visible_before = true;
            break;
          }
        }
        if (inserted && !visible_before) merged.AppendRow(t, h);
        if (!inserted && visible_before) merged.minus_->AppendRow(t, h);
      }
    }
  }
  return merged;
}

Relation Relation::Flattened(const Relation& chain) {
  Relation flat(chain.schema_);
  for (std::vector<int>& attrs : chain.DeclaredIndexes()) {
    flat.indexes_.push_back(std::make_unique<RelationIndex>(std::move(attrs)));
  }
  flat.Repoint();
  flat.Reserve(chain.size());
  // Level by level, outermost first, each live row no outer level
  // deleted, with the hash its level holds. Unlike the chain's iterator,
  // this checks only the outer levels that deleted anything: a collapse
  // of a deep insert-only chain walks no level per row.
  std::vector<const RowBlock*> deleted_above;
  for (const Relation* level = &chain; level != nullptr;
       level = level->base_.get()) {
    const RowBlock& rows = level->own_rows();
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      if (!rows.alive(r)) continue;
      const Tuple& t = rows.tuple(r);
      const uint64_t h = rows.hash(r);
      bool shadowed = false;
      for (const RowBlock* minus : deleted_above) {
        if (minus->Find(t, h) != RowBlock::kNone) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed) flat.AppendRow(t, h);
    }
    if (level->base_ != nullptr && level->minus_->size() > 0) {
      deleted_above.push_back(&level->minus_->rows_);
    }
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
    const RowBlock& rows = level_->own_rows();
    row_ = rows.SkipDead(row_);
    if (row_ == rows.rows()) {
      level_ = level_->base_.get();
      row_ = 0;
      continue;
    }
    if (level_ == top_ || !ShadowedAboveCurrent()) {
      tuple_ = &rows.tuple(row_);
      return;
    }
    ++row_;
  }
}

bool Relation::ConstIterator::ShadowedAboveCurrent() const {
  const RowBlock& rows = level_->own_rows();
  const Tuple& t = rows.tuple(row_);
  const uint64_t h = rows.hash(row_);
  for (const Relation* r = top_; r != level_; r = r->base_.get()) {
    const RowBlock& minus = r->minus_->rows_;
    if (minus.size() > 0 && minus.Find(t, h) != RowBlock::kNone) return true;
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
