#include "src/txn/txn_context.h"

#include "src/common/str_util.h"

namespace txmod::txn {

using algebra::RelRefKind;

TxnContext::TxnContext(Database* db) : db_(db) {}

Result<const Relation*> TxnContext::Resolve(RelRefKind kind,
                                            const std::string& name) const {
  if (track_conflicts_ &&
      (kind == RelRefKind::kBase || kind == RelRefKind::kOld)) {
    base_reads_.insert(name);
  }
  return ResolveUnrecorded(kind, name);
}

Result<const Relation*> TxnContext::ResolveSchemaOnly(
    RelRefKind kind, const std::string& name) const {
  return ResolveUnrecorded(kind, name);
}

Result<const Relation*> TxnContext::ResolveUnrecorded(
    RelRefKind kind, const std::string& name) const {
  switch (kind) {
    case RelRefKind::kBase:
      return db_->Find(name);
    case RelRefKind::kTemp: {
      auto it = temps_.find(name);
      if (it == temps_.end()) {
        return Status::NotFound(StrCat("unknown temporary ", name));
      }
      return &it->second;
    }
    case RelRefKind::kOld: {
      // The level's base is the pre-transaction state; an unwritten
      // relation still is its own pre-state.
      auto it = levels_.find(name);
      if (it != levels_.end()) return it->second.pre.get();
      return db_->Find(name);
    }
    case RelRefKind::kDeltaPlus:
    case RelRefKind::kDeltaMinus: {
      auto it = levels_.find(name);
      if (it != levels_.end()) {
        const Relation& level = *it->second.top;
        return kind == RelRefKind::kDeltaPlus ? &level.local_inserts()
                                              : &level.local_deletes();
      }
      auto empty = unwritten_deltas_.find(name);
      if (empty == unwritten_deltas_.end()) {
        TXMOD_ASSIGN_OR_RETURN(const Relation* rel, db_->Find(name));
        empty = unwritten_deltas_.emplace(name, Relation(rel->schema_ptr()))
                    .first;
      }
      return &empty->second;
    }
  }
  return Status::Internal("unknown RelRefKind");
}

void TxnContext::SetTemp(const std::string& name, Relation value) {
  temps_.insert_or_assign(name, std::move(value));
}

Result<Relation*> TxnContext::LevelForWrite(const std::string& rel,
                                            const Relation& current,
                                            const Tuple& t,
                                            bool noop_when_present) {
  auto it = levels_.find(rel);
  if (it != levels_.end()) return it->second.top;
  // The first write installs the level — unless it is a no-op.
  if (current.Contains(t) == noop_when_present) return nullptr;
  TXMOD_ASSIGN_OR_RETURN(Database::Level level, db_->PushLevel(rel));
  return levels_.emplace(rel, std::move(level)).first->second.top;
}

TxnContext::Unshown& TxnContext::UnshownOf(const std::string& rel,
                                            const Relation& of) {
  auto it = unshown_.find(rel);
  if (it == unshown_.end()) {
    it = unshown_.emplace(rel, Unshown{Relation(of.schema_ptr()), {}}).first;
  }
  return it->second;
}

Result<bool> TxnContext::InsertTuple(const std::string& rel, Tuple tuple) {
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  TXMOD_RETURN_IF_ERROR(current->schema().CheckTuple(tuple));
  Tuple coerced = current->schema().CoerceTuple(std::move(tuple));
  TXMOD_ASSIGN_OR_RETURN(Relation * level,
                         LevelForWrite(rel, *current, coerced, true));
  if (level == nullptr) {
    // A no-op is a tuple-granularity read of the committed state.
    if (track_conflicts_) {
      UnshownOf(rel, *current).side.Insert(std::move(coerced));
    }
    return false;
  }
  const std::size_t inserts = level->local_inserts().size();
  // Re-inserting a tuple the transaction deleted shrinks the level's
  // deletes instead: the delta stays net. Insert moves `coerced` into
  // the level only when the level's inserts grow; otherwise the level
  // does not show the attempt, and `coerced` goes to the side set.
  const bool inserted = level->Insert(std::move(coerced));
  if (track_conflicts_ && level->local_inserts().size() == inserts) {
    UnshownOf(rel, *level).side.Insert(std::move(coerced));
  }
  return inserted;
}

Result<bool> TxnContext::DeleteTuple(const std::string& rel,
                                     const Tuple& tuple) {
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  Tuple coerced;
  const Tuple& t = current->schema().NeedsCoercion(tuple)
                       ? (coerced = current->schema().CoerceTuple(tuple))
                       : tuple;
  TXMOD_ASSIGN_OR_RETURN(Relation * level,
                         LevelForWrite(rel, *current, t, false));
  if (level == nullptr) {
    if (track_conflicts_) UnshownOf(rel, *current).side.Insert(t);
    return false;
  }
  const std::size_t deletes = level->local_deletes().size();
  // Deleting a tuple the transaction inserted shrinks the level's
  // inserts instead.
  const bool deleted = level->Erase(t);
  if (track_conflicts_ && level->local_deletes().size() == deletes) {
    UnshownOf(rel, *level).side.Insert(t);
  }
  return deleted;
}

std::vector<std::string> TxnContext::TouchedRelations() const {
  std::vector<std::string> out;
  for (const auto& [name, level] : levels_) {
    if (!level.top->local_inserts().empty() ||
        !level.top->local_deletes().empty()) {
      out.push_back(name);
    }
  }
  return out;
}

TxnContext::Footprint TxnContext::WriteFootprint(
    const std::string& rel) const {
  Footprint out;
  if (auto it = levels_.find(rel); it != levels_.end()) {
    out.parts_.push_back(&it->second.top->local_inserts());
    out.parts_.push_back(&it->second.top->local_deletes());
  }
  if (auto it = unshown_.find(rel); it != unshown_.end()) {
    out.parts_.push_back(&it->second.side);
    for (const auto& level : it->second.dropped) {
      out.parts_.push_back(&level->local_inserts());
      out.parts_.push_back(&level->local_deletes());
    }
  }
  return out;
}

std::size_t TxnContext::Footprint::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    for (const Tuple& t : *parts_[i]) {
      bool seen = false;
      for (std::size_t j = 0; j < i && !seen; ++j) {
        seen = parts_[j]->Contains(t);
      }
      if (!seen) ++n;
    }
  }
  return n;
}

bool TxnContext::Footprint::Contains(const Tuple& t) const {
  for (const Relation* part : parts_) {
    if (part->Contains(t)) return true;
  }
  return false;
}

bool TxnContext::Footprint::Overlaps(const Relation& plus,
                                     const Relation& minus) const {
  std::size_t attempted = 0;
  for (const Relation* part : parts_) attempted += part->size();
  if (attempted < plus.size() + minus.size()) {
    for (const Relation* part : parts_) {
      for (const Tuple& t : *part) {
        if (plus.Contains(t) || minus.Contains(t)) return true;
      }
    }
    return false;
  }
  for (const Relation* set : {&plus, &minus}) {
    for (const Tuple& t : *set) {
      if (Contains(t)) return true;
    }
  }
  return false;
}

void TxnContext::Rollback() {
  for (auto& [name, level] : levels_) {
    std::shared_ptr<Relation> dropped = db_->DropLevel(name, std::move(level));
    if (track_conflicts_) {
      UnshownOf(name, *dropped).dropped.push_back(std::move(dropped));
    }
  }
  levels_.clear();
  temps_.clear();
}

void TxnContext::Commit() {
  for (auto& [name, level] : levels_) db_->FoldLevel(name, std::move(level));
  levels_.clear();
  temps_.clear();
  base_reads_.clear();
  unshown_.clear();
  db_->AdvanceTime();
}

}  // namespace txmod::txn
