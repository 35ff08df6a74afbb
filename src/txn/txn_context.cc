#include "src/txn/txn_context.h"

#include "src/common/str_util.h"

namespace txmod::txn {

using algebra::RelRefKind;

TxnContext::TxnContext(Database* db) : db_(db) {
  for (const RelationSchema& schema : db->schema().relations()) {
    unwritten_deltas_.emplace(
        schema.name(), Relation((*db->Find(schema.name()))->schema_ptr()));
  }
}

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
        return Status::NotFound(StrCat("relation ", name, " does not exist"));
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

void TxnContext::RecordFootprint(const std::string& rel,
                                 const Relation& target, const Tuple& t) {
  auto it = footprint_.find(rel);
  if (it == footprint_.end()) {
    it = footprint_.emplace(rel, Relation(target.schema_ptr())).first;
  }
  // Dedupe before inserting: the footprint has set semantics anyway, but
  // Insert's by-value parameter deep-copies the tuple per attempt — a
  // large idempotent batch re-touching the same tuples would pay an
  // O(attempts) allocation bill for an unchanged set.
  if (!it->second.Contains(t)) it->second.Insert(t);
}

Result<bool> TxnContext::InsertTuple(const std::string& rel, Tuple tuple) {
  // Under conflict tracking the footprint is recorded either way —
  // whether the insert WAS a no-op is a tuple-granularity read of the
  // committed state.
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  TXMOD_RETURN_IF_ERROR(current->schema().CheckTuple(tuple));
  Tuple coerced = current->schema().CoerceTuple(std::move(tuple));
  if (track_conflicts_) RecordFootprint(rel, *current, coerced);
  TXMOD_ASSIGN_OR_RETURN(Relation * level,
                         LevelForWrite(rel, *current, coerced, true));
  // Re-inserting a tuple the transaction deleted shrinks the level's
  // deletes instead: the delta stays net.
  return level != nullptr && level->Insert(std::move(coerced));
}

Result<bool> TxnContext::DeleteTuple(const std::string& rel,
                                     const Tuple& tuple) {
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  const Tuple coerced = current->schema().CoerceTuple(tuple);
  if (track_conflicts_) RecordFootprint(rel, *current, coerced);
  TXMOD_ASSIGN_OR_RETURN(Relation * level,
                         LevelForWrite(rel, *current, coerced, false));
  // Deleting a tuple the transaction inserted shrinks the level's
  // inserts instead.
  return level != nullptr && level->Erase(coerced);
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

void TxnContext::Rollback() {
  for (auto& [name, level] : levels_) db_->DropLevel(name, std::move(level));
  levels_.clear();
  temps_.clear();
}

void TxnContext::Commit() {
  for (auto& [name, level] : levels_) db_->FoldLevel(name, std::move(level));
  levels_.clear();
  temps_.clear();
  base_reads_.clear();
  footprint_.clear();
  db_->AdvanceTime();
}

}  // namespace txmod::txn
