#include "src/relational/database.h"

#include <utility>

#include "src/common/str_util.h"

namespace txmod {

Database::Database(const Database& other)
    : schema_(other.schema_),
      relations_(other.relations_),
      logical_time_(other.logical_time_) {
  // Every state is now shared: neither side may mutate one in place.
  other.owned_.clear();
}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    schema_ = other.schema_;
    relations_ = other.relations_;
    logical_time_ = other.logical_time_;
    owned_.clear();
    other.owned_.clear();
  }
  return *this;
}

Status Database::CreateRelation(RelationSchema schema) {
  const std::string name = schema.name();
  // Copies taken earlier keep the schema they share; this one extends
  // its own.
  auto extended = schema_ != nullptr
                      ? std::make_shared<DatabaseSchema>(*schema_)
                      : std::make_shared<DatabaseSchema>();
  TXMOD_RETURN_IF_ERROR(extended->AddRelation(schema));
  schema_ = std::move(extended);
  auto shared = std::make_shared<const RelationSchema>(std::move(schema));
  relations_.emplace(name, std::make_shared<Relation>(std::move(shared)));
  owned_.insert(name);
  return Status::OK();
}

const DatabaseSchema& Database::schema() const {
  static const DatabaseSchema kNoRelations;
  return schema_ != nullptr ? *schema_ : kNoRelations;
}

Result<const Relation*> Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " does not exist"));
  }
  return it->second.get();
}

Result<Relation*> Database::FindMutable(const std::string& name) {
  if (owned_.count(name) > 0) return relations_.at(name).get();
  // This state is (or once was) shared with a snapshot — shared states
  // are immutable, so un-share before handing out mutable access.
  TXMOD_ASSIGN_OR_RETURN(Level level, PushLevel(name));
  return level.top;
}

Result<Database::Level> Database::PushLevel(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " does not exist"));
  }
  Level level;
  level.pre = it->second;
  level.pre_owned = !owned_.insert(name).second;  // the level is owned
  // O(1) in the relation size: declared indexes are mirrored (empty) so
  // compiled checks keep probing via FindIndexView.
  it->second = std::make_shared<Relation>(Relation::MakeOverlay(level.pre));
  level.top = it->second.get();
  ++CowStats::overlays_created;
  return level;
}

std::shared_ptr<Relation> Database::DropLevel(const std::string& name,
                                             Level level) {
  if (!level.pre_owned) owned_.erase(name);
  return std::exchange(relations_[name], std::move(level.pre));
}

void Database::FoldLevel(const std::string& name, Level level) {
  if (owned_.count(name) == 0) return;  // shared since the push: it stays
  std::shared_ptr<Relation>& slot = relations_[name];
  if (level.pre_owned) {
    // Nobody else can reach `pre`: the level was never shared.
    level.pre->Absorb(std::move(*slot));
    slot = std::move(level.pre);
  }
  std::shared_ptr<const Relation> compacted = Relation::Compact(slot);
  if (compacted == nullptr) return;
  // A merge that netted out yields a level of the old chain, which other
  // holders may share; a built replacement is this database's alone.
  if (slot->ChainHolds(compacted.get())) owned_.erase(name);
  slot = std::const_pointer_cast<Relation>(std::move(compacted));
}

std::shared_ptr<const Relation> Database::Share(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  owned_.erase(name);
  return it->second;
}

std::shared_ptr<const Relation> Database::SwapCompacted(
    const std::string& name, const Relation* start,
    std::shared_ptr<const Relation> replacement) {
  auto it = relations_.find(name);
  if (it == relations_.end() || !it->second->ChainHolds(start)) {
    return nullptr;
  }
  std::shared_ptr<const Relation> installed =
      Relation::Reapply(*it->second, start, std::move(replacement));
  owned_.erase(name);
  // Never owned, so never mutated in place: the const_cast only matches
  // the slot's type.
  return std::exchange(it->second,
                       std::const_pointer_cast<Relation>(std::move(installed)));
}

std::shared_ptr<Relation> Database::TakeOwnedRelation(
    const std::string& name) {
  auto owned_it = owned_.find(name);
  if (owned_it == owned_.end()) return nullptr;
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  std::shared_ptr<Relation> out = std::move(it->second);
  relations_.erase(it);
  owned_.erase(owned_it);
  return out;
}

Database::Level Database::AdoptRelation(const std::string& name,
                                        std::shared_ptr<Relation> rel) {
  Level level;
  level.top = rel.get();
  level.pre = std::exchange(relations_[name], std::move(rel));
  level.pre_owned = !owned_.insert(name).second;
  return level;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Database Database::Clone() const {
  return *this;  // Shares relation states; FindMutable un-shares on write.
}

bool Database::SameState(const Database& other, bool compare_time) const {
  if (compare_time && logical_time_ != other.logical_time_) return false;
  if (relations_.size() != other.relations_.size()) return false;
  for (const auto& [name, rel] : relations_) {
    auto it = other.relations_.find(name);
    if (it == other.relations_.end()) return false;
    if (!rel->SameTuples(*it->second)) return false;
  }
  return true;
}

}  // namespace txmod
