#include "src/parallel/parallel_db.h"

#include "src/common/str_util.h"

namespace txmod::parallel {

Result<ParallelDatabase> ParallelDatabase::Partition(
    const Database& db,
    const std::map<std::string, FragmentationScheme>& schemes,
    int num_nodes) {
  if (num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be at least 1");
  }
  ParallelDatabase out;
  out.num_nodes_ = num_nodes;
  for (const RelationSchema& rs : db.schema().relations()) {
    TXMOD_RETURN_IF_ERROR(out.schema_.AddRelation(rs));
    FragmentedRelation frag;
    auto it = schemes.find(rs.name());
    frag.scheme = it != schemes.end() ? it->second : FragmentationScheme{};
    if (frag.scheme.kind == FragmentationKind::kHash &&
        (frag.scheme.attr < 0 ||
         frag.scheme.attr >= static_cast<int>(rs.arity()))) {
      return Status::InvalidArgument(
          StrCat("hash fragmentation attribute #", frag.scheme.attr,
                 " out of range for ", rs.name()));
    }
    TXMOD_ASSIGN_OR_RETURN(const Relation* rel, db.Find(rs.name()));
    // Route first, so each fragment is sized exactly before it is filled:
    // its indexes are declared while it is empty and then grow with it,
    // without a rehash and without a second pass over the tuples.
    std::vector<std::vector<const Tuple*>> routed(
        static_cast<std::size_t>(num_nodes));
    for (const Tuple& t : *rel) {
      routed[static_cast<std::size_t>(FragmentOf(t, frag.scheme, num_nodes))]
          .push_back(&t);
    }
    const std::vector<std::vector<int>> indexes = rel->DeclaredIndexes();
    frag.fragments.reserve(routed.size());
    for (const std::vector<const Tuple*>& tuples : routed) {
      Relation& f = frag.fragments.emplace_back(rel->schema_ptr());
      for (const std::vector<int>& attrs : indexes) f.IndexOn(attrs);
      f.Reserve(tuples.size());
      for (const Tuple* t : tuples) f.Insert(*t);
    }
    out.relations_.emplace(rs.name(), std::move(frag));
  }
  return out;
}

Result<const FragmentedRelation*> ParallelDatabase::Find(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " not partitioned"));
  }
  return &it->second;
}

Result<FragmentedRelation*> ParallelDatabase::FindMutable(
    const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " not partitioned"));
  }
  return &it->second;
}

Database ParallelDatabase::Merge() const {
  Database db;
  for (const RelationSchema& rs : schema_.relations()) {
    Status st = db.CreateRelation(rs);
    (void)st;
    Relation* rel = *db.FindMutable(rs.name());
    const FragmentedRelation& frag = relations_.at(rs.name());
    for (const Relation& f : frag.fragments) {
      for (const Tuple& t : f) rel->Insert(t);
    }
  }
  return db;
}

}  // namespace txmod::parallel
