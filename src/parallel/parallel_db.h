#ifndef TXMOD_PARALLEL_PARALLEL_DB_H_
#define TXMOD_PARALLEL_PARALLEL_DB_H_

#include <map>
#include <string>
#include <vector>

#include "src/parallel/fragmentation.h"
#include "src/relational/database.h"

namespace txmod::parallel {

/// A relation split into one fragment per node.
struct FragmentedRelation {
  FragmentationScheme scheme;
  std::vector<Relation> fragments;  // one per node

  std::size_t TotalSize() const {
    std::size_t n = 0;
    for (const Relation& f : fragments) n += f.size();
    return n;
  }
};

/// A PRISMA-style fragmented database: every relation horizontally
/// partitioned over `num_nodes` nodes ([7]). Built by partitioning a
/// serial Database; Merge() reconstructs one for verification against
/// serial execution.
///
/// Move-only: copying a Relation drops its declared indexes, so a copied
/// ParallelDatabase would silently put every parallel check back on
/// scans.
class ParallelDatabase {
 public:
  ParallelDatabase() = default;
  ParallelDatabase(const ParallelDatabase&) = delete;
  ParallelDatabase& operator=(const ParallelDatabase&) = delete;
  ParallelDatabase(ParallelDatabase&&) = default;
  ParallelDatabase& operator=(ParallelDatabase&&) = default;

  /// Partitions `db`. Relations without an entry in `schemes` default to
  /// round-robin. Every fragment declares the indexes its source
  /// relation declares (the integrity subsystem's check plans request
  /// them), so the parallel checks probe fragments where they lie.
  static Result<ParallelDatabase> Partition(
      const Database& db,
      const std::map<std::string, FragmentationScheme>& schemes,
      int num_nodes);

  int num_nodes() const { return num_nodes_; }

  Result<const FragmentedRelation*> Find(const std::string& name) const;
  Result<FragmentedRelation*> FindMutable(const std::string& name);

  const DatabaseSchema& schema() const { return schema_; }

  /// Reassembles the fragments into a serial database state.
  Database Merge() const;

 private:
  int num_nodes_ = 1;
  DatabaseSchema schema_;
  std::map<std::string, FragmentedRelation> relations_;
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_PARALLEL_DB_H_
