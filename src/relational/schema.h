#ifndef TXMOD_RELATIONAL_SCHEMA_H_
#define TXMOD_RELATIONAL_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/tuple.h"

namespace txmod {

/// Attribute domain. Matches ValueType minus null: every attribute is
/// nullable (the paper's model has no NOT NULL; non-nullity is expressible
/// as a domain constraint in CL).
enum class AttrType {
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

const char* AttrTypeToString(AttrType type);

/// A named, typed attribute Ai with domain dom(Ai) (Definition 2.1).
struct Attribute {
  std::string name;
  AttrType type;

  bool operator==(const Attribute& other) const {
    return name == other.name && type == other.type;
  }
};

/// A relation schema R: relation name plus attribute list (Definition 2.1).
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  std::size_t arity() const { return attributes_.size(); }

  const Attribute& attribute(std::size_t i) const { return attributes_[i]; }

  /// Index of the attribute called `name`, or kNotFound.
  Result<int> AttributeIndex(const std::string& name) const;

  /// Verifies arity and per-attribute types of `tuple`. kInt values are
  /// accepted in kDouble attributes (widening); null is accepted anywhere.
  Status CheckTuple(const Tuple& tuple) const;

  /// Coerces kInt values in kDouble positions; assumes CheckTuple passed.
  Tuple CoerceTuple(Tuple tuple) const;

  /// True when CoerceTuple would change `tuple`.
  bool NeedsCoercion(const Tuple& tuple) const;

  bool operator==(const RelationSchema& other) const {
    return name_ == other.name_ && attributes_ == other.attributes_;
  }

  /// Renders as name(attr1: type1, attr2: type2, ...).
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
};

/// A database schema D = {R1, ..., Rn} (Definition 2.2). Relation names are
/// unique; lookup is by name. Iteration order is the insertion order (kept
/// for deterministic catalogs and printing).
class DatabaseSchema {
 public:
  Status AddRelation(RelationSchema schema);

  /// Schema of relation `name`, or kNotFound.
  Result<const RelationSchema*> Find(const std::string& name) const;

  bool Contains(const std::string& name) const;

  const std::vector<RelationSchema>& relations() const { return relations_; }

 private:
  std::vector<RelationSchema> relations_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_SCHEMA_H_
