#include "src/relational/schema.h"

#include "src/common/str_util.h"

namespace txmod {

const char* AttrTypeToString(AttrType type) {
  switch (type) {
    case AttrType::kInt:
      return "int";
    case AttrType::kDouble:
      return "double";
    case AttrType::kString:
      return "string";
  }
  return "unknown";
}

Result<int> RelationSchema::AttributeIndex(const std::string& name) const {
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound(
      StrCat("relation ", name_, " has no attribute ", name));
}

namespace {

bool TypeAccepts(AttrType attr, const Value& v) {
  if (v.is_null()) return true;
  switch (attr) {
    case AttrType::kInt:
      return v.is_int();
    case AttrType::kDouble:
      return v.is_numeric();
    case AttrType::kString:
      return v.is_string();
  }
  return false;
}

}  // namespace

Status RelationSchema::CheckTuple(const Tuple& tuple) const {
  if (tuple.arity() != arity()) {
    return Status::InvalidArgument(
        StrCat("tuple arity ", tuple.arity(), " does not match schema ",
               name_, " arity ", arity()));
  }
  for (std::size_t i = 0; i < arity(); ++i) {
    if (!TypeAccepts(attributes_[i].type, tuple.at(i))) {
      return Status::InvalidArgument(
          StrCat("attribute ", attributes_[i].name, " of ", name_,
                 " expects ", AttrTypeToString(attributes_[i].type), ", got ",
                 ValueTypeToString(tuple.at(i).type()), " in ",
                 tuple.ToString()));
    }
  }
  return Status::OK();
}

Tuple RelationSchema::CoerceTuple(Tuple tuple) const {
  for (std::size_t i = 0; i < arity() && i < tuple.arity(); ++i) {
    if (attributes_[i].type == AttrType::kDouble && tuple.at(i).is_int()) {
      tuple.at(i) = Value::Double(static_cast<double>(tuple.at(i).as_int()));
    }
  }
  return tuple;
}

bool RelationSchema::NeedsCoercion(const Tuple& tuple) const {
  for (std::size_t i = 0; i < arity() && i < tuple.arity(); ++i) {
    if (attributes_[i].type == AttrType::kDouble && tuple.at(i).is_int()) {
      return true;
    }
  }
  return false;
}

std::string RelationSchema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(attributes_.size());
  for (const Attribute& a : attributes_) {
    parts.push_back(StrCat(a.name, ": ", AttrTypeToString(a.type)));
  }
  return StrCat(name_, "(", Join(parts, ", "), ")");
}

Status DatabaseSchema::AddRelation(RelationSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (Contains(schema.name())) {
    return Status::AlreadyExists(
        StrCat("relation ", schema.name(), " already defined"));
  }
  index_[schema.name()] = relations_.size();
  relations_.push_back(std::move(schema));
  return Status::OK();
}

Result<const RelationSchema*> DatabaseSchema::Find(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound(StrCat("relation ", name, " not in schema"));
  }
  return &relations_[it->second];
}

bool DatabaseSchema::Contains(const std::string& name) const {
  return index_.find(name) != index_.end();
}

}  // namespace txmod
