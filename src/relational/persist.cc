#include "src/relational/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/str_util.h"

namespace txmod {

namespace {

constexpr char kMagic[] = "txmod-checkpoint";
constexpr int kVersion = 1;

}  // namespace

std::string EncodeValueText(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return StrCat("i:", v.as_int());
    case ValueType::kDouble: {
      // Hex float representation: lossless round trip.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "d:%a", v.as_double());
      return buf;
    }
    case ValueType::kString: {
      std::string out = "s:\"";
      for (char c : v.as_string()) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
      }
      out += '"';
      return out;
    }
  }
  return "null";
}

Result<Value> DecodeValueText(const std::string& text) {
  if (text == "null") return Value::Null();
  // The i:/d: paths must be strict: a checksum passes on the whole line,
  // so a corrupted-but-plausible payload ("i:12junk", an out-of-range
  // digit string) would otherwise decode to a *wrong value* instead of
  // an error — silent corruption past a passing checksum. strtoll/strtod
  // report overflow only via errno (the return saturates), and trailing
  // bytes only via the end pointer; both are checked.
  if (text.rfind("i:", 0) == 0) {
    const char* payload = text.c_str() + 2;
    // strtoll/strtod skip leading whitespace; the encoder never emits
    // any, so "i: 1" is corruption too.
    if (std::isspace(static_cast<unsigned char>(payload[0]))) {
      return Status::InvalidArgument(
          StrCat("malformed int encoding: ", text));
    }
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(payload, &end, 10);
    if (end == payload || *end != '\0') {
      return Status::InvalidArgument(
          StrCat("malformed int encoding: ", text));
    }
    if (errno == ERANGE) {
      return Status::InvalidArgument(
          StrCat("int encoding out of range (does not fit int64): ", text));
    }
    return Value::Int(v);
  }
  if (text.rfind("d:", 0) == 0) {
    const char* payload = text.c_str() + 2;
    if (std::isspace(static_cast<unsigned char>(payload[0]))) {
      return Status::InvalidArgument(
          StrCat("malformed double encoding: ", text));
    }
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(payload, &end);
    if (end == payload || *end != '\0') {
      return Status::InvalidArgument(
          StrCat("malformed double encoding: ", text));
    }
    // Overflow saturates to +-HUGE_VAL with ERANGE set. Underflow also
    // sets ERANGE but yields an exactly-representable 0/denormal — the
    // encoder's hex-float output round-trips denormals exactly, so only
    // the saturating case is corruption.
    if (errno == ERANGE && std::fabs(v) == HUGE_VAL) {
      return Status::InvalidArgument(
          StrCat("double encoding out of range: ", text));
    }
    return Value::Double(v);
  }
  if (text.rfind("s:\"", 0) == 0 && text.size() >= 4 && text.back() == '"') {
    std::string out;
    for (std::size_t i = 3; i + 1 < text.size(); ++i) {
      if (text[i] == '\\' && i + 2 < text.size()) {
        ++i;
        switch (text[i]) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            out += text[i];
        }
      } else {
        out += text[i];
      }
    }
    return Value::String(std::move(out));
  }
  return Status::InvalidArgument(StrCat("bad value encoding: ", text));
}

/// Spaces inside quoted strings are part of the value; a simple state
/// machine tracks quoting.
std::vector<std::string> SplitEncodedValues(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  bool escaped = false;
  for (char c : line) {
    if (in_string) {
      current += c;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current += c;
      continue;
    }
    if (c == ' ') {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

namespace {

Result<AttrType> DecodeAttrType(const std::string& name) {
  if (name == "int") return AttrType::kInt;
  if (name == "double") return AttrType::kDouble;
  if (name == "string") return AttrType::kString;
  return Status::InvalidArgument(StrCat("unknown attribute type ", name));
}

}  // namespace

Status SaveDatabase(const Database& db, std::ostream& out) {
  out << kMagic << " " << kVersion << "\n";
  out << "time " << db.logical_time() << "\n";
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = *db.Find(name);
    const RelationSchema& schema = rel->schema();
    out << "relation " << name << " " << schema.arity() << "\n";
    for (const Attribute& attr : schema.attributes()) {
      out << "attr " << attr.name << " " << AttrTypeToString(attr.type)
          << "\n";
    }
    for (const Tuple& t : rel->SortedTuples()) {
      out << "tuple";
      for (const Value& v : t.values()) out << " " << EncodeValueText(v);
      out << "\n";
    }
    out << "end\n";
  }
  if (!out.good()) return Status::Internal("write failed");
  return Status::OK();
}

Status SaveDatabaseToFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument(StrCat("cannot open ", path,
                                          " for writing"));
  }
  return SaveDatabase(db, out);
}

Status CheckpointDatabaseToFile(const Database& db, const std::string& path,
                                Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  const std::string tmp = StrCat(path, ".tmp");
  std::ostringstream buffer;
  TXMOD_RETURN_IF_ERROR(SaveDatabase(db, buffer));
  TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs->OpenTrunc(tmp));
  TXMOD_RETURN_IF_ERROR(WriteFullyTo(file.get(), buffer.str(), "checkpoint"));
  // Flush the temp file's bytes to stable storage before the rename makes
  // it visible under the checkpoint name: rename-before-durable could
  // expose a checkpoint whose content a crash then loses.
  TXMOD_RETURN_IF_ERROR(file->Sync());
  file.reset();
  TXMOD_RETURN_IF_ERROR(vfs->Rename(tmp, path));
  // The rename only becomes durable with the directory entry; without
  // this, a later durable WAL truncation could outlive a lost rename and
  // recovery would pair the OLD checkpoint with an EMPTY log.
  return vfs->SyncParentDirectory(path);
}

Status FsyncParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(StrCat("cannot open directory ", dir));
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal(StrCat("fsync of ", dir, " failed"));
  return Status::OK();
}

Result<Database> LoadDatabase(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty checkpoint");
  }
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    if (magic != kMagic) {
      return Status::InvalidArgument("not a txmod checkpoint");
    }
    if (version != kVersion) {
      return Status::InvalidArgument(
          StrCat("unsupported checkpoint version ", version));
    }
  }
  Database db;
  uint64_t logical_time = 0;
  // The relation under construction. Built as a locally-owned state and
  // adopted wholesale at "end": the loader is logically a bulk writer of
  // fresh states and must never reach for Database::FindMutable — the
  // un-sharing overlay exists for mutating *shared* states, which a
  // loader has no business triggering.
  std::shared_ptr<Relation> current;
  std::string current_name;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "time") {
      fields >> logical_time;
    } else if (keyword == "relation") {
      std::string name;
      int arity = 0;
      fields >> name >> arity;
      std::vector<Attribute> attrs;
      attrs.reserve(arity);
      for (int i = 0; i < arity; ++i) {
        if (!std::getline(in, line)) {
          return Status::InvalidArgument("truncated attribute list");
        }
        ++line_number;
        std::istringstream attr_fields(line);
        std::string attr_kw, attr_name, attr_type;
        attr_fields >> attr_kw >> attr_name >> attr_type;
        if (attr_kw != "attr") {
          return Status::InvalidArgument(
              StrCat("expected attr at line ", line_number));
        }
        TXMOD_ASSIGN_OR_RETURN(AttrType type, DecodeAttrType(attr_type));
        attrs.push_back(Attribute{attr_name, type});
      }
      TXMOD_RETURN_IF_ERROR(
          db.CreateRelation(RelationSchema(name, std::move(attrs))));
      TXMOD_ASSIGN_OR_RETURN(const Relation* created, db.Find(name));
      current = std::make_shared<Relation>(created->schema_ptr());
      current_name = name;
    } else if (keyword == "tuple") {
      if (current == nullptr) {
        return Status::InvalidArgument(
            StrCat("tuple outside a relation at line ", line_number));
      }
      std::string rest;
      std::getline(fields, rest);
      std::vector<Value> values;
      for (const std::string& enc : SplitEncodedValues(rest)) {
        TXMOD_ASSIGN_OR_RETURN(Value v, DecodeValueText(enc));
        values.push_back(std::move(v));
      }
      Tuple tuple(std::move(values));
      TXMOD_RETURN_IF_ERROR(current->schema().CheckTuple(tuple));
      current->Insert(current->schema().CoerceTuple(std::move(tuple)));
    } else if (keyword == "end") {
      if (current != nullptr) {
        db.AdoptRelation(current_name, std::move(current));
        current = nullptr;
      }
    } else {
      return Status::InvalidArgument(
          StrCat("unknown keyword '", keyword, "' at line ", line_number));
    }
  }
  // A truncated checkpoint may end mid-relation; adopt what was read so
  // the loaded prefix is still visible (recovery validates separately).
  if (current != nullptr) db.AdoptRelation(current_name, std::move(current));
  while (db.logical_time() < logical_time) db.AdvanceTime();
  return db;
}

Result<Database> LoadDatabaseFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open ", path));
  }
  return LoadDatabase(in);
}

}  // namespace txmod
