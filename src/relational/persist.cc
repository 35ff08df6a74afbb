#include "src/relational/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/str_util.h"

namespace txmod {

namespace {

constexpr char kMagic[] = "txmod-checkpoint";
constexpr int kVersion = 1;

/// Copies a number payload into `buf` with the terminator strtoll and
/// strtod need: a view has none, and the bytes after it may even extend
/// the number. False when the payload does not fit.
template <std::size_t N>
bool TerminatedCopy(std::string_view payload, char (&buf)[N]) {
  if (payload.size() >= N) return false;
  std::memcpy(buf, payload.data(), payload.size());
  buf[payload.size()] = '\0';
  return true;
}

/// Splits the first word off `*rest` the way istream extraction reads
/// it: leading whitespace skipped, the word ends at the next whitespace.
std::string_view NextWord(std::string_view* rest) {
  auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::size_t begin = 0;
  while (begin < rest->size() && space((*rest)[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest->size() && !space((*rest)[end])) ++end;
  const std::string_view word = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return word;
}

/// Splits the next encoding off the front of `*rest`: skips spaces, then
/// takes bytes up to the next space outside a quoted string (inside one,
/// a backslash escapes the byte after it). Empty at the end of the line.
std::string_view NextEncoding(std::string_view* rest) {
  std::size_t i = 0;
  while (i < rest->size() && (*rest)[i] == ' ') ++i;
  const std::size_t begin = i;
  bool in_string = false;
  bool escaped = false;
  for (; i < rest->size(); ++i) {
    const char c = (*rest)[i];
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      escaped = c == '\\';
      in_string = c != '"';
    } else if (c == '"') {
      in_string = true;
    } else if (c == ' ') {
      break;
    }
  }
  const std::string_view token = rest->substr(begin, i - begin);
  rest->remove_prefix(i);
  return token;
}

}  // namespace

void AppendValueText(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kInt: {
      char buf[24];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), v.as_int());
      out->append("i:");
      out->append(buf, r.ptr);
      return;
    }
    case ValueType::kDouble: {
      // Hex float representation: lossless round trip. The bytes are
      // printf's "%a": a sign, "0x" before a finite magnitude, then the
      // shortest hex digits, which std::to_chars writes without a format
      // string to parse.
      const double d = v.as_double();
      out->append("d:");
      if (std::signbit(d)) out->push_back('-');
      if (std::isfinite(d)) out->append("0x");
      char buf[32];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), std::fabs(d),
                        std::chars_format::hex);
      out->append(buf, r.ptr);
      return;
    }
    case ValueType::kString: {
      const std::string& s = v.as_string();
      out->append("s:\"");
      std::size_t run = 0;  // first byte not yet appended
      for (std::size_t i = 0; i < s.size(); ++i) {
        const char* escape;
        switch (s[i]) {
          case '"':
            escape = "\\\"";
            break;
          case '\\':
            escape = "\\\\";
            break;
          case '\n':
            escape = "\\n";
            break;
          case '\t':
            escape = "\\t";
            break;
          default:
            continue;
        }
        out->append(s, run, i - run);
        out->append(escape);
        run = i + 1;
      }
      out->append(s, run, std::string::npos);
      out->push_back('"');
      return;
    }
  }
}

std::string EncodeValueText(const Value& v) {
  std::string out;
  AppendValueText(v, &out);
  return out;
}

Result<Value> DecodeValueText(std::string_view text) {
  if (text == "null") return Value::Null();
  // The i:/d: paths must be strict: a checksum passes on the whole line,
  // so a corrupted-but-plausible payload ("i:12junk", an out-of-range
  // digit string) would otherwise decode to a *wrong value* instead of
  // an error — silent corruption past a passing checksum. strtoll/strtod
  // report overflow only via errno (the return saturates), and trailing
  // bytes only via the end pointer, which must reach the payload's end
  // (not merely a NUL: "i:12\0junk" is corruption too); both are checked.
  // strtoll/strtod also skip leading whitespace, which the encoder never
  // emits, so "i: 1" is rejected as well.
  char buf[64];
  if (StartsWith(text, "i:")) {
    const std::string_view payload = text.substr(2);
    if (payload.empty() ||
        std::isspace(static_cast<unsigned char>(payload[0])) ||
        !TerminatedCopy(payload, buf)) {
      return Status::InvalidArgument(
          StrCat("malformed int encoding: ", text));
    }
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(buf, &end, 10);
    if (end != buf + payload.size()) {
      return Status::InvalidArgument(
          StrCat("malformed int encoding: ", text));
    }
    if (errno == ERANGE) {
      return Status::InvalidArgument(
          StrCat("int encoding out of range (does not fit int64): ", text));
    }
    return Value::Int(v);
  }
  if (StartsWith(text, "d:")) {
    const std::string_view payload = text.substr(2);
    if (payload.empty() ||
        std::isspace(static_cast<unsigned char>(payload[0])) ||
        !TerminatedCopy(payload, buf)) {
      return Status::InvalidArgument(
          StrCat("malformed double encoding: ", text));
    }
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(buf, &end);
    if (end != buf + payload.size()) {
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
  if (StartsWith(text, "s:\"") && text.size() >= 4 && text.back() == '"') {
    // A backslash escapes the byte after it; one right before the
    // closing quote has none and stays literal.
    const std::string_view body = text.substr(3, text.size() - 4);
    std::string out;
    out.reserve(body.size());
    std::size_t i = 0;
    while (i < body.size()) {
      const std::size_t slash = body.find('\\', i);
      if (slash == std::string_view::npos || slash + 1 == body.size()) {
        out.append(body.substr(i));
        break;
      }
      out.append(body.substr(i, slash - i));
      const char c = body[slash + 1];
      out.push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
      i = slash + 2;
    }
    return Value::String(std::move(out));
  }
  return Status::InvalidArgument(StrCat("bad value encoding: ", text));
}

Result<Tuple> DecodeTupleText(std::string_view line) {
  // Count first, so the tuple's vector is allocated once at its size.
  std::size_t arity = 0;
  for (std::string_view scan = line; !NextEncoding(&scan).empty();) ++arity;
  std::vector<Value> values;
  values.reserve(arity);
  for (std::string_view token = NextEncoding(&line); !token.empty();
       token = NextEncoding(&line)) {
    TXMOD_ASSIGN_OR_RETURN(Value v, DecodeValueText(token));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

namespace {

Result<AttrType> DecodeAttrType(const std::string& name) {
  if (name == "int") return AttrType::kInt;
  if (name == "double") return AttrType::kDouble;
  if (name == "string") return AttrType::kString;
  return Status::InvalidArgument(StrCat("unknown attribute type ", name));
}

/// The whole checkpoint of `db`, rendered in one buffer.
std::string CheckpointText(const Database& db) {
  std::string out = StrCat(kMagic, " ", kVersion, "\ntime ",
                           db.logical_time(), "\n");
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = *db.Find(name);
    const RelationSchema& schema = rel->schema();
    out += StrCat("relation ", name, " ", schema.arity(), "\n");
    for (const Attribute& attr : schema.attributes()) {
      out += StrCat("attr ", attr.name, " ", AttrTypeToString(attr.type),
                    "\n");
    }
    for (const Tuple& t : rel->SortedTuples()) {
      out += "tuple";
      for (const Value& v : t.values()) {
        out += ' ';
        AppendValueText(v, &out);
      }
      out += '\n';
    }
    out += "end\n";
  }
  return out;
}

}  // namespace

Status SaveDatabase(const Database& db, std::ostream& out) {
  const std::string text = CheckpointText(db);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
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
  // A temp file that outlived an earlier attempt (a crash, or a removal
  // that failed below) is never written again: it goes first.
  if (::access(tmp.c_str(), F_OK) == 0) {
    TXMOD_RETURN_IF_ERROR(vfs->Remove(tmp));
  }
  const std::string text = CheckpointText(db);
  TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs->OpenTrunc(tmp));
  Status written = WriteFullyTo(file.get(), text, "checkpoint");
  // Flush the temp file's bytes to stable storage before the rename makes
  // it visible under the checkpoint name: rename-before-durable could
  // expose a checkpoint whose content a crash then loses.
  if (written.ok()) written = file->Sync();
  file.reset();
  if (!written.ok()) {
    // After a failed write or fsync the kernel may have dropped the
    // file's dirty pages while a later fsync of it reports success
    // (fsyncgate): a retry must start from a new file, never this one.
    const Status removed = vfs->Remove(tmp);
    if (!removed.ok()) {
      return Status(written.code(),
                    StrCat(written.message(), "; removing ", tmp,
                           " failed too: ", removed.message()));
    }
    return written;
  }
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
    std::string_view rest = line;
    const std::string_view keyword = NextWord(&rest);
    if (keyword == "tuple") {
      if (current == nullptr) {
        return Status::InvalidArgument(
            StrCat("tuple outside a relation at line ", line_number));
      }
      TXMOD_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleText(rest));
      TXMOD_RETURN_IF_ERROR(current->schema().CheckTuple(tuple));
      current->Insert(current->schema().CoerceTuple(std::move(tuple)));
      continue;
    }
    std::istringstream fields{std::string(rest)};
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
