#include "src/relational/persist.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>

#include "src/common/str_util.h"

namespace txmod {

namespace {

constexpr char kMagic[] = "txmod-checkpoint";
// The version SaveDatabase writes. Version 1 has no trailer line and
// still loads.
constexpr int kVersion = 2;
// The strict decoder parses a number from a stack copy of this many
// bytes, terminator included, so a payload must be shorter.
constexpr std::size_t kNumberBuffer = 64;
// The values reserved for a tuple line whose arity nobody expects.
constexpr std::size_t kDefaultArity = 4;

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

/// Writes `n` bytes of `text` at `out` and returns their end.
char* WriteBytes(const char* text, std::size_t n, char* out) {
  std::memcpy(out, text, n);
  return out + n;
}

/// Writes `d` in hex, as printf's "%a" does: a sign, then "0x1." and the
/// fraction's hex digits without their trailing zeros (the point goes
/// with them) and "p" and the signed decimal exponent for a normal
/// number, "0x0." for a denormal (its exponent -1022), "0x0p+0" for a
/// zero, and "inf" and "nan" (no payload). Lossless: the digits are the
/// fraction's bits. At most 24 bytes.
char* WriteHexDouble(double d, char* out) {
  constexpr uint64_t kFraction = (uint64_t{1} << 52) - 1;
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(d));
  const uint64_t fraction = bits & kFraction;
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  if (bits >> 63 != 0) *out++ = '-';
  if (biased == 0x7FF) {
    return WriteBytes(fraction == 0 ? "inf" : "nan", 3, out);
  }
  if (biased == 0 && fraction == 0) return WriteBytes("0x0p+0", 6, out);
  out = WriteBytes(biased == 0 ? "0x0" : "0x1", 3, out);
  if (fraction != 0) {
    static constexpr char kHexDigits[] = "0123456789abcdef";
    *out++ = '.';
    // The top nibble, until what is left of the fraction is zero.
    for (uint64_t rest = fraction; rest != 0;
         rest = (rest << 4) & kFraction) {
      *out++ = kHexDigits[rest >> 48];
    }
  }
  const int exponent = biased == 0 ? -1022 : biased - 1023;
  *out++ = 'p';
  *out++ = exponent < 0 ? '-' : '+';
  return std::to_chars(out, out + 4, exponent < 0 ? -exponent : exponent)
      .ptr;
}

}  // namespace

char* WriteValueText(const Value& v, char* out) {
  switch (v.type()) {
    case ValueType::kNull:
      return WriteBytes("null", 4, out);
    case ValueType::kInt:
      out = WriteBytes("i:", 2, out);
      return std::to_chars(out, out + 20, v.as_int()).ptr;
    case ValueType::kDouble:
      // Hex float representation: lossless round trip.
      return WriteHexDouble(v.as_double(), WriteBytes("d:", 2, out));
    case ValueType::kString: {
      out = WriteBytes("s:\"", 3, out);
      for (const char c : v.as_string()) {
        char escaped;
        switch (c) {
          case '"':
          case '\\':
            escaped = c;
            break;
          case '\n':
            escaped = 'n';
            break;
          case '\t':
            escaped = 't';
            break;
          default:
            *out++ = c;
            continue;
        }
        out[0] = '\\';
        out[1] = escaped;
        out += 2;
      }
      *out++ = '"';
      return out;
    }
  }
  return out;
}

void AppendValueText(const Value& v, std::string* out) {
  const std::size_t at = out->size();
  out->resize(at + ValueTextSizeBound(v));
  char* const begin = out->data();
  out->resize(static_cast<std::size_t>(WriteValueText(v, begin + at) - begin));
}

std::string EncodeValueText(const Value& v) {
  std::string out;
  AppendValueText(v, &out);
  return out;
}

namespace {

/// The strict decoder: one whole encoding, numbers through strtoll and
/// strtod on a terminated copy. It decides every input the encoder does
/// not write, and produces every decoding error.
Result<Value> DecodeValueStrict(std::string_view text) {
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
  char buf[kNumberBuffer];
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

/// Whether an encoding that runs up to `p` ends there: at the end of the
/// line or at a space.
bool EndsEncoding(const char* p, const char* end) {
  return p == end || *p == ' ';
}

bool IsDecimalDigit(char c) { return c >= '0' && c <= '9'; }

bool IsHexDigit(char c) {
  const char lower = static_cast<char>(c | 0x20);
  return IsDecimalDigit(c) || (lower >= 'a' && lower <= 'f');
}

/// Where the magnitude at `hex` ends, when it has exactly the shape
/// std::to_chars writes in hex after the encoder's "0x": one hex digit,
/// optionally a point and 1 to 13 more, then `p`, a sign and 1 to 4
/// decimal digits, then the end of the encoding. nullptr for any other
/// shape. The bounds keep the payload far below kNumberBuffer, and
/// std::from_chars is given only this shape: it also takes malformed
/// exponents such as "p+-9", which strtod refuses.
const char* EndOfHexDouble(const char* hex, const char* end) {
  // The end of a run of 1 to `most` digits at `q`; nullptr for none.
  auto run = [end](const char* q, std::size_t most, bool (*is_digit)(char)) {
    const char* first = q;
    while (q != end && static_cast<std::size_t>(q - first) < most &&
           is_digit(*q)) {
      ++q;
    }
    return q == first ? nullptr : q;
  };
  if (end - hex < 2 || hex[0] != '0' || hex[1] != 'x') return nullptr;
  const char* q = run(hex + 2, 1, IsHexDigit);
  if (q != nullptr && q != end && *q == '.') q = run(q + 1, 13, IsHexDigit);
  if (q == nullptr || q == end || *q != 'p') return nullptr;
  ++q;
  if (q == end || (*q != '+' && *q != '-')) return nullptr;
  q = run(q + 1, 4, IsDecimalDigit);
  return q != nullptr && EndsEncoding(q, end) ? q : nullptr;
}

/// The forms the encoder writes, decoded where they start: `null`, an
/// `i:` payload that std::from_chars takes whole, a `d:[-]0x` payload of
/// the shape EndOfHexDouble accepts, and a string whose closing quote
/// ends the encoding. On success hands the value to `emit` (a callable
/// taking a Value&&) and moves `*p` past the encoding. Returns false,
/// moving nothing, for every other encoding, and for a payload of
/// kNumberBuffer bytes or more: the strict path decides those.
template <typename Emit>
bool DecodeEncoderForm(const char** p, const char* end, Emit&& emit) {
  const char* s = *p;
  const std::size_t n = static_cast<std::size_t>(end - s);
  if (n >= 3 && s[1] == ':') {
    const char* payload = s + 2;
    if (s[0] == 'i') {
      int64_t v = 0;
      const std::from_chars_result r = std::from_chars(payload, end, v);
      if (r.ec != std::errc() || !EndsEncoding(r.ptr, end) ||
          static_cast<std::size_t>(r.ptr - payload) >= kNumberBuffer) {
        return false;
      }
      emit(Value::Int(v));
      *p = r.ptr;
      return true;
    }
    if (s[0] == 'd') {
      const bool negative = *payload == '-';
      const char* hex = negative ? payload + 1 : payload;
      const char* stop = EndOfHexDouble(hex, end);
      if (stop == nullptr) return false;
      double v = 0;
      const std::from_chars_result r =
          std::from_chars(hex + 2, stop, v, std::chars_format::hex);
      if (r.ec != std::errc() || r.ptr != stop) return false;
      emit(Value::Double(negative ? -v : v));
      *p = stop;
      return true;
    }
    if (s[0] == 's' && s[2] == '"') {
      const char* c = s + 3;
      while (c != end && *c != '"' && *c != '\\') ++c;
      if (c != end && *c == '"') {  // no escape: the bytes are the string
        if (!EndsEncoding(c + 1, end)) return false;
        emit(Value::String(std::string(s + 3, c)));
        *p = c + 1;
        return true;
      }
      std::string text(s + 3, c);
      const char* run = c;  // first byte not yet copied
      while (c != end) {
        if (*c == '\\') {
          if (c + 1 == end) return false;
          text.append(run, static_cast<std::size_t>(c - run));
          text.push_back(c[1] == 'n' ? '\n' : c[1] == 't' ? '\t' : c[1]);
          c += 2;
          run = c;
        } else if (*c == '"') {
          if (!EndsEncoding(c + 1, end)) return false;
          text.append(run, static_cast<std::size_t>(c - run));
          emit(Value::String(std::move(text)));
          *p = c + 1;
          return true;
        } else {
          ++c;
        }
      }
      return false;
    }
  }
  if (n >= 4 && std::memcmp(s, "null", 4) == 0 && EndsEncoding(s + 4, end)) {
    emit(Value::Null());
    *p = s + 4;
    return true;
  }
  return false;
}

}  // namespace

Result<Value> DecodeValueText(std::string_view text) {
  const char* p = text.data();
  const char* end = p + text.size();
  std::optional<Value> v;
  if (DecodeEncoderForm(&p, end, [&v](Value&& x) { v = std::move(x); }) &&
      p == end) {
    return *std::move(v);
  }
  return DecodeValueStrict(text);
}

Result<Tuple> DecodeTupleText(std::string_view line, std::size_t arity_hint) {
  std::vector<Value> values;
  values.reserve(arity_hint > 0 ? arity_hint : kDefaultArity);
  const char* p = line.data();
  const char* end = p + line.size();
  for (;;) {
    while (p != end && *p == ' ') ++p;
    if (p == end) break;
    if (!DecodeEncoderForm(&p, end, [&values](Value&& v) {
          values.push_back(std::move(v));
        })) {
      std::string_view rest(p, static_cast<std::size_t>(end - p));
      const std::string_view token = NextEncoding(&rest);
      TXMOD_ASSIGN_OR_RETURN(Value v, DecodeValueStrict(token));
      values.push_back(std::move(v));
      p = rest.data();
    }
  }
  if (values.size() != values.capacity()) values.shrink_to_fit();
  return Tuple(std::move(values));
}

bool LineReader::Next(std::string_view* line) {
  std::size_t scanned = begin_;  // [begin_, scanned) holds no newline
  for (;;) {
    const char* data = buf_.data();
    const void* newline = std::memchr(data + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const std::size_t at =
          static_cast<std::size_t>(static_cast<const char*>(newline) - data);
      *line = std::string_view(data + begin_, at - begin_);
      begin_ = at + 1;
      terminated_ = true;
      return true;
    }
    if (!in_->good()) {
      if (begin_ == end_) return false;
      *line = std::string_view(data + begin_, end_ - begin_);
      begin_ = end_;
      terminated_ = false;
      return true;
    }
    // Move the unfinished line to the front, and read more after it.
    const std::size_t kept = end_ - begin_;
    std::memmove(buf_.data(), data + begin_, kept);
    begin_ = 0;
    scanned = end_ = kept;
    if (buf_.size() < kept + kChunk / 2) {
      buf_.resize(std::max(kChunk, 2 * buf_.size()));
    }
    in_->read(buf_.data() + end_,
              static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_->gcount());
  }
}

namespace {

/// Parses a whole word as a decimal number of type T: digits only (a
/// minus sign too for a signed T), nothing after them, and in range.
template <typename T>
bool ParseWhole(std::string_view word, T* v) {
  const char* end = word.data() + word.size();
  const std::from_chars_result r = std::from_chars(word.data(), end, *v);
  return !word.empty() && r.ec == std::errc() && r.ptr == end;
}

Status MalformedLine(int line_number, std::string_view line) {
  return Status::InvalidArgument(
      StrCat("malformed checkpoint line ", line_number, ": '", line, "'"));
}

/// The number of `tuple` lines after each `relation` line of `in`, in
/// file order, read in a first pass that ends by rewinding `in`. Empty
/// when `in` cannot tell its position; the loader then sizes nothing.
Result<std::vector<std::size_t>> CountTupleLines(std::istream& in) {
  std::vector<std::size_t> counts;
  const std::streampos start = in.tellg();
  if (start == std::streampos(-1)) return counts;
  LineReader reader(&in);
  std::string_view line;
  while (reader.Next(&line)) {
    if (StartsWith(line, "tuple")) {
      if (!counts.empty()) ++counts.back();
    } else if (StartsWith(line, "relation ")) {
      counts.push_back(0);
    }
  }
  in.clear();
  if (!in.seekg(start)) {
    return Status::Internal("cannot rewind the checkpoint stream");
  }
  return counts;
}

Result<AttrType> DecodeAttrType(std::string_view name) {
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
  out += StrCat("relations ", db.RelationNames().size(), "\n");
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

Result<Database> LoadDatabase(std::istream& in) {
  TXMOD_ASSIGN_OR_RETURN(const std::vector<std::size_t> sizes,
                         CountTupleLines(in));
  LineReader reader(&in);
  std::string_view line;
  if (!reader.Next(&line)) {
    return Status::InvalidArgument("empty checkpoint");
  }
  int version = 0;
  {
    std::string_view fields = line;
    if (NextWord(&fields) != kMagic) {
      return Status::InvalidArgument("not a txmod checkpoint");
    }
    const std::string_view word = NextWord(&fields);
    if (!ParseWhole(word, &version) || version < 1 || version > kVersion) {
      return Status::InvalidArgument(
          StrCat("unsupported checkpoint version '", word, "'"));
    }
    if (!NextWord(&fields).empty()) return MalformedLine(1, line);
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
  std::size_t relations_read = 0;
  bool trailer_read = false;
  int line_number = 1;
  while (reader.Next(&line)) {
    ++line_number;
    if (line.empty()) continue;
    if (trailer_read) {
      return Status::InvalidArgument(
          StrCat("line ", line_number, " follows the relations line"));
    }
    std::string_view rest = line;
    const std::string_view keyword = NextWord(&rest);
    if (keyword == "tuple") {
      if (current == nullptr) {
        return Status::InvalidArgument(
            StrCat("tuple outside a relation at line ", line_number));
      }
      const RelationSchema& schema = current->schema();
      TXMOD_ASSIGN_OR_RETURN(Tuple tuple,
                             DecodeTupleText(rest, schema.arity()));
      TXMOD_RETURN_IF_ERROR(schema.CheckTuple(tuple));
      current->Insert(schema.CoerceTuple(std::move(tuple)));
      continue;
    }
    if (keyword == "time") {
      if (!ParseWhole(NextWord(&rest), &logical_time) ||
          !NextWord(&rest).empty()) {
        return MalformedLine(line_number, line);
      }
    } else if (keyword == "relation") {
      if (current != nullptr) {
        return Status::InvalidArgument(
            StrCat("relation at line ", line_number, " inside relation ",
                   current_name, ", which has no end line"));
      }
      // The name outlives `line`, which the attribute lines reuse.
      const std::string name(NextWord(&rest));
      int arity = 0;
      if (name.empty() || !ParseWhole(NextWord(&rest), &arity) ||
          arity < 0 || !NextWord(&rest).empty()) {
        return MalformedLine(line_number, line);
      }
      std::vector<Attribute> attrs;
      for (int i = 0; i < arity; ++i) {
        if (!reader.Next(&line)) {
          return Status::InvalidArgument(
              StrCat("truncated attribute list of relation ", name));
        }
        ++line_number;
        std::string_view fields = line;
        if (NextWord(&fields) != "attr") {
          return Status::InvalidArgument(
              StrCat("expected attr at line ", line_number));
        }
        const std::string_view attr_name = NextWord(&fields);
        const std::string_view attr_type = NextWord(&fields);
        if (attr_name.empty() || !NextWord(&fields).empty()) {
          return MalformedLine(line_number, line);
        }
        TXMOD_ASSIGN_OR_RETURN(AttrType type, DecodeAttrType(attr_type));
        attrs.push_back(Attribute{std::string(attr_name), type});
      }
      TXMOD_RETURN_IF_ERROR(
          db.CreateRelation(RelationSchema(name, std::move(attrs))));
      TXMOD_ASSIGN_OR_RETURN(const Relation* created, db.Find(name));
      current = std::make_shared<Relation>(created->schema_ptr());
      current_name = name;
      if (relations_read < sizes.size()) {
        current->Reserve(sizes[relations_read]);
      }
      ++relations_read;
    } else if (keyword == "end") {
      if (!NextWord(&rest).empty()) return MalformedLine(line_number, line);
      if (current != nullptr) {
        db.AdoptRelation(current_name, std::move(current));
        current = nullptr;
      }
    } else if (keyword == "relations" && version >= 2) {
      // The trailer: the last line, counting the relations.
      std::size_t count = 0;
      if (!ParseWhole(NextWord(&rest), &count) || !NextWord(&rest).empty()) {
        return MalformedLine(line_number, line);
      }
      if (current != nullptr) {
        return Status::InvalidArgument(
            StrCat("relations line ", line_number, " inside relation ",
                   current_name, ", which has no end line"));
      }
      if (count != relations_read) {
        return Status::InvalidArgument(
            StrCat("relations line ", line_number, " counts ", count,
                   " relations, but the checkpoint holds ", relations_read));
      }
      trailer_read = true;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown keyword '", keyword, "' at line ", line_number));
    }
  }
  // A checkpoint cut inside a relation would otherwise load as a
  // database without that relation's tail and every relation after it.
  if (current != nullptr) {
    return Status::InvalidArgument(
        StrCat("checkpoint ends inside relation ", current_name,
               ", which has no end line"));
  }
  // A cut right after an end line would load without the relations
  // after it.
  if (version >= 2 && !trailer_read) {
    return Status::InvalidArgument(
        StrCat("checkpoint ends after ", relations_read,
               " relations without its relations line"));
  }
  db.RestoreTime(logical_time);
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
