// The text value codec (AppendValueText / DecodeValueText /
// DecodeTupleText) under exhaustive round-trip pressure and hostile
// input: randomized strings with quotes/backslashes/escape-at-the-end,
// extreme int64 and double values, and the corruption pins for the
// silent-acceptance bugs (trailing garbage after `i:`/`d:` payloads,
// out-of-range ints saturating instead of failing) that this suite
// exists to keep fixed — every encoding on disk decodes to exactly the
// value that was written, or loading fails loudly. The one-pass decoder
// is also checked input by input against the strtoll/strtod decoder it
// replaced, kept below as the reference.

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/relational/persist.h"
#include "src/relational/value.h"
#include "src/relational/wal.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

void ExpectRoundTrip(const Value& v) {
  const std::string encoded = EncodeValueText(v);
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value decoded, DecodeValueText(encoded));
  if (v.is_double() && std::isnan(v.as_double())) {
    ASSERT_TRUE(decoded.is_double());
    EXPECT_TRUE(std::isnan(decoded.as_double())) << encoded;
  } else {
    EXPECT_EQ(decoded, v) << encoded;
  }
  // The encoding must also survive the line tokenizer intact, alone and
  // between neighbours.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      const Tuple line, DecodeTupleText(StrCat("i:1 ", encoded, "  null")));
  ASSERT_EQ(line.arity(), 3u) << encoded;
  EXPECT_EQ(line.at(0), Value::Int(1));
  EXPECT_EQ(EncodeValueText(line.at(1)), encoded);
  EXPECT_TRUE(line.at(2).is_null());
}

TEST(ValueCodecTest, ExtremeIntsRoundTrip) {
  for (const int64_t v :
       {int64_t{0}, int64_t{1}, int64_t{-1},
        std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max() - 1,
        std::numeric_limits<int64_t>::min() + 1}) {
    ExpectRoundTrip(Value::Int(v));
  }
}

TEST(ValueCodecTest, ExtremeDoublesRoundTrip) {
  for (const double v :
       {0.0, -0.0, 1.5, -3.25, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),          // smallest normal
        std::numeric_limits<double>::denorm_min(),   // deepest denormal
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    ExpectRoundTrip(Value::Double(v));
  }
}

/// The "%a" bytes every log and checkpoint on disk was written with.
std::string PrintfHexDouble(double d) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "d:%a", d);
  return std::string(buf, static_cast<std::size_t>(n));
}

double FromBits(uint64_t bits) {
  double d;
  static_assert(sizeof(d) == sizeof(bits));
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// The encoder formats doubles with std::to_chars, not printf; the bytes
// must not change. A differential over seeded bit patterns, a quarter of
// them with the exponent forced to all zeros (zeros and denormals) and a
// quarter to all ones (infinities and NaN payloads), both signs.
TEST(ValueCodecTest, DoubleEncodingIsPrintfHexByteForByte) {
  using Limits = std::numeric_limits<double>;
  for (const double d :
       {0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 5.0, 1e300, -1e-300, Limits::max(),
        Limits::lowest(), Limits::min(), -Limits::min(), Limits::denorm_min(),
        -Limits::denorm_min(), Limits::min() - Limits::denorm_min(),
        Limits::epsilon(), Limits::infinity(), -Limits::infinity(),
        Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::signaling_NaN(),
        FromBits(0x7FF0000000000001ull), FromBits(0xFFFFFFFFFFFFFFFFull)}) {
    EXPECT_EQ(EncodeValueText(Value::Double(d)), PrintfHexDouble(d));
  }
  constexpr uint64_t kExponent = 0x7FFull << 52;
  std::mt19937_64 rng(0xD0B1E);
  uint64_t mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < (1 << 20); ++i) {
    uint64_t bits = rng();
    if (i % 4 == 1) bits &= ~kExponent;
    if (i % 4 == 2) bits |= kExponent;
    const double d = FromBits(bits);
    const std::string encoded = EncodeValueText(Value::Double(d));
    const std::string expected = PrintfHexDouble(d);
    if (encoded != expected && mismatches++ == 0) {
      first_mismatch = StrCat(encoded, " != ", expected);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(ValueCodecTest, HostileStringsRoundTrip) {
  for (const std::string& s :
       {std::string(), std::string("plain"), std::string("with \"quotes\""),
        std::string("back\\slash"), std::string("trailing backslash\\"),
        std::string("trailing quote\""), std::string("\\"),
        std::string("\""), std::string("\\\""), std::string("\n\t\r"),
        std::string("null"), std::string("i:42"), std::string("d:1.5"),
        std::string(3, '\0'), std::string("sp ace  s")}) {
    ExpectRoundTrip(Value::String(s));
  }
  ExpectRoundTrip(Value::Null());
}

TEST(ValueCodecTest, RandomizedValuesRoundTrip) {
  std::mt19937_64 rng(0xC0DEC);
  for (int iter = 0; iter < 2000; ++iter) {
    switch (rng() % 4) {
      case 0:
        ExpectRoundTrip(Value::Int(static_cast<int64_t>(rng())));
        break;
      case 1: {
        // Random bit pattern: hits denormals, huge exponents, NaNs.
        const uint64_t bits = rng();
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        std::memcpy(&d, &bits, sizeof(d));
        ExpectRoundTrip(Value::Double(d));
        break;
      }
      case 2: {
        std::string s;
        const std::size_t len = rng() % 40;
        for (std::size_t i = 0; i < len; ++i) {
          // Bias toward the codec's special characters.
          switch (rng() % 6) {
            case 0: s.push_back('"'); break;
            case 1: s.push_back('\\'); break;
            case 2: s.push_back(' '); break;
            default: s.push_back(static_cast<char>(rng() % 256)); break;
          }
        }
        ExpectRoundTrip(Value::String(s));
        break;
      }
      default:
        ExpectRoundTrip(Value::Null());
        break;
    }
  }
}

// The bug this PR fixes: "i:12junk" decoded as Int(12) and
// "i:9223372036854775808" decoded as Int(INT64_MAX) — checkpoint/WAL
// corruption silently loaded as different data.
TEST(ValueCodecTest, TrailingGarbageIsRejected) {
  for (const std::string& text :
       {std::string("i:12junk"), std::string("i:1 "), std::string("i: 1"),
        std::string("i:"), std::string("i:+"), std::string("i:0x10"),
        std::string("d:1.5junk"), std::string("d:1.5 "), std::string("d:"),
        std::string("d:."),
        // strtoll/strtod stop at an embedded NUL; the payload's end must
        // be reached all the same.
        std::string("i:12\0junk", 9), std::string("d:1.5\0x", 7)}) {
    auto decoded = DecodeValueText(text);
    ASSERT_FALSE(decoded.ok()) << text << " decoded as a value";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // Inside a string a NUL is data.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value nul,
                             DecodeValueText(std::string("s:\"a\0b\"", 7)));
  EXPECT_EQ(nul, Value::String(std::string("a\0b", 3)));
}

// Number payloads are parsed from a 64-byte stack copy; the encoder's
// longest is 24 bytes, so anything that does not fit is corruption.
TEST(ValueCodecTest, OverlongNumberPayloadsAreRejected) {
  const std::string zeros(63, '0');
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value fits, DecodeValueText("i:" + zeros));
  EXPECT_EQ(fits, Value::Int(0));
  EXPECT_FALSE(DecodeValueText("i:0" + zeros).ok());
  EXPECT_FALSE(DecodeValueText("d:0" + zeros).ok());
}

TEST(ValueCodecTest, OutOfRangeIntsAreRejectedNotSaturated) {
  for (const std::string& text :
       {std::string("i:9223372036854775808"),
        std::string("i:-9223372036854775809"),
        std::string("i:99999999999999999999999")}) {
    auto decoded = DecodeValueText(text);
    ASSERT_FALSE(decoded.ok()) << text << " decoded as a value";
    EXPECT_NE(decoded.status().message().find("out of range"),
              std::string::npos)
        << decoded.status().ToString();
  }
  // The boundary values themselves decode.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value max,
                             DecodeValueText("i:9223372036854775807"));
  EXPECT_EQ(max.as_int(), std::numeric_limits<int64_t>::max());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value min,
                             DecodeValueText("i:-9223372036854775808"));
  EXPECT_EQ(min.as_int(), std::numeric_limits<int64_t>::min());
}

TEST(ValueCodecTest, OutOfRangeDoublesAreRejectedButDenormalsDecode) {
  EXPECT_FALSE(DecodeValueText("d:1e999").ok());
  EXPECT_FALSE(DecodeValueText("d:-1e999").ok());
  // Underflow (ERANGE with a representable result) must keep decoding:
  // %a-encoded denormals land here on some libcs.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Value tiny, DecodeValueText("d:1e-400"));
  ASSERT_TRUE(tiny.is_double());
  // Infinity is a legitimate double value with a round-trippable text
  // form (strtod parses "inf") — only the ERANGE saturation is an error.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      const Value inf, DecodeValueText(EncodeValueText(Value::Double(
                           std::numeric_limits<double>::infinity()))));
  EXPECT_EQ(inf.as_double(), std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// Differential test of the one-pass decoder against the strtoll/strtod
// decoder it replaced, kept here verbatim as the reference.
// ---------------------------------------------------------------------------

namespace reference {

template <std::size_t N>
bool TerminatedCopy(std::string_view payload, char (&buf)[N]) {
  if (payload.size() >= N) return false;
  std::memcpy(buf, payload.data(), payload.size());
  buf[payload.size()] = '\0';
  return true;
}

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

Result<Value> DecodeValueText(std::string_view text) {
  if (text == "null") return Value::Null();
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
    if (errno == ERANGE && std::fabs(v) == HUGE_VAL) {
      return Status::InvalidArgument(
          StrCat("double encoding out of range: ", text));
    }
    return Value::Double(v);
  }
  if (StartsWith(text, "s:\"") && text.size() >= 4 && text.back() == '"') {
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

}  // namespace reference

/// Identical values: the same type and, for doubles, the same bits, except
/// that two NaNs need only agree in sign.
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.as_double();
  const double y = b.as_double();
  if (std::isnan(x) || std::isnan(y)) {
    return std::isnan(x) && std::isnan(y) && std::signbit(x) == std::signbit(y);
  }
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

/// Counts the inputs on which the decoders disagree: one accepts and the
/// other refuses, or they decode different values, or refuse with
/// different errors. Each input is decoded alone, and in a tuple line
/// between neighbours.
class Differential {
 public:
  void Check(const std::string& text) {
    ++inputs_;
    Compare(text, DecodeValueText(text), reference::DecodeValueText(text));
    const std::string line = StrCat("i:7 ", text, "  s:\"n\"");
    Compare(line, DecodeTupleText(line), reference::DecodeTupleText(line));
    Compare(text, DecodeTupleText(text, 1), reference::DecodeTupleText(text));
  }

  uint64_t inputs() const { return inputs_; }
  uint64_t disagreements() const { return disagreements_; }
  const std::string& first() const { return first_; }

 private:
  static bool Same(const Value& a, const Value& b) { return Identical(a, b); }
  static bool Same(const Tuple& a, const Tuple& b) {
    if (a.arity() != b.arity()) return false;
    for (std::size_t i = 0; i < a.arity(); ++i) {
      if (!Identical(a.at(i), b.at(i))) return false;
    }
    return true;
  }

  template <typename T>
  void Compare(const std::string& input, const Result<T>& got,
               const Result<T>& want) {
    const bool agree =
        got.ok() == want.ok() &&
        (got.ok() ? Same(*got, *want)
                  : got.status().ToString() == want.status().ToString());
    if (!agree && disagreements_++ == 0) {
      first_ = StrCat("'", input, "': ",
                      got.ok() ? "accepted" : got.status().ToString(),
                      " vs reference ",
                      want.ok() ? "accepted" : want.status().ToString());
    }
  }

  uint64_t inputs_ = 0;
  uint64_t disagreements_ = 0;
  std::string first_;
};

/// The hostile inputs of the tests above, and a few more of each kind.
std::vector<std::string> HostileInputs() {
  std::vector<std::string> inputs = {
      "i:12junk", "i:1 ", "i: 1", "i:", "i:+", "i:0x10", "d:1.5junk",
      "d:1.5 ", "d:", "d:.", std::string("i:12\0junk", 9),
      std::string("d:1.5\0x", 7), std::string("s:\"a\0b\"", 7),
      "i:9223372036854775808", "i:-9223372036854775809",
      "i:99999999999999999999999", "i:9223372036854775807",
      "i:-9223372036854775808", "d:1e999", "d:-1e999", "d:1e-400",
      "d:inf", "d:-inf", "d:nan", "d:-nan", "d:INF", "d:nan(0x7)",
      "null", "nul", "nulll", "null ", "NULL", "s:\"", "s:\"\"", "s:\"\\\"",
      "s:\"a\"b\"", "s:\"a\" b\"", "s:\"a\\", "s:x", "x:1", "", " ", "i",
      "d:0x", "d:0x.8p0", "d:0x1p", "d:0x1p+", "d:0x-1p+0", "d:-0x-1p+0",
      "d:0x+1p+0", "d:+0x1p+0", "d:0X1P+0", "d:0x1P+0", "d:0xAp+0",
      "d:0x1.fffffffffffff8p+0", "d:0x1.00000000000008p+0",
      "d:0x1p+-9", "d:-0x1.8p-+9", "d:0x1p--9", "d:0x1p-1075", "d:0x1p-1074", "d:0x1p+1024", "d:0x1.fffffffffffffp+1023",
      "d:0x1p+99999999999999999999", "d:-0x1p-99999999999999999999",
      "d:0x0p+0", "d:-0x0p+0", "d:0x1p+0 ", "d:0x1p+0\"", "i:1\"a b\"",
      "i:00000000000000000000000000000000000000000000000000000000000000001",
      "i:-0", "i:--1", "i:1-", "d:1", "d:-1.5e3", "d:0x1p+0x"};
  const std::string zeros(63, '0');
  inputs.push_back("i:" + zeros);
  inputs.push_back("i:0" + zeros);
  inputs.push_back("i:-" + zeros.substr(1));
  inputs.push_back("i:-" + zeros);
  inputs.push_back("d:0x" + zeros.substr(3) + "1");
  inputs.push_back("d:0x" + zeros.substr(2) + "1");
  inputs.push_back("d:-0x" + zeros.substr(4) + "1");
  inputs.push_back("d:-0x" + zeros.substr(3) + "1");
  for (const std::string& s :
       {std::string("plain"), std::string("with \"quotes\""),
        std::string("trailing backslash\\"), std::string("\n\t\r"),
        std::string(3, '\0'), std::string("sp ace  s")}) {
    inputs.push_back(EncodeValueText(Value::String(s)));
  }
  return inputs;
}

/// A seeded mutation of an encoded value: the forms the fast path must
/// refuse or decode exactly as strtoll/strtod do.
std::string Mutate(std::string e, std::mt19937_64& rng) {
  const std::size_t payload = e.size() > 2 ? 2 : e.size();
  auto at = [&](std::size_t from) {
    return from + rng() % (e.size() - from + 1);
  };
  switch (rng() % 9) {
    case 0:  // a plus sign, after the tag or anywhere in the payload
      e.insert(rng() % 2 == 0 ? payload : at(payload), 1, '+');
      break;
    case 1: {  // an upper-case radix prefix
      const std::size_t x = e.find("0x");
      if (x != std::string::npos) e[x + 1] = 'X';
      break;
    }
    case 2:  // a decimal payload that underflows or overflows
      e = e.substr(0, payload) +
          std::string(rng() % 2 == 0 ? "" : "-") +
          std::string(rng() % 2 == 0 ? "1e-400" : "1e400");
      break;
    case 3: {  // an overlong digit string
      const std::size_t pos = e.find_first_of("0123456789", payload);
      if (pos != std::string::npos) {
        e.insert(pos, std::string(40 + rng() % 30, rng() % 2 == 0 ? '0' : '7'));
      }
      break;
    }
    case 4:  // an embedded NUL
      e.insert(at(payload), 1, '\0');
      break;
    case 5:  // a byte replaced by one from the number alphabet
      if (e.size() > payload) {
        static constexpr char kAlphabet[] = "0123456789abcdefxXpP+-. ";
        e[at(payload) % e.size()] =
            kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
      }
      break;
    case 6:  // truncated
      e.resize(rng() % (e.size() + 1));
      break;
    case 7:  // a doubled sign
      e.insert(payload, rng() % 2 == 0 ? "--" : "-+");
      break;
    default:  // an exponent pushed out of range
      e += std::to_string(rng() % 100000);
      break;
  }
  return e;
}

TEST(ValueCodecTest, OnePassDecoderAgreesWithTheStrtodReference) {
  using Limits = std::numeric_limits<double>;
  Differential diff;
  for (const std::string& text : HostileInputs()) diff.Check(text);

  std::mt19937_64 rng(0xD1FF);
  constexpr uint64_t kExponent = 0x7FFull << 52;
  std::vector<std::string> encoded;
  for (const double d :
       {0.0, -0.0, Limits::infinity(), -Limits::infinity(),
        Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::denorm_min(),
        -Limits::denorm_min(), Limits::min(), Limits::max(),
        Limits::lowest()}) {
    encoded.push_back(EncodeValueText(Value::Double(d)));
  }
  for (int i = 0; i < (1 << 16); ++i) {
    uint64_t bits = rng();
    // A quarter zeros and denormals, a quarter infinities and NaNs.
    if (i % 4 == 1) bits &= ~kExponent;
    if (i % 4 == 2) bits |= kExponent;
    if (i % 64 == 3) bits &= (1ull << 63) | 0xF;  // the smallest denormals
    encoded.push_back(EncodeValueText(Value::Double(FromBits(bits))));
    encoded.push_back(
        EncodeValueText(Value::Int(static_cast<int64_t>(rng()) >> (rng() % 64))));
  }
  for (const std::string& e : encoded) diff.Check(e);
  for (int i = 0; i < (1 << 16); ++i) {
    diff.Check(Mutate(encoded[rng() % encoded.size()], rng));
  }
  EXPECT_GE(diff.inputs(), 3u << 16);
  EXPECT_EQ(diff.disagreements(), 0u) << "first: " << diff.first();
}

/// Bit-exact identity, but for a NaN's payload, which the format does not
/// write: a NaN must come back a NaN of the same sign. (Value::operator==
/// holds -0.0 equal to 0.0 and a NaN unequal to itself.)
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.as_double();
  const double y = b.as_double();
  if (std::isnan(x) || std::isnan(y)) {
    return std::isnan(x) && std::isnan(y) &&
           std::signbit(x) == std::signbit(y);
  }
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// WriteValueText writes through a pointer, so it can run past its buffer
// where an append could not. Each value form at its longest is written
// into a heap block of exactly ValueTextSizeBound bytes, where the
// sanitizer build catches a write past the end, and a record holding all
// of them, at the longest version, must stay within EncodedSizeBound.
TEST(ValueCodecTest, LongestEncodingsFitTheirBounds) {
  using Limits = std::numeric_limits<double>;
  struct Case {
    Value value;
    std::string text;
  };
  const std::vector<Case> cases = {
      {Value::Int(std::numeric_limits<int64_t>::min()),
       "i:-9223372036854775808"},
      {Value::Double(-Limits::max()), "d:-0x1.fffffffffffffp+1023"},
      {Value::Double(-Limits::denorm_min()), "d:-0x0.0000000000001p-1022"},
      {Value::Double(-Limits::quiet_NaN()), "d:-nan"},
      {Value::String("\"\\\n\t\t\n\\\""), R"(s:"\"\\\n\t\t\n\\\"")"},
      {Value::String(""), "s:\"\""},
      {Value::Null(), "null"},
  };
  std::vector<Value> values;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    const std::size_t bound = ValueTextSizeBound(c.value);
    std::vector<char> exact(bound);
    const char* const begin = exact.data();
    const char* const end = WriteValueText(c.value, exact.data());
    ASSERT_LE(end - begin, static_cast<std::ptrdiff_t>(bound));
    EXPECT_EQ(std::string(begin, end), c.text);
    EXPECT_EQ(EncodeValueText(c.value), c.text);
    values.push_back(c.value);
  }
  // Where the bound is tight, the longest form fills it.
  for (const std::size_t i : {1u, 2u, 4u, 5u}) {
    EXPECT_EQ(cases[i].text.size(), ValueTextSizeBound(cases[i].value))
        << cases[i].text;
  }

  WalRecord rec;
  rec.version = std::numeric_limits<uint64_t>::max();
  rec.deltas.push_back(WalDelta{"r", {Tuple(values)}, {Tuple(values)}});
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) /
      StrCat("txmod_codec_bound_", ::getpid());
  std::filesystem::remove(path);
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log,
                               WriteAheadLog::Open(path.string()));
    TXMOD_ASSERT_OK(log.Append(rec).status());
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  const std::size_t header = bytes.find('\n') + 1;
  EXPECT_LE(bytes.size() - header, EncodedSizeBound(rec)) << bytes;
  // And it reads back, every value bit for bit (as covered by a
  // checkpoint of the last time, the only one its version can follow).
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(
      std::vector<WalRecord> read,
      ReadShardedWal(path.string(), &stats, rec.version));
  std::filesystem::remove(path);
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  ASSERT_EQ(read.size(), 1u);
  ASSERT_EQ(read[0].deltas.size(), 1u);
  for (const std::vector<Tuple>* tuples :
       {&read[0].deltas[0].plus, &read[0].deltas[0].minus}) {
    ASSERT_EQ(tuples->size(), 1u);
    ASSERT_EQ((*tuples)[0].arity(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE(SameBits((*tuples)[0].at(i), values[i])) << i;
    }
  }
}

/// A random value: null, an int of random bits, a double of random bits
/// (so every class: zeros, denormals, infinities, NaNs), or a short string
/// whose bytes are often ones the encoder escapes.
Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(static_cast<int64_t>(rng()));
    case 2:
      return Value::Double(FromBits(rng()));
    default: {
      static constexpr char kEscaped[] = {'"', '\\', '\n', '\t', ' '};
      std::string s(rng() % 13, '\0');
      for (char& c : s) {
        c = rng() % 3 == 0 ? kEscaped[rng() % sizeof(kEscaped)]
                           : static_cast<char>(rng() % 256);
      }
      return Value::String(std::move(s));
    }
  }
}

TEST(ValueCodecTest, RandomValuesRoundTripBitExact) {
  // 100,000 values on tuple lines of 1 to 8, as the WAL and the
  // checkpoint write them.
  std::mt19937_64 rng(0xB175);
  std::size_t checked = 0;
  while (checked < 100'000) {
    const std::size_t arity = 1 + rng() % 8;
    std::vector<Value> written;
    std::string line;
    for (std::size_t i = 0; i < arity; ++i) {
      written.push_back(RandomValue(rng));
      if (i > 0) line += ' ';
      AppendValueText(written.back(), &line);
    }
    TXMOD_ASSERT_OK_AND_ASSIGN(const Tuple decoded,
                               DecodeTupleText(line, arity));
    ASSERT_EQ(decoded.arity(), arity) << line;
    for (std::size_t i = 0; i < arity; ++i) {
      ASSERT_TRUE(SameBits(decoded.at(i), written[i]))
          << line << " (value " << i << ")";
    }
    checked += arity;
  }
}

TEST(ValueCodecTest, RandomBytesNeverCrashTheDecoder) {
  std::mt19937 rng(424242);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    const std::size_t len = rng() % 30;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng() % 256));
    }
    // Either a value or a clean error; never a crash or a hang.
    (void)DecodeValueText(text);
    (void)DecodeTupleText(text);
  }
}

}  // namespace
}  // namespace txmod
