// The text value codec (AppendValueText / DecodeValueText /
// DecodeTupleText) under exhaustive round-trip pressure and hostile
// input: randomized strings with quotes/backslashes/escape-at-the-end,
// extreme int64 and double values, and the corruption pins for the
// silent-acceptance bugs (trailing garbage after `i:`/`d:` payloads,
// out-of-range ints saturating instead of failing) that this suite
// exists to keep fixed — every encoding on disk decodes to exactly the
// value that was written, or loading fails loudly.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/relational/persist.h"
#include "src/relational/value.h"
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
