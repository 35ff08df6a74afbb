#include "src/relational/value.h"

#include <cmath>
#include <cstdio>

#include "src/common/hash.h"
#include "src/common/str_util.h"

namespace txmod {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

bool Value::Less(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type();
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return a.as_int() < b.as_int();
    case ValueType::kDouble:
      return a.as_double() < b.as_double();
    case ValueType::kString:
      return a.as_string() < b.as_string();
  }
  return false;
}

std::size_t Value::Hash() const {
  std::size_t seed = static_cast<std::size_t>(type());
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      HashCombineValue(&seed, as_int());
      break;
    case ValueType::kDouble:
      HashCombineValue(&seed, as_double());
      break;
    case ValueType::kString:
      HashCombineValue(&seed, as_string());
      break;
  }
  return seed;
}

namespace {

// 2^63 as a double; the smallest power of two above any int64.
constexpr double kTwoPow63 = 9223372036854775808.0;

/// Exact mathematical comparison of an int64 against a double, without
/// widening the integer to double (which rounds above 2^53).
Value::Ordering CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return Value::Ordering::kIncomparable;
  if (d >= kTwoPow63) return Value::Ordering::kLess;    // d > INT64_MAX
  if (d < -kTwoPow63) return Value::Ordering::kGreater;  // d < INT64_MIN
  // d is in [-2^63, 2^63): its truncation fits int64 exactly, and when
  // |d| >= 2^53 the double is integral, so the fraction below is zero.
  const int64_t whole = static_cast<int64_t>(d);
  if (i < whole) return Value::Ordering::kLess;
  if (i > whole) return Value::Ordering::kGreater;
  const double frac = d - static_cast<double>(whole);
  if (frac > 0) return Value::Ordering::kLess;
  if (frac < 0) return Value::Ordering::kGreater;
  return Value::Ordering::kEqual;
}

}  // namespace

std::size_t Value::KeyHash() const {
  if (is_double()) {
    const double d = as_double();
    // A double holding an exactly-representable integer (including -0.0)
    // hashes as that integer, so KeyHash agrees with Compare equality:
    // the only cross-type equal pair is Int(i) == Double(double(i)) with
    // the conversion exact, and both sides then hash the int form.
    if (d >= -kTwoPow63 && d < kTwoPow63) {
      const int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) return Value::Int(i).Hash();
    }
  }
  return Hash();
}

Value::Ordering Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return Ordering::kEqual;
  if (a.is_null() || b.is_null()) return Ordering::kIncomparable;
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) {
      if (a.as_int() < b.as_int()) return Ordering::kLess;
      if (a.as_int() > b.as_int()) return Ordering::kGreater;
      return Ordering::kEqual;
    }
    if (a.is_int()) return CompareIntDouble(a.as_int(), b.as_double());
    if (b.is_int()) {
      const Ordering ord = CompareIntDouble(b.as_int(), a.as_double());
      if (ord == Ordering::kLess) return Ordering::kGreater;
      if (ord == Ordering::kGreater) return Ordering::kLess;
      return ord;
    }
    const double x = a.as_double();
    const double y = b.as_double();
    if (std::isnan(x) || std::isnan(y)) return Ordering::kIncomparable;
    if (x < y) return Ordering::kLess;
    if (x > y) return Ordering::kGreater;
    return Ordering::kEqual;
  }
  if (a.is_string() && b.is_string()) {
    const int c = a.as_string().compare(b.as_string());
    if (c < 0) return Ordering::kLess;
    if (c > 0) return Ordering::kGreater;
    return Ordering::kEqual;
  }
  return Ordering::kIncomparable;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", as_double());
      std::string s(buf);
      // Make sure a double is visibly a double ("6" -> "6.0").
      if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
      return s;
    }
    case ValueType::kString:
      return StrCat("\"", as_string(), "\"");
  }
  return "?";
}

}  // namespace txmod
