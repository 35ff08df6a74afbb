#ifndef TXMOD_RELATIONAL_VALUE_H_
#define TXMOD_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/common/result.h"

namespace txmod {

/// Runtime type of a Value. The paper's attribute domains (Definition 2.1)
/// are modelled by three scalar domains plus the distinguished null value
/// used by compensating actions (Example 4.2 inserts (name, null, null)).
enum class ValueType {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

const char* ValueTypeToString(ValueType type);

/// A single attribute value: null, 64-bit integer, double, or string.
///
/// Two notions of comparison coexist, deliberately:
///  * *Identity* (`operator==`, `Hash`, `Less`) is type-exact and total; it
///    defines set membership of tuples (Definition 2.1 treats relations as
///    sets) and must be consistent with hashing, so Int(1) != Double(1.0).
///  * *Predicate comparison* (`Compare`) implements the CL value predicates
///    {<, <=, =, !=, >=, >} with numeric coercion between kInt and kDouble,
///    and three-valued-logic-style null handling collapsed to `false`
///    (any comparison involving null is false, except equality when both
///    sides are null).
class Value {
 public:
  /// Constructs the null value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  ValueType type() const {
    return static_cast<ValueType>(rep_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Value accessors; calling the wrong one is a programming error.
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_double() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return std::get<std::string>(rep_); }

  /// Type-exact identity (set semantics); consistent with Hash().
  bool operator==(const Value& other) const { return rep_ == other.rep_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order over (type tag, value); used for deterministic output.
  static bool Less(const Value& a, const Value& b);

  std::size_t Hash() const;

  /// Hash consistent with *predicate* equality instead of identity:
  /// KeyHash(a) == KeyHash(b) whenever Compare(a, b) == kEqual. Achieved by
  /// canonicalizing a kDouble that holds an exactly-representable integer
  /// (including -0.0) to the kInt hash of that integer, so Int(1) and
  /// Double(1.0) collide while Int(2^53) and Int(2^53 + 1) do not. Join
  /// hash tables and relation equi-key indexes key on this.
  std::size_t KeyHash() const;

  /// Predicate comparison per the CL semantics described above. Returns
  /// -1 / 0 / +1 when comparable; kIncomparable when a null is involved in
  /// an ordering, the types cannot be coerced (string vs numeric), or a
  /// NaN is involved. Numeric comparison is *exact*: int/int compares as
  /// int64 and int/double compares without widening the integer to double,
  /// so values above 2^53 are never conflated. This keeps predicate
  /// equality in provable agreement with KeyHash().
  enum class Ordering { kLess, kEqual, kGreater, kIncomparable };
  static Ordering Compare(const Value& a, const Value& b);

  /// Renders the value: null, 42, 3.5, "text".
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

struct ValueHasher {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_VALUE_H_
