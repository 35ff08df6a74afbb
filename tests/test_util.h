#ifndef TXMOD_TESTS_TEST_UTIL_H_
#define TXMOD_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/baseline/posthoc_checker.h"
#include "src/core/subsystem.h"
#include "src/relational/database.h"

namespace txmod::testing {

/// Fails the current test when `status` is not OK.
#define TXMOD_ASSERT_OK(expr)                                  \
  do {                                                         \
    const ::txmod::Status _st = (expr);                        \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

#define TXMOD_EXPECT_OK(expr)                                  \
  do {                                                         \
    const ::txmod::Status _st = (expr);                        \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

/// Unwraps a Result<T>, failing the test on error. Usage:
///   TXMOD_ASSERT_OK_AND_ASSIGN(auto v, ComputeV());
#define TXMOD_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                       \
  TXMOD_ASSERT_OK_AND_ASSIGN_IMPL_(                                  \
      TXMOD_TEST_CONCAT_(_txmod_res, __LINE__), lhs, rexpr)
#define TXMOD_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)            \
  auto tmp = (rexpr);                                                \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                  \
  lhs = std::move(tmp).value()
#define TXMOD_TEST_CONCAT_(a, b) TXMOD_TEST_CONCAT_IMPL_(a, b)
#define TXMOD_TEST_CONCAT_IMPL_(a, b) a##b

/// Deterministic tuple order for std::set models of relation contents.
struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return Tuple::Less(a, b);
  }
};

/// The running example of the paper (Example 4.1): a beer database with
///   beer(name, type, brewery, alcohol)
///   brewery(name, city, country)
inline Database MakeBeerDatabase() {
  Database db;
  Status st = db.CreateRelation(RelationSchema(
      "beer", {Attribute{"name", AttrType::kString},
               Attribute{"type", AttrType::kString},
               Attribute{"brewery", AttrType::kString},
               Attribute{"alcohol", AttrType::kDouble}}));
  st = db.CreateRelation(RelationSchema(
      "brewery", {Attribute{"name", AttrType::kString},
                  Attribute{"city", AttrType::kString},
                  Attribute{"country", AttrType::kString}}));
  (void)st;
  return db;
}

/// Inserts a beer tuple directly (bypassing integrity control).
inline void AddBeer(Database* db, const std::string& name,
                    const std::string& type, const std::string& brewery,
                    double alcohol) {
  Relation* rel = *db->FindMutable("beer");
  rel->Insert(Tuple({Value::String(name), Value::String(type),
                     Value::String(brewery), Value::Double(alcohol)}));
}

inline void AddBrewery(Database* db, const std::string& name,
                       const std::string& city, const std::string& country) {
  Relation* rel = *db->FindMutable("brewery");
  rel->Insert(Tuple({Value::String(name), Value::String(city),
                     Value::String(country)}));
}

/// The paper's constraints over the beer database (Example 4.1): the
/// referential constraint ties every beer to an existing brewery; the
/// domain constraint bounds the alcohol percentage.
inline const char* BeerRefIntConstraint() {
  return "forall x (x in beer implies exists y (y in brewery and "
         "x.brewery = y.name))";
}

inline const char* BeerDomainConstraint() {
  return "forall x (x in beer implies x.alcohol >= 0 and x.alcohol <= 100)";
}

/// A constraint as IntegritySubsystem::DefineConstraint takes it.
struct NamedConstraint {
  std::string name;
  std::string cl_text;
};

/// A copy of `src` that shares nothing with it: every relation rebuilt
/// flat, tuple by tuple, with the same declared indexes and logical time.
inline Database Rebuild(const Database& src) {
  Database out;
  for (const std::string& name : src.RelationNames()) {
    const Relation& rel = **src.Find(name);
    EXPECT_TRUE(out.CreateRelation(rel.schema()).ok());
    Relation* copy = *out.FindMutable(name);
    for (const Tuple& t : rel.SortedTuples()) copy->Insert(t);
    for (const std::vector<int>& attrs : rel.DeclaredIndexes()) {
      copy->IndexOn(attrs);
    }
  }
  while (out.logical_time() < src.logical_time()) out.AdvanceTime();
  return out;
}

/// PostHocChecker over `db`, every one of `constraints` evaluated in full
/// (no trigger selection, no differential): the empty string when `db`
/// satisfies them all, else the violation or error. It shares no plan
/// with the compiled checks it vouches for. Takes `db` by value because
/// defining the constraints declares indexes on it: pass a copy that
/// shares nothing with the state under test, such as Rebuild's.
inline std::string FullCheckViolation(
    Database db, const std::vector<NamedConstraint>& constraints) {
  core::IntegritySubsystem ics(&db);
  for (const NamedConstraint& c : constraints) {
    const Status st = ics.DefineConstraint(c.name, c.cl_text);
    if (!st.ok()) return st.ToString();
  }
  baseline::PostHocOptions options;
  options.use_triggers = false;
  baseline::PostHocChecker checker(&ics, options);
  auto result = checker.Execute(algebra::Transaction{});
  if (!result.ok()) return result.status().ToString();
  return result->committed ? "" : result->abort_reason;
}

}  // namespace txmod::testing

#endif  // TXMOD_TESTS_TEST_UTIL_H_
