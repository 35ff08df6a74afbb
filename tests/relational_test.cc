#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/relational/database.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

using testing::MakeBeerDatabase;

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::String("x").as_string(), "x");
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, IdentityIsTypeExact) {
  // Set-semantics identity distinguishes Int(1) from Double(1.0)...
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, PredicateComparisonCoercesNumerics) {
  // ...while CL predicate comparison coerces numerics (Section 4.1's PV).
  using O = Value::Ordering;
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Double(1.0)), O::kEqual);
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Double(1.5)), O::kLess);
  EXPECT_EQ(Value::Compare(Value::String("a"), Value::String("b")), O::kLess);
  EXPECT_EQ(Value::Compare(Value::String("a"), Value::Int(1)),
            O::kIncomparable);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Int(1)), O::kIncomparable);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), O::kEqual);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::String("ab").Hash(), Value::String("ab").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Double(6).ToString(), "6.0");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::String("hi").ToString(), "\"hi\"");
}

TEST(ValueTest, TotalOrder) {
  EXPECT_TRUE(Value::Less(Value::Null(), Value::Int(0)));
  EXPECT_TRUE(Value::Less(Value::Int(3), Value::Int(5)));
  EXPECT_TRUE(Value::Less(Value::Int(5), Value::Double(0.0)));  // by type tag
  EXPECT_TRUE(Value::Less(Value::Double(1.0), Value::String("")));
  EXPECT_FALSE(Value::Less(Value::Int(5), Value::Int(5)));
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a({Value::Int(1), Value::String("x")});
  Tuple b({Value::Int(1), Value::String("x")});
  Tuple c({Value::Int(2), Value::String("x")});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(TupleTest, ConcatAndToString) {
  Tuple a({Value::Int(1)});
  Tuple b({Value::String("x"), Value::Null()});
  Tuple c = Tuple::Concat(a, b);
  EXPECT_EQ(c.arity(), 3u);
  EXPECT_EQ(c.ToString(), "(1, \"x\", null)");
}

TEST(TupleTest, LexicographicLess) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::Int(1), Value::Int(3)});
  Tuple shorter({Value::Int(1)});
  EXPECT_TRUE(Tuple::Less(a, b));
  EXPECT_FALSE(Tuple::Less(b, a));
  EXPECT_TRUE(Tuple::Less(shorter, a));
}

TEST(SchemaTest, AttributeIndexLookup) {
  RelationSchema s("r", {Attribute{"a", AttrType::kInt},
                         Attribute{"b", AttrType::kString}});
  TXMOD_ASSERT_OK_AND_ASSIGN(int idx, s.AttributeIndex("b"));
  EXPECT_EQ(idx, 1);
  EXPECT_FALSE(s.AttributeIndex("zzz").ok());
}

TEST(SchemaTest, CheckTupleTypes) {
  RelationSchema s("r", {Attribute{"a", AttrType::kInt},
                         Attribute{"b", AttrType::kDouble},
                         Attribute{"c", AttrType::kString}});
  TXMOD_EXPECT_OK(s.CheckTuple(
      Tuple({Value::Int(1), Value::Double(2.0), Value::String("x")})));
  // Int widens into double attributes.
  TXMOD_EXPECT_OK(
      s.CheckTuple(Tuple({Value::Int(1), Value::Int(2), Value::String("x")})));
  // Null is allowed anywhere (Example 4.2 inserts nulls).
  TXMOD_EXPECT_OK(
      s.CheckTuple(Tuple({Value::Null(), Value::Null(), Value::Null()})));
  // Arity mismatch.
  EXPECT_FALSE(s.CheckTuple(Tuple({Value::Int(1)})).ok());
  // Type mismatch.
  EXPECT_FALSE(
      s.CheckTuple(Tuple({Value::String("x"), Value::Int(1), Value::Null()}))
          .ok());
  // Double does not narrow into int attributes.
  EXPECT_FALSE(
      s.CheckTuple(
           Tuple({Value::Double(1.5), Value::Int(1), Value::String("x")}))
          .ok());
}

TEST(SchemaTest, CoerceTupleWidensInts) {
  RelationSchema s("r", {Attribute{"a", AttrType::kDouble}});
  Tuple t = s.CoerceTuple(Tuple({Value::Int(6)}));
  EXPECT_EQ(t.at(0), Value::Double(6.0));
}

TEST(DatabaseSchemaTest, AddAndFind) {
  DatabaseSchema schema;
  TXMOD_ASSERT_OK(
      schema.AddRelation(RelationSchema("r", {Attribute{"a", AttrType::kInt}})));
  EXPECT_TRUE(schema.Contains("r"));
  EXPECT_FALSE(schema.Contains("s"));
  EXPECT_FALSE(
      schema.AddRelation(RelationSchema("r", {Attribute{"a", AttrType::kInt}}))
          .ok());
  TXMOD_ASSERT_OK_AND_ASSIGN(const RelationSchema* found, schema.Find("r"));
  EXPECT_EQ(found->name(), "r");
}

TEST(RelationTest, SetSemantics) {
  auto schema = std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{Attribute{"a", AttrType::kInt}});
  Relation r(schema);
  EXPECT_TRUE(r.Insert(Tuple({Value::Int(1)})));
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})));  // duplicate: no-op
  EXPECT_TRUE(r.Insert(Tuple({Value::Int(2)})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(r.Erase(Tuple({Value::Int(1)})));
  EXPECT_FALSE(r.Erase(Tuple({Value::Int(1)})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, SortedTuplesDeterministic) {
  auto schema = std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{Attribute{"a", AttrType::kInt}});
  Relation r(schema);
  r.Insert(Tuple({Value::Int(3)}));
  r.Insert(Tuple({Value::Int(1)}));
  r.Insert(Tuple({Value::Int(2)}));
  auto sorted = r.SortedTuples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].at(0).as_int(), 1);
  EXPECT_EQ(sorted[2].at(0).as_int(), 3);
}

TEST(DatabaseTest, CreateFindAndTime) {
  Database db = MakeBeerDatabase();
  EXPECT_TRUE(db.Contains("beer"));
  EXPECT_TRUE(db.Contains("brewery"));
  EXPECT_FALSE(db.Contains("wine"));
  EXPECT_EQ(db.logical_time(), 0u);
  db.AdvanceTime();
  EXPECT_EQ(db.logical_time(), 1u);
}

TEST(DatabaseTest, CloneIsDeepAndSameState) {
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  Database copy = db.Clone();
  EXPECT_TRUE(db.SameState(copy));
  testing::AddBeer(&copy, "stout", "stout", "guinness", 4.2);
  EXPECT_FALSE(db.SameState(copy));
  EXPECT_EQ((*db.Find("beer"))->size(), 1u);
  EXPECT_EQ((*copy.Find("beer"))->size(), 2u);
}

// ---------------------------------------------------------------------------
// Exact numeric predicate comparison (the 2^53 audit): int/int and
// int/double comparisons never lose exactness to double widening, and
// KeyHash provably agrees with Compare equality.
// ---------------------------------------------------------------------------

TEST(ValueTest, CompareIsExactAbove2Pow53) {
  using O = Value::Ordering;
  const int64_t big = int64_t{1} << 53;
  // Both widen to the same double; exact comparison keeps them apart.
  EXPECT_EQ(Value::Compare(Value::Int(big), Value::Int(big + 1)), O::kLess);
  EXPECT_EQ(Value::Compare(Value::Int(big + 1), Value::Int(big)),
            O::kGreater);
  // double(2^53) == 2^53 exactly; 2^53 + 1 is strictly above it.
  const double big_d = static_cast<double>(big);
  EXPECT_EQ(Value::Compare(Value::Int(big), Value::Double(big_d)),
            O::kEqual);
  EXPECT_EQ(Value::Compare(Value::Int(big + 1), Value::Double(big_d)),
            O::kGreater);
  EXPECT_EQ(Value::Compare(Value::Double(big_d), Value::Int(big + 1)),
            O::kLess);
  // Doubles beyond the int64 range compare correctly against any int64.
  EXPECT_EQ(Value::Compare(Value::Int(INT64_MAX), Value::Double(1e19)),
            O::kLess);
  EXPECT_EQ(Value::Compare(Value::Int(INT64_MIN), Value::Double(-1e19)),
            O::kGreater);
  // Fractions around an equal whole part.
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Double(1.5)), O::kLess);
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Double(0.5)), O::kGreater);
  EXPECT_EQ(Value::Compare(Value::Int(0), Value::Double(-0.5)), O::kGreater);
}

TEST(ValueTest, CompareTreatsNanAsIncomparable) {
  using O = Value::Ordering;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::Compare(Value::Double(nan), Value::Double(nan)),
            O::kIncomparable);
  EXPECT_EQ(Value::Compare(Value::Double(nan), Value::Double(1.0)),
            O::kIncomparable);
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Double(nan)),
            O::kIncomparable);
}

TEST(ValueTest, KeyHashAgreesWithCompareEquality) {
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> values = {
      Value::Int(0),      Value::Double(0.0),  Value::Double(-0.0),
      Value::Int(1),      Value::Double(1.0),  Value::Double(1.5),
      Value::Int(big),    Value::Int(big + 1), Value::Double(double(big)),
      Value::Int(-7),     Value::Double(-7.0), Value::String("7"),
      Value::Null(),      Value::Double(1e300)};
  // The invariant the join hash tables and relation indexes rely on:
  // predicate-equal values never hash apart.
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (Value::Compare(a, b) == Value::Ordering::kEqual) {
        EXPECT_EQ(a.KeyHash(), b.KeyHash())
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Relation equi-key indexes: declaration, incremental maintenance, and the
// copy/move contract.
// ---------------------------------------------------------------------------

std::size_t ProbeCount(const Relation& rel, const std::vector<int>& attrs,
                       const Tuple& key) {
  const RelationIndex* index = rel.FindIndex(attrs);
  EXPECT_NE(index, nullptr);
  if (index == nullptr) return 0;
  std::vector<int> probe_attrs;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    probe_attrs.push_back(static_cast<int>(i));
  }
  auto cand = index->Probe(EquiKeyHash(key, probe_attrs));
  std::size_t n = 0;
  while (cand.Next() != nullptr) ++n;
  return n;
}

/// Probe through the overlay-aware view — the path the evaluator takes.
std::size_t ViewProbeCount(const Relation& rel, const std::vector<int>& attrs,
                           const Tuple& key) {
  RelationIndexView view = rel.FindIndexView(attrs);
  EXPECT_TRUE(view.valid());
  if (!view.valid()) return 0;
  std::vector<int> probe_attrs;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    probe_attrs.push_back(static_cast<int>(i));
  }
  auto cand = view.Probe(EquiKeyHash(key, probe_attrs));
  std::size_t n = 0;
  while (cand.Next() != nullptr) ++n;
  return n;
}

TEST(RelationIndexTest, MaintainedThroughInsertAndErase) {
  Database db = MakeBeerDatabase();
  Relation* beer = *db.FindMutable("beer");
  ASSERT_NE(beer->IndexOn({2}), nullptr);  // brewery attribute
  EXPECT_EQ(beer->FindIndex({2})->size(), 0u);

  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  testing::AddBeer(&db, "stout", "stout", "guinness", 4.2);
  testing::AddBeer(&db, "free", "lager", "heineken", 0.0);
  EXPECT_EQ(beer->FindIndex({2})->size(), 3u);
  EXPECT_EQ(ProbeCount(*beer, {2}, Tuple({Value::String("heineken")})), 2u);

  EXPECT_TRUE(beer->Erase(Tuple({Value::String("free"), Value::String("lager"),
                                 Value::String("heineken"),
                                 Value::Double(0.0)})));
  EXPECT_EQ(ProbeCount(*beer, {2}, Tuple({Value::String("heineken")})), 1u);

  beer->Clear();
  EXPECT_EQ(beer->FindIndex({2})->size(), 0u);
}

TEST(RelationIndexTest, DeclaredLateIndexesExistingTuples) {
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  testing::AddBeer(&db, "stout", "stout", "guinness", 4.2);
  Relation* beer = *db.FindMutable("beer");
  const RelationIndex* index = beer->IndexOn({2});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 2u);
  // Re-declaring the same attrs returns the existing index.
  EXPECT_EQ(beer->IndexOn({2}), index);
  EXPECT_EQ(beer->index_count(), 1u);
}

TEST(RelationIndexTest, InvalidAttrsAreRejected) {
  Database db = MakeBeerDatabase();
  Relation* beer = *db.FindMutable("beer");
  EXPECT_EQ(beer->IndexOn({}), nullptr);
  EXPECT_EQ(beer->IndexOn({4}), nullptr);
  EXPECT_EQ(beer->IndexOn({-1}), nullptr);
  EXPECT_EQ(beer->index_count(), 0u);
}

TEST(RelationIndexTest, CopiesDropIndexesMovesKeepThem) {
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  Relation* beer = *db.FindMutable("beer");
  ASSERT_NE(beer->IndexOn({2}), nullptr);

  Relation copy = *beer;
  EXPECT_EQ(copy.index_count(), 0u);  // pointers into the source's set
  EXPECT_EQ(copy.size(), 1u);

  Relation moved = std::move(copy);
  EXPECT_EQ(moved.size(), 1u);

  Relation moved_indexed = std::move(*beer);
  EXPECT_EQ(moved_indexed.index_count(), 1u);
  EXPECT_EQ(ProbeCount(moved_indexed, {2},
                       Tuple({Value::String("heineken")})),
            1u);
}

TEST(RelationIndexTest, KeyHashUnifiesIntAndDoubleKeys) {
  Relation rel(std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{Attribute{"v", AttrType::kDouble}}));
  rel.Insert(Tuple({Value::Double(1.0)}));
  ASSERT_NE(rel.IndexOn({0}), nullptr);
  // An Int(1) probe key lands in the Double(1.0) bucket: the index hash
  // agrees with predicate equality, not identity.
  EXPECT_EQ(ProbeCount(rel, {0}, Tuple({Value::Int(1)})), 1u);
}

// ---------------------------------------------------------------------------
// Copy-on-write snapshots and the SameState/logical-time contract.
// ---------------------------------------------------------------------------

TEST(DatabaseSnapshotTest, SameStateIgnoresTimeByDefaultAndPinsItOnRequest) {
  // The long-standing asymmetry, now explicit: Clone() always copies the
  // logical time, but SameState compares only contents unless asked —
  // so a recovered database can compare equal to the live one it
  // mirrors, while histories can still be distinguished on demand.
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  Database clone = db.Clone();
  EXPECT_EQ(clone.logical_time(), db.logical_time());

  clone.AdvanceTime();
  EXPECT_TRUE(db.SameState(clone));  // contents equal, times differ
  EXPECT_FALSE(db.SameState(clone, /*compare_time=*/true));
  EXPECT_TRUE(db.SameState(db.Clone(), /*compare_time=*/true));

  Relation* beer = *clone.FindMutable("beer");
  beer->Insert(Tuple({Value::String("alt"), Value::String("ale"),
                      Value::String("heineken"), Value::Double(4.0)}));
  EXPECT_FALSE(db.SameState(clone));
}

TEST(DatabaseSnapshotTest, CloneIsASnapshotIsolatedFromWriters) {
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  Database snapshot = db.Clone();

  // Writer mutates the master; the snapshot must keep reading D^t.
  Relation* beer = *db.FindMutable("beer");
  beer->Insert(Tuple({Value::String("new"), Value::String("ale"),
                      Value::String("heineken"), Value::Double(4.5)}));
  EXPECT_EQ((*db.Find("beer"))->size(), 2u);
  EXPECT_EQ((*snapshot.Find("beer"))->size(), 1u);

  // And the other direction: snapshot writes never leak into the master.
  Relation* snap_beer = *snapshot.FindMutable("beer");
  snap_beer->Insert(Tuple({Value::String("priv"), Value::String("ale"),
                           Value::String("heineken"), Value::Double(4.0)}));
  EXPECT_EQ((*snapshot.Find("beer"))->size(), 2u);
  EXPECT_EQ((*db.Find("beer"))->size(), 2u);
  EXPECT_FALSE((*db.Find("beer"))->Contains(
      Tuple({Value::String("priv"), Value::String("ale"),
             Value::String("heineken"), Value::Double(4.0)})));
}

TEST(DatabaseSnapshotTest, ClonesShareTheSchemaUntilEitherSideExtendsIt) {
  EXPECT_TRUE(Database().schema().relations().empty());
  const RelationSchema city("city", {Attribute{"name", AttrType::kString}});
  const RelationSchema style("style", {Attribute{"name", AttrType::kString}});

  Database db = MakeBeerDatabase();
  Database clone = db.Clone();
  EXPECT_EQ(&clone.schema(), &db.schema());

  // The clone extends its own schema; the source keeps the shared one.
  const DatabaseSchema* shared = &db.schema();
  TXMOD_ASSERT_OK(clone.CreateRelation(city));
  EXPECT_EQ(&db.schema(), shared);
  EXPECT_FALSE(db.schema().Contains("city"));
  EXPECT_EQ(db.schema().relations().size(), 2u);
  EXPECT_TRUE(clone.schema().Contains("city"));
  EXPECT_TRUE(clone.schema().Contains("beer"));

  // And the other direction.
  Database later = db.Clone();
  TXMOD_ASSERT_OK(db.CreateRelation(style));
  EXPECT_EQ(&later.schema(), shared);
  EXPECT_FALSE(later.schema().Contains("style"));
  EXPECT_TRUE(db.schema().Contains("style"));
  EXPECT_FALSE(db.schema().Contains("city"));
  EXPECT_FALSE(clone.schema().Contains("style"));
}

TEST(DatabaseSnapshotTest, CopyOnWriteRedeclaresIndexes) {
  Database db = MakeBeerDatabase();
  testing::AddBeer(&db, "pils", "lager", "heineken", 5.0);
  Relation* beer = *db.FindMutable("beer");
  ASSERT_NE(beer->IndexOn({2}), nullptr);
  ASSERT_EQ(beer->DeclaredIndexes(),
            (std::vector<std::vector<int>>{{2}}));

  // Take a snapshot, then write through the master: the un-shared state
  // (an overlay here) must carry the declared index — mirrored as an
  // empty level-local index the view composes with the base's.
  Database snapshot = db.Clone();
  Relation* cow = *db.FindMutable("beer");
  EXPECT_TRUE(cow->is_overlay());
  EXPECT_EQ(cow->index_count(), 1u);
  EXPECT_EQ(cow->DeclaredIndexes(), (std::vector<std::vector<int>>{{2}}));
  cow->Insert(Tuple({Value::String("ipa"), Value::String("ale"),
                     Value::String("heineken"), Value::Double(6.5)}));
  EXPECT_EQ(ViewProbeCount(*cow, {2}, Tuple({Value::String("heineken")})),
            2u);

  // The snapshot's side un-shares on ITS first write, too.
  Relation* snap = *snapshot.FindMutable("beer");
  EXPECT_EQ(snap->index_count(), 1u);
  EXPECT_EQ(snap->size(), 1u);
}

// ---------------------------------------------------------------------------
// Overlay states: base ∪ plus ∖ minus semantics, iteration, index views,
// compaction, and the cost pins that prove first-write is O(|delta|).
// ---------------------------------------------------------------------------

Tuple BeerTuple(const std::string& name, const std::string& type,
                const std::string& brewery, double pct) {
  return Tuple({Value::String(name), Value::String(type),
                Value::String(brewery), Value::Double(pct)});
}

TEST(OverlayTest, InsertEraseResurrectOverSharedBase) {
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  base->Insert(BeerTuple("pils", "lager", "heineken", 5.0));
  base->Insert(BeerTuple("stout", "stout", "guinness", 4.2));

  Relation overlay = Relation::MakeOverlay(base);
  EXPECT_TRUE(overlay.is_overlay());
  EXPECT_EQ(overlay.overlay_depth(), 1u);
  EXPECT_EQ(overlay.size(), 2u);
  EXPECT_TRUE(overlay.Contains(BeerTuple("pils", "lager", "heineken", 5.0)));

  // Inserting a base-visible tuple is a no-op; a new one lands in plus.
  EXPECT_FALSE(overlay.Insert(BeerTuple("pils", "lager", "heineken", 5.0)));
  EXPECT_TRUE(overlay.Insert(BeerTuple("ipa", "ale", "brewdog", 6.5)));
  EXPECT_EQ(overlay.size(), 3u);

  // Deleting a base tuple shadows it; the base itself is untouched.
  EXPECT_TRUE(overlay.Erase(BeerTuple("stout", "stout", "guinness", 4.2)));
  EXPECT_FALSE(overlay.Contains(BeerTuple("stout", "stout", "guinness", 4.2)));
  EXPECT_EQ(overlay.size(), 2u);
  EXPECT_TRUE(base->Contains(BeerTuple("stout", "stout", "guinness", 4.2)));

  // Re-inserting a shadowed base tuple resurrects it (minus shrinks; the
  // plus set must NOT grow a duplicate).
  EXPECT_TRUE(overlay.Insert(BeerTuple("stout", "stout", "guinness", 4.2)));
  EXPECT_TRUE(overlay.Contains(BeerTuple("stout", "stout", "guinness", 4.2)));
  EXPECT_EQ(overlay.size(), 3u);

  // Erasing a local insert removes it outright.
  EXPECT_TRUE(overlay.Erase(BeerTuple("ipa", "ale", "brewdog", 6.5)));
  EXPECT_FALSE(overlay.Erase(BeerTuple("ipa", "ale", "brewdog", 6.5)));
  EXPECT_EQ(overlay.size(), 2u);
  EXPECT_TRUE(overlay.SameTuples(*base));
}

TEST(OverlayTest, IterationAndSortedTuplesSeeVisibleContents) {
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  for (int i = 0; i < 8; ++i) {
    base->Insert(BeerTuple("b" + std::to_string(i), "lager", "x", 4.0));
  }
  Relation overlay = Relation::MakeOverlay(base);
  overlay.Erase(BeerTuple("b3", "lager", "x", 4.0));
  overlay.Insert(BeerTuple("new", "ale", "y", 6.0));

  std::size_t seen = 0;
  bool saw_deleted = false, saw_new = false;
  for (const Tuple& t : overlay) {
    ++seen;
    if (t == BeerTuple("b3", "lager", "x", 4.0)) saw_deleted = true;
    if (t == BeerTuple("new", "ale", "y", 6.0)) saw_new = true;
  }
  EXPECT_EQ(seen, overlay.size());
  EXPECT_EQ(seen, 8u);
  EXPECT_FALSE(saw_deleted);
  EXPECT_TRUE(saw_new);
  EXPECT_EQ(overlay.SortedTuples().size(), 8u);

  // A second overlay level on top of the first: both deltas compose.
  auto mid = std::make_shared<Relation>(std::move(overlay));
  Relation top = Relation::MakeOverlay(mid);
  EXPECT_EQ(top.overlay_depth(), 2u);
  top.Erase(BeerTuple("new", "ale", "y", 6.0));  // delete an inner insert
  top.Insert(BeerTuple("b3", "lager", "x", 4.0));  // resurrect inner delete
  EXPECT_EQ(top.size(), 8u);
  EXPECT_TRUE(top.Contains(BeerTuple("b3", "lager", "x", 4.0)));
  EXPECT_FALSE(top.Contains(BeerTuple("new", "ale", "y", 6.0)));
  EXPECT_TRUE(top.SameTuples(*base));
}

TEST(OverlayTest, IndexViewComposesLevelsAndFiltersDeletes) {
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  base->Insert(BeerTuple("pils", "lager", "heineken", 5.0));
  base->Insert(BeerTuple("free", "lager", "heineken", 0.0));
  base->Insert(BeerTuple("stout", "stout", "guinness", 4.2));
  base->IndexOn({2});

  Relation overlay = Relation::MakeOverlay(base);
  // Raw FindIndex is unsound on a chain and must refuse...
  EXPECT_EQ(overlay.FindIndex({2}), nullptr);
  // ...while the view composes base candidates with local ones.
  overlay.Insert(BeerTuple("extra", "ale", "heineken", 6.0));
  overlay.Erase(BeerTuple("free", "lager", "heineken", 0.0));
  EXPECT_EQ(ViewProbeCount(overlay, {2}, Tuple({Value::String("heineken")})),
            2u);
  EXPECT_EQ(ViewProbeCount(overlay, {2}, Tuple({Value::String("guinness")})),
            1u);

  // An undeclared attribute list yields an invalid view (scan fallback).
  EXPECT_FALSE(overlay.FindIndexView({0}).valid());
}

TEST(OverlayTest, CompactMergeAndCollapsePreserveContentsAndIndexes) {
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  for (int i = 0; i < 16; ++i) {
    base->Insert(BeerTuple("b" + std::to_string(i), "lager", "x", 4.0));
  }
  base->IndexOn({2});

  Relation a = Relation::MakeOverlay(base);
  a.Erase(BeerTuple("b0", "lager", "x", 4.0));
  a.Insert(BeerTuple("n0", "ale", "y", 6.0));
  auto mid = std::make_shared<Relation>(std::move(a));
  auto top = std::make_shared<Relation>(Relation::MakeOverlay(mid));
  top->Erase(BeerTuple("b1", "lager", "x", 4.0));
  top->Insert(BeerTuple("n1", "ale", "y", 6.0));
  ASSERT_EQ(top->overlay_depth(), 2u);
  const std::vector<Tuple> expected = top->SortedTuples();

  // The two equally heavy levels merge into one fresh level over the
  // base; the chain it was built from is only read.
  std::shared_ptr<const Relation> merged = Relation::Compact(top);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->overlay_depth(), 1u);
  EXPECT_EQ(merged->delta_weight(), 4u);
  EXPECT_EQ(merged->SortedTuples(), expected);
  EXPECT_EQ(ViewProbeCount(*merged, {2}, Tuple({Value::String("x")})), 14u);
  EXPECT_EQ(top->overlay_depth(), 2u);
  EXPECT_EQ(top->SortedTuples(), expected);
  EXPECT_EQ(Relation::Compact(merged), nullptr) << "already compact";

  // Collapse flattens in place and rebuilds the declared index (mirrored
  // by the overlay) as a flat one.
  Relation flat = Relation::MakeOverlay(merged);
  flat.CollapseOverlay();
  EXPECT_FALSE(flat.is_overlay());
  EXPECT_EQ(flat.SortedTuples(), expected);
  EXPECT_EQ(ProbeCount(flat, {2}, Tuple({Value::String("x")})), 14u);
  EXPECT_EQ(ProbeCount(flat, {2}, Tuple({Value::String("y")})), 2u);
}

TEST(OverlayTest, DeleteThenReinsertCompactsToDeltaWeightZero) {
  // A base tuple deleted in one level and re-inserted in the next nets
  // out: the merge holds it in neither set (it used to keep it in both),
  // so the pair compacts away to the base itself.
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  for (int i = 0; i < 16; ++i) {
    base->Insert(BeerTuple("b" + std::to_string(i), "lager", "x", 4.0));
  }
  base->IndexOn({2});
  Relation deleted = Relation::MakeOverlay(base);
  deleted.Erase(BeerTuple("b3", "lager", "x", 4.0));
  auto reinserted = std::make_shared<Relation>(
      Relation::MakeOverlay(std::make_shared<Relation>(std::move(deleted))));
  reinserted->Insert(BeerTuple("b3", "lager", "x", 4.0));
  ASSERT_EQ(reinserted->overlay_weight(), 2u);

  CowStats::Reset();
  std::shared_ptr<const Relation> compacted = Relation::Compact(reinserted);
  ASSERT_NE(compacted, nullptr);
  EXPECT_EQ(compacted->overlay_weight(), 0u);
  EXPECT_EQ(compacted.get(), base.get());
  EXPECT_TRUE(compacted->SameTuples(*reinserted));
  EXPECT_EQ(ViewProbeCount(*compacted, {2}, Tuple({Value::String("x")})), 16u);
  EXPECT_EQ(CowStats::overlay_merges.load(), 1u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
}

TEST(OverlayTest, FirstWriteDoesNotScanTheBase) {
  // The cost pin of overlay un-sharing: a one-tuple write to a shared
  // 10^4-tuple relation layers one level and never merges or flattens
  // the base — the level holds exactly the one changed tuple.
  Database db = MakeBeerDatabase();
  for (int i = 0; i < 10000; ++i) {
    testing::AddBeer(&db, "beer" + std::to_string(i), "lager", "x", 4.0);
  }
  Database snapshot = db.Clone();  // shares every relation

  CowStats::Reset();
  Relation* rel = *db.FindMutable("beer");
  rel->Insert(BeerTuple("one-more", "ale", "y", 6.0));
  EXPECT_EQ(CowStats::overlays_created.load(), 1u);
  EXPECT_EQ(CowStats::overlay_merges.load(), 0u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
  EXPECT_EQ(rel->delta_weight(), 1u);
  EXPECT_EQ(rel->local_inserts().size(), 1u);
  EXPECT_EQ(rel->size(), 10001u);
  EXPECT_EQ((*snapshot.Find("beer"))->size(), 10000u);
}

/// Compacts `name`'s chain and swaps the result in, as a transaction
/// manager's committer does (with nothing landing in between).
void CompactAndSwap(Database* db, const std::string& name) {
  const std::shared_ptr<const Relation> top = db->Share(name);
  if (std::shared_ptr<const Relation> replacement = Relation::Compact(top)) {
    ASSERT_NE(db->SwapCompacted(name, top.get(), std::move(replacement)),
              nullptr);
  }
}

TEST(OverlayTest, CompactMergesSmallDeltasAndCollapsesLargeOnes) {
  Database db = MakeBeerDatabase();
  for (int i = 0; i < 512; ++i) {
    testing::AddBeer(&db, "b" + std::to_string(i), "lager", "x", 4.0);
  }

  // Small deltas: repeated snapshot/write/compact rounds must keep the
  // chain shallow (geometric merging) without collapsing every round.
  std::vector<Database> snapshots;
  for (int round = 0; round < 12; ++round) {
    snapshots.push_back(db.Clone());  // forces un-share next write
    Relation* rel = *db.FindMutable("beer");
    rel->Insert(BeerTuple("r" + std::to_string(round), "ale", "y", 5.0));
    CompactAndSwap(&db, "beer");
    EXPECT_LE((*db.Find("beer"))->overlay_depth(), 5u) << "round " << round;
  }
  EXPECT_EQ((*db.Find("beer"))->size(), 512u + 12u);

  // A large delta (≥ half the base) collapses flat.
  Database snap = db.Clone();
  Relation* rel = *db.FindMutable("beer");
  for (int i = 0; i < 400; ++i) {
    rel->Insert(BeerTuple("big" + std::to_string(i), "ale", "z", 5.0));
  }
  CowStats::Reset();
  CompactAndSwap(&db, "beer");
  EXPECT_FALSE((*db.Find("beer"))->is_overlay());
  EXPECT_GE(CowStats::overlay_collapses.load(), 1u);
  EXPECT_EQ((*db.Find("beer"))->size(), 512u + 12u + 400u);
}

TEST(OverlayTest, MergeOverAnEmptyLevelLeavesOneLevel) {
  // A base level that holds no tuples (its inserts and deletes netted
  // out) merges away: the replacement is one level over the flat base.
  auto base = std::make_shared<Relation>(MakeBeerDatabase().Find("beer")
                                             .value()
                                             ->schema_ptr());
  for (int i = 0; i < 16; ++i) {
    base->Insert(BeerTuple("b" + std::to_string(i), "lager", "x", 4.0));
  }
  base->IndexOn({2});
  Relation netted = Relation::MakeOverlay(base);
  netted.Insert(BeerTuple("gone", "ale", "y", 6.0));
  netted.Erase(BeerTuple("gone", "ale", "y", 6.0));
  netted.Erase(BeerTuple("b0", "lager", "x", 4.0));
  netted.Insert(BeerTuple("b0", "lager", "x", 4.0));
  ASSERT_EQ(netted.delta_weight(), 0u);

  auto top = std::make_shared<Relation>(
      Relation::MakeOverlay(std::make_shared<Relation>(std::move(netted))));
  top->Insert(BeerTuple("n1", "ale", "y", 6.0));
  top->Insert(BeerTuple("n2", "ale", "y", 6.0));
  top->Erase(BeerTuple("b3", "lager", "x", 4.0));
  const std::vector<Tuple> expected = top->SortedTuples();

  CowStats::Reset();
  std::shared_ptr<const Relation> compacted = Relation::Compact(top);
  ASSERT_NE(compacted, nullptr);
  EXPECT_EQ(CowStats::overlay_merges.load(), 1u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
  EXPECT_EQ(compacted->overlay_depth(), 1u);
  EXPECT_EQ(compacted->delta_weight(), 3u);
  EXPECT_EQ(compacted->SortedTuples(), expected);
  EXPECT_EQ(ViewProbeCount(*compacted, {2}, Tuple({Value::String("y")})), 2u);
  EXPECT_EQ(ViewProbeCount(*compacted, {2}, Tuple({Value::String("x")})),
            15u);
}

TEST(OverlayTest, CommitBetweenBuildAndSwapIsReapplied) {
  // A committer builds a replacement from the chain it claimed while the
  // master moves on; the swap must keep every commit that landed in
  // between, and a snapshot taken before the swap keeps reading its own
  // chain.
  Database db = MakeBeerDatabase();
  ASSERT_NE((*db.FindMutable("beer"))->IndexOn({2}), nullptr);
  std::set<Tuple, testing::TupleLess> model;
  for (const Tuple& t : (*db.Find("beer"))->SortedTuples()) model.insert(t);
  const auto write = [&](const Tuple& t, bool insert) {
    TXMOD_ASSERT_OK_AND_ASSIGN(Database::Level level, db.PushLevel("beer"));
    if (insert) {
      level.top->Insert(t);
      model.insert(t);
    } else {
      level.top->Erase(t);
      model.erase(t);
    }
  };
  for (int i = 0; i < 80; ++i) {
    write(BeerTuple("b" + std::to_string(i), "lager", "x", 4.0), true);
  }
  // The job: a collapse-sized replacement, built from the shared chain.
  const std::shared_ptr<const Relation> start = db.Share("beer");
  CowStats::Reset();
  std::shared_ptr<const Relation> replacement = Relation::Compact(start);
  ASSERT_NE(replacement, nullptr);
  ASSERT_EQ(CowStats::overlay_collapses.load(), 1u);
  // Commits land before the swap: an insert, a delete of a tuple the
  // replacement holds, and a delete-and-reinsert.
  write(BeerTuple("late", "ale", "y", 6.0), true);
  write(BeerTuple("b7", "lager", "x", 4.0), false);
  write(BeerTuple("b9", "lager", "x", 4.0), false);
  write(BeerTuple("b9", "lager", "x", 4.0), true);
  const Database before_swap = db.Clone();
  const Relation* held = *before_swap.Find("beer");
  const std::vector<Tuple> held_contents = held->SortedTuples();

  ASSERT_NE(db.SwapCompacted("beer", start.get(), replacement), nullptr);
  const Relation& swapped = **db.Find("beer");
  EXPECT_EQ(swapped.overlay_depth(), 1u) << "one fresh level over the flat";
  EXPECT_EQ(swapped.delta_weight(), 2u);  // late, b7 (b9 netted out)
  EXPECT_EQ(swapped.SortedTuples(),
            std::vector<Tuple>(model.begin(), model.end()));
  for (const char* brewery : {"x", "y", "heineken", "nowhere"}) {
    std::size_t expected = 0;
    for (const Tuple& t : model) {
      if (t.at(2) == Value::String(brewery)) ++expected;
    }
    EXPECT_EQ(ViewProbeCount(swapped, {2}, Tuple({Value::String(brewery)})),
              expected)
        << brewery;
  }
  // The snapshot still reads the chain it began on.
  EXPECT_EQ(*before_swap.Find("beer"), held);
  EXPECT_EQ(held->SortedTuples(), held_contents);

  // A replacement whose start is gone is discarded: here the newest level
  // is dropped (a WAL-failure unwind) after its compaction was built.
  write(BeerTuple("doomed", "ale", "y", 6.0), true);
  TXMOD_ASSERT_OK_AND_ASSIGN(Database::Level doomed, db.PushLevel("beer"));
  doomed.top->Insert(BeerTuple("unwound", "ale", "y", 6.0));
  const std::shared_ptr<const Relation> doomed_top = db.Share("beer");
  std::shared_ptr<const Relation> stale = Relation::Compact(doomed_top);
  ASSERT_NE(stale, nullptr);
  db.DropLevel("beer", std::move(doomed));
  EXPECT_EQ(db.SwapCompacted("beer", doomed_top.get(), stale), nullptr);
  EXPECT_EQ((*db.Find("beer"))->SortedTuples(),
            std::vector<Tuple>(model.begin(), model.end()));
}

// ---------------------------------------------------------------------------
// Reference model for overlay chains: random writes through snapshots,
// FindMutable levels and pushed transaction levels, interleaved with
// compactions built from shared chains and swapped in (some with a write
// landing between the build and the swap) and in-place collapses, must
// keep every live database equal to a plain std::set model — membership,
// size, sorted contents and the index view's candidates per key.
// ---------------------------------------------------------------------------

using TupleModel = std::set<Tuple, testing::TupleLess>;

constexpr int kModelKeys = 4;
constexpr int kModelValues = 8;

Tuple ModelTuple(int key, int value) {
  return Tuple({Value::Int(key), Value::Int(value)});
}

/// A live database with the model of what it must contain.
struct ModelDb {
  Database db;
  TupleModel model;
};

void ExpectMatchesModel(const ModelDb& m, const std::string& where) {
  SCOPED_TRACE(where);
  const Relation& rel = **m.db.Find("r");
  ASSERT_EQ(rel.size(), m.model.size());
  for (int k = 0; k < kModelKeys; ++k) {
    for (int v = 0; v < kModelValues; ++v) {
      const Tuple t = ModelTuple(k, v);
      ASSERT_EQ(rel.Contains(t), m.model.count(t) > 0) << t.ToString();
    }
  }
  ASSERT_EQ(rel.SortedTuples(),
            std::vector<Tuple>(m.model.begin(), m.model.end()));
  const RelationIndexView view = rel.FindIndexView({0});
  ASSERT_TRUE(view.valid());
  for (int k = 0; k < kModelKeys; ++k) {
    // Candidates are a hash bucket: every one must be visible and
    // distinct, and those with key k must be exactly the model's.
    TupleModel seen, with_key;
    auto cand = view.Probe(EquiKeyHash(Tuple({Value::Int(k)}), {0}));
    for (const Tuple* t = cand.Next(); t != nullptr; t = cand.Next()) {
      ASSERT_EQ(m.model.count(*t), 1u) << t->ToString();
      ASSERT_TRUE(seen.insert(*t).second) << "duplicate " << t->ToString();
      if (t->at(0) == Value::Int(k)) with_key.insert(*t);
    }
    TupleModel expected;
    for (const Tuple& t : m.model) {
      if (t.at(0) == Value::Int(k)) expected.insert(t);
    }
    ASSERT_EQ(with_key, expected) << "key " << k;
  }
}

/// One random write to `rel`, mirrored into `model`: an insert from the
/// domain, or mostly the erase of a visible tuple — so deletes reach
/// tuples that inner levels inserted.
void RandomWrite(std::mt19937* rng, Relation* rel, TupleModel* model) {
  Tuple t = ModelTuple(static_cast<int>((*rng)() % kModelKeys),
                       static_cast<int>((*rng)() % kModelValues));
  if ((*rng)() % 2 == 0) {
    EXPECT_EQ(rel->Insert(t), model->insert(t).second);
    return;
  }
  if (!model->empty() && (*rng)() % 4 != 0) {
    t = *std::next(model->begin(),
                   static_cast<long>((*rng)() % model->size()));
  }
  EXPECT_EQ(rel->Erase(t), model->erase(t) > 0);
}

TEST(OverlayTest, ChainsMatchAReferenceModel) {
  for (unsigned seed : {3u, 17u, 101u}) {
    std::mt19937 rng(seed);
    std::vector<ModelDb> live(1);  // live[0] is the master
    TXMOD_ASSERT_OK(live[0].db.CreateRelation(RelationSchema(
        "r", {Attribute{"k", AttrType::kInt}, Attribute{"v", AttrType::kInt}})));
    ASSERT_NE((*live[0].db.FindMutable("r"))->IndexOn({0}), nullptr);
    for (int step = 0; step < 400; ++step) {
      const std::size_t target = rng() % live.size();
      ModelDb& m = live[target];
      std::string op;
      switch (rng() % 11) {
        case 0:
        case 1:
        case 2:
        case 3:
          op = "write";
          RandomWrite(&rng, *m.db.FindMutable("r"), &m.model);
          break;
        case 4:
        case 5:
          op = "clone";
          if (live.size() < 6) live.push_back(ModelDb{m.db.Clone(), m.model});
          break;
        case 6:
          op = "drop snapshot";
          if (target != 0) live.erase(live.begin() + target);
          break;
        case 7: {
          // A commit lands between the build and the swap: the swap
          // re-applies it over the replacement.
          op = "compact across a write";
          const std::shared_ptr<const Relation> top = m.db.Share("r");
          std::shared_ptr<const Relation> replacement = Relation::Compact(top);
          RandomWrite(&rng, *m.db.FindMutable("r"), &m.model);
          if (replacement != nullptr) {
            ASSERT_NE(
                m.db.SwapCompacted("r", top.get(), std::move(replacement)),
                nullptr);
          }
          break;
        }
        case 8:
          op = "compact";
          CompactAndSwap(&m.db, "r");
          break;
        case 9:
          op = "collapse";
          (*m.db.FindMutable("r"))->CollapseOverlay();
          break;
        default: {
          // A transaction's level: writes, maybe a snapshot of the level,
          // then rollback (drop) or serial commit (fold).
          op = "level";
          TXMOD_ASSERT_OK_AND_ASSIGN(Database::Level level,
                                     m.db.PushLevel("r"));
          TupleModel post = m.model;
          for (int w = 0; w < 4; ++w) RandomWrite(&rng, level.top, &post);
          if (rng() % 4 == 0 && live.size() < 6) {
            live.push_back(ModelDb{m.db.Clone(), post});
          }
          ModelDb& owner = live[target];  // push_back may have moved it
          if (rng() % 2 == 0) {
            owner.db.DropLevel("r", std::move(level));
          } else {
            owner.db.FoldLevel("r", std::move(level));
            owner.model = std::move(post);
          }
          break;
        }
      }
      for (std::size_t i = 0; i < live.size(); ++i) {
        ExpectMatchesModel(live[i], StrCat("seed ", seed, " step ", step, " (",
                                           op, " on db ", target, "), db ", i));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Row blocks: what a level's rows, its membership table and its key tables
// promise through inserts, erases and dead-row compactions.
// ---------------------------------------------------------------------------

constexpr int kRowKeys = 50;
constexpr int kRowValues = 200;
constexpr int64_t kSharedAttr = 7;

Tuple RowTuple(int k, int v) {
  return Tuple({Value::Int(k), Value::Int(v), Value::Int(kSharedAttr)});
}

/// The tuples a probe on `attrs` yields for `key`, through the flat index
/// and through the overlay-aware view; each candidate must be visible and
/// yielded once.
std::vector<TupleModel> ProbeBothWays(const Relation& rel,
                                      const std::vector<int>& attrs,
                                      const Tuple& key) {
  std::vector<int> probe_attrs;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    probe_attrs.push_back(static_cast<int>(i));
  }
  const std::size_t h = EquiKeyHash(key, probe_attrs);
  std::vector<TupleModel> out(2);
  const RelationIndex* index = rel.FindIndex(attrs);
  EXPECT_NE(index, nullptr);
  if (index == nullptr) return out;
  auto cand = index->Probe(h);
  for (const Tuple* t = cand.Next(); t != nullptr; t = cand.Next()) {
    EXPECT_TRUE(out[0].insert(*t).second) << "duplicate " << t->ToString();
  }
  const RelationIndexView view = rel.FindIndexView(attrs);
  EXPECT_TRUE(view.valid());
  auto view_cand = view.Probe(h);
  for (const Tuple* t = view_cand.Next(); t != nullptr; t = view_cand.Next()) {
    EXPECT_TRUE(out[1].insert(*t).second) << "duplicate " << t->ToString();
  }
  return out;
}

/// The model of a relation over the RowTuple domain: membership by
/// domain index, and the members in a vector for picking one at random.
class RowModel {
 public:
  static int IndexOf(const Tuple& t) {
    return static_cast<int>(t.at(0).as_int()) * kRowValues +
           static_cast<int>(t.at(1).as_int());
  }

  bool Contains(int i) const { return where_[i] >= 0; }
  std::size_t size() const { return members_.size(); }
  int key_count(int k) const { return key_counts_[k]; }
  int member(std::size_t n) const { return members_[n]; }
  /// When member i was last inserted, in insertions so far.
  uint64_t inserted_at(int i) const { return inserted_at_[i]; }

  bool Insert(int i) {
    if (Contains(i)) return false;
    where_[i] = static_cast<int>(members_.size());
    members_.push_back(i);
    ++key_counts_[i / kRowValues];
    inserted_at_[i] = ++insertions_;
    return true;
  }
  bool Erase(int i) {
    if (!Contains(i)) return false;
    const int last = members_.back();
    members_[where_[i]] = last;
    where_[last] = where_[i];
    members_.pop_back();
    where_[i] = -1;
    --key_counts_[i / kRowValues];
    return true;
  }

 private:
  std::vector<int> where_ = std::vector<int>(kRowKeys * kRowValues, -1);
  std::vector<int> members_;
  std::vector<int> key_counts_ = std::vector<int>(kRowKeys, 0);
  std::vector<uint64_t> inserted_at_ =
      std::vector<uint64_t>(kRowKeys * kRowValues, 0);
  uint64_t insertions_ = 0;
};

/// Counts what `next` yields, each a visible tuple yielded once, and
/// among them those with key `k` (any key when k < 0).
template <typename Next>
void CountCandidates(const RowModel& model, int k, Next next,
                     std::size_t* with_key) {
  std::vector<char> seen(kRowKeys * kRowValues, 0);
  *with_key = 0;
  for (const Tuple* t = next(); t != nullptr; t = next()) {
    const int i = RowModel::IndexOf(*t);
    ASSERT_TRUE(model.Contains(i)) << t->ToString();
    ASSERT_EQ(seen[i]++, 0) << "duplicate " << t->ToString();
    if (k < 0 || i / kRowValues == k) ++*with_key;
  }
}

void ExpectRowsMatchModel(const Relation& rel, const RowModel& model,
                          std::mt19937* rng) {
  ASSERT_EQ(rel.size(), model.size());
  for (int n = 0; n < 300; ++n) {
    const int k = static_cast<int>((*rng)() % kRowKeys);
    const int v = static_cast<int>((*rng)() % kRowValues);
    ASSERT_EQ(rel.Contains(RowTuple(k, v)), model.Contains(k * kRowValues + v))
        << k << ", " << v;
  }
  // Iteration yields each visible tuple exactly once, in the order the
  // relation took them, compactions or not.
  auto it = rel.begin();
  std::size_t yielded = 0;
  uint64_t last_inserted_at = 0;
  CountCandidates(model, -1,
                  [&]() -> const Tuple* {
                    if (it == rel.end()) return nullptr;
                    const Tuple* t = &*it;
                    ++it;
                    const uint64_t at =
                        model.inserted_at(RowModel::IndexOf(*t));
                    EXPECT_GT(at, last_inserted_at) << t->ToString();
                    last_inserted_at = at;
                    return t;
                  },
                  &yielded);
  ASSERT_EQ(yielded, model.size());
  const RelationIndex* by_key = rel.FindIndex({0});
  const RelationIndex* shared = rel.FindIndex({2});
  ASSERT_NE(by_key, nullptr);
  ASSERT_NE(shared, nullptr);
  const RelationIndexView by_key_view = rel.FindIndexView({0});
  ASSERT_TRUE(by_key_view.valid());
  // The many-valued key: exactly the model's tuples with key k, among
  // candidates that are all visible, through the index and its view.
  for (int k = 0; k < kRowKeys; ++k) {
    const std::size_t h = EquiKeyHash(Tuple({Value::Int(k)}), {0});
    std::size_t with_key = 0;
    auto cand = by_key->Probe(h);
    CountCandidates(model, k, [&] { return cand.Next(); }, &with_key);
    ASSERT_EQ(with_key, static_cast<std::size_t>(model.key_count(k)));
    auto view_cand = by_key_view.Probe(h);
    CountCandidates(model, k, [&] { return view_cand.Next(); }, &with_key);
    ASSERT_EQ(with_key, static_cast<std::size_t>(model.key_count(k)));
  }
  // The attribute every row shares: one key, the whole relation.
  std::size_t all = 0;
  auto cand = shared->Probe(EquiKeyHash(Tuple({Value::Int(kSharedAttr)}), {0}));
  CountCandidates(model, -1, [&] { return cand.Next(); }, &all);
  ASSERT_EQ(all, model.size());
}

TEST(RowBlockTest, FlatRelationMatchesAModelThroughCompactions) {
  auto schema = std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{{"k", AttrType::kInt},
                                  {"v", AttrType::kInt},
                                  {"c", AttrType::kInt}});
  Relation rel(schema);
  ASSERT_NE(rel.IndexOn({0}), nullptr);
  ASSERT_NE(rel.IndexOn({2}), nullptr);
  RowModel model;
  std::mt19937 rng(20261020);
  CowStats::Reset();
  uint64_t erases = 0;
  uint64_t compactions = 0;  // erases that moved rows
  for (int step = 1; step <= 20000; ++step) {
    // Phases of 2,500 steps, alternately growing and shrinking the
    // relation, so its dead rows outnumber its live ones again and again.
    const bool growing = (step / 2500) % 2 == 0;
    const uint64_t compacted_before = CowStats::rows_compacted.load();
    int i = static_cast<int>(rng() % (kRowKeys * kRowValues));
    if (rng() % 10 < (growing ? 8u : 2u)) {
      ASSERT_EQ(rel.Insert(RowTuple(i / kRowValues, i % kRowValues)),
                model.Insert(i));
    } else {
      if (model.size() > 0 && rng() % 4 != 0) {
        i = model.member(rng() % model.size());
      }
      const bool present = model.Erase(i);
      ASSERT_EQ(rel.Erase(RowTuple(i / kRowValues, i % kRowValues)), present);
      if (present) ++erases;
    }
    if (CowStats::rows_compacted.load() > compacted_before) ++compactions;
    if (step % 100 == 0) {
      ExpectRowsMatchModel(rel, model, &rng);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "at step " << step;
      }
    }
  }
  EXPECT_GT(compactions, 3u);
  EXPECT_LE(CowStats::rows_compacted.load(), 2 * erases);
}

TEST(RowBlockTest, TuplePointersOutliveGrowth) {
  auto schema = std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{{"k", AttrType::kInt},
                                  {"v", AttrType::kInt},
                                  {"c", AttrType::kInt}});
  for (const bool overlay : {false, true}) {
    SCOPED_TRACE(overlay ? "overlay level" : "flat state");
    auto base = std::make_shared<Relation>(schema);
    ASSERT_NE(base->IndexOn({0}), nullptr);
    Relation level;
    if (overlay) level = Relation::MakeOverlay(base);
    Relation* rel = overlay ? &level : base.get();
    for (int v = 0; v < 10; ++v) rel->Insert(RowTuple(v % 3, v));
    // The last row the state took sits in a chunk that is still filling.
    // Iteration yields the state's own rows in order, so it is the tenth;
    // a probe yields a key's newest row first.
    const Tuple last = RowTuple(0, 9);
    const Tuple* iterated = nullptr;
    int yielded = 0;
    for (const Tuple& t : *rel) {
      if (++yielded == 10) iterated = &t;
    }
    ASSERT_NE(iterated, nullptr);
    ASSERT_EQ(*iterated, last);
    const RelationIndexView view = rel->FindIndexView({0});
    ASSERT_TRUE(view.valid());
    auto cand = view.Probe(EquiKeyHash(Tuple({Value::Int(0)}), {0}));
    const Tuple* probed = cand.Next();
    ASSERT_NE(probed, nullptr);
    ASSERT_EQ(*probed, last);
    for (int v = 0; v < 100000; ++v) {
      rel->Insert(RowTuple(v % kRowKeys, 1000 + v));
    }
    EXPECT_EQ(*iterated, last);
    EXPECT_EQ(*probed, last);
  }
}

TEST(RowBlockTest, IntAndDoubleAreTwoMembersButOneKey) {
  auto schema = std::make_shared<const RelationSchema>(
      "r", std::vector<Attribute>{{"x", AttrType::kDouble},
                                  {"s", AttrType::kString}});
  Relation rel(schema);
  ASSERT_NE(rel.IndexOn({0}), nullptr);
  const Tuple as_int({Value::Int(1), Value::String("a")});
  const Tuple as_double({Value::Double(1.0), Value::String("a")});
  EXPECT_TRUE(rel.Insert(as_int));
  EXPECT_TRUE(rel.Insert(as_double));
  EXPECT_FALSE(rel.Insert(as_double));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(as_int));
  EXPECT_TRUE(rel.Contains(as_double));
  const TupleModel both{as_int, as_double};
  for (const Value& key : {Value::Int(1), Value::Double(1.0)}) {
    for (const TupleModel& got : ProbeBothWays(rel, {0}, Tuple({key}))) {
      EXPECT_EQ(got, both) << key.ToString();
    }
  }
  EXPECT_TRUE(rel.Erase(as_int));
  EXPECT_FALSE(rel.Contains(as_int));
  EXPECT_TRUE(rel.Contains(as_double));
  for (const TupleModel& got : ProbeBothWays(rel, {0}, Tuple({Value::Int(1)}))) {
    EXPECT_EQ(got, TupleModel{as_double});
  }
}

}  // namespace
}  // namespace txmod
