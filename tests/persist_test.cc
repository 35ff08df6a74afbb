#include <cstdint>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>

#include "gtest/gtest.h"
#include "src/common/vfs.h"
#include "src/relational/persist.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

using testing::AddBeer;
using testing::AddBrewery;
using testing::MakeBeerDatabase;

Database RoundTrip(const Database& db) {
  std::ostringstream out;
  Status st = SaveDatabase(db, out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::istringstream in(out.str());
  auto loaded = LoadDatabase(in);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? *std::move(loaded) : Database{};
}

TEST(PersistTest, EmptyDatabaseRoundTrips) {
  Database db = MakeBeerDatabase();
  Database loaded = RoundTrip(db);
  EXPECT_TRUE(loaded.SameState(db));
  EXPECT_TRUE(loaded.Contains("beer"));
  EXPECT_TRUE(loaded.Contains("brewery"));
}

TEST(PersistTest, DataAndSchemaRoundTrip) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBeer(&db, "pils", "lager", "heineken", 5.0);
  db.AdvanceTime();
  db.AdvanceTime();
  Database loaded = RoundTrip(db);
  EXPECT_TRUE(loaded.SameState(db));
  EXPECT_EQ(loaded.logical_time(), 2u);
  TXMOD_ASSERT_OK_AND_ASSIGN(const RelationSchema* schema,
                             loaded.schema().Find("beer"));
  EXPECT_EQ(schema->attribute(3).name, "alcohol");
  EXPECT_EQ(schema->attribute(3).type, AttrType::kDouble);
}

TEST(PersistTest, AwkwardValuesRoundTrip) {
  Database db;
  TXMOD_ASSERT_OK(db.CreateRelation(RelationSchema(
      "t", {Attribute{"s", AttrType::kString},
            Attribute{"d", AttrType::kDouble},
            Attribute{"i", AttrType::kInt}})));
  Relation* rel = *db.FindMutable("t");
  rel->Insert(Tuple({Value::String("with \"quotes\" and \\slashes\\"),
                     Value::Double(0.1), Value::Int(-42)}));
  rel->Insert(Tuple({Value::String("newline\nand tab\t and spaces  x"),
                     Value::Double(1e-300), Value::Int(1)}));
  rel->Insert(Tuple({Value::Null(), Value::Null(), Value::Null()}));
  // 0.1 has no finite decimal representation; the hex-float encoding must
  // restore it bit-exactly (identity, not approximate, equality).
  Database loaded = RoundTrip(db);
  EXPECT_TRUE(loaded.SameState(db));
}

TEST(PersistTest, FileRoundTrip) {
  Database db = MakeBeerDatabase();
  AddBeer(&db, "pils", "lager", "heineken", 5.0);
  const std::string path = ::testing::TempDir() + "/txmod_checkpoint.txt";
  TXMOD_ASSERT_OK(SaveDatabaseToFile(db, path));
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabaseFromFile(path));
  EXPECT_TRUE(loaded.SameState(db));
}

TEST(PersistTest, RejectsGarbage) {
  {
    std::istringstream in("not a checkpoint");
    EXPECT_FALSE(LoadDatabase(in).ok());
  }
  {
    std::istringstream in("txmod-checkpoint 99\n");
    EXPECT_FALSE(LoadDatabase(in).ok());
  }
  {
    std::istringstream in(
        "txmod-checkpoint 1\ntuple i:1\n");  // tuple before any relation
    EXPECT_FALSE(LoadDatabase(in).ok());
  }
  {
    std::istringstream in(
        "txmod-checkpoint 1\nrelation r 1\nattr a int\ntuple x:9\nend\n");
    EXPECT_FALSE(LoadDatabase(in).ok());  // bad value encoding
  }
  EXPECT_FALSE(LoadDatabaseFromFile("/nonexistent/path.txt").ok());
}

TEST(PersistTest, SaveAndLoadNeverCopyOrUnshareRelationStates) {
  // Checkpointing is logically read-only and loading builds fresh owned
  // states: neither may go through Database::FindMutable's un-sharing
  // machinery. The pin: with every relation SHARED (an outstanding
  // snapshot holds the other reference), a save/load cycle creates zero
  // overlays and flattens nothing.
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  for (int i = 0; i < 500; ++i) {
    AddBeer(&db, "beer" + std::to_string(i), "lager", "heineken", 4.0);
  }
  Database snapshot = db.Clone();

  CowStats::Reset();
  std::ostringstream out;
  TXMOD_ASSERT_OK(SaveDatabase(db, out));
  std::istringstream in(out.str());
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabase(in));
  EXPECT_EQ(CowStats::overlays_created.load(), 0u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
  EXPECT_TRUE(loaded.SameState(db));

  // Saving an overlay state works too (SortedTuples iterates the visible
  // contents): mutate through the master, which layers an overlay.
  (*db.FindMutable("beer"))
      ->Insert(Tuple({Value::String("late"), Value::String("ale"),
                      Value::String("heineken"), Value::Double(6.0)}));
  ASSERT_TRUE((*db.Find("beer"))->is_overlay());
  std::ostringstream out2;
  TXMOD_ASSERT_OK(SaveDatabase(db, out2));
  std::istringstream in2(out2.str());
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded2, LoadDatabase(in2));
  EXPECT_TRUE(loaded2.SameState(db));
  EXPECT_EQ((*loaded2.Find("beer"))->size(), 501u);
}

TEST(PersistTest, CheckpointRetryAfterFailedFsyncStartsFromANewFile) {
  // fsyncgate on the temp file: its first fsync fails and drops the
  // dirty pages, and every later fsync of that file reports success
  // without persisting anything. A retry that rewrote the same temp file
  // would rename an empty durable file into place.
  const std::string dir = ::testing::TempDir() + "/txmod_checkpoint_retry";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint";
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBeer(&db, "pils", "lager", "heineken", 5.0);

  FaultInjectingVfs vfs;
  vfs.InjectFault(FaultSpec{VfsOp::kFsync, FaultKind::kFsyncGate, 1, "",
                            /*sticky=*/false});
  EXPECT_FALSE(CheckpointDatabaseToFile(db, path, &vfs).ok());
  TXMOD_ASSERT_OK(CheckpointDatabaseToFile(db, path, &vfs));
  vfs.SimulateCrash();
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabaseFromFile(path));
  EXPECT_TRUE(loaded.SameState(db));
  std::filesystem::remove_all(dir);
}

// A checkpoint has no checksum, so the loader's parse is its only guard.
// Each of these must be InvalidArgument: never an exception (an arity
// must not reach an allocation unchecked), and never a load that guesses
// what a malformed field meant.
TEST(PersistTest, MalformedKeywordLinesAreRejected) {
  const std::string kHead = "txmod-checkpoint 1\n";
  const std::string kRel = "relation r 1\nattr a int\n";
  for (const std::string& text : {
           kHead + "relation r -1\n",
           kHead + "relation r 3000000000\n",
           kHead + "relation r 1x\nattr a int\nend\n",
           kHead + "relation r\n",
           kHead + "relation r 1 2\nattr a int\nend\n",
           kHead + "time q7\n",
           kHead + "time 7x\n",
           kHead + "time -1\n",
           kHead + "time\n",
           kHead + "time 18446744073709551616\n",
           kHead + "time 7 8\n",
           kHead + kRel + "end junk\n",
           kHead + "relation r 1\nattr a int junk\nend\n",
           kHead + "relation r 1\nattr a\nend\n",
           kHead + "relation r 2\nattr a int\nattr\nend\n",
           kHead + kRel + "relation s 1\nattr b int\nend\n",
           std::string("txmod-checkpoint 1x\n"),
           std::string("txmod-checkpoint 1 junk\n"),
       }) {
    std::istringstream in(text);
    Result<Database> loaded = Status::Internal("not run");
    ASSERT_NO_THROW(loaded = LoadDatabase(in)) << text;
    ASSERT_FALSE(loaded.ok()) << text << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << text << ": " << loaded.status().ToString();
  }
}

TEST(PersistTest, ArityBeyondTheAttributeLinesIsATruncatedList) {
  // An arity that fits an int but has no attribute lines behind it must
  // not size anything by it.
  std::istringstream in("txmod-checkpoint 1\nrelation r 2000000000\n"
                        "attr a int\nend\n");
  Result<Database> loaded = Status::Internal("not run");
  ASSERT_NO_THROW(loaded = LoadDatabase(in));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PersistTest, LargeLogicalTimeLoadsAtOnce) {
  std::istringstream in("txmod-checkpoint 1\ntime 18446744073709551615\n"
                        "relation r 1\nattr a int\ntuple i:1\nend\n");
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabase(in));
  EXPECT_EQ(loaded.logical_time(), UINT64_MAX);
  EXPECT_EQ((*loaded.Find("r"))->size(), 1u);
}

/// A stream buffer over a string that cannot seek, like a pipe's.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

TEST(PersistTest, UnseekableStreamLoadsWithoutSizing) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBeer(&db, "pils", "lager", "heineken", 5.0);
  std::ostringstream out;
  TXMOD_ASSERT_OK(SaveDatabase(db, out));
  UnseekableBuf buf(out.str());
  std::istream in(&buf);
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabase(in));
  EXPECT_TRUE(loaded.SameState(db));
}

TEST(PersistTest, LinesLongerThanAChunkRoundTrip) {
  // A tuple line longer than the line reader's chunk, between short ones.
  Database db;
  TXMOD_ASSERT_OK(db.CreateRelation(RelationSchema(
      "t", {Attribute{"s", AttrType::kString}, Attribute{"i", AttrType::kInt}})));
  Relation* rel = *db.FindMutable("t");
  rel->Insert(Tuple({Value::String("short"), Value::Int(1)}));
  rel->Insert(Tuple({Value::String(std::string(3 * LineReader::kChunk, 'x')),
                     Value::Int(2)}));
  rel->Insert(Tuple({Value::String(std::string(LineReader::kChunk - 40, '"')),
                     Value::Int(3)}));
  Database loaded = RoundTrip(db);
  EXPECT_TRUE(loaded.SameState(db));
}

TEST(PersistTest, TupleTypeMismatchRejected) {
  std::istringstream in(
      "txmod-checkpoint 1\n"
      "relation r 1\n"
      "attr a int\n"
      "tuple s:\"oops\"\n"
      "end\n");
  EXPECT_FALSE(LoadDatabase(in).ok());
}

}  // namespace
}  // namespace txmod
