// The on-disk bytes of the write-ahead log and the checkpoint, pinned.
// One WAL record (two relations, inserted and deleted tuples) and one
// checkpoint (an empty relation and a relation of seven tuples) between
// them hold every value form the text codec writes: null, the int64
// extremes, the doubles 0, -0.0, the deepest denormal, the largest
// finite value, both infinities and NaN, and strings holding a quote, a
// backslash, a newline, a tab, spaces and a NUL byte.
//
// The expected bytes below are the format that checkpoint version 1 and
// WAL format 3 define: the writers must produce them byte for byte, and
// the readers must read them back to bit-identical values. A change
// here is a change of the on-disk format. The record form the
// transaction manager logs (CommitRecord, which shares its overlay
// levels' sets) must write the bytes of the WalRecord that holds the same
// tuples in the sets' iteration order. The same record in WAL format 1,
// as older builds wrote it (its checksum FNV-1a), stays pinned as an
// input: it must read back bit-exact, and opening it for appending must
// leave exactly the format 3 bytes.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/common/xxh64.h"
#include "src/relational/persist.h"
#include "src/relational/wal.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

constexpr int64_t kMinInt = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMaxDouble = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const Value kQuoteAndBackslash = Value::String("quote\" backslash\\");
const Value kNewlineTabSpace = Value::String("newline\ntab\tspace ");
const Value kNul = Value::String(std::string("nul\0byte", 8));

// Adjacent literals, one per line of the file; `sizeof - 1` keeps the
// NUL byte inside the string value.
constexpr char kWalBytes[] =
    "txmod-wal 3\n"
    "txn 42\n"
    "rel t\n"
    "+ i:-9223372036854775808 d:0x0p+0 s:\"quote\\\" backslash\\\\\"\n"
    "+ i:9223372036854775807 d:-0x0p+0 s:\"newline\\ntab\\tspace \"\n"
    "- null d:0x0.0000000000001p-1022 s:\"nul\0byte\"\n"
    "rel u\n"
    "+ d:0x1.fffffffffffffp+1023 d:inf d:-inf\n"
    "- d:nan null s:\"\"\n"
    "commit 42 92f24148bec685f3\n";

// The same record as WAL format 1 wrote it: another header line and an
// FNV-1a checksum, every value line the same.
constexpr char kWalV1Bytes[] =
    "txmod-wal 1\n"
    "txn 42\n"
    "rel t\n"
    "+ i:-9223372036854775808 d:0x0p+0 s:\"quote\\\" backslash\\\\\"\n"
    "+ i:9223372036854775807 d:-0x0p+0 s:\"newline\\ntab\\tspace \"\n"
    "- null d:0x0.0000000000001p-1022 s:\"nul\0byte\"\n"
    "rel u\n"
    "+ d:0x1.fffffffffffffp+1023 d:inf d:-inf\n"
    "- d:nan null s:\"\"\n"
    "commit 42 f18e17f69be1c71f\n";

constexpr char kCheckpointBytes[] =
    "txmod-checkpoint 1\n"
    "time 7\n"
    "relation e 1\n"
    "attr x int\n"
    "end\n"
    "relation t 4\n"
    "attr k int\n"
    "attr i int\n"
    "attr d double\n"
    "attr s string\n"
    "tuple i:1 i:-9223372036854775808 d:0x0p+0 s:\"quote\\\" backslash\\\\\"\n"
    "tuple i:2 i:9223372036854775807 d:-0x0p+0 s:\"newline\\ntab\\tspace \"\n"
    "tuple i:3 null d:0x0.0000000000001p-1022 s:\"nul\0byte\"\n"
    "tuple i:4 i:0 d:0x1.fffffffffffffp+1023 s:\"\"\n"
    "tuple i:5 i:-1 d:inf null\n"
    "tuple i:6 i:1 d:-inf s:\" \"\n"
    "tuple i:7 i:2 d:nan s:\"x\"\n"
    "end\n";

std::string Bytes(const char* literal, std::size_t size_with_terminator) {
  return std::string(literal, size_with_terminator - 1);
}

/// The body of the one record in a log's bytes: its "txn" line through
/// its last delta line, the bytes its checksum covers.
std::string RecordBody(const std::string& log) {
  const std::size_t begin = log.find("txn ");
  return log.substr(begin, log.find("commit ") - begin);
}

/// Bit-exact identity. Value::operator== holds -0.0 equal to 0.0 and
/// NaN unequal to itself; the pins need the stored bits.
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.as_double();
  const double y = b.as_double();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool Identical(const Tuple& a, const Tuple& b) {
  if (a.arity() != b.arity()) return false;
  for (std::size_t i = 0; i < a.arity(); ++i) {
    if (!Identical(a.at(i), b.at(i))) return false;
  }
  return true;
}

void ExpectIdentical(const std::vector<Tuple>& actual,
                     const std::vector<Tuple>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(Identical(actual[i], expected[i]))
        << actual[i].ToString() << " vs " << expected[i].ToString();
  }
}

WalRecord GoldenRecord() {
  WalRecord rec;
  rec.version = 42;
  rec.deltas.push_back(WalDelta{
      "t",
      {Tuple({Value::Int(kMinInt), Value::Double(0.0), kQuoteAndBackslash}),
       Tuple({Value::Int(kMaxInt), Value::Double(-0.0), kNewlineTabSpace})},
      {Tuple({Value::Null(), Value::Double(kDenormMin), kNul})}});
  rec.deltas.push_back(WalDelta{
      "u",
      {Tuple({Value::Double(kMaxDouble), Value::Double(kInf),
              Value::Double(-kInf)})},
      {Tuple({Value::Double(kNaN), Value::Null(), Value::String("")})}});
  return rec;
}

/// The checkpointed relation's tuples, in the key order SaveDatabase
/// writes them.
std::vector<Tuple> GoldenTuples() {
  return {
      Tuple({Value::Int(1), Value::Int(kMinInt), Value::Double(0.0),
             kQuoteAndBackslash}),
      Tuple({Value::Int(2), Value::Int(kMaxInt), Value::Double(-0.0),
             kNewlineTabSpace}),
      Tuple({Value::Int(3), Value::Null(), Value::Double(kDenormMin), kNul}),
      Tuple({Value::Int(4), Value::Int(0), Value::Double(kMaxDouble),
             Value::String("")}),
      Tuple({Value::Int(5), Value::Int(-1), Value::Double(kInf),
             Value::Null()}),
      Tuple({Value::Int(6), Value::Int(1), Value::Double(-kInf),
             Value::String(" ")}),
      Tuple({Value::Int(7), Value::Int(2), Value::Double(kNaN),
             Value::String("x")}),
  };
}

Database GoldenDatabase() {
  Database db;
  EXPECT_TRUE(
      db.CreateRelation(RelationSchema("e", {Attribute{"x", AttrType::kInt}}))
          .ok());
  EXPECT_TRUE(db.CreateRelation(
                    RelationSchema("t", {Attribute{"k", AttrType::kInt},
                                         Attribute{"i", AttrType::kInt},
                                         Attribute{"d", AttrType::kDouble},
                                         Attribute{"s", AttrType::kString}}))
                  .ok());
  Relation* t = *db.FindMutable("t");
  for (const Tuple& tuple : GoldenTuples()) t->Insert(tuple);
  for (int i = 0; i < 7; ++i) db.AdvanceTime();
  return db;
}

class FormatGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           StrCat("txmod_golden_", ::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) const { return (dir_ / name).string(); }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(FormatGoldenTest, WalRecordIsWrittenByteForByte) {
  const std::string path = Path("wal");
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log, WriteAheadLog::Open(path));
    TXMOD_ASSERT_OK(log.Append(GoldenRecord()).status());
  }
  EXPECT_EQ(ReadFile(path), Bytes(kWalBytes, sizeof(kWalBytes)));
}

TEST_F(FormatGoldenTest, WalRecordIsReadBackBitExact) {
  // Format 3, and format 1 with the checksum its header names.
  for (const std::string& bytes : {Bytes(kWalBytes, sizeof(kWalBytes)),
                                   Bytes(kWalV1Bytes, sizeof(kWalV1Bytes))}) {
    SCOPED_TRACE(bytes.substr(0, bytes.find('\n')));
    const std::string path = Path("wal");
    WriteFile(path, bytes);
    WalReplayStats stats;
    TXMOD_ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                               ReadShardedWal(path, &stats, 41));
    EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
    ASSERT_EQ(records.size(), 1u);
    const WalRecord expected = GoldenRecord();
    EXPECT_EQ(records[0].version, expected.version);
    ASSERT_EQ(records[0].deltas.size(), expected.deltas.size());
    for (std::size_t d = 0; d < expected.deltas.size(); ++d) {
      SCOPED_TRACE(expected.deltas[d].relation);
      EXPECT_EQ(records[0].deltas[d].relation, expected.deltas[d].relation);
      ExpectIdentical(records[0].deltas[d].plus, expected.deltas[d].plus);
      ExpectIdentical(records[0].deltas[d].minus, expected.deltas[d].minus);
    }
  }
}

TEST_F(FormatGoldenTest, OpeningAFormat1LogRewritesItInFormat3) {
  const std::string path = Path("wal");
  WriteFile(path, Bytes(kWalV1Bytes, sizeof(kWalV1Bytes)));
  { TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log, WriteAheadLog::Open(path)); }
  EXPECT_EQ(ReadFile(path), Bytes(kWalBytes, sizeof(kWalBytes)));
  EXPECT_FALSE(std::filesystem::exists(path + ".repair"));
}

TEST_F(FormatGoldenTest, ChecksumsAreTheFormatsAlgorithms) {
  // The published XXH64 vectors, seed 0.
  EXPECT_EQ(Xxh64::Of(""), UINT64_C(0xef46db3751d8e999));
  EXPECT_EQ(Xxh64::Of("abc"), UINT64_C(0x44bc2cf5ad770999));
  EXPECT_EQ(Xxh64::Of("Nobody inspects the spammish repetition"),
            UINT64_C(0xfbcea83c8a378bf1));
  // Each format's commit line carries its own algorithm over the body.
  const std::string body = RecordBody(Bytes(kWalBytes, sizeof(kWalBytes)));
  ASSERT_EQ(body, RecordBody(Bytes(kWalV1Bytes, sizeof(kWalV1Bytes))));
  EXPECT_EQ(WalRecordChecksum(body), UINT64_C(0x92f24148bec685f3));
  EXPECT_EQ(WalRecordChecksum(body), Xxh64::Of(body));
  EXPECT_EQ(WalRecordChecksum(body, 1), UINT64_C(0xf18e17f69be1c71f));
}

TEST_F(FormatGoldenTest, ChecksumFedInPiecesIsTheChecksumOfTheWhole) {
  // The golden body spans several 32-byte stripes, and its lines end
  // mid-stripe: the reader feeds it line by line, newlines included.
  const std::string body = RecordBody(Bytes(kWalBytes, sizeof(kWalBytes)));
  const uint64_t whole = Xxh64::Of(body);
  Xxh64 by_line;
  for (std::size_t begin = 0; begin < body.size();) {
    const std::size_t end = body.find('\n', begin) + 1;
    by_line.Update(std::string_view(body).substr(begin, end - begin));
    begin = end;
  }
  EXPECT_EQ(by_line.Digest(), whole);
  // Every split into two and into three pieces, empty pieces included.
  const std::string_view view(body);
  for (std::size_t i = 0; i <= body.size(); ++i) {
    for (std::size_t j = i; j <= body.size(); ++j) {
      Xxh64 pieces;
      pieces.Update(view.substr(0, i));
      pieces.Update(view.substr(i, j - i));
      pieces.Update(view.substr(j));
      ASSERT_EQ(pieces.Digest(), whole) << "split at " << i << " and " << j;
    }
  }
}

TEST_F(FormatGoldenTest, CommitRecordIsWrittenAsItsWalRecord) {
  // A commit record over real overlay levels shares their insert and
  // delete sets; it must log exactly the bytes of the WalRecord holding
  // the same tuples in the sets' iteration order.
  const auto t_schema = std::make_shared<const RelationSchema>(
      "t", std::vector<Attribute>{{"i", AttrType::kInt},
                                  {"d", AttrType::kDouble},
                                  {"s", AttrType::kString}});
  const auto u_schema = std::make_shared<const RelationSchema>(
      "u", std::vector<Attribute>{{"x", AttrType::kDouble},
                                  {"y", AttrType::kDouble},
                                  {"z", AttrType::kDouble}});
  Relation t_base(t_schema);
  for (int i = 0; i < 8; ++i) {
    t_base.Insert(Tuple({Value::Int(i), Value::Double(i / 4.0), kNul}));
  }
  Relation u_base(u_schema);
  u_base.Insert(
      Tuple({Value::Double(kDenormMin), Value::Double(-kInf), Value::Null()}));
  Relation t = Relation::MakeOverlay(
      std::make_shared<const Relation>(std::move(t_base)));
  Relation u = Relation::MakeOverlay(
      std::make_shared<const Relation>(std::move(u_base)));
  for (int i = 0; i < 20; ++i) {
    t.Insert(Tuple({Value::Int(kMinInt + i), Value::Double(-0.0),
                    i % 2 == 0 ? kQuoteAndBackslash : kNewlineTabSpace}));
  }
  t.Insert(
      Tuple({Value::Null(), Value::Double(kMaxDouble), Value::String("")}));
  for (int i = 0; i < 8; i += 3) {
    t.Erase(Tuple({Value::Int(i), Value::Double(i / 4.0), kNul}));
  }
  u.Insert(Tuple({Value::Double(kInf), Value::Double(kNaN), Value::Null()}));
  u.Erase(
      Tuple({Value::Double(kDenormMin), Value::Double(-kInf), Value::Null()}));
  ASSERT_EQ(t.local_inserts().size(), 21u);
  ASSERT_EQ(t.local_deletes().size(), 3u);
  ASSERT_EQ(u.local_deletes().size(), 1u);

  CommitRecord shared;
  shared.version = 42;
  WalRecord copied;
  copied.version = 42;
  const auto add = [&](const std::string& name, const Relation& level) {
    shared.deltas.push_back(
        CommitDelta{name, level.shared_inserts(), level.shared_deletes()});
    EXPECT_EQ(shared.deltas.back().plus.get(), &level.local_inserts());
    EXPECT_EQ(shared.deltas.back().minus.get(), &level.local_deletes());
    WalDelta& delta = copied.deltas.emplace_back();
    delta.relation = name;
    for (const Tuple& tuple : level.local_inserts()) {
      delta.plus.push_back(tuple);
    }
    for (const Tuple& tuple : level.local_deletes()) {
      delta.minus.push_back(tuple);
    }
  };
  add("t", t);
  add("u", u);
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log,
                               WriteAheadLog::Open(Path("shared")));
    TXMOD_ASSERT_OK(log.Append(shared).status());
  }
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log,
                               WriteAheadLog::Open(Path("copied")));
    TXMOD_ASSERT_OK(log.Append(copied).status());
  }
  const std::string bytes = ReadFile(Path("shared"));
  EXPECT_EQ(bytes, ReadFile(Path("copied")));
  EXPECT_NE(bytes.find("\nrel u\n+ d:inf d:nan null\n"
                       "- d:0x0.0000000000001p-1022 d:-inf null\ncommit 42 "),
            std::string::npos)
      << bytes;
}

TEST_F(FormatGoldenTest, CommitRecordListsWritesInTheOrderTheyWereMade) {
  // A level's sets iterate in the order the level took their tuples, so
  // a commit's log bytes do not depend on any hash table's layout.
  const auto schema = std::make_shared<const RelationSchema>(
      "t", std::vector<Attribute>{{"s", AttrType::kString}});
  Relation base(schema);
  for (const char* s : {"x", "y", "z"}) base.Insert(Tuple({Value::String(s)}));
  Relation level =
      Relation::MakeOverlay(std::make_shared<const Relation>(std::move(base)));
  for (const char* s : {"c", "a", "b"}) {
    ASSERT_TRUE(level.Insert(Tuple({Value::String(s)})));
  }
  for (const char* s : {"y", "x"}) {
    ASSERT_TRUE(level.Erase(Tuple({Value::String(s)})));
  }
  CommitRecord rec;
  rec.version = 7;
  rec.deltas.push_back(
      CommitDelta{"t", level.shared_inserts(), level.shared_deletes()});
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog log,
                               WriteAheadLog::Open(Path("ordered")));
    TXMOD_ASSERT_OK(log.Append(rec).status());
  }
  const std::string bytes = ReadFile(Path("ordered"));
  EXPECT_NE(bytes.find("txmod-wal 3\ntxn 7\nrel t\n"
                       "+ s:\"c\"\n+ s:\"a\"\n+ s:\"b\"\n"
                       "- s:\"y\"\n- s:\"x\"\ncommit 7 "),
            std::string::npos)
      << bytes;
}

TEST_F(FormatGoldenTest, CheckpointIsWrittenByteForByte) {
  const Database db = GoldenDatabase();
  std::ostringstream out;
  TXMOD_ASSERT_OK(SaveDatabase(db, out));
  EXPECT_EQ(out.str(), Bytes(kCheckpointBytes, sizeof(kCheckpointBytes)));
  // The crash-safe path renders the same bytes.
  const std::string path = Path("checkpoint");
  TXMOD_ASSERT_OK(CheckpointDatabaseToFile(db, path));
  EXPECT_EQ(ReadFile(path), Bytes(kCheckpointBytes, sizeof(kCheckpointBytes)));
}

TEST_F(FormatGoldenTest, CheckpointIsReadBackBitExact) {
  const std::string path = Path("checkpoint");
  WriteFile(path, Bytes(kCheckpointBytes, sizeof(kCheckpointBytes)));
  TXMOD_ASSERT_OK_AND_ASSIGN(Database loaded, LoadDatabaseFromFile(path));
  EXPECT_EQ(loaded.logical_time(), 7u);
  EXPECT_EQ(loaded.RelationNames(), (std::vector<std::string>{"e", "t"}));
  EXPECT_TRUE((*loaded.Find("e"))->empty());
  const Relation* t = *loaded.Find("t");
  ASSERT_EQ(t->schema().arity(), 4u);
  EXPECT_EQ(t->schema().attribute(2).type, AttrType::kDouble);
  ExpectIdentical(t->SortedTuples(), GoldenTuples());
}

}  // namespace
}  // namespace txmod
