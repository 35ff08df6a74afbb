// Crash-recovery battery for the differential WAL (src/relational/wal.h)
// and the TxnManager durability path: kill-at-any-point truncation sweeps
// (every byte length of the log), corrupt-tail records, checkpoint +
// truncate round trips, torn-tail repair on reopen, and a randomized
// checkpoint/WAL property — recovery must always restore exactly a
// committed prefix, matching a serial-replay oracle captured live.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/relational/persist.h"
#include "src/relational/wal.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

/// A scratch directory honoring TXMOD_TEST_ARTIFACT_DIR (the CI stress
/// job sets it and uploads the WAL files of failing runs).
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* artifact_dir = std::getenv("TXMOD_TEST_ARTIFACT_DIR");
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::filesystem::path base =
        artifact_dir != nullptr ? std::filesystem::path(artifact_dir)
                                : std::filesystem::temp_directory_path();
    dir_ = base / StrCat("txmod_recovery_", ::getpid(), "_", info->name());
    std::filesystem::create_directories(dir_);
    options_.wal_path = (dir_ / "wal.log").string();
    options_.checkpoint_path = (dir_ / "checkpoint.db").string();
  }

  void TearDown() override {
    // Keep the files for upload when the test failed and an artifact dir
    // is configured; clean up otherwise.
    const bool keep = ::testing::Test::HasFailure() &&
                      std::getenv("TXMOD_TEST_ARTIFACT_DIR") != nullptr;
    if (!keep) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::filesystem::path dir_;
  TxnManagerOptions options_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

struct LiveRun {
  Database db;  // final live state
  std::vector<Database> prefix_states;  // state after commit 0..N
  std::string wal_bytes;
};

/// Runs `txn_texts` through a WAL-backed manager, capturing the committed
/// state after every transaction — the serial-replay oracle the recovery
/// sweeps compare against.
LiveRun RunWorkload(const TxnManagerOptions& options,
                    const std::vector<std::string>& txn_texts) {
  LiveRun run;
  run.db = bench::MakeKeyFkDatabase(10, 30);
  bench::AddUnreferencedKeys(&run.db, 4);
  core::IntegritySubsystem ics(&run.db);
  EXPECT_TRUE(ics.DefineConstraint("domain", bench::DomainConstraint()).ok());
  EXPECT_TRUE(ics.DefineConstraint("refint", bench::RefIntConstraint()).ok());
  auto manager = TxnManager::Create(&ics, options);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  run.prefix_states.push_back(run.db.Clone());  // before any commit
  for (const std::string& text : txn_texts) {
    auto result = (*manager)->RunText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if ((*result).committed && (*result).installed) {
      run.prefix_states.push_back(run.db.Clone());
    }
  }
  run.wal_bytes = ReadFile(options.wal_path);
  return run;
}

std::vector<std::string> DefaultWorkload() {
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back(StrCat("insert(fk_rel, {(", 5000 + i, ", \"k", i % 10,
                           "\", ", 1 + i, ".5)});"));
  }
  // An aborting transaction in the middle: must leave no WAL trace.
  texts.insert(texts.begin() + 3,
               "insert(fk_rel, {(9999, \"nope\", 1.0)});");
  texts.push_back(
      "delete(key_rel, {(\"x0\", \"payload\")}); "
      "insert(key_rel, {(\"fresh\", \"payload\")});");
  return texts;
}

TEST_F(RecoveryTest, CheckpointPlusWalRoundTrip) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(run.db, /*compare_time=*/true));
  EXPECT_FALSE(stats.tail_dropped);
  EXPECT_EQ(stats.records_read, run.prefix_states.size() - 1);
}

TEST_F(RecoveryTest, KillAtEveryByteRestoresACommittedPrefix) {
  std::vector<std::string> texts = DefaultWorkload();
  // Last, a transaction that writes both relations: its record holds two
  // deltas, and a cut anywhere in it must drop both.
  texts.push_back(
      "insert(key_rel, {(\"fresh2\", \"payload\")}); "
      "insert(fk_rel, {(7000, \"fresh2\", 2.5)});");
  LiveRun run = RunWorkload(options_, texts);
  ASSERT_GT(run.prefix_states.size(), 3u);
  const std::size_t last_txn = run.wal_bytes.rfind("\ntxn ");
  ASSERT_NE(last_txn, std::string::npos);
  ASSERT_NE(run.wal_bytes.find("rel key_rel", last_txn), std::string::npos);
  ASSERT_NE(run.wal_bytes.find("rel fk_rel", last_txn), std::string::npos);

  // Simulate a crash at every possible write boundary: truncate the WAL
  // to each byte length, recover, and require the result to equal some
  // committed prefix — never a torn half-transaction — with the restored
  // prefix growing monotonically in the truncation length.
  std::size_t last_prefix = 0;
  for (std::size_t len = 0; len <= run.wal_bytes.size(); ++len) {
    WriteFile(options_.wal_path, run.wal_bytes.substr(0, len));
    auto recovered = TxnManager::Recover(options_);
    ASSERT_TRUE(recovered.ok())
        << "len " << len << ": " << recovered.status().ToString();
    std::size_t matched = run.prefix_states.size();
    for (std::size_t p = 0; p < run.prefix_states.size(); ++p) {
      if (recovered->SameState(run.prefix_states[p], /*compare_time=*/true)) {
        matched = p;
        break;
      }
    }
    ASSERT_LT(matched, run.prefix_states.size())
        << "truncation at byte " << len
        << " recovered a state that is no committed prefix";
    ASSERT_GE(matched, last_prefix)
        << "truncation at byte " << len << " lost a previously durable "
        << "commit";
    last_prefix = matched;
  }
  EXPECT_EQ(last_prefix, run.prefix_states.size() - 1)
      << "the full WAL must restore every commit";
}

TEST_F(RecoveryTest, CorruptTailDropsOnlyTheTail) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Flip a byte inside the LAST record's body: exactly that record (and
  // nothing before it) must be dropped.
  std::string bytes = run.wal_bytes;
  const std::size_t last_txn = bytes.rfind("\ntxn ");
  ASSERT_NE(last_txn, std::string::npos);
  const std::size_t flip = bytes.find("k", last_txn);
  ASSERT_NE(flip, std::string::npos);
  bytes[flip] = 'q';
  WriteFile(options_.wal_path, bytes);

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped) << "corruption must be detected";
  EXPECT_TRUE(recovered.SameState(
      run.prefix_states[run.prefix_states.size() - 2],
      /*compare_time=*/true))
      << "recovery must stop exactly before the corrupt record";
}

TEST_F(RecoveryTest, CorruptionMidLogCutsEverythingAfterIt) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Corrupt the FIRST record: recovery must fall back to the checkpoint
  // alone (records after a corruption are unreachable by design — the
  // prefix contract).
  std::string bytes = run.wal_bytes;
  const std::size_t first_txn = bytes.find("txn ");
  ASSERT_NE(first_txn, std::string::npos);
  bytes[first_txn + 5] ^= 0x1;
  WriteFile(options_.wal_path, bytes);

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_TRUE(recovered.SameState(run.prefix_states.front(),
                                  /*compare_time=*/true));
}

TEST_F(RecoveryTest, CheckpointTruncatesAndRecoveryUsesBoth) {
  Database db = bench::MakeKeyFkDatabase(10, 30);
  bench::AddUnreferencedKeys(&db, 4);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));

  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(7001, \"k1\", 2.0)});").status());
  TXMOD_ASSERT_OK(manager->Checkpoint());
  // The WAL shrank back to its header.
  EXPECT_LT(ReadFile(options_.wal_path).size(), 32u);
  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(7002, \"k2\", 2.0)});").status());

  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/true));
  EXPECT_EQ(manager->stats().checkpoints, 1u);
}

TEST_F(RecoveryTest, StaleWalRecordsBelowCheckpointAreSkipped) {
  // A crash between checkpoint rename and WAL truncation leaves records
  // the checkpoint already covers; replay must skip them, not re-apply.
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  TXMOD_ASSERT_OK(CheckpointDatabaseToFile(run.db, options_.checkpoint_path));
  // WAL deliberately NOT truncated.
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(run.db, /*compare_time=*/true));
  EXPECT_EQ(stats.records_skipped, run.prefix_states.size() - 1);
}

TEST_F(RecoveryTest, TornTailIsRepairedOnReopen) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Tear the tail mid-record, then restart a manager over the recovered
  // state: Create() must repair the log so new commits land after the
  // valid prefix and remain recoverable.
  WriteFile(options_.wal_path,
            run.wal_bytes.substr(0, run.wal_bytes.size() - 7));
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  const std::size_t torn_prefix = run.prefix_states.size() - 2;
  ASSERT_TRUE(
      recovered.SameState(run.prefix_states[torn_prefix],
                          /*compare_time=*/true));

  core::IntegritySubsystem ics(&recovered);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));
  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(8001, \"k3\", 2.0)});").status());

  TXMOD_ASSERT_OK_AND_ASSIGN(Database after, TxnManager::Recover(options_));
  EXPECT_TRUE(after.SameState(recovered, /*compare_time=*/true));
}

/// Recovers, restarts a manager on the recovered state over the same log,
/// commits one more transaction, and requires the next recovery to
/// restore that state, every commit included and no tail dropped.
void RestartCommitAndRecover(const TxnManagerOptions& options) {
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options));
  core::IntegritySubsystem ics(&recovered);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                               TxnManager::Create(&ics, options));
    TXMOD_ASSERT_OK_AND_ASSIGN(
        TxnResult committed,
        manager->RunText("insert(fk_rel, {(8001, \"k3\", 2.0)});"));
    ASSERT_TRUE(committed.committed) << committed.abort_reason;
  }
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database after,
                             TxnManager::Recover(options, &stats));
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  EXPECT_TRUE(after.SameState(recovered, /*compare_time=*/true))
      << "an acknowledged commit was lost";
}

TEST_F(RecoveryTest, LogWhoseLastNewlineIsCutKeepsLaterCommits) {
  // The writer appends every line with its newline, so a commit line
  // without one is a torn record: recovery drops it, and Create repairs
  // the log before the next commit lands on that line.
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  ASSERT_EQ(run.wal_bytes.back(), '\n');
  WriteFile(options_.wal_path,
            run.wal_bytes.substr(0, run.wal_bytes.size() - 1));
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database torn,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_TRUE(torn.SameState(run.prefix_states[run.prefix_states.size() - 2],
                             /*compare_time=*/true));
  RestartCommitAndRecover(options_);
}

TEST_F(RecoveryTest, HeaderWithoutItsNewlineIsATornEmptyLog) {
  // A log holding only the header line, its newline lost: the next commit
  // must not land on the header line.
  RunWorkload(options_, {});
  WriteFile(options_.wal_path, "txmod-wal 3");
  RestartCommitAndRecover(options_);
}

/// `log` (this build's format) as WAL format 1 wrote it: the format 1
/// header, and each commit line's checksum FNV-1a, every other line the
/// same.
std::string AsFormat1Log(const std::string& log) {
  std::string out = "txmod-wal 1\n";
  std::string body;  // of the record being read
  std::size_t begin = log.find('\n') + 1;
  while (begin < log.size()) {
    const std::size_t end = log.find('\n', begin) + 1;
    const std::string line = log.substr(begin, end - begin);
    begin = end;
    if (!StartsWith(line, "commit ")) {
      body += line;
      continue;
    }
    out += body;
    out += line.substr(0, line.find(' ', 7) + 1);  // "commit <version> "
    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(WalRecordChecksum(body, 1)));
    out += StrCat(checksum, "\n");
    body.clear();
  }
  return out;
}

TEST_F(RecoveryTest, Format1LogRecoversAndIsRewrittenBeforeTheNextCommit) {
  // A log an older build left: recovery reads it with FNV-1a, and the
  // manager's reopen rewrites it in format 3 before a commit lands, so
  // no file holds records of two formats.
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  const std::string v1 = AsFormat1Log(run.wal_bytes);
  ASSERT_NE(v1, run.wal_bytes);
  ASSERT_EQ(v1.size(), run.wal_bytes.size());
  WriteFile(options_.wal_path, v1);
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  EXPECT_EQ(stats.records_read, run.prefix_states.size() - 1);
  EXPECT_TRUE(recovered.SameState(run.db, /*compare_time=*/true));

  // Opening the log for appending leaves exactly this build's bytes.
  { TXMOD_ASSERT_OK(WriteAheadLog::Open(options_.wal_path).status()); }
  EXPECT_EQ(ReadFile(options_.wal_path), run.wal_bytes);
  WriteFile(options_.wal_path, v1);
  RestartCommitAndRecover(options_);
  EXPECT_EQ(ReadFile(options_.wal_path).rfind("txmod-wal 3\n", 0), 0u);
}

TEST_F(RecoveryTest, RandomizedCheckpointWalProperty) {
  // Randomized workload with interleaved checkpoints: after every step
  // the recovered state must equal the live committed state.
  Database db = bench::MakeKeyFkDatabase(12, 40);
  bench::AddUnreferencedKeys(&db, 6);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));

  std::mt19937 rng(424242u);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int next_id = 40'000;
  for (int step = 0; step < 40; ++step) {
    switch (pick(5)) {
      case 0:
        TXMOD_ASSERT_OK(manager->Checkpoint());
        break;
      case 1:  // aborting insert
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("insert(fk_rel, {(", next_id++,
                                 ", \"gone\", 1.0)});"))
                .status());
        break;
      case 2:  // delete + reinsert of a shared key
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("delete(key_rel, {(\"x", pick(6),
                                 "\", \"payload\")});"))
                .status());
        break;
      default:
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("insert(fk_rel, {(", next_id++, ", \"k",
                                 pick(12), "\", ", 1 + pick(8), ".0)});"))
                .status());
        break;
    }
    if (step % 8 == 0) {
      TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                                 TxnManager::Recover(options_));
      ASSERT_TRUE(recovered.SameState(db, /*compare_time=*/true))
          << "recovery diverged at step " << step;
    }
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/true));
}

TEST_F(RecoveryTest, GroupCommitCountersAreCoherent) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  (void)run;
  // Re-open the log and exercise Append/Sync directly.
  TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog wal,
                             WriteAheadLog::Open(options_.wal_path));
  EXPECT_EQ(wal.appended_lsn(), 0u);
  WalRecord rec;
  rec.version = 12345;  // never applied; only the log mechanics matter
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal.Append(rec));
  EXPECT_EQ(lsn, 1u);
  EXPECT_LT(wal.durable_lsn(), lsn + 1);
  TXMOD_ASSERT_OK(wal.Sync(lsn));
  EXPECT_GE(wal.durable_lsn(), lsn);
  EXPECT_GE(wal.fsync_count(), 1u);
  TXMOD_ASSERT_OK(wal.Truncate());
  EXPECT_EQ(ReadFile(options_.wal_path), "txmod-wal 3\n");
}

/// One record of `version` that inserts (or deletes) fk_rel row `id`.
WalRecord FkRecord(uint64_t version, int64_t id, bool insert) {
  WalRecord rec;
  rec.version = version;
  std::vector<Tuple> row = {
      Tuple({Value::Int(id), Value::String("k1"), Value::Double(1.0)})};
  rec.deltas.push_back(insert ? WalDelta{"fk_rel", std::move(row), {}}
                              : WalDelta{"fk_rel", {}, std::move(row)});
  return rec;
}

/// A checkpoint at time 0 of the fixture's initial state.
Database WriteInitialCheckpoint(const TxnManagerOptions& options) {
  Database db = bench::MakeKeyFkDatabase(10, 30);
  bench::AddUnreferencedKeys(&db, 4);
  EXPECT_TRUE(CheckpointDatabaseToFile(db, options.checkpoint_path).ok());
  return db;
}

TEST_F(RecoveryTest, OneStreamOutOfVersionOrderReplaysInVersionOrder) {
  // Commits append outside the commit lock, so version 2 can precede
  // version 1 in the file. Version 1 inserts a row and version 2 deletes
  // it: only version order leaves the row absent.
  Database expected = WriteInitialCheckpoint(options_);
  {
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog wal,
                               WriteAheadLog::Open(options_.wal_path));
    TXMOD_ASSERT_OK(wal.Append(FkRecord(2, 9600, /*insert=*/false)).status());
    TXMOD_ASSERT_OK(wal.Append(FkRecord(1, 9600, /*insert=*/true)).status());
  }
  expected.AdvanceTime();
  expected.AdvanceTime();
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(expected, /*compare_time=*/true));
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;

  // The collector returns the same order.
  TXMOD_ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                             ReadShardedWal(options_.wal_path));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].version, 1u);
  EXPECT_EQ(records[1].version, 2u);
}

TEST_F(RecoveryTest, RecordWhoseTupleLineDoesNotDecodeIsDroppedWhole) {
  // Version 2's checksum matches its bytes, but one of its tuple lines
  // does not decode. Its first line does: nothing of the record may be
  // applied, and neither may version 3 after it.
  Database expected = WriteInitialCheckpoint(options_);
  {
    // One open log throughout: reopening would repair the bad record
    // away. Its appends land at the end of the file.
    TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog wal,
                               WriteAheadLog::Open(options_.wal_path));
    TXMOD_ASSERT_OK(wal.Append(FkRecord(1, 9700, /*insert=*/true)).status());
    const std::string body =
        "txn 2\nrel fk_rel\n+ i:9701 s:\"k1\" d:0x1p+0\n"
        "+ i:9702junk s:\"k1\" d:0x1p+0\n";
    char commit[64];
    std::snprintf(commit, sizeof(commit), "commit 2 %016llx\n",
                  static_cast<unsigned long long>(WalRecordChecksum(body)));
    {
      std::ofstream out(options_.wal_path, std::ios::binary | std::ios::app);
      out << body << commit;
    }
    TXMOD_ASSERT_OK(wal.Append(FkRecord(3, 9703, /*insert=*/true)).status());
  }
  (*expected.FindMutable("fk_rel"))
      ->Insert(Tuple({Value::Int(9700), Value::String("k1"),
                      Value::Double(1.0)}));
  expected.AdvanceTime();

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(expected, /*compare_time=*/true));
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_NE(stats.tail_error.find("bad tuple line"), std::string::npos)
      << stats.tail_error;
  EXPECT_EQ(stats.records_read, 1u);
}

/// Stream 1 of a two-way sharded log, as builds that sharded the log
/// wrote it: a v2 header and one committed record.
void WriteLegacyShardStream(const std::string& path) {
  const std::string body = "txn 1\nrel fk_rel\n+ i:9400 s:\"k1\" d:0x1p+0\n";
  char commit[64];
  std::snprintf(commit, sizeof(commit), "commit 1 %016llx\n",
                static_cast<unsigned long long>(WalRecordChecksum(body, 2)));
  WriteFile(path, StrCat("txmod-wal 2 shard 1/2\n", body, commit));
}

TEST_F(RecoveryTest, ShardFileFromAnOlderBuildIsRefused) {
  // Nothing at wal_path, but a shard stream beside it: reading wal_path
  // alone would recover the checkpoint and drop the shard's commits, and
  // appending there would start a second log.
  WriteInitialCheckpoint(options_);
  const std::string shard = options_.wal_path + ".shard1";
  WriteLegacyShardStream(shard);

  const auto recovered = TxnManager::Recover(options_);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(recovered.status().message().find(shard), std::string::npos)
      << recovered.status().ToString();

  Database db = bench::MakeKeyFkDatabase(10, 30);
  core::IntegritySubsystem ics(&db);
  const auto created = TxnManager::Create(&ics, options_);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find(shard), std::string::npos)
      << created.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(options_.wal_path))
      << "a refused log must not be created";
}

// ---------------------------------------------------------------------------
// Poisoned-WAL contract: after any failed fsync, the log must never again
// report durability — every later Append/Sync fails, naming the original
// cause. ("fsyncgate": retrying fsync after a failure silently loses the
// pages the kernel already dropped.)
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, FailedFsyncPoisonsEveryLaterAppendAndSync) {
  FaultInjectingVfs vfs;
  TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog wal,
                             WriteAheadLog::Open(options_.wal_path, &vfs));
  WalRecord rec;
  rec.version = 1;
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal.Append(rec));

  FaultSpec fault;
  fault.op = VfsOp::kFsync;
  fault.kind = FaultKind::kEIO;
  fault.path_substring = "wal";
  vfs.InjectFault(fault);  // one-shot: the NEXT fsync fails, later ones "work"

  const Status failed = wal.Sync(lsn);
  ASSERT_FALSE(failed.ok());
  const std::string original_cause = failed.message();
  EXPECT_NE(original_cause.find("injected"), std::string::npos);

  std::string cause;
  EXPECT_TRUE(wal.broken(&cause));
  EXPECT_EQ(cause, original_cause);

  // The fault was one-shot — the OS-level fsync would now "succeed". The
  // log must refuse anyway: those pages are gone.
  rec.version = 2;
  const Status later_append = wal.Append(rec).status();
  ASSERT_FALSE(later_append.ok());
  EXPECT_EQ(later_append.code(), StatusCode::kUnavailable);
  EXPECT_NE(later_append.message().find("poisoned"), std::string::npos);
  EXPECT_NE(later_append.message().find(original_cause), std::string::npos)
      << "the error must name the original failure, got: "
      << later_append.message();

  const Status later_sync = wal.Sync(lsn);
  ASSERT_FALSE(later_sync.ok());
  EXPECT_EQ(later_sync.code(), StatusCode::kUnavailable);
  EXPECT_NE(later_sync.message().find(original_cause), std::string::npos);

  const Status later_truncate = wal.Truncate();
  ASSERT_FALSE(later_truncate.ok());
  EXPECT_EQ(later_truncate.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, FsyncGateNeverAcksAfterTheFirstFailure) {
  // The gate variant: fsync fails once, then LIES (reports success while
  // dropping writes). The poison bit must make the lie unreachable.
  FaultInjectingVfs vfs;
  TXMOD_ASSERT_OK_AND_ASSIGN(WriteAheadLog wal,
                             WriteAheadLog::Open(options_.wal_path, &vfs));
  WalRecord rec;
  rec.version = 1;
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal.Append(rec));

  FaultSpec fault;
  fault.op = VfsOp::kFsync;
  fault.kind = FaultKind::kFsyncGate;
  fault.path_substring = "wal";
  vfs.InjectFault(fault);

  ASSERT_FALSE(wal.Sync(lsn).ok());
  EXPECT_LT(wal.durable_lsn(), lsn) << "a failed fsync must not advance "
                                       "durability";
  // No combination of later calls may ever report the record durable.
  EXPECT_FALSE(wal.Sync(lsn).ok());
  EXPECT_FALSE(wal.Append(rec).ok());
  EXPECT_LT(wal.durable_lsn(), lsn);
  EXPECT_TRUE(wal.broken());
}

}  // namespace
}  // namespace txmod::txn
