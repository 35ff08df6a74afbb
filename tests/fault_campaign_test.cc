// The fault-campaign oracle: randomized workloads under programmed and
// randomized storage-fault schedules (EIO, ENOSPC, short and torn
// writes, fsync failure, the fsyncgate trap, a lying fsync, rename and
// directory-sync failures), each run ending in a simulated power loss
// and recovery, then a restart on the recovered state (on repaired
// storage), a few more transactions, and a second crash and recovery.
// Two invariants define correctness, after both crashes:
//
//   1. Durability of acks: every commit acknowledged as durable
//      survives crash recovery (all schedules except the lying fsync —
//      no software survives a kernel that reports fsync success while
//      dropping the bytes).
//   2. Prefix property: recovery always yields EXACTLY the state after
//      some acknowledged commit, in commit-version order — never a torn
//      or reordered state. This one holds under every schedule,
//      including the lying fsync (where a durably-torn checkpoint may
//      instead make recovery refuse loudly — an explicit error, never a
//      silently wrong state).
//
// Alongside the campaign, the degraded-mode contract: a WAL fault flips
// the manager into read-only degraded mode (reads and read-only commits
// keep working, writers fail fast with Unavailable naming the cause),
// and TryReopenWal restores write service once the schedule clears.
//
// TXMOD_FAULT_ITERATIONS scales the randomized sweep (CI stress sets it
// high); TXMOD_TEST_ARTIFACT_DIR keeps failing runs' files for upload.

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/common/vfs.h"
#include "src/core/subsystem.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

class FaultCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* artifact_dir = std::getenv("TXMOD_TEST_ARTIFACT_DIR");
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::filesystem::path base =
        artifact_dir != nullptr ? std::filesystem::path(artifact_dir)
                                : std::filesystem::temp_directory_path();
    dir_ = base / StrCat("txmod_faults_", ::getpid(), "_", info->name());
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    const bool keep = ::testing::Test::HasFailure() &&
                      std::getenv("TXMOD_TEST_ARTIFACT_DIR") != nullptr;
    if (!keep) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::filesystem::path dir_;
};

/// The constraints the managers in this file enforce.
const std::vector<txmod::testing::NamedConstraint> kConstraints = {
    {"domain", bench::DomainConstraint()},
    {"refint", bench::RefIntConstraint()}};

/// A full check of a recovered state: every constraint evaluated in
/// full, by code that shares no plan with the compiled checks.
void ExpectConstraintsHold(const Database& recovered) {
  EXPECT_EQ(txmod::testing::FullCheckViolation(
                txmod::testing::Rebuild(recovered), kConstraints),
            "");
}

int FaultIterations(int fallback) {
  const char* env = std::getenv("TXMOD_FAULT_ITERATIONS");
  if (env == nullptr) return fallback;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : fallback;
}

/// The schedule as text, so a failing campaign can be rerun from its
/// log line alone: "fsync fsync-gate nth=4 sticky=0 path='wal'; ...".
std::string DescribeSchedule(const std::vector<FaultSpec>& schedule) {
  std::string out;
  for (const FaultSpec& spec : schedule) {
    if (!out.empty()) out += "; ";
    out += StrCat(VfsOpName(spec.op), " ", FaultKindName(spec.kind),
                  " nth=", spec.nth, " sticky=", spec.sticky ? 1 : 0,
                  " path='", spec.path_substring, "'");
  }
  return out;
}

/// Runs `ops` seeded random operations through `manager`, whose master
/// is `db`: inserts, deletes, aborting transactions, read-only queries,
/// checkpoints and reopen attempts. Appends the committed state after
/// every acknowledged write commit (RunText returning committed &&
/// installed) to `acked_states`, the durability oracle.
void RunOps(TxnManager* manager, const Database& db, int ops,
            std::mt19937_64* rng, int* next_id,
            std::vector<Database>* acked_states) {
  for (int op = 0; op < ops; ++op) {
    const uint64_t what = (*rng)() % 12;
    if (what == 0) {
      (void)manager->Checkpoint();  // may fault; recovery decides
    } else if (what == 1) {
      // Read-only query: acknowledged, but never durable state.
      auto result =
          manager->RunText("tmp := select[amount > 9000.0](fk_rel);");
      if (result.ok()) {
        EXPECT_FALSE(result->installed);
      }
    } else if (what == 2) {
      if (manager->degraded()) (void)manager->TryReopenWal();
    } else if (what == 3) {
      // Integrity abort (dangling ref): acknowledged as aborted, and
      // must never leave any durable trace.
      auto result = manager->RunText(
          StrCat("insert(fk_rel, {(", (*next_id)++, ", \"nope\", 1.0)});"));
      if (result.ok()) {
        EXPECT_FALSE(result->committed);
      }
    } else if (what == 4) {
      // Multi-relation write: one record with two deltas, so a torn
      // append can cut between them.
      const int id = (*next_id)++;
      auto result = manager->RunText(
          StrCat("insert(key_rel, {(\"f", id, "\", \"payload\")}); ",
                 "insert(fk_rel, {(", id, ", \"f", id, "\", 2.0)});"));
      if (result.ok() && result->committed && result->installed) {
        acked_states->push_back(db.Clone());
      }
    } else {
      const std::string text =
          (what % 4 == 0)
              ? StrCat("delete(key_rel, {(\"x", (*rng)() % 4,
                       "\", \"payload\")});")
              : StrCat("insert(fk_rel, {(", (*next_id)++, ", \"k",
                       (*rng)() % 8, "\", 2.0)});");
      auto result = manager->RunText(text);
      if (result.ok() && result->committed && result->installed) {
        acked_states->push_back(db.Clone());
      }
    }
  }
}

/// The two invariants over a state recovered after a crash, against the
/// run's `acked_states` (index 0 = the state the run began on, durable
/// before its first operation). `lying_fsync` relaxes invariant 1 (ack
/// durability) to invariant 2 only (exact acked prefix).
void ExpectAnAckedPrefix(const Database& recovered,
                         const std::vector<Database>& acked_states,
                         bool lying_fsync, uint64_t fired) {
  ExpectConstraintsHold(recovered);

  // Invariant 2: the recovered state is EXACTLY some acked state (the
  // states are cumulative, so matching one means an in-order prefix of
  // acknowledged commits — never a torn or reordered state).
  std::size_t matched = acked_states.size();
  for (std::size_t i = acked_states.size(); i-- > 0;) {
    if (recovered.SameState(acked_states[i], /*compare_time=*/false)) {
      matched = i;
      break;
    }
  }
  ASSERT_LT(matched, acked_states.size())
      << "recovered a state that matches no acknowledged prefix ("
      << acked_states.size() - 1 << " acked commits, " << fired
      << " faults fired)";

  // Invariant 1: with an honest (if failing) fsync, every acked commit
  // survives.
  if (!lying_fsync) {
    EXPECT_EQ(matched, acked_states.size() - 1)
        << "a commit acknowledged as durable did not survive the crash ("
        << fired << " faults fired)";
  }
}

/// One full campaign run: build a WAL-backed manager over `vfs`, arm
/// `schedule`, run a seeded random workload, crash, recover, and check
/// the two invariants. Then restart: clear the schedule, start a manager
/// on the recovered state over the same paths, run a few more seeded
/// transactions, crash and recover again, and check both invariants
/// against the second run. `lying_fsync` relaxes invariant 1 (ack
/// durability) to invariant 2 only (exact acked prefix) in the first
/// run.
void RunCampaign(const std::filesystem::path& dir, uint64_t seed,
                 const std::vector<FaultSpec>& schedule, bool lying_fsync,
                 const std::string& label) {
  SCOPED_TRACE(StrCat(label, " seed=", seed,
                      " schedule: ", DescribeSchedule(schedule)));
  FaultInjectingVfs vfs;
  // Every campaign is an independent universe: reusing a path would make
  // Create take the previous campaign's crashed WAL/checkpoint for this
  // campaign's restart.
  static std::atomic<uint64_t> campaign_counter{0};
  const uint64_t run_id = campaign_counter.fetch_add(1);
  TxnManagerOptions options;
  options.wal_path =
      (dir / StrCat("wal_", run_id, "_", seed, ".log")).string();
  options.checkpoint_path =
      (dir / StrCat("ckpt_", run_id, "_", seed, ".db")).string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  bench::AddUnreferencedKeys(&db, 4);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));

  // Index 0 is the seed state, acked by Create's initial checkpoint.
  std::vector<Database> acked_states;
  acked_states.push_back(db.Clone());

  for (const FaultSpec& spec : schedule) vfs.InjectFault(spec);

  std::mt19937_64 rng(seed);
  int next_id = 500'000 + static_cast<int>(seed % 1000) * 100;
  RunOps(manager.get(), db, 28, &rng, &next_id, &acked_states);
  const uint64_t fired = vfs.faults_fired();
  manager.reset();  // drop the WAL handle before the power cut

  vfs.SimulateCrash();
  auto recovered = TxnManager::Recover(options);
  if (!recovered.ok()) {
    // A lying fsync can durably install a torn or empty checkpoint (the
    // tmp file's bytes were dropped but reported safe, then the rename
    // landed). Recovery cannot restore what the hardware never wrote;
    // the best possible outcome is this loud refusal — never a silently
    // wrong state. Only lying schedules may take this exit.
    EXPECT_TRUE(lying_fsync)
        << "recovery after crash failed: " << recovered.status().ToString();
    return;
  }
  ExpectAnAckedPrefix(*recovered, acked_states, lying_fsync, fired);
  if (::testing::Test::HasFatalFailure()) return;

  // The restart, on repaired storage. Whenever the crash left records in
  // the log (a torn tail, a version gap), Create checkpoints the recovered
  // state and replaces the log, so this run builds on exactly what
  // recovery kept, and its acked commits must all survive the next crash.
  vfs.ClearFaults();
  Database restarted = *std::move(recovered);
  core::IntegritySubsystem restarted_ics(&restarted);
  TXMOD_ASSERT_OK(
      restarted_ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(
      restarted_ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(manager,
                             TxnManager::Create(&restarted_ics, options));
  std::vector<Database> restarted_acked;
  restarted_acked.push_back(restarted.Clone());
  RunOps(manager.get(), restarted, 8, &rng, &next_id, &restarted_acked);
  manager.reset();

  vfs.SimulateCrash();
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered_again,
                             TxnManager::Recover(options));
  SCOPED_TRACE("after the restart");
  ExpectAnAckedPrefix(recovered_again, restarted_acked,
                      /*lying_fsync=*/false, vfs.faults_fired() - fired);
}

FaultSpec Spec(VfsOp op, FaultKind kind, uint64_t nth, bool sticky = false,
               std::string path_substring = "") {
  FaultSpec spec;
  spec.op = op;
  spec.kind = kind;
  spec.nth = nth;
  spec.sticky = sticky;
  spec.path_substring = std::move(path_substring);
  return spec;
}

TEST_F(FaultCampaignTest, CleanRunBaselineRecoversEverything) {
  RunCampaign(dir_, 1, {}, /*lying_fsync=*/false, "no faults");
}

TEST_F(FaultCampaignTest, EveryProgrammedFaultPointHoldsTheInvariants) {
  struct Point {
    const char* label;
    FaultSpec spec;
    bool lying;
  };
  const std::vector<Point> points = {
      {"wal write EIO", Spec(VfsOp::kWrite, FaultKind::kEIO, 3, false, "wal"),
       false},
      {"wal write ENOSPC sticky",
       Spec(VfsOp::kWrite, FaultKind::kENOSPC, 4, true, "wal"), false},
      {"short write", Spec(VfsOp::kWrite, FaultKind::kShortWrite, 2), false},
      {"torn wal write",
       Spec(VfsOp::kWrite, FaultKind::kTornWrite, 3, false, "wal"), false},
      {"wal fsync EIO", Spec(VfsOp::kFsync, FaultKind::kEIO, 2, false, "wal"),
       false},
      {"fsyncgate", Spec(VfsOp::kFsync, FaultKind::kFsyncGate, 2, false,
                         "wal"),
       false},
      {"fsync lie", Spec(VfsOp::kFsync, FaultKind::kFsyncLie, 2, false,
                         "wal"),
       true},
      {"checkpoint rename EIO", Spec(VfsOp::kRename, FaultKind::kEIO, 1),
       false},
      {"directory fsync EIO", Spec(VfsOp::kDirSync, FaultKind::kEIO, 2),
       false},
      {"checkpoint write EIO",
       Spec(VfsOp::kWrite, FaultKind::kEIO, 1, false, "ckpt"), false},
      {"open EIO", Spec(VfsOp::kOpen, FaultKind::kEIO, 2), false},
      {"truncate EIO", Spec(VfsOp::kTruncate, FaultKind::kEIO, 1), false},
  };
  for (const Point& point : points) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      RunCampaign(dir_, seed, {point.spec}, point.lying, point.label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(FaultCampaignTest, RandomizedSchedulesHoldTheInvariants) {
  const int iterations = FaultIterations(12);
  std::mt19937_64 meta(20260808u);
  const VfsOp ops[] = {VfsOp::kOpen,     VfsOp::kWrite,  VfsOp::kFsync,
                       VfsOp::kTruncate, VfsOp::kRename, VfsOp::kRemove,
                       VfsOp::kDirSync};
  const FaultKind kinds[] = {FaultKind::kEIO, FaultKind::kENOSPC,
                             FaultKind::kShortWrite, FaultKind::kTornWrite,
                             FaultKind::kFsyncGate, FaultKind::kFsyncLie};
  for (int i = 0; i < iterations; ++i) {
    std::vector<FaultSpec> schedule;
    bool lying = false;
    const int count = 1 + static_cast<int>(meta() % 3);
    for (int s = 0; s < count; ++s) {
      FaultSpec spec;
      spec.op = ops[meta() % (sizeof(ops) / sizeof(ops[0]))];
      spec.kind = kinds[meta() % (sizeof(kinds) / sizeof(kinds[0]))];
      // Write faults may be any kind; other ops only fail or lie.
      if (spec.op != VfsOp::kWrite &&
          (spec.kind == FaultKind::kShortWrite ||
           spec.kind == FaultKind::kTornWrite)) {
        spec.kind = FaultKind::kEIO;
      }
      if (spec.op != VfsOp::kFsync && spec.op != VfsOp::kDirSync &&
          (spec.kind == FaultKind::kFsyncGate ||
           spec.kind == FaultKind::kFsyncLie)) {
        spec.kind = FaultKind::kEIO;
      }
      if (spec.op == VfsOp::kDirSync && spec.kind == FaultKind::kFsyncGate) {
        spec.kind = FaultKind::kEIO;
      }
      spec.nth = 1 + meta() % 6;
      spec.sticky = (meta() % 3) == 0;
      if (spec.kind == FaultKind::kFsyncLie) lying = true;
      schedule.push_back(spec);
    }
    RunCampaign(dir_, 1000 + static_cast<uint64_t>(i), schedule, lying,
                StrCat("random schedule ", i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(FaultCampaignTest, WalFsyncFailureDegradesAndTryReopenWalRecovers) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.wal_path = (dir_ / "wal.log").string();
  options.checkpoint_path = (dir_ / "ckpt.db").string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  bench::AddUnreferencedKeys(&db, 4);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));

  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(600001, \"k1\", 2.0)});").status());
  const Database before_fault = db.Clone();

  // Every WAL fsync fails from now on.
  vfs.InjectFault(Spec(VfsOp::kFsync, FaultKind::kEIO, 1, /*sticky=*/true,
                       "wal"));
  auto failing =
      manager->RunText("insert(fk_rel, {(600002, \"k2\", 2.0)});");
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), StatusCode::kUnavailable);

  // Degraded: flag set, cause named, the unacked commit not visible.
  std::string cause;
  EXPECT_TRUE(manager->degraded(&cause));
  EXPECT_NE(cause.find("fsync"), std::string::npos);
  EXPECT_TRUE(db.SameState(before_fault, /*compare_time=*/true))
      << "the unacknowledged commit must be unwound from memory";

  // Reads and read-only commits keep working.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult readonly,
      manager->RunText("tmp := select[amount > 0.0](fk_rel);"));
  EXPECT_TRUE(readonly.committed);
  EXPECT_FALSE(readonly.installed);

  // Writers fail FAST with Unavailable naming the cause — no WAL I/O.
  const uint64_t appends_before = manager->stats().wal_appends;
  auto rejected =
      manager->RunText("insert(fk_rel, {(600003, \"k3\", 2.0)});");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("degraded"), std::string::npos);
  EXPECT_NE(rejected.status().message().find("fsync"), std::string::npos);
  EXPECT_EQ(manager->stats().wal_appends, appends_before);
  EXPECT_GE(manager->stats().unavailable_rejections, 1u);

  // While the fault persists, TryReopenWal fails and degraded sticks.
  EXPECT_FALSE(manager->TryReopenWal().ok());
  EXPECT_TRUE(manager->degraded());

  // Schedule clears: TryReopenWal restores write service.
  vfs.ClearFaults();
  TXMOD_ASSERT_OK(manager->TryReopenWal());
  EXPECT_FALSE(manager->degraded());
  EXPECT_EQ(manager->stats().wal_reopens, 1u);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult resumed,
      manager->RunText("insert(fk_rel, {(600004, \"k4\", 2.0)});"));
  EXPECT_TRUE(resumed.committed);

  // And the post-recovery commit is durable: crash + recover finds it.
  manager.reset();
  vfs.SimulateCrash();
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/false));
  ExpectConstraintsHold(recovered);
}

// The WAL-failure unwind with the validation window. A commit is
// published only while an older session is live; unwinding a published
// commit must restore the older writers its tuples displaced, and
// unwinding an unpublished one must leave the window alone.
TEST_F(FaultCampaignTest, WalFailureUnwindRestoresTheOlderWriter) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.wal_path = (dir_ / "wal.log").string();
  options.checkpoint_path = (dir_ / "ckpt.db").string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));
  const std::string tuple = "{(600001, \"k1\", 2.0)}";

  auto held = manager->Begin();
  TXMOD_ASSERT_OK(
      held->ExecuteText(StrCat("insert(fk_rel, ", tuple, ");")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult v1, manager->RunText(StrCat("insert(fk_rel, ", tuple, ");")));
  ASSERT_TRUE(v1.installed);
  EXPECT_EQ(manager->stats().validation_records, 1u);

  // v2 rewrites the tuple, is published over v1, then fails its fsync.
  vfs.InjectFault(Spec(VfsOp::kFsync, FaultKind::kEIO, 1, /*sticky=*/true,
                       "wal"));
  auto v2 = manager->RunText(StrCat("delete(fk_rel, ", tuple, ");"));
  ASSERT_FALSE(v2.ok());
  EXPECT_EQ(v2.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager->committed_version(), v1.commit_version)
      << "the unacknowledged commit must be unwound";
  EXPECT_EQ(manager->stats().validation_records, 1u);
  EXPECT_EQ(manager->stats().validation_tuples, 1u);

  // The unwind restored v1 as the tuple's writer.
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult lost, held->Commit());
  EXPECT_TRUE(lost.conflict);
  EXPECT_EQ(lost.abort_reason,
            StrCat("write-write conflict on fk_rel with transaction ",
                   v1.commit_version));
  EXPECT_EQ(manager->stats().validation_records, 0u);
}

TEST_F(FaultCampaignTest, WalFailureUnwindOfAnUnpublishedCommitPopsNothing) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.wal_path = (dir_ / "wal.log").string();
  options.checkpoint_path = (dir_ / "ckpt.db").string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));
  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(600001, \"k1\", 2.0)});").status());
  const Database before_fault = db.Clone();
  EXPECT_EQ(manager->stats().validation_records, 0u);

  // No other session is live: the failing commit is never published.
  vfs.InjectFault(Spec(VfsOp::kFsync, FaultKind::kEIO, 1, /*sticky=*/true,
                       "wal"));
  auto failing =
      manager->RunText("delete(fk_rel, {(600001, \"k1\", 2.0)});");
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db.SameState(before_fault, /*compare_time=*/true))
      << "the unacknowledged commit must be unwound from memory";
  EXPECT_EQ(manager->stats().validation_records, 0u);
  EXPECT_EQ(manager->stats().validation_tuples, 0u);
}

/// A Vfs over a FaultInjectingVfs whose appended files hold their next
/// Sync, once armed, until Release: a test acts between a commit's
/// install and its fsync's outcome.
class HeldSyncVfs : public Vfs {
 public:
  explicit HeldSyncVfs(FaultInjectingVfs* inner) : inner_(inner) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  /// Returns once a Sync is held.
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      armed_ = false;
    }
    cv_.notify_all();
  }

  Result<std::unique_ptr<VfsFile>> OpenAppend(
      const std::string& path) override {
    TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                           inner_->OpenAppend(path));
    return std::unique_ptr<VfsFile>(new HeldFile(this, std::move(file)));
  }
  Result<std::unique_ptr<VfsFile>> OpenTrunc(
      const std::string& path) override {
    return inner_->OpenTrunc(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  Status SyncParentDirectory(const std::string& path) override {
    return inner_->SyncParentDirectory(path);
  }
  int64_t NowMicros() override { return inner_->NowMicros(); }
  void SleepMicros(int64_t micros) override { inner_->SleepMicros(micros); }

 private:
  class HeldFile : public VfsFile {
   public:
    HeldFile(HeldSyncVfs* vfs, std::unique_ptr<VfsFile> file)
        : vfs_(vfs), file_(std::move(file)) {}
    Result<std::size_t> Write(const char* data, std::size_t n) override {
      return file_->Write(data, n);
    }
    Status Sync() override {
      vfs_->Hold();
      return file_->Sync();
    }
    Result<uint64_t> Size() override { return file_->Size(); }
    Status Truncate(uint64_t size) override { return file_->Truncate(size); }

   private:
    HeldSyncVfs* vfs_;
    std::unique_ptr<VfsFile> file_;
  };

  void Hold() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !armed_; });
  }

  FaultInjectingVfs* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
};

// A commit that a live session began on is not unwound when its fsync
// fails: that session's own commit re-bases its level onto the master's
// state, which is sound only over a state its snapshot's history leads
// to. Like a commit with others stacked on it, its outcome is in doubt,
// and TryReopenWal's checkpoint makes it durable.
TEST_F(FaultCampaignTest, WalFailureKeepsACommitALiveSessionBeganOn) {
  FaultInjectingVfs faults;
  HeldSyncVfs vfs(&faults);
  TxnManagerOptions options;
  options.wal_path = (dir_ / "wal.log").string();
  options.checkpoint_path = (dir_ / "ckpt.db").string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));
  const std::string row = "{(600001, \"k1\", 2.0)}";

  faults.InjectFault(Spec(VfsOp::kFsync, FaultKind::kEIO, 1, /*sticky=*/true,
                          "wal"));
  vfs.Arm();
  std::future<Result<TxnResult>> failing = std::async(
      std::launch::async,
      [&] { return manager->RunText(StrCat("insert(fk_rel, ", row, ");")); });
  vfs.AwaitHeld();  // installed; its fsync has not failed yet
  auto reader = manager->Begin();
  TXMOD_ASSERT_OK(
      reader->ExecuteText(StrCat("delete(fk_rel, ", row, ");")).status());
  vfs.Release();
  const Result<TxnResult> failed = failing.get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager->committed_version(), reader->snapshot_version())
      << "a commit a live session began on was unwound";

  faults.ClearFaults();
  TXMOD_ASSERT_OK(manager->TryReopenWal());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult other,
      manager->RunText("insert(key_rel, {(\"fresh\", \"payload\")});"));
  ASSERT_TRUE(other.committed) << other.abort_reason;
  TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult deleted, reader->Commit());
  ASSERT_TRUE(deleted.committed) << deleted.abort_reason;

  const Relation& fk_rel = **db.Find("fk_rel");
  EXPECT_EQ(fk_rel.size(), fk_rel.SortedTuples().size());
  EXPECT_EQ(fk_rel.size(), 20u);
  ExpectConstraintsHold(db);
  manager.reset();
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered, TxnManager::Recover(options));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/true));
}

TEST_F(FaultCampaignTest, AppendFaultDegradesWithoutInstalling) {
  FaultInjectingVfs vfs;
  TxnManagerOptions options;
  options.wal_path = (dir_ / "wal.log").string();
  options.checkpoint_path = (dir_ / "ckpt.db").string();
  options.vfs = &vfs;

  Database db = bench::MakeKeyFkDatabase(8, 20);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));
  const Database before = db.Clone();
  const uint64_t version_before = manager->committed_version();

  vfs.InjectFault(Spec(VfsOp::kWrite, FaultKind::kENOSPC, 1, /*sticky=*/true,
                       "wal"));
  auto failing =
      manager->RunText("insert(fk_rel, {(700001, \"k1\", 2.0)});");
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failing.status().message().find("no space left"),
            std::string::npos)
      << "the error must name the original cause";
  EXPECT_TRUE(manager->degraded());
  EXPECT_TRUE(db.SameState(before, /*compare_time=*/true));
  EXPECT_EQ(manager->committed_version(), version_before);
  EXPECT_EQ(manager->stats().wal_failures, 1u);
}

}  // namespace
}  // namespace txmod::txn
