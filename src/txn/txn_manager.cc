#include "src/txn/txn_manager.h"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "src/algebra/parser.h"
#include "src/common/str_util.h"
#include "src/relational/persist.h"

namespace txmod::txn {

// ---------------------------------------------------------------------------
// TxnSession.
// ---------------------------------------------------------------------------

TxnSession::TxnSession(TxnManager* manager, Database snapshot,
                       uint64_t snapshot_version)
    : manager_(manager),
      snapshot_db_(std::move(snapshot)),
      snapshot_version_(snapshot_version),
      ctx_(&snapshot_db_) {
  ctx_.set_plan_cache(&manager_->subsystem_->plan_cache());
  ctx_.EnableConflictTracking();  // commit validation consumes the sets
}

Result<TxnResult> TxnSession::Execute(const algebra::Transaction& txn) {
  if (state_ == State::kFinished) {
    return Status::FailedPrecondition("session already finished");
  }
  if (state_ == State::kAborted) {
    return Status::FailedPrecondition(
        "session aborted by an integrity violation; begin a new one");
  }
  TXMOD_ASSIGN_OR_RETURN(algebra::Transaction modified,
                         manager_->subsystem_->Modify(txn));
  Result<TxnResult> executed = ExecuteProgram(modified, &ctx_);
  if (!executed.ok()) {
    // Malformed program: the context rolled back; the session is dead.
    Finish();
    return executed.status();
  }
  accumulated_.stats.Add(executed->stats);
  accumulated_.statements_executed += executed->statements_executed;
  accumulated_.tuples_inserted += executed->tuples_inserted;
  accumulated_.tuples_deleted += executed->tuples_deleted;
  if (!executed->committed) {
    // Integrity alarm/abort: the whole session rolled back. Commit()
    // will validate that the decision wasn't based on stale reads.
    state_ = State::kAborted;
    accumulated_.committed = false;
    accumulated_.abort_reason = executed->abort_reason;
    accumulated_.aborting_statement = executed->aborting_statement;
  }
  return *std::move(executed);
}

Result<TxnResult> TxnSession::ExecuteText(const std::string& txn_text) {
  algebra::AlgebraParser parser(&snapshot_db_.schema());
  TXMOD_ASSIGN_OR_RETURN(algebra::Transaction txn,
                         parser.ParseTransaction(txn_text));
  return Execute(txn);
}

Result<TxnResult> TxnSession::Commit() {
  if (state_ == State::kFinished) {
    return Status::FailedPrecondition("session already finished");
  }
  Result<TxnResult> result = manager_->CommitSession(this);
  Finish();
  return result;
}

void TxnSession::Abort() { Finish(); }

TxnSession::~TxnSession() { Finish(); }

void TxnSession::Finish() {
  if (state_ == State::kFinished) return;
  state_ = State::kFinished;
  manager_->ReleaseSession(this);
}

// ---------------------------------------------------------------------------
// TxnManager.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TxnManager>> TxnManager::Create(
    core::IntegritySubsystem* subsystem, TxnManagerOptions options) {
  std::unique_ptr<TxnManager> manager(
      new TxnManager(subsystem, std::move(options)));
  const TxnManagerOptions& opts = manager->options_;
  manager->vfs_ = opts.vfs != nullptr ? opts.vfs : Vfs::Default();
  if (!opts.wal_path.empty()) {
    // Refuses a shard file before anything is written.
    TXMOD_ASSIGN_OR_RETURN(const bool empty_log, WalIsEmpty(opts.wal_path));
    if (!empty_log || (!opts.checkpoint_path.empty() &&
                       ::access(opts.checkpoint_path.c_str(), F_OK) != 0)) {
      // The WAL holds only differentials: the checkpoint is the base
      // state the next recovery replays onto, and this run's log starts
      // empty on top of it.
      TXMOD_RETURN_IF_ERROR(manager->CheckpointAndReplaceLog());
    } else {
      TXMOD_ASSIGN_OR_RETURN(WriteAheadLog wal,
                             WriteAheadLog::Open(opts.wal_path, manager->vfs_));
      manager->wal_ = std::make_shared<WriteAheadLog>(std::move(wal));
    }
  }
  // The state the manager starts from is durable (recovered checkpoint +
  // WAL, or the freshly seeded checkpoint): the durability horizon and
  // the no-unwind floor both start here.
  manager->checkpoint_time_ = manager->db_->logical_time();
  manager->durable_floor_ = manager->db_->logical_time();
  return manager;
}

std::unique_ptr<TxnSession> TxnManager::Begin() {
  Database snapshot;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    // Snapshot under the commit lock: copy-on-write sharing requires that
    // nobody mutates the master while its relation pointers are copied.
    snapshot = db_->Clone();
    version = db_->logical_time();
    active_sessions_.fetch_add(1);  // released by TxnSession::Finish
    ++live_snapshots_[version];     // released by stage B or Finish
  }
  return std::unique_ptr<TxnSession>(
      new TxnSession(this, std::move(snapshot), version));
}

void TxnManager::ReleaseSession(TxnSession* session) {
  if (session->snapshot_registered_) {
    // Ended without reaching stage B (Abort, destruction, a failed
    // Execute).
    Evicted evicted;  // freed after the lock is released
    std::lock_guard<std::mutex> lock(commit_mu_);
    ReleaseSnapshotLocked(session, &evicted);
  }
  active_sessions_.fetch_sub(1);
}

void TxnManager::ReleaseSnapshotLocked(TxnSession* session,
                                       Evicted* evicted) {
  session->snapshot_registered_ = false;
  const auto it = live_snapshots_.find(session->snapshot_version_);
  if (--it->second == 0) live_snapshots_.erase(it);
  // A record convicts only a session whose snapshot predates it, and
  // every later session begins at or above the committed version: the
  // records at or below the oldest live snapshot (all of them when none
  // is live) can convict nobody.
  const uint64_t oldest = live_snapshots_.empty()
                              ? ~uint64_t{0}
                              : live_snapshots_.begin()->first;
  const std::size_t before = recent_.size();
  while (!recent_.empty() && recent_.front()->version <= oldest) {
    EvictOldestLocked(evicted);
  }
  if (recent_.size() != before) StoreWindowGaugesLocked();
}

uint64_t TxnManager::active_sessions() const {
  return active_sessions_.load();
}

template <typename Fn>
Status TxnManager::WithQuiescedSessions(const char* what, Fn&& mutate) {
  // commit_mu_ blocks Begin for the duration, so no session can START
  // while the mutation runs; the atomic count rejects the ones already
  // live.
  std::lock_guard<std::mutex> lock(commit_mu_);
  const uint64_t live = active_sessions_.load();
  if (live > 0) {
    // Recompiling rule plans (and re-declaring indexes, which collapses
    // the master in place) while sessions execute against them is a race
    // by contract; reject with the count so the caller knows what to
    // drain. A compaction builds inside a live session's Commit, so none
    // is building either.
    return Status::FailedPrecondition(
        StrCat(what, " requires quiesced sessions: ", live,
               " live session(s); commit, abort, or destroy them first"));
  }
  return mutate();
}

Status TxnManager::DefineConstraint(const std::string& name,
                                    const std::string& cl_text) {
  return WithQuiescedSessions("DefineConstraint", [&] {
    return subsystem_->DefineConstraint(name, cl_text);
  });
}

Status TxnManager::DefineRule(const std::string& name,
                              const std::string& rl_text) {
  return WithQuiescedSessions(
      "DefineRule", [&] { return subsystem_->DefineRule(name, rl_text); });
}

Status TxnManager::DropRule(const std::string& name) {
  return WithQuiescedSessions(
      "DropRule", [&] { return subsystem_->DropRule(name); });
}

namespace {

/// a + b for b >= 0, clamped at INT64_MAX: a client's `policy` may set a
/// budget or a backoff anywhere up to INT64_MAX.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace

int64_t TxnManager::ComputeBackoffMicros(const RunPolicy& policy,
                                         uint64_t run_seq, int attempt) {
  if (policy.retry_backoff_initial_micros <= 0 || attempt < 2) return 0;
  const int64_t max = std::max(policy.retry_backoff_max_micros,
                               policy.retry_backoff_initial_micros);
  // Bounded exponential: initial doubled (attempt - 2) times, clamped at
  // max; a doubling past max / 2 lands on max, so it never overflows.
  int64_t base = policy.retry_backoff_initial_micros;
  for (int i = 2; i < attempt && base < max; ++i) {
    base = base > max / 2 ? max : base * 2;
  }
  // Deterministic jitter in [base/2, base]: splitmix64 over
  // (run_seq, attempt) — the same schedule for the same run, every time.
  uint64_t x = (run_seq * UINT64_C(0x9E3779B97F4A7C15)) ^
               static_cast<uint64_t>(attempt);
  x += UINT64_C(0x9E3779B97F4A7C15);
  x = (x ^ (x >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
  x = (x ^ (x >> 27)) * UINT64_C(0x94D049BB133111EB);
  x ^= x >> 31;
  const int64_t half = base / 2;
  return half + static_cast<int64_t>(
                    x % static_cast<uint64_t>(base - half + 1));
}

Result<TxnResult> TxnManager::Run(const algebra::Transaction& txn,
                                  const RunPolicy& policy) {
  const int max_attempts =
      policy.max_attempts > 0 ? policy.max_attempts : options_.max_attempts;
  const uint64_t run_seq = run_seq_.fetch_add(1);
  const int64_t deadline =
      policy.run_timeout_micros > 0
          ? SaturatingAdd(vfs_->NowMicros(), policy.run_timeout_micros)
          : 0;
  TxnResult last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Conflict loser about to retry: back off (bounded exponential,
      // jittered) without overrunning the caller's time budget. The
      // sleep and the clock both go through the Vfs, so tests drive
      // this deterministically with a virtual clock.
      const int64_t backoff = ComputeBackoffMicros(policy, run_seq, attempt);
      if (deadline > 0 &&
          SaturatingAdd(vfs_->NowMicros(), backoff) > deadline) {
        stats_.deadlines_exceeded.fetch_add(1);
        return Status::DeadlineExceeded(
            StrCat("transaction gave up after ", attempt - 1,
                   " attempt(s); last conflict: ", last.abort_reason));
      }
      if (backoff > 0) {
        vfs_->SleepMicros(backoff);
        stats_.backoff_sleeps.fetch_add(1);
      }
      stats_.retries.fetch_add(1);
    }
    std::unique_ptr<TxnSession> session = Begin();
    TXMOD_ASSIGN_OR_RETURN(TxnResult executed, session->Execute(txn));
    (void)executed;  // outcome folded into Commit's validated result
    if (run_probe_) run_probe_(attempt);
    TXMOD_ASSIGN_OR_RETURN(TxnResult result, session->Commit());
    result.attempts = static_cast<uint32_t>(attempt);
    if (!result.conflict) return result;
    last = std::move(result);  // first-committer-wins loser: retry
  }
  return last;
}

Result<TxnResult> TxnManager::RunText(const std::string& txn_text,
                                      const RunPolicy& policy) {
  algebra::AlgebraParser parser(&db_->schema());
  TXMOD_ASSIGN_OR_RETURN(algebra::Transaction txn,
                         parser.ParseTransaction(txn_text));
  return Run(txn, policy);
}

bool TxnManager::HasConflictLocked(const TxnSession& session,
                                   std::string* reason) {
  const uint64_t snap = session.snapshot_version_;
  if (db_->logical_time() == snap) return false;  // nothing committed since
  if (recent_.empty() || recent_.front()->version > snap + 1) {
    // The records needed to validate this snapshot were evicted from the
    // rolling window; fail conservatively (the retry re-executes on a
    // fresh snapshot).
    *reason = "snapshot predates the validation window";
    return true;
  }
  // Only the commits after the snapshot can differ from what the session
  // saw. Walk them in version order; a record's deltas are in relation
  // name order (stage A walks TouchedRelations), so the first hit is the
  // smallest conflicting version, then the smallest relation, with
  // read-write before write-write at a tie. The footprint is read where
  // it lies: the session's levels (live, or dropped by an integrity
  // abort) and its side set of attempts they do not show. Each delta is
  // probed from its smaller side (Footprint::Overlaps), so a small
  // session pays per commit, not per tuple written since its snapshot.
  const auto first = std::upper_bound(
      recent_.begin(), recent_.end(), snap,
      [](uint64_t v, const std::shared_ptr<const CommitRecord>& record) {
        return v < record->version;
      });
  const std::set<std::string>& reads = session.ctx_.BaseReads();
  for (auto it = first; it != recent_.end(); ++it) {
    for (const CommitDelta& delta : (*it)->deltas) {
      const bool read = reads.count(delta.relation) > 0;
      if (!read && !session.ctx_.WriteFootprint(delta.relation)
                         .Overlaps(*delta.plus, *delta.minus)) {
        continue;
      }
      *reason = StrCat(read ? "read-write" : "write-write", " conflict on ",
                       delta.relation, " with transaction ", (*it)->version);
      return true;
    }
  }
  return false;
}

namespace {

std::size_t TupleCount(const CommitRecord& record) {
  std::size_t n = 0;
  for (const CommitDelta& delta : record.deltas) {
    n += delta.plus->size() + delta.minus->size();
  }
  return n;
}

}  // namespace

void TxnManager::PublishCommitLocked(
    std::shared_ptr<const CommitRecord> record, Evicted* evicted) {
  window_tuples_ += TupleCount(*record);
  recent_.push_back(std::move(record));
  while (recent_.size() > kValidationWindow) {
    EvictOldestLocked(evicted);
  }
  StoreWindowGaugesLocked();
}

void TxnManager::EvictOldestLocked(Evicted* evicted) {
  window_tuples_ -= TupleCount(*recent_.front());
  evicted->push_back(std::move(recent_.front()));
  recent_.pop_front();
}

void TxnManager::UnpublishNewestLocked(uint64_t version) {
  if (recent_.empty() || recent_.back()->version != version) return;
  window_tuples_ -= TupleCount(*recent_.back());
  recent_.pop_back();
  StoreWindowGaugesLocked();
}

void TxnManager::StoreWindowGaugesLocked() {
  stats_.validation_records.store(recent_.size(), std::memory_order_relaxed);
  stats_.validation_tuples.store(window_tuples_, std::memory_order_relaxed);
}

void TxnManager::EnterDegradedLocked(const std::string& cause) {
  if (degraded_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(degraded_cause_mu_);
    degraded_cause_ = cause;
  }
  degraded_.store(true, std::memory_order_release);
  stats_.wal_failures.fetch_add(1);
}

// ---------------------------------------------------------------------------
// The contiguous durability horizon (commit acknowledgement order).
// ---------------------------------------------------------------------------

void TxnManager::MarkDurable(uint64_t version) {
  std::lock_guard<std::mutex> lock(ack_mu_);
  if (version > durable_floor_) {
    durable_above_.insert(version);
    while (!durable_above_.empty() &&
           *durable_above_.begin() == durable_floor_ + 1) {
      ++durable_floor_;
      durable_above_.erase(durable_above_.begin());
    }
  }
  ack_cv_.notify_all();
}

void TxnManager::MarkDurabilityFailed(uint64_t version) {
  std::lock_guard<std::mutex> lock(ack_mu_);
  failed_version_ = std::min(failed_version_, version);
  ack_cv_.notify_all();
}

Status TxnManager::WaitDurableThrough(uint64_t version) {
  std::unique_lock<std::mutex> lock(ack_mu_);
  ack_cv_.wait(lock, [&] {
    return durable_floor_ >= version || failed_version_ <= version;
  });
  if (durable_floor_ >= version) return Status::OK();
  return Status::Unavailable(
      StrCat("commit ", version, " cannot be acknowledged: commit ",
             failed_version_, " was not durable, so the log has a hole "
             "below it; recovery decides the outcome"));
}

void TxnManager::ResetDurabilityHorizon(uint64_t floor) {
  std::lock_guard<std::mutex> lock(ack_mu_);
  durable_floor_ = std::max(durable_floor_, floor);
  durable_above_.clear();
  failed_version_ = kNoFailedVersion;
  ack_cv_.notify_all();
}

Result<TxnResult> TxnManager::CommitSession(TxnSession* session) {
  TxnResult result = session->accumulated_;
  const bool aborted = session->state_ == TxnSession::State::kAborted;

  // -- Stage A: collect (no lock) --------------------------------------
  // The write set is the session's overlay levels, private to its thread:
  // only the names of the relations whose net differential is non-empty
  // are collected here. Relations whose changes netted out publish
  // nothing — serially equivalent and keeps the WAL dense.
  const std::vector<std::string> written =
      aborted ? std::vector<std::string>{} : session->ctx_.TouchedRelations();

  // -- Stage B: validate, reserve, install, publish (commit_mu_) -------
  uint64_t version = 0;
  Evicted evicted;  // what stage B displaces; freed off the lock
  // The session's levels, taken out of its snapshot; a level not
  // installed (a broken invariant) is freed off the lock too.
  std::vector<std::shared_ptr<Relation>> levels;
  Installs installs;  // what the durability-failure unwind re-installs
  const auto record = std::make_shared<CommitRecord>();
  std::shared_ptr<WriteAheadLog> wal;  // handle pinned under the lock; a
                                       // concurrent TryReopenWal swap
                                       // never strands this commit's
                                       // stage C
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    std::string reason;
    const bool conflict = HasConflictLocked(*session, &reason);
    // Validated: whatever the outcome, the window need not keep records
    // for this snapshot any more.
    ReleaseSnapshotLocked(session, &evicted);
    if (conflict) {
      stats_.conflicts.fetch_add(1);
      result.committed = false;
      result.conflict = true;
      result.abort_reason = std::move(reason);
      return result;
    }
    if (aborted) {
      // The integrity-abort decision is consistent with the current
      // committed state (validation passed); report it as final.
      stats_.integrity_aborts.fetch_add(1);
      result.committed = false;
      return result;
    }

    if (written.empty()) {
      // Read-only (or fully netted-out) transaction: nothing to install,
      // no version consumed, no log record — but the reads were
      // validated above, so the outcome is serially consistent.
      stats_.commits.fetch_add(1);
      stats_.readonly_commits.fetch_add(1);
      result.committed = true;
      result.commit_version = db_->logical_time();
      return result;
    }

    // Write-ful commit: degraded mode rejects it up front (read-only
    // commits took the return above on purpose — they need no log).
    if (degraded_.load(std::memory_order_acquire)) {
      stats_.unavailable_rejections.fetch_add(1);
      std::string cause;
      {
        std::lock_guard<std::mutex> cause_lock(degraded_cause_mu_);
        cause = degraded_cause_;
      }
      return Status::Unavailable(
          StrCat("manager is in read-only degraded mode (", cause,
                 "); TryReopenWal() to restore writes"));
    }

    // The session's level on each written relation is installed as it
    // is, by pointer: TakeOwnedRelation hands over only a state the
    // session layered itself and never shared out, so nothing else can
    // reach it.
    Database& snapshot = session->snapshot_db_;
    for (const std::string& name : written) {
      levels.push_back(snapshot.TakeOwnedRelation(name));
      if (levels.back() == nullptr) {
        return Status::Internal(
            StrCat("commit of a session whose level on ", name,
                   " is not its own"));
      }
    }

    version = db_->logical_time() + 1;
    record->version = version;
    for (std::size_t i = 0; i < written.size(); ++i) {
      const std::string& name = written[i];
      std::shared_ptr<Relation>& level = levels[i];
      // Re-based onto the master's current state, which stays intact for
      // the unwind. Sound whatever committed or was compacted since the
      // snapshot, because validation has just passed: no commit since
      // the snapshot wrote a tuple of the session's footprint (and none
      // the snapshot holds was unwound: HandleLogFailure keeps a commit
      // a live session began on), and the footprint holds every tuple of
      // the level's inserts and deletes.
      // So the level's invariants hold over the master's state exactly as
      // over the snapshot's: minus ⊆ visible(base), plus is disjoint from
      // visible(base). The declared indexes match, because rule
      // definition needs quiesced sessions. The re-base frees nothing
      // under the lock: the session's context still holds the snapshot's
      // state.
      level->Rebase(db_->Share(name));
      record->deltas.push_back(
          CommitDelta{name, level->shared_inserts(), level->shared_deletes()});
      installs.emplace_back(name, db_->AdoptRelation(name, std::move(level)));
    }
    db_->AdvanceTime();

    // Only a session whose snapshot predates this commit can conflict
    // with it, and only the live ones registered before it do.
    if (!live_snapshots_.empty()) PublishCommitLocked(record, &evicted);
    stats_.commits.fetch_add(1);
    result.committed = true;
    result.commit_version = version;
    result.installed = true;

    wal = wal_;
  }

  // -- Stage C: log and acknowledge (no lock) --------------------------
  // The commit is visible to new snapshots (ordering is decided), but it
  // is acknowledged only once it — and every commit below it — is
  // durable. Logging outside the lock lets commit N+1 validate and
  // install while commit N's record is still being encoded and fsynced;
  // group commit batches concurrent committers into one fsync.
  if (wal != nullptr) {
    const Result<uint64_t> lsn = wal->Append(*record);
    if (!lsn.ok()) {
      return HandleLogFailure(version, &installs, lsn.status(), &result);
    }
    stats_.wal_appends.fetch_add(1);
    const Status synced = wal->Sync(*lsn);
    if (!synced.ok()) {
      return HandleLogFailure(version, &installs, synced, &result);
    }
  }
  MarkDurable(version);
  // Even with our own record durable, acknowledging is only safe once
  // every earlier version is durable too — otherwise a crash could
  // recover a prefix that is missing a commit below an acked one.
  TXMOD_RETURN_IF_ERROR(WaitDurableThrough(version));
  CompactInstalled(written);
  return result;
}

void TxnManager::CompactInstalled(const std::vector<std::string>& written) {
  for (const std::string& name : written) {
    std::shared_ptr<const Relation> start;  // the chain the build reads
    std::function<void(const std::string&)> probe;
    {
      std::unique_lock<std::mutex> lock(commit_mu_);
      // A claimant's swap keeps this commit: it re-applies what landed
      // above its start. Past the depth bound, wait for that swap.
      compacted_cv_.wait(lock, [&] {
        return compacting_.count(name) == 0 ||
               (*db_->Find(name))->overlay_depth() <=
                   Relation::kMaxOverlayDepth;
      });
      if (!compacting_.insert(name).second) continue;
      start = db_->Share(name);
      probe = compaction_probe_;
    }
    if (probe) probe(name);
    const std::shared_ptr<const Relation> replacement =
        Relation::Compact(start);
    // What the swap displaces. It, the start and a discarded replacement
    // (the start is gone: a WAL-failure unwind dropped it) may be the
    // last references; they are freed here, after the lock.
    std::shared_ptr<const Relation> displaced;
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      compacting_.erase(name);
      if (replacement != nullptr) {
        displaced = db_->SwapCompacted(name, start.get(), replacement);
      }
    }
    compacted_cv_.notify_all();
  }
}

Status TxnManager::HandleLogFailure(uint64_t version, Installs* installs,
                                    const Status& cause, TxnResult* result) {
  Evicted displaced;  // the dropped levels; freed after the lock
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    EnterDegradedLocked(cause.message());
    // The record may not be durable: never acknowledge. The commit is
    // already installed in memory, though — un-install it when it is
    // still the newest one (re-install the master states it displaced,
    // O(1) each), so an unacked commit does not linger visible. With
    // concurrent commits stacked on top the unwind is impossible; that
    // commit's outcome is "unknown" (classic in-doubt), and recovery
    // decides. So is a commit a live session began on (its snapshot is
    // this version): that session's commit re-bases its levels onto the
    // master's state, which is sound only over a state its snapshot's
    // history leads to. A commit at or below the durable checkpoint is
    // never unwound: the checkpoint already made it durable, so the
    // failed log record is irrelevant to its fate.
    if (db_->logical_time() == version && version > checkpoint_time_ &&
        live_snapshots_.count(version) == 0) {
      // A compaction built from the dropped level is discarded at its
      // swap; one built from below it re-applies the re-installed chain.
      for (auto& [name, level] : *installs) {
        displaced.push_back(db_->DropLevel(name, std::move(level)));
      }
      UnpublishNewestLocked(version);
      db_->RewindTime();
      stats_.commits.fetch_sub(1);
      result->installed = false;
    }
  }
  // Wake committers stacked above this version: their records cannot be
  // acknowledged over a hole, so they fail over to the same degraded
  // outcome instead of waiting forever.
  MarkDurabilityFailed(version);
  return Status::Unavailable(
      StrCat("commit ", version, " not durable: ", cause.message(),
             "; manager is now in read-only degraded mode"));
}

void TxnManager::set_compaction_probe(
    std::function<void(const std::string&)> probe) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  compaction_probe_ = std::move(probe);
}

Status TxnManager::Checkpoint() {
  if (options_.checkpoint_path.empty()) {
    return Status::FailedPrecondition("no checkpoint_path configured");
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (degraded_.load(std::memory_order_acquire)) {
    std::string cause;
    {
      std::lock_guard<std::mutex> cause_lock(degraded_cause_mu_);
      cause = degraded_cause_;
    }
    return Status::Unavailable(
        StrCat("manager is in read-only degraded mode (", cause,
               "); TryReopenWal() performs the recovery checkpoint"));
  }
  TXMOD_RETURN_IF_ERROR(
      CheckpointDatabaseToFile(*db_, options_.checkpoint_path, vfs_));
  if (wal_ != nullptr) {
    // Safe ordering: the checkpoint is durably renamed into place first,
    // so a crash between the two steps merely leaves WAL records the
    // replay will skip (version <= checkpoint time).
    const Status truncated = wal_->Truncate();
    if (!truncated.ok()) {
      // A half-truncated log (e.g. header write failed) is poisoned;
      // degrade so writers fail fast rather than append to it.
      std::string cause;
      if (wal_->broken(&cause)) EnterDegradedLocked(cause);
      return truncated;
    }
  }
  // Every version the checkpoint covers is durable regardless of the
  // log's fate; move both the no-unwind floor and the ack horizon.
  checkpoint_time_ = db_->logical_time();
  ResetDurabilityHorizon(db_->logical_time());
  stats_.checkpoints.fetch_add(1);
  return Status::OK();
}

bool TxnManager::degraded(std::string* cause) const {
  const bool is = degraded_.load(std::memory_order_acquire);
  if (cause != nullptr) {
    std::lock_guard<std::mutex> lock(degraded_cause_mu_);
    *cause = degraded_cause_;
  }
  return is;
}

Status TxnManager::TryReopenWal() {
  if (options_.wal_path.empty()) {
    return Status::FailedPrecondition("no WAL configured");
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!degraded_.load(std::memory_order_acquire) && wal_ != nullptr &&
      !wal_->broken()) {
    return Status::OK();  // nothing to recover
  }
  if (!degraded_.load(std::memory_order_acquire)) {
    // Broken log but not yet degraded (no writer hit it yet): degrade
    // now, so a failure in any step below leaves writers fenced off —
    // never silently committing without a log.
    std::string cause = "WAL unavailable";
    if (wal_ != nullptr) wal_->broken(&cause);
    EnterDegradedLocked(cause);
  }
  // The committed in-memory state is the authority now; checkpointing it
  // makes the poisoned log (whose durable suffix is unknowable) obsolete.
  // While any step fails the manager stays degraded (wal_ may be null;
  // the degraded_ guard keeps every writer away from it). In-flight
  // stage-C appenders that pinned the old handle keep a live (poisoned)
  // object; their commits are covered by the checkpoint, so the
  // no-unwind floor makes their failure harmless.
  TXMOD_RETURN_IF_ERROR(CheckpointAndReplaceLog());
  {
    std::lock_guard<std::mutex> cause_lock(degraded_cause_mu_);
    degraded_cause_.clear();
  }
  degraded_.store(false, std::memory_order_release);
  stats_.wal_reopens.fetch_add(1);
  return Status::OK();
}

Status TxnManager::CheckpointAndReplaceLog() {
  if (options_.checkpoint_path.empty()) {
    return Status::FailedPrecondition(StrCat(
        "the log at wal_path ", options_.wal_path,
        " is replaced only once a checkpoint supersedes it, and "
        "checkpoint_path is empty"));
  }
  TXMOD_RETURN_IF_ERROR(
      CheckpointDatabaseToFile(*db_, options_.checkpoint_path, vfs_));
  // Only now, with the checkpoint durable, may the old log go.
  {
    std::lock_guard<std::mutex> wal_lock(wal_ptr_mu_);
    wal_.reset();
  }
  TXMOD_RETURN_IF_ERROR(vfs_->Remove(options_.wal_path));
  TXMOD_ASSIGN_OR_RETURN(WriteAheadLog fresh,
                         WriteAheadLog::Open(options_.wal_path, vfs_));
  {
    std::lock_guard<std::mutex> wal_lock(wal_ptr_mu_);
    wal_ = std::make_shared<WriteAheadLog>(std::move(fresh));
  }
  checkpoint_time_ = db_->logical_time();
  ResetDurabilityHorizon(db_->logical_time());
  return Status::OK();
}

Result<Database> TxnManager::Recover(const TxnManagerOptions& options,
                                     WalReplayStats* stats) {
  if (options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "recovery needs a checkpoint_path (the WAL holds only "
        "differentials)");
  }
  return RecoverDatabase(options.checkpoint_path, options.wal_path, stats);
}

uint64_t TxnManager::committed_version() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return db_->logical_time();
}

std::shared_ptr<const WriteAheadLog> TxnManager::wal() const {
  std::lock_guard<std::mutex> lock(wal_ptr_mu_);
  return wal_;
}

TxnManagerStats TxnManager::stats() const {
  // Deliberately lock-free with respect to commit_mu_: a monitoring
  // probe (e.g. the REPL's \stats) must never stall the commit pipeline.
  TxnManagerStats out;
  out.commits = stats_.commits.load();
  out.readonly_commits = stats_.readonly_commits.load();
  out.conflicts = stats_.conflicts.load();
  out.integrity_aborts = stats_.integrity_aborts.load();
  out.wal_appends = stats_.wal_appends.load();
  out.checkpoints = stats_.checkpoints.load();
  out.retries = stats_.retries.load();
  out.backoff_sleeps = stats_.backoff_sleeps.load();
  out.deadlines_exceeded = stats_.deadlines_exceeded.load();
  out.wal_failures = stats_.wal_failures.load();
  out.wal_reopens = stats_.wal_reopens.load();
  out.unavailable_rejections = stats_.unavailable_rejections.load();
  out.validation_records = stats_.validation_records.load();
  out.validation_tuples = stats_.validation_tuples.load();
  const std::shared_ptr<const WriteAheadLog> log = wal();
  if (log != nullptr) out.wal_fsyncs = log->fsync_count();
  out.degraded = degraded_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(degraded_cause_mu_);
    out.degraded_cause = degraded_cause_;
  }
  return out;
}

}  // namespace txmod::txn
