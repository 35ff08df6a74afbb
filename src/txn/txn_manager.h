#ifndef TXMOD_TXN_TXN_MANAGER_H_
#define TXMOD_TXN_TXN_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/vfs.h"
#include "src/core/subsystem.h"
#include "src/relational/wal.h"
#include "src/txn/executor.h"
#include "src/txn/txn_context.h"

namespace txmod::txn {

/// Tuning and durability knobs of the transaction manager.
struct TxnManagerOptions {
  /// Executions TxnManager::Run attempts before reporting a conflict
  /// abort to the caller (first-committer-wins losers re-execute from a
  /// fresh snapshot).
  int max_attempts = 8;

  /// Write-ahead log path; empty runs the manager volatile (no
  /// durability, no recovery). With a log, a commit reports success only
  /// after its record is fsync'd; concurrent committers batch into one
  /// fsync (the group-commit window is "while the current leader's fsync
  /// runs").
  std::string wal_path;

  /// Checkpoint path. With a WAL, Create() seeds an initial checkpoint
  /// here when none exists (the WAL holds only differentials, so
  /// recovery always needs a base state), and Checkpoint() refreshes it.
  std::string checkpoint_path;

  /// Cap on the committed-transaction write records retained for
  /// conflict validation. A record can only convict a session whose
  /// snapshot predates it, so the window holds the records newer than
  /// the oldest live snapshot — none while no session overlaps a commit
  /// — and at most this many. A session whose snapshot predates the
  /// window is conservatively treated as conflicted (it re-executes on a
  /// fresh snapshot). Must comfortably exceed the number of commits that
  /// can land during one session's lifetime.
  std::size_t validation_window = 1024;

  /// Storage-and-clock environment every WAL/checkpoint byte and every
  /// backoff clock read goes through. nullptr = the real POSIX
  /// environment; tests substitute a FaultInjectingVfs. Must outlive the
  /// manager.
  Vfs* vfs = nullptr;

  /// Retry backoff for TxnManager::Run conflict losers: the base sleep
  /// before the second attempt, doubling each further attempt (bounded
  /// exponential), with deterministic jitter in [base/2, base] drawn
  /// from retry_jitter_seed. 0 (default) disables backoff — the
  /// conflict-heavy oracles and benchmarks retry hot on purpose.
  int64_t retry_backoff_initial_micros = 0;
  /// Clamp for a single backoff sleep.
  int64_t retry_backoff_max_micros = 100000;
  /// Seed of the jitter sequence; two managers with equal seeds produce
  /// identical backoff schedules (per Run sequence number and attempt).
  uint64_t retry_jitter_seed = 0;

  /// Per-Run time budget in Vfs-clock microseconds; <= 0 means none.
  /// When an attempt's backoff would overrun the budget — or the budget
  /// is already spent before an attempt — Run stops with
  /// DeadlineExceeded instead of burning the remaining attempts.
  /// Conflicts are retried within the budget; terminal errors
  /// (integrity aborts, I/O faults, Unavailable) never retry.
  int64_t run_timeout_micros = 0;
};

/// A snapshot of the manager's life so far: monotonic counters plus
/// gauges of the current validation window and degraded-mode state. The
/// overlay counters are process-wide: read CowStats.
struct TxnManagerStats {
  uint64_t commits = 0;            // write-ful + read-only commits
  uint64_t readonly_commits = 0;   // commits that installed nothing
  uint64_t conflicts = 0;          // first-committer-wins losses
  uint64_t integrity_aborts = 0;   // alarm/abort outcomes (validated)
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints = 0;
  uint64_t retries = 0;            // Run re-executions after conflicts
  uint64_t backoff_sleeps = 0;     // backoff waits Run performed
  uint64_t deadlines_exceeded = 0;  // Runs stopped by their time budget
  uint64_t wal_failures = 0;       // storage faults that degraded the manager
  uint64_t wal_reopens = 0;        // successful TryReopenWal recoveries
  uint64_t unavailable_rejections = 0;  // writers refused while degraded

  /// Current state, not counters: the commit records the validation
  /// window holds, and the tuples they wrote.
  uint64_t validation_records = 0;
  uint64_t validation_tuples = 0;

  /// Current state, not counters: read-only degraded mode and why.
  bool degraded = false;
  std::string degraded_cause;
};

/// Per-call overrides of TxnManager::Run's retry/deadline policy — the
/// network layer applies one per client connection so two clients of one
/// manager can run under different deadlines and backoff schedules.
/// Negative (or, for max_attempts, non-positive) fields inherit the
/// manager-wide TxnManagerOptions value; timeout_micros = 0 explicitly
/// disables the deadline even when the manager has one.
struct RunPolicy {
  int max_attempts = 0;
  int64_t retry_backoff_initial_micros = -1;
  int64_t retry_backoff_max_micros = -1;
  int64_t run_timeout_micros = -1;
};

class TxnManager;

/// One optimistic transaction's lifecycle against a pinned snapshot:
///
///   auto session = manager.Begin();
///   session->Execute(txn1);       // runs against the snapshot D^t
///   session->Execute(txn2);       // same snapshot, accumulated diffs
///   auto result = session->Commit();  // first-committer-wins validation
///
/// Execute runs the integrity-modified transaction against the session's
/// private copy-on-write snapshot: reads see exactly the committed state
/// D^t of Begin() time plus this session's own writes; nothing the
/// session does is visible outside it before Commit. Execute results with
/// committed == true mean "ran cleanly, ready to commit" — only Commit's
/// result is authoritative. An integrity alarm aborts the whole session
/// (its snapshot state is rolled back); Commit then merely validates
/// that the abort decision wasn't based on stale reads.
///
/// Sessions are single-threaded; different sessions may run on different
/// threads concurrently. Not movable (the execution context points into
/// the session's snapshot).
class TxnSession {
 public:
  TxnSession(const TxnSession&) = delete;
  TxnSession& operator=(const TxnSession&) = delete;

  /// A session that was never committed or aborted releases its
  /// active-session slot on destruction (the rule-definition quiesce
  /// check counts live sessions).
  ~TxnSession();

  /// Runs one transaction (integrity-modified by the subsystem) against
  /// the session's snapshot. May be called repeatedly while the session
  /// is active; differentials accumulate.
  Result<TxnResult> Execute(const algebra::Transaction& txn);

  /// Parses, then Execute.
  Result<TxnResult> ExecuteText(const std::string& txn_text);

  /// First-committer-wins commit: validates this session's reads and
  /// write footprint against every transaction committed since the
  /// snapshot; on success installs the differentials into the committed
  /// database, appends them to the WAL, and (with a WAL) returns after
  /// the group-commit fsync. The result reports `conflict = true` when
  /// validation lost — the caller may retry from a fresh session
  /// (TxnManager::Run does). After Commit the session is finished.
  Result<TxnResult> Commit();

  /// Discards the session without committing.
  void Abort();

  /// The committed logical time this session's snapshot pinned.
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// The session's private view (the snapshot plus this session's own
  /// uncommitted writes). Test/diagnostic access. Invalid once the
  /// session is finished — a write-ful Commit hands the written
  /// relations' levels to the committed master by pointer.
  const Database& snapshot() const { return snapshot_db_; }

  bool finished() const { return state_ == State::kFinished; }

 private:
  friend class TxnManager;
  enum class State { kActive, kAborted, kFinished };

  TxnSession(TxnManager* manager, Database snapshot,
             uint64_t snapshot_version);

  /// Idempotent transition to kFinished; releases the manager's
  /// active-session slot exactly once, and the snapshot registration
  /// when stage B did not already.
  void Finish();

  TxnManager* manager_;
  Database snapshot_db_;
  uint64_t snapshot_version_;
  /// Begin registered snapshot_version_ with the manager; cleared when
  /// the registration is released (commit_mu_).
  bool snapshot_registered_ = true;
  TxnContext ctx_;
  State state_ = State::kActive;
  TxnResult accumulated_;  // stats/counters across Execute calls
};

/// The concurrent transaction manager: snapshot-isolated optimistic
/// sessions over one committed database, serialized through
/// first-committer-wins commit validation, made durable by a
/// differential write-ahead log with group commit.
///
/// Concurrency model (Section 2's single-step transition semantics,
/// lifted to many clients): the committed database advances strictly
/// one transaction at a time — commit order IS the serialization order.
/// Sessions execute fully in parallel against copy-on-write snapshots;
/// at commit, a session wins only if nothing it depended on changed
/// after its snapshot:
///
///   * tuple-granularity: its write footprint (every tuple it inserted
///     or deleted, *including* no-ops) overlaps no committed
///     differential since the snapshot. The footprint is read where it
///     lies, with no copy: the inserts and deletes of the session's
///     overlay levels (kept when an integrity abort rolled them back),
///     plus a side set of the attempts no level shows — no-ops and
///     writes that netted out (TxnContext::WriteFootprint);
///   * relation-granularity: no relation it read during evaluation
///     (rule-check probes included) was written since the snapshot.
///
/// Together these make every committed (and every reported abort)
/// outcome equal to a serial execution in commit order — the
/// linearizability oracle in tests/concurrent_oracle_test.cc pins
/// exactly that, and the integrity guarantee of the underlying
/// subsystem (commit states satisfy every constraint) carries over
/// unchanged.
///
/// Commit pipeline (three stages, then compaction; only stage B holds the
/// commit lock for more than a claim or a swap):
///
///   A. collect — with no lock held (session state is private to its
///      thread), the names of the relations the session's differential
///      is non-empty on. Nothing is copied: the session's overlay levels
///      are the write set;
///   B. validate → reserve → install → publish — under commit_mu_:
///      conflict validation against the window records newer than the
///      session's snapshot (from the smaller side of each: the
///      footprint's tuples or the record's), release of the session's
///      snapshot registration, version assignment, and the install: each
///      of the session's levels is taken out of its snapshot, re-based
///      onto the master's current state and installed by pointer, and its
///      insert and delete sets go into the commit record by reference.
///      Then — only while another session is live, the only kind a
///      record can convict — shared publication of the record into the
///      validation window, one push. Stage B installs and publishes and
///      does nothing more: O(#written relations) past validation, and no
///      compaction. What it displaces is freed after the lock;
///   C. log + ack — outside the lock: the record is encoded from the
///      installed levels' sets and appended to the WAL, a group-commit
///      fsync covers it, and the commit is acknowledged only once every
///      version up to its own is durable (the contiguous durability
///      horizon — appends and fsyncs that complete out of version order
///      never ack a commit above a hole).
///
/// Disjoint-footprint commits therefore validate, encode, and wait for
/// their fsync in parallel; the serialized region is the short stage B.
///
/// Compaction (after stage C, before Commit returns; no thread): the
/// committer compacts every relation it installed.
///   * Build: it claims the relation, takes the master's state and builds
///     Relation::Compact's replacement from that chain, whose levels never
///     change, with no lock held.
///   * Swap: under commit_mu_ (Database::SwapCompacted), only while the
///     chain still holds the state the build started from, re-applying
///     the levels installed above it meanwhile as one fresh level; a
///     replacement whose start is gone (a WAL-failure unwind) is
///     discarded. A snapshot begun before a swap keeps reading its own
///     chain. The committer then frees what the swap displaced, on its
///     own thread, after the lock: whoever displaces a state frees it.
///     The same holds for everything else that leaves the master or the
///     window under commit_mu_ (the level an unwind drops, evicted window
///     records), and a finished session frees its own snapshot, context
///     and record, outside every lock.
///   * One build per relation: a committer that finds the relation
///     claimed leaves the work to the claimant, whose swap keeps this
///     commit. Only while the chain is deeper than
///     Relation::kMaxOverlayDepth does it wait for that swap, so a long
///     collapse holds up the commits that would stack past the bound.
///
/// Durability: committed differentials — the same dplus/dminus sets the
/// paper's transaction modification computes — are appended to the WAL
/// before the commit is reported; concurrent committers share fsyncs
/// (group commit). Recover() replays the WAL over the latest checkpoint
/// and restores exactly the durable committed prefix.
///
/// Failure: any WAL fault (failed append, failed fsync) flips the
/// manager into read-only degraded mode instead of silently poisoning
/// every later commit — reads and read-only commits keep working,
/// write-ful commits fail fast with Unavailable naming the original
/// cause, and TryReopenWal() restores write service (checkpoint + fresh
/// log) once storage works again.
///
/// Rule definition: DefineConstraint/DefineRule/DropRule on this manager
/// enforce the quiesce contract — they serialize against Begin/commit
/// and fail with FailedPrecondition while any session is live, instead
/// of racing the recompile against executing sessions. A compaction
/// runs inside a live session's Commit, so the same check keeps every
/// build away from a definition, which may collapse the master in place
/// (re-declaring an index, Relation::IndexOn). (Calling the subsystem's
/// definition methods directly bypasses the guard and keeps the old
/// undefined-by-contract behavior; don't.)
///
/// The master database may be read directly between manager calls (its
/// states change only inside them); a state taken from it must not be
/// held across a commit, which may swap a compaction in. Every session
/// must have finished before its manager is destroyed.
class TxnManager {
 public:
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Creates a manager over `subsystem`'s database and rule set. With a
  /// WAL path, opens (creating) the log; with a checkpoint path and no
  /// existing checkpoint file, seeds one from the current database so
  /// recovery always has a base state.
  static Result<std::unique_ptr<TxnManager>> Create(
      core::IntegritySubsystem* subsystem, TxnManagerOptions options = {});

  /// Starts a session pinned to the current committed state.
  std::unique_ptr<TxnSession> Begin();

  /// Begin + Execute + Commit with automatic retry of conflict losers
  /// (fresh snapshot per attempt, up to options.max_attempts, with
  /// bounded-exponential jittered backoff between attempts when
  /// options.retry_backoff_initial_micros > 0, all under the optional
  /// options.run_timeout_micros budget). The returned result's
  /// `attempts` counts executions; `conflict` is true only when every
  /// attempt lost validation. Only conflicts retry: integrity aborts,
  /// I/O faults, and Unavailable (degraded mode) are terminal.
  Result<TxnResult> Run(const algebra::Transaction& txn);

  /// Run under per-call policy overrides (see RunPolicy): the same retry
  /// loop, but attempts/backoff/deadline come from `policy` where set.
  Result<TxnResult> Run(const algebra::Transaction& txn,
                        const RunPolicy& policy);

  /// Parses against the committed schema, then Run.
  Result<TxnResult> RunText(const std::string& txn_text);
  Result<TxnResult> RunText(const std::string& txn_text,
                            const RunPolicy& policy);

  /// Checkpoints the committed state (atomic temp+rename+fsync) and
  /// truncates the WAL. Commits are blocked for the duration. Requires
  /// options.checkpoint_path.
  Status Checkpoint();

  /// Guarded rule definition: forwards to the subsystem only when no
  /// session is live (Begin'd but not yet committed, aborted, or
  /// destroyed), serialized against Begin and commit application.
  /// Returns FailedPrecondition naming the live-session count otherwise —
  /// recompiling rule plans while sessions execute them is a data race by
  /// contract, so the manager detects and rejects instead.
  Status DefineConstraint(const std::string& name,
                          const std::string& cl_text);
  Status DefineRule(const std::string& name, const std::string& rl_text);
  Status DropRule(const std::string& name);

  /// Live sessions: Begin'd and not yet finished. Test/diagnostic.
  uint64_t active_sessions() const;

  /// Crash recovery: checkpoint + WAL replay, restoring the durable
  /// committed prefix. Static — call before constructing the subsystem
  /// and manager over the recovered database.
  static Result<Database> Recover(const TxnManagerOptions& options,
                                  WalReplayStats* stats = nullptr);

  /// True while the manager is in read-only degraded mode after a
  /// storage fault; `cause` (when non-null) receives the original
  /// failure. Reads and read-only commits keep working in this state;
  /// write-ful commits fail fast with Unavailable naming the cause.
  bool degraded(std::string* cause = nullptr) const;

  /// Attempts to restore write service after a storage fault: writes a
  /// fresh checkpoint of the current committed state, replaces the
  /// poisoned WAL file with a new empty log, and clears degraded mode.
  /// Fails (and the manager stays degraded) while storage still faults.
  /// Caution: a commit that was installed in memory but whose WAL fsync
  /// failed ("unknown outcome" for its caller) is part of the committed
  /// state and becomes durable with this checkpoint.
  Status TryReopenWal();

  /// The deterministic backoff schedule: the jittered sleep Run performs
  /// before `attempt` (>= 2) of its `run_seq`-th invocation. Exposed so
  /// tests assert the exact schedule instead of timing sleeps.
  static int64_t ComputeBackoffMicros(const TxnManagerOptions& options,
                                      uint64_t run_seq, int attempt);

  /// Test seam: called between Execute and Commit of every Run attempt
  /// (with the 1-based attempt number) — lets a test deterministically
  /// sneak a conflicting commit under a running attempt.
  void set_run_probe(std::function<void(int)> probe) {
    run_probe_ = std::move(probe);
  }

  /// Test seam: called on the committer, with the relation's name, once
  /// it claimed a compaction and before it builds — lets a test hold a
  /// build while other sessions commit, fail or define around it.
  void set_compaction_probe(std::function<void(const std::string&)> probe);

  uint64_t committed_version() const;
  /// Counter snapshot. Lock-free on the commit path's mutex: counters
  /// are atomics and the degraded flag has its own tiny lock, so a
  /// monitoring loop (the REPL's \stats) can never stall committers.
  TxnManagerStats stats() const;
  /// The live log handle (shared: TryReopenWal may swap the log under
  /// in-flight commits, which keep their own handle). Null when the
  /// manager runs volatile or while a reopen is in progress.
  std::shared_ptr<const WriteAheadLog> wal() const;
  core::IntegritySubsystem* subsystem() { return subsystem_; }
  Vfs* vfs() const { return vfs_; }

 private:
  friend class TxnSession;

  /// Monotonic counters, atomics so stats() and the Run retry path
  /// never touch commit_mu_.
  struct Counters {
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> readonly_commits{0};
    std::atomic<uint64_t> conflicts{0};
    std::atomic<uint64_t> integrity_aborts{0};
    std::atomic<uint64_t> wal_appends{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> backoff_sleeps{0};
    std::atomic<uint64_t> deadlines_exceeded{0};
    std::atomic<uint64_t> wal_failures{0};
    std::atomic<uint64_t> wal_reopens{0};
    std::atomic<uint64_t> unavailable_rejections{0};
    // Gauges of the validation window, stored under commit_mu_.
    std::atomic<uint64_t> validation_records{0};
    std::atomic<uint64_t> validation_tuples{0};
  };

  TxnManager(core::IntegritySubsystem* subsystem, TxnManagerOptions options)
      : subsystem_(subsystem), db_(subsystem->database()),
        options_(std::move(options)) {}

  /// The commit protocol (called by TxnSession::Commit) — the staged
  /// pipeline described in the class comment.
  Result<TxnResult> CommitSession(TxnSession* session);

  /// True when `session` conflicts with a commit after its snapshot:
  /// scans the window records newer than the snapshot in version order
  /// and names the earliest conflicting commit. Caller holds commit_mu_.
  /// Sets `reason`.
  bool HasConflictLocked(const TxnSession& session, std::string* reason);

  /// What leaves the master or the window under commit_mu_: evicted
  /// window records and the levels an unwind drops. The lock
  /// holder declares it before it takes the lock and frees it on its own
  /// thread once it released the lock: it may hold last references, and
  /// freeing a batch-sized record or level takes milliseconds.
  using Evicted = std::vector<std::shared_ptr<const void>>;

  /// Validation-window maintenance. All require commit_mu_. The evicting
  /// calls move what they drop into `evicted`.
  /// Appends `record` to the window, evicting the oldest records beyond
  /// options_.validation_window.
  void PublishCommitLocked(std::shared_ptr<const CommitRecord> record,
                           Evicted* evicted);
  /// Moves recent_.front() into `evicted`.
  void EvictOldestLocked(Evicted* evicted);
  /// The WAL-failure unwind of commit `version`: pops its record when it
  /// is the newest published one; a commit that was never published (or
  /// already dropped) leaves nothing to unwind.
  void UnpublishNewestLocked(uint64_t version);
  /// Releases `session`'s snapshot registration and evicts the records
  /// no live snapshot predates any more.
  void ReleaseSnapshotLocked(TxnSession* session, Evicted* evicted);
  void StoreWindowGaugesLocked();

  /// Contiguous durability horizon: a commit is acknowledged only when
  /// every version up to its own is durable, so appends that complete
  /// out of version order can never ack a commit that recovery would
  /// have to drop for a hole below it.
  void MarkDurable(uint64_t version);
  void MarkDurabilityFailed(uint64_t version);
  Status WaitDurableThrough(uint64_t version);
  /// Checkpoint/reopen: everything at or below `floor` is covered by
  /// the durable checkpoint; pending failures are obsolete.
  void ResetDurabilityHorizon(uint64_t floor);

  /// A commit's install per written relation (over the displaced state).
  using Installs = std::vector<std::pair<std::string, Database::Level>>;

  /// Stage-C failure path: degrades the manager, unwinds the commit (by
  /// re-installing the displaced states) when it is still the newest one,
  /// no live session began on it and no checkpoint covers it, and marks
  /// the version failed for later waiters.
  Status HandleLogFailure(uint64_t version, Installs* installs,
                          const Status& cause, TxnResult* result);

  /// Releases one active-session slot, and the session's snapshot
  /// registration when it still holds one (TxnSession::Finish).
  void ReleaseSession(TxnSession* session);

  /// The quiesce guard shared by the rule-definition entry points.
  /// Returns FailedPrecondition while sessions are live; otherwise runs
  /// `mutate` under commit_mu_.
  template <typename Fn>
  Status WithQuiescedSessions(const char* what, Fn&& mutate);

  /// Flips into read-only degraded mode (first cause wins). Caller
  /// holds commit_mu_ (transitions are serialized by it; the flag and
  /// cause themselves are readable without it).
  void EnterDegradedLocked(const std::string& cause);

  /// Compacts each of `written`, which this committer installed (see
  /// the class comment): claims it unless another committer has, builds
  /// with no lock held, swaps under commit_mu_, and frees what the swap
  /// displaced after the lock.
  void CompactInstalled(const std::vector<std::string>& written);

  core::IntegritySubsystem* subsystem_;
  Database* db_;
  TxnManagerOptions options_;
  Vfs* vfs_ = nullptr;  // options_.vfs resolved against Vfs::Default()
  std::function<void(int)> run_probe_;
  std::atomic<uint64_t> run_seq_{0};

  /// The live log. shared_ptr because stage C appends outside
  /// commit_mu_ while TryReopenWal may concurrently swap in a fresh
  /// log: each commit captures its handle under commit_mu_ in stage B
  /// and the old log stays alive (poisoned) until the last holder
  /// drops it. The pointer itself is guarded by wal_ptr_mu_ for
  /// lock-free-commit-path readers (stats, wal()).
  std::shared_ptr<WriteAheadLog> wal_;
  mutable std::mutex wal_ptr_mu_;

  /// Serializes Begin (snapshot creation) against commit application —
  /// the copy-on-write contract — and orders commits (= the
  /// serialization order). Execution never holds it; stage A and C of
  /// the commit pipeline don't either.
  mutable std::mutex commit_mu_;
  /// Snapshot version -> live sessions pinned to it: Begin registers, a
  /// session's stage B or Finish releases. A counted multiset rather
  /// than an append-only queue: many sessions share a version, and after
  /// RewindTime a later Begin can pin a lower one. Guarded by commit_mu_.
  std::map<uint64_t, uint32_t> live_snapshots_;
  /// The validation window: the published commit records (shared with
  /// stage C, which encodes them) newer than the oldest live snapshot, at
  /// most options_.validation_window, in ascending version order. A
  /// record holds its installed levels' insert and delete sets, not the
  /// levels: a level's base chain would outlive the compaction swaps that
  /// replace it. Validation scans the records newer than a session's
  /// snapshot. Guarded by commit_mu_.
  std::deque<std::shared_ptr<const CommitRecord>> recent_;
  uint64_t window_tuples_ = 0;  // tuples recent_'s records wrote
  /// Logical time covered by the latest durable checkpoint; a commit at
  /// or below it must never be unwound (it is durable regardless of its
  /// log record's fate). Guarded by commit_mu_.
  uint64_t checkpoint_time_ = 0;
  /// The relations a committer is compacting, claimed and released
  /// under commit_mu_; compacted_cv_ wakes the commits that wait past
  /// the depth bound for a claimant's swap.
  std::set<std::string> compacting_;
  std::condition_variable compacted_cv_;
  std::function<void(const std::string&)> compaction_probe_;  // commit_mu_

  /// Durability-horizon state (ack_mu_; lock order commit_mu_ -> ack_mu_).
  mutable std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  uint64_t durable_floor_ = 0;        // all versions <= this are durable
  std::set<uint64_t> durable_above_;  // durable versions > floor
  uint64_t failed_version_ = kNoFailedVersion;
  static constexpr uint64_t kNoFailedVersion = ~uint64_t{0};

  Counters stats_;
  std::atomic<uint64_t> active_sessions_{0};
  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_cause_mu_;
  std::string degraded_cause_;  // guarded by degraded_cause_mu_
};

}  // namespace txmod::txn

#endif  // TXMOD_TXN_TXN_MANAGER_H_
