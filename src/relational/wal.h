#ifndef TXMOD_RELATIONAL_WAL_H_
#define TXMOD_RELATIONAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/vfs.h"
#include "src/relational/database.h"

namespace txmod {

/// One committed transaction's net changes to one relation, as logged.
struct WalDelta {
  std::string relation;
  std::vector<Tuple> plus;   // tuples the transaction inserted (net)
  std::vector<Tuple> minus;  // tuples the transaction deleted (net)
};

/// One write-ahead log record: the differential of a single committed
/// transaction, stamped with the logical time it installed. Records are
/// appended in commit (version) order; replaying them over a checkpoint
/// of time t applies exactly the committed suffix t+1, t+2, ....
///
/// Sharded logs fan one commit out into up to `parts` records — one per
/// shard its deltas route to — every part carrying the same version and
/// the same declared part count (the shared commit-LSN header). Recovery
/// reassembles a version only when all of its declared parts are
/// present; a partial fan-out (crash between shard appends) is dropped
/// together with everything after it. parts == 1 encodes exactly as the
/// single-stream v1 format.
struct WalRecord {
  uint64_t version = 0;
  uint32_t parts = 1;
  std::vector<WalDelta> deltas;
};

/// A differential write-ahead log with group commit.
///
/// PRISMA/DB persisted full-state checkpoints; the WAL closes the gap
/// between checkpoints: the transaction modification machinery already
/// computes per-relation dplus/dminus differentials, and those are
/// precisely what must be durable for a committed transaction — so the
/// log appends one checksummed record of net differentials per commit.
///
/// On-disk format (line-oriented, values via persist.h's codec):
///
///   txmod-wal 1                      (or: txmod-wal 2 shard <k>/<n>)
///   txn <version>                    (or: txn <version> parts <m>)
///   rel <name>
///   + <v1> <v2> ...                  (one line per inserted tuple)
///   - <v1> <v2> ...                  (one line per deleted tuple)
///   commit <version> <fnv1a-64 hex of the record body>
///
/// Format versions: "txmod-wal 1" is the single-stream format; a
/// "txmod-wal 2 shard <k>/<n>" header marks one stream of an n-way
/// sharded log (see ShardedWal below). Record bodies are identical in
/// both; the only v2 record addition is the optional "parts <m>" suffix
/// on the txn line, written when a commit fans out across m > 1 shards.
/// A v1 reader would reject such a line's checksum context, so the
/// format version is bumped; v2 readers accept v1 files unchanged.
///
/// A record is valid only when its `commit` line is present, names the
/// same version, its checksum matches the body ("txn" line through the
/// last delta line, inclusive), and every tuple line in it decodes. A
/// stream is read up to its first invalid record — a torn append, a
/// truncated tail, or bit rot — so recovery restores exactly the durable
/// committed prefix (see RecoverDatabase for the replay order).
///
/// Durability and group commit: Append buffers nothing — the record hits
/// the OS with one write() — but it is only *durable* after Sync(lsn)
/// returns. Sync batches concurrent committers: one caller becomes the
/// fsync leader while the others wait; a single fsync covers every
/// record appended before it, so N concurrent commits cost far fewer
/// than N fsyncs (fsync_count() / appended_lsn() measures the batching).
///
/// Thread safety: Append and Sync are safe to call concurrently from any
/// number of threads. Callers that need records in version order (the
/// transaction manager) serialize Append themselves, under the same lock
/// that orders commits.
class WriteAheadLog {
 public:
  /// Opens `path` for appending, creating it (with the v1 header line)
  /// when absent or empty. Refuses files that do not start with the
  /// header. All writes/fsyncs go through `vfs` (nullptr = the real
  /// POSIX environment); reads stay on the plain filesystem.
  static Result<WriteAheadLog> Open(const std::string& path,
                                    Vfs* vfs = nullptr);

  /// Opens one stream of an `shard_count`-way sharded log (v2 shard
  /// header "txmod-wal 2 shard <shard>/<shard_count>"). Refuses files
  /// whose header declares a different shard identity — the caller
  /// (ShardedWal::Open) adopts the on-disk count before calling this.
  static Result<WriteAheadLog> OpenShard(const std::string& path,
                                         uint32_t shard,
                                         uint32_t shard_count,
                                         Vfs* vfs = nullptr);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&&) = delete;
  ~WriteAheadLog();

  /// Appends one record (a single write() of the serialized form) and
  /// returns its log sequence number.
  Result<uint64_t> Append(const WalRecord& rec);

  /// Blocks until every record up to `lsn` is durable (fsync'd),
  /// batching with concurrent callers (group commit).
  Status Sync(uint64_t lsn);

  /// Empties the log (checkpoint + truncate): everything logged so far
  /// is covered by the new checkpoint. Re-writes the header. The caller
  /// must ensure no concurrent Append.
  Status Truncate();

  const std::string& path() const { return path_; }
  uint64_t appended_lsn() const { return appended_lsn_.load(); }
  uint64_t durable_lsn() const;
  /// Physical fsync calls issued; with group commit this is <= the
  /// number of Sync requests (often far fewer under concurrency).
  uint64_t fsync_count() const { return fsync_count_.load(); }
  uint64_t sync_requests() const { return sync_requests_.load(); }

  /// True once the log is poisoned (see broken_ below); `cause` (when
  /// non-null) receives the original failure message.
  bool broken(std::string* cause = nullptr) const;

 private:
  WriteAheadLog(std::string path, Vfs* vfs)
      : path_(std::move(path)), vfs_(vfs) {}

  /// Shared Open machinery: `header` is the exact first line the file
  /// must carry (written when creating, verified when reopening).
  static Result<WriteAheadLog> OpenWithHeader(const std::string& path,
                                              std::string header, Vfs* vfs);

  /// Poisons the log, recording the first cause. Must NOT hold sync_mu_.
  void MarkBroken(const std::string& cause);
  /// The canonical poisoned-log error: Unavailable, naming the original
  /// cause. Requires sync_mu_.
  Status BrokenStatusLocked() const;

  std::string path_;
  std::string header_;
  Vfs* vfs_ = nullptr;
  std::unique_ptr<VfsFile> file_;

  std::mutex append_mu_;  // serializes write() calls
  std::atomic<uint64_t> appended_lsn_{0};

  // Group-commit state. `sync_mu_` is behind a unique_ptr only to keep
  // the type movable for the Open factory; after construction the object
  // stays put.
  std::unique_ptr<std::mutex> sync_mu_ = std::make_unique<std::mutex>();
  std::unique_ptr<std::condition_variable> sync_cv_ =
      std::make_unique<std::condition_variable>();
  uint64_t durable_lsn_guarded_ = 0;
  bool sync_in_progress_ = false;
  std::atomic<uint64_t> fsync_count_{0};
  std::atomic<uint64_t> sync_requests_{0};
  // Poisoned after a failed fsync or an un-truncatable torn append:
  // every later Append/Sync fails with Unavailable instead of reporting
  // durability the kernel can no longer provide. The first failure
  // message is kept (broken_cause_guarded_, under sync_mu_) so every
  // later error names the original cause.
  std::atomic<bool> broken_{false};
  std::string broken_cause_guarded_;
};

/// A write-ahead log sharded into N independent append streams.
///
/// Stasis's logger decouples log append, flush, and truncation points so
/// committers stop convoying on one stream; this is that shape over the
/// differential WAL. Deltas are routed by relation-name hash
/// (ShardOf), so one commit touches only the shards its relations map
/// to: AppendCommit splits the record into per-shard parts (each
/// carrying the shared version and the declared part count — the
/// commit-LSN header) and Sync batches per shard with independent
/// group-commit fsync leaders. Disjoint-shard commits never share an
/// append mutex or an fsync.
///
/// On-disk layout: shard k of n lives at `<path>.shard<k>` with header
/// "txmod-wal 2 shard <k>/<n>". shard_count == 1 is special-cased to a
/// single v1-format file at `path` itself. A log is one layout or the
/// other: a file at `path` beside shard streams is refused, by Open and
/// by recovery alike, rather than read in part.
///
/// Reopen compatibility: Open adopts the shard count it finds on disk
/// (the configured count applies only to logs that do not exist yet) —
/// a mismatch between configuration and disk is resolved in favor of
/// the disk, never by scrambling the routing of existing records. A
/// single-stream log reopened under a sharded configuration stays one
/// stream.
///
/// Torn tails: Open repairs each stream independently (rewriting the
/// valid prefix via temp + rename), so a tear on one shard never blocks
/// appends to it or hides later records on other shards.
///
/// Poisoning is log-wide: a failed fsync on ANY shard leaves the commit
/// horizon unknowable for the whole log, so broken() reports the first
/// per-shard failure and the transaction manager degrades as a unit.
class ShardedWal {
 public:
  /// Opens (creating) the log rooted at `path` with `shard_count`
  /// streams; an existing log's on-disk count wins over the argument.
  static Result<std::unique_ptr<ShardedWal>> Open(const std::string& path,
                                                  uint32_t shard_count,
                                                  Vfs* vfs = nullptr);

  /// One appended part's position: which shard, and the LSN to Sync to.
  struct Position {
    uint32_t shard = 0;
    uint64_t lsn = 0;
  };

  /// Splits `rec` into per-shard parts by relation-name hash and appends
  /// each (setting the parts count on every one). Returns the positions
  /// for SyncPositions. A failure may leave a partial fan-out behind —
  /// recovery treats the version as absent (all-or-nothing stitching) —
  /// and the caller must not report the commit durable.
  Result<std::vector<Position>> AppendCommit(const WalRecord& rec);

  /// Group-commit durability for one commit's fan-out: waits until every
  /// appended part is fsync'd, shard by shard (each shard batches with
  /// its own concurrent committers).
  Status SyncPositions(const std::vector<Position>& positions);

  /// Empties every stream (checkpoint + truncate).
  Status Truncate();

  /// True when any shard is poisoned; `cause` receives the first
  /// per-shard failure message.
  bool broken(std::string* cause = nullptr) const;

  uint32_t shard_count() const { return shard_count_; }
  bool sharded() const { return shard_count_ > 1; }
  const std::string& path() const { return path_; }

  /// Aggregated across shards.
  uint64_t fsync_count() const;
  uint64_t sync_requests() const;
  uint64_t appended_parts() const;

  /// Direct stream access (tests/diagnostics). k < shard_count().
  const WriteAheadLog* shard(uint32_t k) const { return &shards_[k]; }

  /// Upper bound on the shard count probed for on disk (discovery scans
  /// `<path>.shard0` .. `<path>.shard63`); also the maximum accepted
  /// configuration.
  static constexpr uint32_t kMaxProbeShards = 64;

  /// `<path>.shard<k>` — where stream k of a sharded log lives.
  static std::string ShardPath(const std::string& path, uint32_t shard);
  /// The routing function: FNV-1a(relation) % shard_count. Stable across
  /// runs and processes by construction (no seed, no pointer hashing) —
  /// recovery does not depend on it, but stable routing keeps every
  /// relation's records on one stream, which is what makes a single
  /// shard's prefix self-consistent per relation.
  static uint32_t ShardOf(const std::string& relation, uint32_t shard_count);
  /// The shard count an existing log at `path` declares: 1 for a file
  /// at `path` itself, n from the first readable shard header, and 0
  /// when neither exists. InvalidArgument when a file at `path` lies
  /// beside shard streams.
  static Result<uint32_t> DiscoverShardCount(const std::string& path);

 private:
  ShardedWal(std::string path, uint32_t shard_count)
      : path_(std::move(path)), shard_count_(shard_count) {}

  std::string path_;
  uint32_t shard_count_ = 1;
  std::vector<WriteAheadLog> shards_;  // size 1 (at path_) when unsharded
};

/// Outcome details of a WAL read/recovery.
struct WalReplayStats {
  uint64_t records_read = 0;     // valid records returned/applied
  uint64_t records_skipped = 0;  // already covered by the checkpoint
  bool tail_dropped = false;     // a truncated/corrupt tail was discarded
  std::string tail_error;        // what was wrong with it
};

/// The shard identity a WAL file's header declares.
struct WalShardInfo {
  bool sharded = false;     // v2 shard header present
  uint32_t shard = 0;       // k of "shard k/n"
  uint32_t shard_count = 1;  // n (1 for a single-stream v1 file)
};

/// Reads every valid record of the one stream at `path`, in file order,
/// stopping cleanly at the first truncated or corrupt record
/// (`stats->tail_dropped`). A missing file reads as an empty log.
/// Accepts v1 and v2-shard headers; `info` (when non-null) receives the
/// header's shard identity. Collects what the stream reader behind
/// recovery yields; for tests and tools.
Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       WalReplayStats* stats = nullptr,
                                       WalShardInfo* info = nullptr);

/// Collects the records that RecoverDatabase would apply over a
/// checkpoint of `checkpoint_time`, in the same order: the log rooted at
/// `path` (its one stream, or its shard streams stitched back together)
/// read by the same replay. Records at or below `checkpoint_time` are
/// included, once per version, so that applying them counts them as
/// skipped. For tests and tools: recovery itself never holds the log.
Result<std::vector<WalRecord>> ReadShardedWal(const std::string& path,
                                              WalReplayStats* stats = nullptr,
                                              uint64_t checkpoint_time = 0);

/// Applies one record to `db`. Records at or below the database's
/// logical time are skipped (already covered by the checkpoint); a
/// record more than one step ahead is a sequencing error. Advances the
/// database's logical time on apply. The rvalue form moves the record's
/// tuples into the database; the const form copies each inserted tuple,
/// and a deleted one only when it needs widening.
Status ApplyWalRecord(const WalRecord& rec, Database* db,
                      WalReplayStats* stats = nullptr);
Status ApplyWalRecord(WalRecord&& rec, Database* db,
                      WalReplayStats* stats = nullptr);

/// Crash recovery: loads the checkpoint at `checkpoint_path` and replays
/// the log rooted at `wal_path` on top, restoring exactly the durable
/// committed prefix. A missing log means the checkpoint alone is the
/// state.
///
/// Replay is one pass with a single reader per stream. A reader checks
/// each record's checksum, decodes all of its tuple lines, and hands the
/// record over whole; its stream ends at its first bad record. Records
/// are applied by move, in version order, each as soon as it and every
/// version below it are complete:
///   - A sharded commit is complete when every part it declares has
///     arrived; its parts are joined into one record.
///   - A single stream may hold versions out of file order, because
///     commits append outside the commit lock. A record read ahead of a
///     missing version waits for it.
///   - Records at or below the checkpoint's time are skipped, and are
///     exempt from the rules below: a crash between the checkpoint's
///     rename and the log's truncation leaves them behind.
///   - Above the checkpoint, nothing past a version gap or an
///     incomplete fan-out is applied, and neither is anything read after
///     a repeat of a version that was already applied.
///   - Every cut sets `stats->tail_dropped` and `tail_error`.
/// Memory: replay holds one read chunk and one record per stream, plus
/// the records that arrived ahead of a missing version — never the log.
Result<Database> RecoverDatabase(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 WalReplayStats* stats = nullptr);

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_WAL_H_
