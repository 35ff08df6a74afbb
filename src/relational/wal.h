#ifndef TXMOD_RELATIONAL_WAL_H_
#define TXMOD_RELATIONAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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
/// transaction, stamped with the logical time it installed. Replaying
/// records in version order over a checkpoint of time t applies exactly
/// the committed suffix t+1, t+2, .... This is the form the reader
/// returns, recovery applies, and tests and tools build by hand.
struct WalRecord {
  uint64_t version = 0;
  std::vector<WalDelta> deltas;
};

/// One committed transaction's net changes to one relation, as its commit
/// installed them: the inserts and deletes of the transaction's overlay
/// level (Relation::shared_inserts/shared_deletes), shared with the level
/// rather than copied out of it. Both are flat sets.
struct CommitDelta {
  std::string relation;
  std::shared_ptr<const Relation> plus;
  std::shared_ptr<const Relation> minus;
};

/// The form of a record the transaction manager logs: a WalRecord whose
/// deltas hold the committed level's sets. The installed level, the
/// validation window and the log append all read the same two sets per
/// relation, so no written tuple is copied between execution and the log.
struct CommitRecord {
  uint64_t version = 0;
  std::vector<CommitDelta> deltas;
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
///   txmod-wal 3
///   txn <version>
///   rel <name>
///   + <v1> <v2> ...                  (one line per inserted tuple)
///   - <v1> <v2> ...                  (one line per deleted tuple)
///   commit <version> <checksum of the record body, 16 hex digits>
///
/// The checksum is XXH64 with seed 0 (src/common/xxh64.h). It reads four
/// words at a time, needs no CPU feature and keeps the 64-bit field. A
/// random corruption passes it with a probability of about 2^-64; like
/// FNV-1a before it, it detects no burst length by construction.
///
/// The log is one stream at its path. What older logs get:
///   - Format 1 ("txmod-wal 1") has the same lines with an FNV-1a 64
///     checksum. It is read with that checksum, so a log an older build
///     left recovers, and WriteAheadLog::Open rewrites it in format 3
///     before appending, so no file mixes formats.
///   - Format 2 was the sharded log: `<path>.shard<k>` files with a
///     "txmod-wal 2 shard <k>/<n>" header. Open and recovery refuse such
///     a file, naming it, instead of reading the log without it.
///
/// A record is valid only when its `commit` line is present, ends in its
/// newline, names the same version, its checksum matches the body ("txn"
/// line through the last delta line, inclusive), and every tuple line in
/// it decodes. The log is read up to its first invalid record — a torn
/// append, a truncated tail, or bit rot — so recovery restores exactly
/// the durable committed prefix (see RecoverDatabase for the replay
/// order). A header line without its newline is a torn empty log.
///
/// Record forms: WalRecord holds its tuples (what the reader returns);
/// CommitRecord shares them with the overlay levels a commit installed
/// (what the transaction manager appends). One encoder writes both, so
/// the bytes depend only on the tuples and their order. A level's sets
/// iterate in row order, so a commit lists each relation's inserts in
/// the order the transaction made them, then its deletes in theirs: the
/// bytes do not depend on any hash table's layout.
///
/// Durability and group commit: Append buffers nothing — the record hits
/// the OS with one write() — but it is only *durable* after Sync(lsn)
/// returns. Sync batches concurrent committers: one caller becomes the
/// fsync leader while the others wait; a single fsync covers every
/// record appended before it, so N concurrent commits cost far fewer
/// than N fsyncs (fsync_count() / appended_lsn() measures the batching).
///
/// Thread safety: Append and Sync are safe to call concurrently from any
/// number of threads. Concurrent appends land in the order they take the
/// append lock, so the transaction manager, which appends outside the
/// lock that orders commits, can leave versions out of file order;
/// recovery replays them in version order.
class WriteAheadLog {
 public:
  /// Opens `path` for appending, creating it (with the format 3 header
  /// line) when absent or empty. A log that ends in a torn or corrupt
  /// record has its valid prefix rewritten first (temp + rename),
  /// because a record appended after the tear would be unreachable to
  /// recovery; a format 1 log has its valid records rewritten in format
  /// 3 the same way. Refuses a `<path>.shard<k>` file and a file that
  /// does not start with a header. All writes/fsyncs go through `vfs`
  /// (nullptr = the real POSIX environment); reads stay on the plain
  /// filesystem.
  static Result<WriteAheadLog> Open(const std::string& path,
                                    Vfs* vfs = nullptr);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&&) = delete;
  ~WriteAheadLog();

  /// Appends one record (a single write() of the serialized form) and
  /// returns its log sequence number. Both record forms go through one
  /// encoder: a CommitRecord is written in exactly the bytes of the
  /// WalRecord that holds its tuples in its sets' iteration order, which
  /// is the order the transaction wrote them.
  Result<uint64_t> Append(const WalRecord& rec);
  Result<uint64_t> Append(const CommitRecord& rec);

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

  /// True once the log is poisoned (see broken_ below); `cause` (when
  /// non-null) receives the original failure message.
  bool broken(std::string* cause = nullptr) const;

 private:
  WriteAheadLog(std::string path, Vfs* vfs)
      : path_(std::move(path)), vfs_(vfs) {}

  /// Writes one encoded record (the body and its commit line) and
  /// returns its log sequence number.
  Result<uint64_t> AppendEncoded(std::string_view full);

  /// Poisons the log, recording the first cause. Must NOT hold sync_mu_.
  void MarkBroken(const std::string& cause);
  /// The canonical poisoned-log error: Unavailable, naming the original
  /// cause. Requires sync_mu_.
  Status BrokenStatusLocked() const;

  std::string path_;
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
  // Poisoned after a failed fsync or an un-truncatable torn append:
  // every later Append/Sync fails with Unavailable instead of reporting
  // durability the kernel can no longer provide. The first failure
  // message is kept (broken_cause_guarded_, under sync_mu_) so every
  // later error names the original cause.
  std::atomic<bool> broken_{false};
  std::string broken_cause_guarded_;
};

/// The format this build writes, named in the log's header line.
inline constexpr int kWalFormat = 3;

/// The checksum that the commit lines of a log in `format` carry over
/// each record's body (its "txn" line through its last delta line,
/// newlines included): XXH64 with seed 0 in format 3, FNV-1a 64 in
/// formats 1 and 2. Append signs every record with it; tests and tools
/// that write a record by hand call it too.
uint64_t WalRecordChecksum(std::string_view body, int format = kWalFormat);

/// The size of the buffer Append allocates for `rec` before it writes
/// the record's lines through persist.h's WriteValueText: at least the
/// bytes it writes for `rec`, commit line included.
std::size_t EncodedSizeBound(const WalRecord& rec);

/// Outcome details of a WAL read/recovery.
struct WalReplayStats {
  uint64_t records_read = 0;     // valid records returned/applied
  uint64_t records_skipped = 0;  // already covered by the checkpoint
  bool tail_dropped = false;     // a truncated/corrupt tail was discarded
  std::string tail_error;        // what was wrong with it
};

/// Collects the records that RecoverDatabase would apply over a
/// checkpoint of `checkpoint_time`, in the same order, read by the same
/// replay. Records at or below `checkpoint_time` are included, so that
/// applying them counts them as skipped. A missing log reads as empty.
/// For tests and tools: recovery itself never holds the log.
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
/// the log at `wal_path` on top, restoring exactly the durable
/// committed prefix. A missing log means the checkpoint alone is the
/// state.
///
/// Replay is one pass of one reader. The reader checks each record's
/// checksum, decodes all of its tuple lines, and hands the record over
/// whole; the log ends at its first bad record. Records are applied by
/// move, in version order, each as soon as every version below it is:
///   - Commits append outside the commit lock, so the log may hold
///     versions out of file order. A record read ahead of a missing
///     version waits for it.
///   - Records at or below the checkpoint's time are skipped, and are
///     exempt from the rules below: a crash between the checkpoint's
///     rename and the log's truncation leaves them behind.
///   - Above the checkpoint, nothing past a version gap is applied, and
///     neither is anything read after a repeated version.
///   - Every cut sets `stats->tail_dropped` and `tail_error`.
/// A `<wal_path>.shard<k>` file is refused (see WriteAheadLog).
/// Memory: replay holds one read chunk and one record, plus the records
/// that arrived ahead of a missing version — never the log.
Result<Database> RecoverDatabase(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 WalReplayStats* stats = nullptr);

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_WAL_H_
