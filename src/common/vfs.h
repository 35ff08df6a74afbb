#ifndef TXMOD_COMMON_VFS_H_
#define TXMOD_COMMON_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace txmod {

/// One writable file handle obtained from a Vfs. Handles are append- or
/// truncate-opened (see Vfs); reads stay on the ordinary filesystem —
/// the durability machinery only *writes* through the environment, and
/// the fault injector keeps the real file in sync so readers (the WAL's
/// replay, LoadDatabaseFromFile) need no parallel read API.
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Appends up to `n` bytes at the current end, returning the count
  /// actually written. Short writes (count < n) are legal POSIX behavior
  /// and the injector produces them on purpose; callers must loop (see
  /// WriteFullyTo). A returned count of 0 with n > 0 never happens from
  /// a conforming implementation.
  virtual Result<std::size_t> Write(const char* data, std::size_t n) = 0;

  /// Flushes written bytes to stable storage. After a *failed* Sync the
  /// caller must assume the unflushed bytes are gone (the kernel may
  /// drop dirty pages while marking them clean — fsyncgate): never
  /// retry a failed Sync and report durability on the second try.
  virtual Status Sync() = 0;

  /// Current file size in bytes.
  virtual Result<uint64_t> Size() = 0;

  /// Truncates (or extends with zeros) to `size` bytes. Not durable
  /// until the next successful Sync.
  virtual Status Truncate(uint64_t size) = 0;
};

/// The storage-and-clock environment behind the durability stack. The
/// write-ahead log, checkpointing, and the transaction manager route
/// every state-changing filesystem operation and every clock read
/// through a Vfs so tests can substitute FaultInjectingVfs and prove
/// the failure behavior instead of hoping for it.
///
/// The default implementation (Vfs::Default()) is plain POSIX:
/// open/write/fsync/rename/unlink plus the steady clock.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens `path` for appending, creating it when absent. Creation is
  /// an entry in the parent directory and is only crash-durable after
  /// SyncDirectory on that parent.
  virtual Result<std::unique_ptr<VfsFile>> OpenAppend(
      const std::string& path) = 0;

  /// Opens `path` truncated to empty (creating it when absent) for a
  /// fresh write — the checkpoint temp-file path.
  virtual Result<std::unique_ptr<VfsFile>> OpenTrunc(
      const std::string& path) = 0;

  /// Atomic rename. The new directory mapping is only crash-durable
  /// after SyncDirectory on the parent.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Removes `path`. Returns OK when the file does not exist (the
  /// callers use Remove idempotently while clearing stale temp files).
  virtual Status Remove(const std::string& path) = 0;

  /// Fsyncs the directory containing `path`, making entry operations
  /// (create, rename, remove) on it crash-durable.
  virtual Status SyncParentDirectory(const std::string& path) = 0;

  /// Monotonic clock in microseconds — the time base for retry backoff
  /// and transaction deadlines.
  virtual int64_t NowMicros() = 0;

  /// Sleeps for `micros` (the backoff primitive). Fake environments
  /// advance their virtual clock instantly so no test ever waits on the
  /// wall clock.
  virtual void SleepMicros(int64_t micros) = 0;

  /// The process-wide POSIX environment.
  static Vfs* Default();
};

/// Writes all of `buf`, looping over short writes. The error message
/// names `what` (e.g. "WAL").
Status WriteFullyTo(VfsFile* file, std::string_view buf, const char* what);

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// The operations a fault schedule can target.
enum class VfsOp {
  kOpen,      // OpenAppend / OpenTrunc
  kWrite,     // VfsFile::Write
  kFsync,     // VfsFile::Sync
  kTruncate,  // VfsFile::Truncate
  kRename,
  kRemove,
  kDirSync,  // SyncParentDirectory
};

const char* VfsOpName(VfsOp op);

/// What happens when a scheduled fault fires.
enum class FaultKind {
  /// The operation fails with an I/O-error status; no bytes land.
  kEIO,
  /// The operation fails with a no-space status; no bytes land.
  kENOSPC,
  /// Write only: the first half of the buffer lands and the *count* is
  /// returned — a legal POSIX short write, success, no error. Exercises
  /// the caller's write-fully loop.
  kShortWrite,
  /// Write only: the first half lands, then the write FAILS — a torn
  /// write. The caller sees an error with a partial record on disk.
  kTornWrite,
  /// Fsync only, the fsyncgate trap: this Sync FAILS, the kernel drops
  /// the dirty pages (the unflushed bytes are lost at crash), and every
  /// LATER Sync on the file reports success without making them
  /// durable. Correct systems must therefore never ack after retrying a
  /// failed fsync — the poisoned-WAL contract this injector exists to
  /// pin.
  kFsyncGate,
  /// Fsync only, the silent variant: this Sync reports SUCCESS but the
  /// buffered bytes are dropped at the simulated crash (and later Syncs
  /// keep lying). No software survives a lying kernel with all
  /// acknowledged data intact; what must still hold — and what tests
  /// assert under this fault — is the prefix property: recovery yields
  /// a clean prefix of acknowledged commits, never a torn state.
  kFsyncLie,
};

const char* FaultKindName(FaultKind kind);

/// One programmed fault: fires on the `nth` (1-based) matching
/// operation counted from when the spec was injected. With `sticky`,
/// it keeps firing on every matching operation from the nth onward —
/// e.g. a persistently full disk — until ClearFaults.
struct FaultSpec {
  VfsOp op = VfsOp::kWrite;
  FaultKind kind = FaultKind::kEIO;
  uint64_t nth = 1;
  /// Only operations whose path contains this substring count (empty
  /// matches everything) — e.g. "wal" targets the log but not the
  /// checkpoint.
  std::string path_substring;
  bool sticky = false;
};

/// A Vfs that wraps the real filesystem, injects programmed faults, and
/// models crash durability precisely enough to simulate power loss:
///
///   * File data survives a crash only up to the last successful honest
///     Sync (SimulateCrash truncates/rewrites the real file to that
///     snapshot).
///   * Directory entries (create, rename, remove) survive only once
///     SyncParentDirectory covered them; un-synced renames roll back to
///     the old mapping, un-synced creates vanish, un-synced removes
///     reappear.
///   * kFsyncGate / kFsyncLie poison a file's durability: bytes past
///     the poison point are dropped at crash no matter what later Syncs
///     report.
///
/// The clock is virtual: NowMicros starts at 0 and SleepMicros advances
/// it instantly, recording each sleep — retry/backoff schedules become
/// deterministic, seed-reproducible data instead of wall-clock waits.
///
/// Thread safety: all state is behind one mutex; the group-commit fsync
/// path may call in concurrently.
class FaultInjectingVfs : public Vfs {
 public:
  FaultInjectingVfs() = default;

  Result<std::unique_ptr<VfsFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<VfsFile>> OpenTrunc(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncParentDirectory(const std::string& path) override;
  int64_t NowMicros() override;
  void SleepMicros(int64_t micros) override;

  /// Arms one fault. Multiple armed faults are checked independently.
  void InjectFault(FaultSpec spec);
  /// Disarms every armed fault ("the fault schedule clears"); already
  /// inflicted damage (poisoned files, dropped bytes) stays.
  void ClearFaults();

  /// Total operations seen per op type (fired or not).
  uint64_t op_count(VfsOp op) const;
  /// Faults fired so far.
  uint64_t faults_fired() const;

  /// Simulated power loss: rewrites the real filesystem to exactly the
  /// crash-durable state (see class comment). Open handles become
  /// useless; drop them first. The durability model resets to "all
  /// current content durable" afterwards, so a test can continue into
  /// recovery and crash again later.
  void SimulateCrash();

  /// Clock control and the recorded sleep schedule.
  void AdvanceClock(int64_t micros);
  std::vector<int64_t> sleep_log() const;

 private:
  friend class FaultInjectingFile;

  /// Crash-durability bookkeeping for one path.
  struct FileState {
    std::string durable_content;  // data layer: survives crash
    bool sync_poisoned = false;   // kFsyncGate/kFsyncLie hit: frozen
    bool entry_pending = false;   // created/renamed-in, dir not synced
    bool removal_pending = false;  // removed, dir not synced
    // What `entry_pending` hides: the previous durable occupant of the
    // path (restored if the crash precedes the directory sync).
    bool shadowed_exists = false;
    std::string shadowed_content;
  };

  /// Returns the fault to apply to (op, path), if any. Locked.
  bool FaultFiresLocked(VfsOp op, const std::string& path, FaultKind* kind);
  FileState& TouchLocked(const std::string& path);
  static std::string DirOf(const std::string& path);

  mutable std::mutex mu_;
  std::vector<FaultSpec> faults_;
  std::vector<uint64_t> fault_seen_;  // matching-op count per armed spec
  std::map<VfsOp, uint64_t> op_counts_;
  uint64_t fired_ = 0;
  std::map<std::string, FileState> files_;
  int64_t now_micros_ = 0;
  std::vector<int64_t> sleeps_;
};

}  // namespace txmod

#endif  // TXMOD_COMMON_VFS_H_
