#include "src/common/vfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/common/str_util.h"

namespace txmod {

namespace {

/// Retries ::open on EINTR.
int OpenFd(const std::string& path, int flags) {
  int fd;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Overwrites `path` with exactly `content` (the crash-simulation
/// rewrite primitive; plain filesystem, not routed through any Vfs).
void RewriteWholeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

Status PosixSyncDirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = OpenFd(dir, O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(StrCat("cannot open directory ", dir));
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal(StrCat("fsync of ", dir, " failed"));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The real POSIX environment.
// ---------------------------------------------------------------------------

class PosixFile : public VfsFile {
 public:
  PosixFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<std::size_t> Write(const char* data, std::size_t n) override {
    ssize_t written;
    do {
      written = ::write(fd_, data, n);
    } while (written < 0 && errno == EINTR);
    if (written < 0) {
      return Status::Internal(StrCat("write to ", path_, " failed: ",
                                     std::strerror(errno)));
    }
    return static_cast<std::size_t>(written);
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(StrCat("fsync of ", path_, " failed: ",
                                     std::strerror(errno)));
    }
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size < 0) {
      return Status::Internal(StrCat("lseek of ", path_, " failed"));
    }
    return static_cast<uint64_t>(size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::Internal(StrCat("ftruncate of ", path_, " failed: ",
                                     std::strerror(errno)));
    }
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixVfs : public Vfs {
 public:
  Result<std::unique_ptr<VfsFile>> OpenAppend(
      const std::string& path) override {
    const int fd = OpenFd(path, O_WRONLY | O_CREAT | O_APPEND);
    if (fd < 0) {
      return Status::InvalidArgument(StrCat("cannot open ", path, ": ",
                                            std::strerror(errno)));
    }
    return std::unique_ptr<VfsFile>(new PosixFile(path, fd));
  }

  Result<std::unique_ptr<VfsFile>> OpenTrunc(
      const std::string& path) override {
    const int fd = OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC);
    if (fd < 0) {
      return Status::InvalidArgument(StrCat("cannot open ", path, ": ",
                                            std::strerror(errno)));
    }
    return std::unique_ptr<VfsFile>(new PosixFile(path, fd));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal(StrCat("rename of ", from, " to ", to,
                                     " failed: ", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(StrCat("remove of ", path, " failed: ",
                                     std::strerror(errno)));
    }
    return Status::OK();
  }

  Status SyncParentDirectory(const std::string& path) override {
    return PosixSyncDirectoryOf(path);
  }

  int64_t NowMicros() override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void SleepMicros(int64_t micros) override {
    if (micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
  }
};

Status InjectedFailure(VfsOp op, FaultKind kind, const std::string& path) {
  const char* what = kind == FaultKind::kENOSPC
                         ? "no space left on device"
                         : "I/O error";
  return Status::Internal(StrCat(VfsOpName(op), " of ", path, " failed: ",
                                 what, " (injected)"));
}

}  // namespace

Vfs* Vfs::Default() {
  static PosixVfs* posix = new PosixVfs();
  return posix;
}

Status WriteFullyTo(VfsFile* file, std::string_view buf, const char* what) {
  std::size_t off = 0;
  while (off < buf.size()) {
    TXMOD_ASSIGN_OR_RETURN(std::size_t n,
                           file->Write(buf.data() + off, buf.size() - off));
    if (n == 0) {
      return Status::Internal(StrCat(what, " write made no progress"));
    }
    off += n;
  }
  return Status::OK();
}

const char* VfsOpName(VfsOp op) {
  switch (op) {
    case VfsOp::kOpen:
      return "open";
    case VfsOp::kWrite:
      return "write";
    case VfsOp::kFsync:
      return "fsync";
    case VfsOp::kTruncate:
      return "truncate";
    case VfsOp::kRename:
      return "rename";
    case VfsOp::kRemove:
      return "remove";
    case VfsOp::kDirSync:
      return "directory fsync";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEIO:
      return "EIO";
    case FaultKind::kENOSPC:
      return "ENOSPC";
    case FaultKind::kShortWrite:
      return "short-write";
    case FaultKind::kTornWrite:
      return "torn-write";
    case FaultKind::kFsyncGate:
      return "fsync-gate";
    case FaultKind::kFsyncLie:
      return "fsync-lie";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// FaultInjectingVfs.
// ---------------------------------------------------------------------------

namespace {

/// What a crash right now would leave at `path` (existence + content).
struct CrashValue {
  bool exists = false;
  std::string content;
};

}  // namespace

/// A file handle that consults its parent's fault schedule and keeps the
/// parent's crash-durability model current.
class FaultInjectingFile : public VfsFile {
 public:
  FaultInjectingFile(FaultInjectingVfs* parent, std::string path, int fd)
      : parent_(parent), path_(std::move(path)), fd_(fd) {}
  ~FaultInjectingFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<std::size_t> Write(const char* data, std::size_t n) override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    FaultKind kind;
    if (parent_->FaultFiresLocked(VfsOp::kWrite, path_, &kind)) {
      if (kind == FaultKind::kShortWrite || kind == FaultKind::kTornWrite) {
        // Land a prefix: half the buffer (at least one byte so torn
        // records are really torn, not cleanly absent).
        const std::size_t partial = n >= 2 ? n / 2 : n;
        const Status landed = WriteRaw(data, partial);
        if (!landed.ok()) return landed;
        if (kind == FaultKind::kShortWrite) return partial;  // legal short
        return InjectedFailure(VfsOp::kWrite, kind, path_);  // torn
      }
      return InjectedFailure(VfsOp::kWrite, kind, path_);
    }
    const Status landed = WriteRaw(data, n);
    if (!landed.ok()) return landed;
    return n;
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    FaultInjectingVfs::FileState& state = parent_->TouchLocked(path_);
    FaultKind kind;
    if (parent_->FaultFiresLocked(VfsOp::kFsync, path_, &kind)) {
      if (kind == FaultKind::kFsyncGate) {
        // fsyncgate: fail, and the dirty pages are gone — no later Sync
        // can make the lost bytes durable (it will claim to, though).
        state.sync_poisoned = true;
        return InjectedFailure(VfsOp::kFsync, FaultKind::kEIO, path_);
      }
      if (kind == FaultKind::kFsyncLie) {
        state.sync_poisoned = true;
        return Status::OK();  // the lie: reported durable, actually lost
      }
      return InjectedFailure(VfsOp::kFsync, kind, path_);
    }
    if (state.sync_poisoned) {
      // Post-poison Syncs "succeed" without restoring the lost bytes.
      return Status::OK();
    }
    if (::fsync(fd_) != 0) {
      return Status::Internal(StrCat("fsync of ", path_, " failed: ",
                                     std::strerror(errno)));
    }
    state.durable_content = ReadWholeFile(path_);
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size < 0) {
      return Status::Internal(StrCat("lseek of ", path_, " failed"));
    }
    return static_cast<uint64_t>(size);
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    FaultKind kind;
    if (parent_->FaultFiresLocked(VfsOp::kTruncate, path_, &kind)) {
      return InjectedFailure(VfsOp::kTruncate, kind, path_);
    }
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::Internal(StrCat("ftruncate of ", path_, " failed: ",
                                     std::strerror(errno)));
    }
    return Status::OK();
  }

 private:
  Status WriteRaw(const char* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      ssize_t written;
      do {
        written = ::write(fd_, data + off, n - off);
      } while (written < 0 && errno == EINTR);
      if (written < 0) {
        return Status::Internal(StrCat("write to ", path_, " failed: ",
                                       std::strerror(errno)));
      }
      off += static_cast<std::size_t>(written);
    }
    return Status::OK();
  }

  FaultInjectingVfs* parent_;
  std::string path_;
  int fd_;
};

std::string FaultInjectingVfs::DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash == 0 ? 1 : slash);
}

bool FaultInjectingVfs::FaultFiresLocked(VfsOp op, const std::string& path,
                                         FaultKind* kind) {
  ++op_counts_[op];
  // Count every matching armed spec first, then fire the first due one —
  // a fired fault must not stop later specs from keeping count.
  std::size_t due = faults_.size();
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const FaultSpec& spec = faults_[i];
    if (spec.op != op) continue;
    if (!spec.path_substring.empty() &&
        path.find(spec.path_substring) == std::string::npos) {
      continue;
    }
    ++fault_seen_[i];
    const bool fires = spec.sticky ? fault_seen_[i] >= spec.nth
                                   : fault_seen_[i] == spec.nth;
    if (fires && due == faults_.size()) due = i;
  }
  if (due == faults_.size()) return false;
  ++fired_;
  *kind = faults_[due].kind;
  return true;
}

FaultInjectingVfs::FileState& FaultInjectingVfs::TouchLocked(
    const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) return it->second;
  // First contact: whatever is on disk predates this environment and
  // counts as fully durable.
  FileState state;
  if (FileExists(path)) {
    state.durable_content = ReadWholeFile(path);
  } else {
    state.entry_pending = true;  // will be created by the caller
  }
  return files_.emplace(path, std::move(state)).first->second;
}

Result<std::unique_ptr<VfsFile>> FaultInjectingVfs::OpenAppend(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultKind kind;
  if (FaultFiresLocked(VfsOp::kOpen, path, &kind)) {
    return InjectedFailure(VfsOp::kOpen, kind, path);
  }
  const bool existed = FileExists(path);
  const int fd = OpenFd(path, O_WRONLY | O_CREAT | O_APPEND);
  if (fd < 0) {
    return Status::InvalidArgument(StrCat("cannot open ", path, ": ",
                                          std::strerror(errno)));
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    FileState state;
    if (existed) {
      state.durable_content = ReadWholeFile(path);
    } else {
      state.entry_pending = true;
    }
    files_.emplace(path, std::move(state));
  } else if (!existed) {
    // Re-creating a path whose removal (or prior create) is still
    // un-synced: the new entry is pending, shadowing whatever a crash
    // would have restored.
    FileState& state = it->second;
    const bool shadow_exists = state.removal_pending;
    const std::string shadow =
        state.removal_pending ? state.durable_content : state.shadowed_content;
    const bool shadow_exists2 =
        state.removal_pending ? shadow_exists : state.shadowed_exists;
    state = FileState{};
    state.entry_pending = true;
    state.shadowed_exists = shadow_exists2;
    state.shadowed_content = shadow;
  }
  return std::unique_ptr<VfsFile>(new FaultInjectingFile(this, path, fd));
}

Result<std::unique_ptr<VfsFile>> FaultInjectingVfs::OpenTrunc(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultKind kind;
  if (FaultFiresLocked(VfsOp::kOpen, path, &kind)) {
    return InjectedFailure(VfsOp::kOpen, kind, path);
  }
  const bool existed = FileExists(path);
  const int fd = OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC);
  if (fd < 0) {
    return Status::InvalidArgument(StrCat("cannot open ", path, ": ",
                                          std::strerror(errno)));
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    // First contact via O_TRUNC destroyed the only copy of the prior
    // content, so we conservatively model the file as durably empty.
    // (Tracked files keep their recorded durable_content: truncation of
    // the working copy is not durable until the next Sync.)
    FileState state;
    if (!existed) state.entry_pending = true;
    files_.emplace(path, std::move(state));
  }
  return std::unique_ptr<VfsFile>(new FaultInjectingFile(this, path, fd));
}

Status FaultInjectingVfs::Rename(const std::string& from,
                                 const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultKind kind;
  if (FaultFiresLocked(VfsOp::kRename, from, &kind)) {
    return InjectedFailure(VfsOp::kRename, kind, from);
  }
  // Capture both crash values BEFORE the rename mutates the real tree.
  auto crash_value = [&](const std::string& path) -> CrashValue {
    auto it = files_.find(path);
    if (it == files_.end()) {
      CrashValue v;
      v.exists = FileExists(path);
      if (v.exists) v.content = ReadWholeFile(path);
      return v;
    }
    const FileState& s = it->second;
    CrashValue v;
    if (s.removal_pending) {
      v.exists = true;
      v.content = s.durable_content;
    } else if (s.entry_pending) {
      v.exists = s.shadowed_exists;
      v.content = s.shadowed_content;
    } else {
      v.exists = true;
      v.content = s.durable_content;
    }
    return v;
  };
  const CrashValue from_crash = crash_value(from);
  const CrashValue to_crash = crash_value(to);
  const FileState from_state = TouchLocked(from);

  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Internal(StrCat("rename of ", from, " to ", to,
                                   " failed: ", std::strerror(errno)));
  }

  // `to` now holds `from`'s inode: its data durability travels along;
  // the new name mapping is pending until the directory syncs, hiding
  // the previous durable occupant.
  FileState to_state;
  to_state.durable_content = from_state.durable_content;
  to_state.sync_poisoned = from_state.sync_poisoned;
  to_state.entry_pending = true;
  to_state.shadowed_exists = to_crash.exists;
  to_state.shadowed_content = to_crash.content;
  files_[to] = std::move(to_state);

  // `from`'s entry is gone, pending the directory sync; a crash before
  // it restores whatever was durable there.
  if (from_crash.exists) {
    FileState gone;
    gone.durable_content = from_crash.content;
    gone.removal_pending = true;
    files_[from] = std::move(gone);
  } else {
    files_.erase(from);
  }
  return Status::OK();
}

Status FaultInjectingVfs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultKind kind;
  if (FaultFiresLocked(VfsOp::kRemove, path, &kind)) {
    return InjectedFailure(VfsOp::kRemove, kind, path);
  }
  CrashValue crash;
  auto it = files_.find(path);
  if (it == files_.end()) {
    crash.exists = FileExists(path);
    if (crash.exists) crash.content = ReadWholeFile(path);
  } else if (it->second.removal_pending) {
    crash.exists = true;
    crash.content = it->second.durable_content;
  } else if (it->second.entry_pending) {
    crash.exists = it->second.shadowed_exists;
    crash.content = it->second.shadowed_content;
  } else {
    crash.exists = true;
    crash.content = it->second.durable_content;
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(StrCat("remove of ", path, " failed: ",
                                   std::strerror(errno)));
  }
  if (crash.exists) {
    FileState gone;
    gone.durable_content = crash.content;
    gone.removal_pending = true;
    files_[path] = std::move(gone);
  } else {
    files_.erase(path);
  }
  return Status::OK();
}

Status FaultInjectingVfs::SyncParentDirectory(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultKind kind;
  if (FaultFiresLocked(VfsOp::kDirSync, path, &kind)) {
    if (kind == FaultKind::kFsyncLie) {
      return Status::OK();  // reported durable; pendings stay pending
    }
    return InjectedFailure(VfsOp::kDirSync, kind, path);
  }
  TXMOD_RETURN_IF_ERROR(PosixSyncDirectoryOf(path));
  // Every pending entry operation in this directory is now durable.
  const std::string dir = DirOf(path);
  for (auto it = files_.begin(); it != files_.end();) {
    if (DirOf(it->first) != dir) {
      ++it;
      continue;
    }
    FileState& state = it->second;
    if (state.removal_pending) {
      it = files_.erase(it);  // durably gone; nothing to restore
      continue;
    }
    if (state.entry_pending) {
      state.entry_pending = false;
      state.shadowed_exists = false;
      state.shadowed_content.clear();
    }
    ++it;
  }
  return Status::OK();
}

int64_t FaultInjectingVfs::NowMicros() {
  std::lock_guard<std::mutex> lock(mu_);
  return now_micros_;
}

void FaultInjectingVfs::SleepMicros(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  if (micros > 0) now_micros_ += micros;
  sleeps_.push_back(micros);
}

void FaultInjectingVfs::AdvanceClock(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  now_micros_ += micros;
}

std::vector<int64_t> FaultInjectingVfs::sleep_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleeps_;
}

void FaultInjectingVfs::InjectFault(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.push_back(std::move(spec));
  fault_seen_.push_back(0);
}

void FaultInjectingVfs::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  fault_seen_.clear();
}

uint64_t FaultInjectingVfs::op_count(VfsOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = op_counts_.find(op);
  return it == op_counts_.end() ? 0 : it->second;
}

uint64_t FaultInjectingVfs::faults_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

void FaultInjectingVfs::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [path, state] : files_) {
    bool exists;
    const std::string* content;
    if (state.removal_pending) {
      exists = true;
      content = &state.durable_content;
    } else if (state.entry_pending) {
      exists = state.shadowed_exists;
      content = &state.shadowed_content;
    } else {
      exists = true;
      content = &state.durable_content;
    }
    if (exists) {
      RewriteWholeFile(path, *content);
    } else {
      ::unlink(path.c_str());
    }
  }
  // Post-crash, the surviving tree is the durable baseline again.
  files_.clear();
}

}  // namespace txmod
