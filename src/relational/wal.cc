#include "src/relational/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string_view>

#include "src/common/str_util.h"
#include "src/relational/persist.h"

namespace txmod {

namespace {

constexpr char kWalHeader[] = "txmod-wal 1";
// Stem of the v2 shard-stream header: "txmod-wal 2 shard <k>/<n>".
constexpr char kWalShardHeaderStem[] = "txmod-wal 2 shard ";
// Highest shard index probed when discovering an existing sharded log.
// Only the FIRST readable shard header is needed (it declares n), and
// streams are created in index order, so this is a robustness bound for
// half-created or half-removed logs, not a shard-count limit.
constexpr uint32_t kMaxProbeShards = ShardedWal::kMaxProbeShards;

std::string ShardHeaderLine(uint32_t shard, uint32_t shard_count) {
  return StrCat(kWalShardHeaderStem, shard, "/", shard_count);
}

/// Parses a whole view as a decimal uint64 (no sign, no spaces).
bool ParseU64(std::string_view text, uint64_t* v) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *v);
  return !text.empty() && r.ec == std::errc() && r.ptr == end;
}

/// Parses a WAL header line: v1, or v2 with a shard identity.
bool ParseWalHeader(std::string_view line, WalShardInfo* info) {
  if (line == kWalHeader) {
    *info = WalShardInfo{};
    return true;
  }
  const std::string_view stem(kWalShardHeaderStem);
  if (!StartsWith(line, stem)) return false;
  const std::string rest(line.substr(stem.size()));
  const std::size_t slash = rest.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
    return false;
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (i == slash) continue;
    if (!std::isdigit(static_cast<unsigned char>(rest[i]))) return false;
  }
  // Same strtoull hygiene as the value codec: overflow saturates to
  // ULLONG_MAX with only errno to tell — an absurd digit string must
  // read as "not a header", not as a huge shard count. The digits-only
  // scan above already guarantees full consumption.
  errno = 0;
  const uint64_t k = std::strtoull(rest.substr(0, slash).c_str(), nullptr, 10);
  const uint64_t n = std::strtoull(rest.substr(slash + 1).c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  if (n < 2 || n > kMaxProbeShards || k >= n) return false;
  info->sharded = true;
  info->shard = static_cast<uint32_t>(k);
  info->shard_count = static_cast<uint32_t>(n);
  return true;
}

/// True when `line` is a strict prefix of some header the writer could
/// have been writing when the crash hit — the torn-header heuristic.
bool PlausibleTornHeader(std::string_view line) {
  if (StartsWith(kWalHeader, line)) return true;  // prefix of the v1 header
  const std::string_view stem(kWalShardHeaderStem);
  if (StartsWith(stem, line)) return true;  // prefix of the v2 stem
  if (!StartsWith(line, stem)) return false;
  // Stem plus a partial "<k>/<n>": digits with at most one slash.
  bool slash = false;
  for (std::size_t i = stem.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '/') {
      if (slash) return false;
      slash = true;
    } else if (!std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

constexpr uint64_t kFnvBasis = UINT64_C(14695981039346656037);

/// FNV-1a of `s`, continued from the hash `h` of the bytes before it.
uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvBasis) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= UINT64_C(1099511628211);
  }
  return h;
}

/// Appends "commit <version> <checksum as 16 hex digits>\n".
void AppendCommitLine(uint64_t version, uint64_t checksum, std::string* out) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "commit %llu %016llx\n",
                              static_cast<unsigned long long>(version),
                              static_cast<unsigned long long>(checksum));
  out->append(buf, static_cast<std::size_t>(n));
}

/// An upper bound on the encoded size of `rec` and its commit line, so
/// that encoding allocates once.
std::size_t EncodedSizeBound(const WalRecord& rec) {
  std::size_t n = 96;  // the txn and commit lines
  for (const WalDelta& delta : rec.deltas) {
    n += delta.relation.size() + 5;
    for (const std::vector<Tuple>* tuples : {&delta.plus, &delta.minus}) {
      for (const Tuple& t : *tuples) {
        n += 2;  // the "+" or "-" and the newline
        for (const Value& v : t.values()) {
          // A space, then at most "i:" and 20 digits, "d:" and 24 bytes
          // of %a, or "s:" and quotes around a string escaped throughout.
          n += 1 + (v.is_string() ? 4 + 2 * v.as_string().size() : 26);
        }
      }
    }
  }
  return n;
}

/// Serializes the record body (everything the checksum covers) into a
/// buffer with room for the commit line. The "parts" suffix is written
/// only for multi-shard fan-outs, so single-part records stay
/// byte-identical to the v1 format.
std::string EncodeRecordBody(const WalRecord& rec) {
  std::string out;
  out.reserve(EncodedSizeBound(rec));
  out += "txn ";
  out += std::to_string(rec.version);
  if (rec.parts > 1) {
    out += " parts ";
    out += std::to_string(rec.parts);
  }
  out += '\n';
  auto append_tuples = [&out](char sign, const std::vector<Tuple>& tuples) {
    for (const Tuple& t : tuples) {
      out += sign;
      for (const Value& v : t.values()) {
        out += ' ';
        AppendValueText(v, &out);
      }
      out += '\n';
    }
  };
  for (const WalDelta& delta : rec.deltas) {
    out += "rel ";
    out += delta.relation;
    out += '\n';
    append_tuples('+', delta.plus);
    append_tuples('-', delta.minus);
  }
  return out;
}

/// Whether `line`, which starts with "commit ", is the commit line of a
/// record of `version` whose body hashes to `checksum`. The checksum does
/// not cover this line, and it is read as the log has always read it
/// (istream extraction): whitespace runs separate the fields, the
/// version is the digits its field starts with (after an optional '+'),
/// and anything after the checksum is ignored.
bool CommitLineMatches(std::string_view line, uint64_t version,
                       uint64_t checksum) {
  auto skip_space = [&line] {
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.front()))) {
      line.remove_prefix(1);
    }
  };
  line.remove_prefix(std::strlen("commit"));
  skip_space();
  if (StartsWith(line, "+")) line.remove_prefix(1);
  uint64_t written = 0;
  const std::from_chars_result r =
      std::from_chars(line.data(), line.data() + line.size(), written);
  if (r.ec != std::errc() || written != version) return false;
  line.remove_prefix(static_cast<std::size_t>(r.ptr - line.data()));
  skip_space();
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  const std::string_view expected(hex);
  return StartsWith(line, expected) &&
         (line.size() == expected.size() ||
          std::isspace(static_cast<unsigned char>(line[expected.size()])));
}

/// Parses "txn <version>" or, for a fan-out part, "txn <version> parts
/// <m>" with m >= 2.
bool ParseTxnLine(std::string_view line, WalRecord* rec) {
  if (!StartsWith(line, "txn ")) return false;
  line.remove_prefix(4);
  const std::string_view version = line.substr(0, line.find(' '));
  line.remove_prefix(version.size());
  *rec = WalRecord{};
  if (!ParseU64(version, &rec->version)) return false;
  if (line.empty()) return true;
  uint64_t m = 0;
  if (!StartsWith(line, " parts ") || !ParseU64(line.substr(7), &m) ||
      m < 2 || m > UINT32_MAX) {
    return false;
  }
  rec->parts = static_cast<uint32_t>(m);
  return true;
}

/// The one reader of a WAL stream. It yields the stream's records in
/// file order, each only after its checksum matched and every tuple line
/// in it decoded, and it ends at the first record that fails either: a
/// torn append, a truncated tail or bit rot. The checksum is computed
/// line by line as the record is read, so the reader holds one record
/// and one LineReader chunk, never the stream. Not movable: its
/// LineReader points at its file.
class StreamReader {
 public:
  StreamReader() = default;
  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Opens `path` and reads its header; `info` (when non-null) receives
  /// the header's shard identity. A missing file and one of zero bytes
  /// are empty streams; a torn header is an empty stream with a dropped
  /// tail. Any other first line is not a WAL, and an error.
  Status Open(const std::string& path, WalShardInfo* info = nullptr);

  /// Reads the next record into `*rec`. False at the end of the stream
  /// and at its first bad record; tail_dropped() then tells which, and
  /// tail_error() what was wrong.
  bool Next(WalRecord* rec);

  bool done() const { return done_; }
  bool tail_dropped() const { return tail_dropped_; }
  const std::string& tail_error() const { return tail_error_; }

 private:
  bool DropTail(std::string why) {
    tail_dropped_ = true;
    tail_error_ = std::move(why);
    done_ = true;
    return false;
  }

  std::ifstream in_;
  LineReader lines_{&in_};
  bool done_ = false;
  bool tail_dropped_ = false;
  std::string tail_error_;
  std::size_t arity_hint_ = 0;  // the arity of the last tuple line
};

Status StreamReader::Open(const std::string& path, WalShardInfo* info) {
  in_.open(path, std::ios::binary);
  std::string_view line;
  if (!in_.is_open() || !lines_.Next(&line)) {  // no WAL, or zero bytes
    done_ = true;
    return Status::OK();
  }
  WalShardInfo header;
  if (ParseWalHeader(line, &header)) {
    if (info != nullptr) *info = header;
    return Status::OK();
  }
  // A crash can tear even the header write. A strict prefix of a possible
  // header with nothing after it is such a torn tail — an empty log;
  // anything else is genuinely not a WAL.
  if (PlausibleTornHeader(line) && !lines_.Next(&line)) {
    DropTail("truncated WAL header");
    return Status::OK();
  }
  return Status::InvalidArgument(StrCat(path, " is not a txmod WAL"));
}

bool StreamReader::Next(WalRecord* rec) {
  if (done_) return false;
  // Any structural surprise, checksum mismatch, undecodable tuple line,
  // or end of file mid-record drops the tail.
  std::string_view line;
  bool in_record = false;
  uint64_t checksum = 0;  // of the record's lines so far, newlines included
  WalDelta* delta = nullptr;
  while (lines_.Next(&line)) {
    if (!in_record) {
      if (line.empty()) continue;
      if (!StartsWith(line, "txn ")) {
        return DropTail(StrCat("expected 'txn', found '", line, "'"));
      }
      if (!ParseTxnLine(line, rec)) {
        return DropTail(StrCat("bad txn line '", line, "'"));
      }
      checksum = Fnv1a("\n", Fnv1a(line));
      in_record = true;
      continue;
    }
    if (StartsWith(line, "commit ")) {
      if (!CommitLineMatches(line, rec->version, checksum)) {
        return DropTail(
            StrCat("bad commit line for version ", rec->version));
      }
      return true;
    }
    checksum = Fnv1a("\n", Fnv1a(line, checksum));
    if (StartsWith(line, "rel ")) {
      rec->deltas.push_back(WalDelta{std::string(line.substr(4)), {}, {}});
      delta = &rec->deltas.back();
    } else if (!line.empty() && (line[0] == '+' || line[0] == '-') &&
               (line.size() == 1 || line[1] == ' ') && delta != nullptr) {
      Result<Tuple> tuple = DecodeTupleText(line.substr(1), arity_hint_);
      if (!tuple.ok()) {
        return DropTail(
            StrCat("bad tuple line: ", tuple.status().message()));
      }
      arity_hint_ = tuple->arity();
      (line[0] == '+' ? delta->plus : delta->minus)
          .push_back(std::move(*tuple));
    } else {
      return DropTail(StrCat("unexpected line '", line, "'"));
    }
  }
  if (in_record) return DropTail("record truncated at end of file");
  done_ = true;
  return false;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// The files that hold the log rooted at `path`: the one stream at `path`
/// itself, or every shard stream `<path>.shard<k>` that exists — never
/// both. A file at `path` beside shard streams is refused, because
/// neither set of records could be trusted to be the whole log.
Result<std::vector<std::string>> StreamPaths(const std::string& path) {
  std::vector<std::string> shards;
  for (uint32_t k = 0; k < kMaxProbeShards; ++k) {
    std::string shard_path = ShardedWal::ShardPath(path, k);
    if (FileExists(shard_path)) shards.push_back(std::move(shard_path));
  }
  if (!FileExists(path)) return shards;
  if (!shards.empty()) {
    return Status::InvalidArgument(
        StrCat("WAL ", path, " is a single stream, but shard stream ",
               shards.front(), " lies beside it; refusing to read either"));
  }
  return std::vector<std::string>{path};
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path, Vfs* vfs) {
  return OpenWithHeader(path, kWalHeader, vfs);
}

Result<WriteAheadLog> WriteAheadLog::OpenShard(const std::string& path,
                                               uint32_t shard,
                                               uint32_t shard_count,
                                               Vfs* vfs) {
  if (shard_count < 2 || shard >= shard_count) {
    return Status::InvalidArgument(
        StrCat("bad shard identity ", shard, "/", shard_count));
  }
  return OpenWithHeader(path, ShardHeaderLine(shard, shard_count), vfs);
}

Result<WriteAheadLog> WriteAheadLog::OpenWithHeader(const std::string& path,
                                                    std::string header,
                                                    Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  WriteAheadLog log(path, vfs);
  log.header_ = std::move(header);
  TXMOD_ASSIGN_OR_RETURN(log.file_, vfs->OpenAppend(path));
  TXMOD_ASSIGN_OR_RETURN(const uint64_t size, log.file_->Size());
  if (size == 0) {
    TXMOD_RETURN_IF_ERROR(WriteFullyTo(
        log.file_.get(), StrCat(log.header_, "\n"), "WAL header"));
    // Make the header durable NOW: a recovered log whose header is still
    // in the page cache reads as not-a-WAL after a crash. This also
    // makes Open a durability probe — reopening onto storage whose
    // fsyncs still fail reports the failure here instead of after the
    // next commit was already accepted.
    TXMOD_RETURN_IF_ERROR(log.file_->Sync());
    // A freshly created file only survives a crash once its directory
    // entry is durable; without this, every fsync'd commit could vanish
    // with the whole file (recovery reads a missing WAL as empty).
    TXMOD_RETURN_IF_ERROR(vfs->SyncParentDirectory(path));
  } else {
    // Verify this really is the WAL stream we expect before appending to
    // it — a shard file with a different declared identity must never be
    // silently adopted (its records would stitch under the wrong count).
    std::ifstream in(path);
    std::string first;
    if (!std::getline(in, first)) {
      return Status::InvalidArgument(StrCat(path, " is not a txmod WAL"));
    }
    if (first != log.header_) {
      WalShardInfo declared;
      if (ParseWalHeader(first, &declared)) {
        return Status::InvalidArgument(
            StrCat(path, " declares '", first, "' but '", log.header_,
                   "' was expected"));
      }
      return Status::InvalidArgument(StrCat(path, " is not a txmod WAL"));
    }
  }
  return log;
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)),
      header_(std::move(other.header_)),
      vfs_(other.vfs_),
      file_(std::move(other.file_)),
      appended_lsn_(other.appended_lsn_.load()),
      sync_mu_(std::move(other.sync_mu_)),
      sync_cv_(std::move(other.sync_cv_)),
      durable_lsn_guarded_(other.durable_lsn_guarded_),
      sync_in_progress_(other.sync_in_progress_),
      fsync_count_(other.fsync_count_.load()),
      sync_requests_(other.sync_requests_.load()),
      broken_(other.broken_.load()),
      broken_cause_guarded_(std::move(other.broken_cause_guarded_)) {}

WriteAheadLog::~WriteAheadLog() = default;

void WriteAheadLog::MarkBroken(const std::string& cause) {
  std::lock_guard<std::mutex> lock(*sync_mu_);
  if (!broken_.load()) broken_cause_guarded_ = cause;
  broken_.store(true);
  sync_cv_->notify_all();
}

Status WriteAheadLog::BrokenStatusLocked() const {
  return Status::Unavailable(StrCat("WAL ", path_,
                                    " is poisoned by an earlier failure: ",
                                    broken_cause_guarded_));
}

bool WriteAheadLog::broken(std::string* cause) const {
  std::lock_guard<std::mutex> lock(*sync_mu_);
  if (cause != nullptr) *cause = broken_cause_guarded_;
  return broken_.load();
}

Result<uint64_t> WriteAheadLog::Append(const WalRecord& rec) {
  std::string full = EncodeRecordBody(rec);
  AppendCommitLine(rec.version, Fnv1a(full), &full);
  std::lock_guard<std::mutex> lock(append_mu_);
  if (broken_.load()) {
    std::lock_guard<std::mutex> sync_lock(*sync_mu_);
    return BrokenStatusLocked();
  }
  Result<uint64_t> pre_size = file_->Size();
  if (!pre_size.ok()) return pre_size.status();
  const Status written = WriteFullyTo(file_.get(), full, "WAL");
  if (!written.ok()) {
    // Un-tear: a partial record left at the tail would make every later
    // durable record unreachable to recovery (which stops at the first
    // invalid record). If even the truncate fails, poison the log — no
    // further append may land after a tear.
    if (!file_->Truncate(*pre_size).ok()) {
      MarkBroken(StrCat("un-truncatable torn append (", written.message(),
                        ")"));
    }
    return written;
  }
  return appended_lsn_.fetch_add(1) + 1;
}

Status WriteAheadLog::Sync(uint64_t lsn) {
  sync_requests_.fetch_add(1);
  std::unique_lock<std::mutex> lock(*sync_mu_);
  while (durable_lsn_guarded_ < lsn) {
    if (broken_.load()) {
      // A previous fsync failed. The kernel may have dropped the dirty
      // pages while marking them clean (the classic fsync-failure trap),
      // so a retried fsync would "succeed" without making the lost
      // records durable — never report durability after a failure.
      return BrokenStatusLocked();
    }
    if (sync_in_progress_) {
      // Another committer is the fsync leader; its fsync may already
      // cover our record. Wait and re-check.
      sync_cv_->wait(lock);
      continue;
    }
    // Become the leader. Capture the append horizon BEFORE the fsync:
    // everything appended before the fsync call is covered by it, and
    // records appended during the fsync will be claimed by the next
    // leader.
    sync_in_progress_ = true;
    const uint64_t target = appended_lsn_.load();
    lock.unlock();
    const Status synced = file_->Sync();
    lock.lock();
    sync_in_progress_ = false;
    if (!synced.ok()) {
      if (!broken_.load()) broken_cause_guarded_ = synced.message();
      broken_.store(true);
      sync_cv_->notify_all();
      return synced;
    }
    fsync_count_.fetch_add(1);
    if (target > durable_lsn_guarded_) durable_lsn_guarded_ = target;
    sync_cv_->notify_all();
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::unique_lock<std::mutex> sync_lock(*sync_mu_);
  if (broken_.load()) return BrokenStatusLocked();
  TXMOD_RETURN_IF_ERROR(file_->Truncate(0));
  // From here on the file is headerless: any failure before the header
  // is back and durable leaves a log recovery cannot even open, so it
  // poisons — writers must not pile records onto a broken prefix.
  auto poison = [&](const Status& why) {
    if (!broken_.load()) broken_cause_guarded_ = why.message();
    broken_.store(true);
    sync_cv_->notify_all();
    return why;
  };
  const Status header =
      WriteFullyTo(file_.get(), StrCat(header_, "\n"), "WAL header");
  if (!header.ok()) return poison(header);
  const Status synced = file_->Sync();
  if (!synced.ok()) return poison(synced);
  // The truncate rewrote the file in place (same directory entry), but a
  // metadata journal may still order it after a pending rename of the
  // sibling checkpoint — sync the directory so checkpoint + empty log
  // become durable together.
  const Status dir = vfs_->SyncParentDirectory(path_);
  if (!dir.ok()) return poison(dir);
  // LSNs stay monotonic; everything appended so far is durably gone, so
  // the durable horizon catches up to the append horizon.
  durable_lsn_guarded_ = appended_lsn_.load();
  return Status::OK();
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(*sync_mu_);
  return durable_lsn_guarded_;
}

Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       WalReplayStats* stats,
                                       WalShardInfo* info) {
  StreamReader reader;
  TXMOD_RETURN_IF_ERROR(reader.Open(path, info));
  std::vector<WalRecord> out;
  WalRecord rec;
  while (reader.Next(&rec)) out.push_back(std::move(rec));
  if (stats != nullptr) {
    stats->records_read += out.size();
    if (reader.tail_dropped()) {
      stats->tail_dropped = true;
      stats->tail_error = reader.tail_error();
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ShardedWal.
// ---------------------------------------------------------------------------

namespace {

/// Per-stream torn-tail repair: when `stream_path` ends in a torn or
/// corrupt record, copies its valid prefix into a temp stream (opened by
/// `open_fresh`, which supplies the right header) and renames it into
/// place. Appending after a tear would make every later record on the
/// stream unreachable to recovery, which stops at the first invalid one.
/// The first read keeps no record; only a torn stream is read again,
/// one record at a time into the copy.
template <typename OpenFresh>
Status RepairStreamIfTorn(const std::string& stream_path, Vfs* vfs,
                          OpenFresh&& open_fresh) {
  {
    StreamReader reader;
    TXMOD_RETURN_IF_ERROR(reader.Open(stream_path));
    WalRecord rec;
    while (reader.Next(&rec)) {
    }
    if (!reader.tail_dropped()) return Status::OK();
  }
  const std::string tmp = StrCat(stream_path, ".repair");
  // A crash during a previous repair can leave a stale (possibly itself
  // torn) .repair file; appending to it would corrupt the repaired
  // stream or brick startup. Start from nothing.
  TXMOD_RETURN_IF_ERROR(vfs->Remove(tmp));
  {
    TXMOD_ASSIGN_OR_RETURN(WriteAheadLog fresh, open_fresh(tmp));
    StreamReader reader;
    TXMOD_RETURN_IF_ERROR(reader.Open(stream_path));
    WalRecord rec;
    while (reader.Next(&rec)) {
      TXMOD_RETURN_IF_ERROR(fresh.Append(rec).status());
    }
    TXMOD_RETURN_IF_ERROR(fresh.Sync(fresh.appended_lsn()));
  }
  TXMOD_RETURN_IF_ERROR(vfs->Rename(tmp, stream_path));
  return vfs->SyncParentDirectory(stream_path);
}

}  // namespace

std::string ShardedWal::ShardPath(const std::string& path, uint32_t shard) {
  return StrCat(path, ".shard", shard);
}

uint32_t ShardedWal::ShardOf(const std::string& relation,
                             uint32_t shard_count) {
  if (shard_count < 2) return 0;
  return static_cast<uint32_t>(Fnv1a(relation) % shard_count);
}

Result<uint32_t> ShardedWal::DiscoverShardCount(const std::string& path) {
  TXMOD_ASSIGN_OR_RETURN(const std::vector<std::string> streams,
                         StreamPaths(path));
  // Only the first readable shard header is needed — every stream of one
  // log declares the same n, and streams are created in index order.
  for (const std::string& stream : streams) {
    if (stream == path) return static_cast<uint32_t>(1);  // one stream
    std::ifstream in(stream);
    std::string first;
    if (!std::getline(in, first)) continue;  // empty or torn: keep probing
    WalShardInfo declared;
    if (ParseWalHeader(first, &declared) && declared.sharded) {
      return declared.shard_count;
    }
  }
  return static_cast<uint32_t>(0);  // no log on disk
}

Result<std::unique_ptr<ShardedWal>> ShardedWal::Open(const std::string& path,
                                                     uint32_t shard_count,
                                                     Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  // Clamp to the probe bound: discovery, reopen-wipe, and header
  // validation all probe at most kMaxProbeShards streams, so a larger
  // layout could be written but never fully read back.
  uint32_t n = std::min(std::max<uint32_t>(1, shard_count), kMaxProbeShards);
  // An existing log's count wins over the configured one: adopting a
  // different n would scramble the routing the on-disk records were
  // written under, or split one stream's records across two layouts.
  TXMOD_ASSIGN_OR_RETURN(const uint32_t on_disk, DiscoverShardCount(path));
  if (on_disk > 0) n = on_disk;
  std::unique_ptr<ShardedWal> log(new ShardedWal(path, n));
  if (n == 1) {
    TXMOD_RETURN_IF_ERROR(RepairStreamIfTorn(
        path, vfs, [&](const std::string& p) {
          return WriteAheadLog::Open(p, vfs);
        }));
    TXMOD_ASSIGN_OR_RETURN(WriteAheadLog stream,
                           WriteAheadLog::Open(path, vfs));
    log->shards_.push_back(std::move(stream));
    return log;
  }
  log->shards_.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    const std::string sp = ShardPath(path, k);
    TXMOD_RETURN_IF_ERROR(RepairStreamIfTorn(
        sp, vfs, [&](const std::string& p) {
          return WriteAheadLog::OpenShard(p, k, n, vfs);
        }));
    TXMOD_ASSIGN_OR_RETURN(WriteAheadLog stream,
                           WriteAheadLog::OpenShard(sp, k, n, vfs));
    log->shards_.push_back(std::move(stream));
  }
  return log;
}

Result<std::vector<ShardedWal::Position>> ShardedWal::AppendCommit(
    const WalRecord& rec) {
  std::vector<Position> out;
  if (shard_count_ == 1) {
    TXMOD_ASSIGN_OR_RETURN(const uint64_t lsn, shards_[0].Append(rec));
    out.push_back(Position{0, lsn});
    return out;
  }
  // Route deltas to their shards; every part carries the shared version
  // and the declared fan-out width m, the stitching key of recovery.
  std::map<uint32_t, WalRecord> parts;
  for (const WalDelta& delta : rec.deltas) {
    parts[ShardOf(delta.relation, shard_count_)].deltas.push_back(delta);
  }
  const uint32_t m = static_cast<uint32_t>(parts.size());
  out.reserve(m);
  for (auto& [shard, part] : parts) {
    part.version = rec.version;
    part.parts = m;
    TXMOD_ASSIGN_OR_RETURN(const uint64_t lsn, shards_[shard].Append(part));
    out.push_back(Position{shard, lsn});
  }
  return out;
}

Status ShardedWal::SyncPositions(const std::vector<Position>& positions) {
  for (const Position& pos : positions) {
    TXMOD_RETURN_IF_ERROR(shards_[pos.shard].Sync(pos.lsn));
  }
  return Status::OK();
}

Status ShardedWal::Truncate() {
  for (WriteAheadLog& stream : shards_) {
    TXMOD_RETURN_IF_ERROR(stream.Truncate());
  }
  return Status::OK();
}

bool ShardedWal::broken(std::string* cause) const {
  for (const WriteAheadLog& stream : shards_) {
    if (stream.broken(cause)) return true;
  }
  if (cause != nullptr) cause->clear();
  return false;
}

uint64_t ShardedWal::fsync_count() const {
  uint64_t total = 0;
  for (const WriteAheadLog& s : shards_) total += s.fsync_count();
  return total;
}

uint64_t ShardedWal::sync_requests() const {
  uint64_t total = 0;
  for (const WriteAheadLog& s : shards_) total += s.sync_requests();
  return total;
}

uint64_t ShardedWal::appended_parts() const {
  uint64_t total = 0;
  for (const WriteAheadLog& s : shards_) total += s.appended_lsn();
  return total;
}

namespace {

/// Replays the log rooted at `path`: hands its records to `sink` (a
/// callable taking a WalRecord&& and returning a Status) in replay order,
/// as the streams are read. Version order is the replay order: commit
/// order is decided under the manager's commit lock, but records are
/// appended outside it, so even a single stream may hold versions out of
/// file order.
///
/// The stream furthest behind (the one whose last record has the lowest
/// version) is read next. A record at or below `checkpoint_time` goes to
/// the sink at once, once per version, for skip accounting; the rest of
/// such a version's parts are dropped. A record above it waits until
/// every declared part of its version has arrived and every version
/// below it has gone to the sink, and then goes as one record. A record
/// for a version that already went cuts the log there. When every stream
/// is read, whatever still waits sits above an incomplete fan-out or a
/// version gap, and is cut.
template <typename Sink>
Status ReplayLog(const std::string& path, uint64_t checkpoint_time,
                 WalReplayStats* stats, Sink&& sink) {
  auto drop_tail = [stats](const std::string& why) {
    if (stats != nullptr) {
      stats->tail_dropped = true;
      if (stats->tail_error.empty()) stats->tail_error = why;
    }
  };
  auto yield = [stats, &sink](WalRecord&& rec) {
    if (stats != nullptr) ++stats->records_read;
    return sink(std::move(rec));
  };

  TXMOD_ASSIGN_OR_RETURN(const std::vector<std::string> paths,
                         StreamPaths(path));
  struct Stream {
    const std::string* path;
    StreamReader reader;
    uint64_t last = 0;  // version of the record read last
  };
  std::vector<std::unique_ptr<Stream>> streams;
  for (const std::string& stream_path : paths) {
    streams.push_back(std::make_unique<Stream>());
    streams.back()->path = &stream_path;
    TXMOD_RETURN_IF_ERROR(streams.back()->reader.Open(stream_path));
  }

  // A version above the checkpoint, gathered part by part. `whole.parts`
  // is the count its first part declared.
  struct Assembly {
    WalRecord whole;
    uint32_t arrived = 0;
    bool consistent = true;  // every part declared the same count
  };
  std::map<uint64_t, Assembly> waiting;
  std::set<uint64_t> covered;  // versions at or below the checkpoint
  uint64_t next = checkpoint_time + 1;
  for (;;) {
    for (auto it = waiting.begin();
         it != waiting.end() && it->first == next &&
         it->second.consistent && it->second.arrived == it->second.whole.parts;
         it = waiting.begin()) {
      WalRecord whole = std::move(it->second.whole);
      waiting.erase(it);
      whole.parts = 1;
      TXMOD_RETURN_IF_ERROR(yield(std::move(whole)));
      ++next;
    }
    Stream* behind = nullptr;
    for (const std::unique_ptr<Stream>& stream : streams) {
      if (!stream->reader.done() &&
          (behind == nullptr || stream->last < behind->last)) {
        behind = stream.get();
      }
    }
    if (behind == nullptr) break;
    WalRecord rec;
    if (!behind->reader.Next(&rec)) {
      if (behind->reader.tail_dropped()) {
        drop_tail(StrCat(*behind->path, ": ", behind->reader.tail_error()));
      }
      continue;
    }
    behind->last = rec.version;
    if (rec.version <= checkpoint_time) {
      // Covered by the checkpoint (a crash or truncate fault between the
      // checkpoint's rename and the WAL's truncation leaves such records
      // behind, possibly on only some streams): exempt from the gap and
      // fan-out rules.
      if (covered.insert(rec.version).second) {
        TXMOD_RETURN_IF_ERROR(yield(std::move(rec)));
      }
      continue;
    }
    if (rec.version < next) {
      drop_tail(StrCat("version ", rec.version, " repeated after replay"));
      return Status::OK();
    }
    auto [it, first] = waiting.try_emplace(rec.version);
    Assembly& assembly = it->second;
    if (first) {
      assembly.whole = std::move(rec);
    } else {
      assembly.consistent =
          assembly.consistent && rec.parts == assembly.whole.parts;
      for (WalDelta& delta : rec.deltas) {
        assembly.whole.deltas.push_back(std::move(delta));
      }
    }
    ++assembly.arrived;
    if (assembly.arrived > assembly.whole.parts) assembly.consistent = false;
  }
  // Commit acknowledgement is contiguous (no commit is acked while an
  // earlier version is not durable), so nothing above a version that is
  // missing or incomplete was acked: it is all dropped.
  if (!waiting.empty()) {
    const auto& [version, assembly] = *waiting.begin();
    if (version == next) {
      drop_tail(StrCat("incomplete fan-out for version ", version, " (",
                       assembly.arrived, " of ", assembly.whole.parts,
                       " parts)"));
    } else {
      drop_tail(StrCat("version gap after ", next - 1));
    }
  }
  return Status::OK();
}

/// Applies one delta of a record at `rec`'s version: deletes first, then
/// inserts. A Delta of type WalDelta is taken apart: its tuples are
/// moved into `rel`. A const one is left whole: an inserted tuple is
/// copied, and a deleted one only when it needs widening.
template <typename Delta>
Status ApplyDelta(Delta& delta, Relation* rel) {
  const RelationSchema& schema = rel->schema();
  for (auto& t : delta.minus) {
    TXMOD_RETURN_IF_ERROR(schema.CheckTuple(t));
    if (schema.NeedsCoercion(t)) {
      rel->Erase(schema.CoerceTuple(std::move(t)));
    } else {
      rel->Erase(t);
    }
  }
  for (auto& t : delta.plus) {
    TXMOD_RETURN_IF_ERROR(schema.CheckTuple(t));
    rel->Insert(schema.CoerceTuple(std::move(t)));
  }
  return Status::OK();
}

template <typename Record>
Status ApplyRecord(Record& rec, Database* db, WalReplayStats* stats) {
  if (rec.version <= db->logical_time()) {
    // Already covered by the checkpoint (a crash between checkpoint
    // rename and WAL truncation leaves such records behind; they are
    // harmless by design).
    if (stats != nullptr) ++stats->records_skipped;
    return Status::OK();
  }
  if (rec.version != db->logical_time() + 1) {
    return Status::InvalidArgument(
        StrCat("WAL record version ", rec.version, " does not follow ",
               "database time ", db->logical_time()));
  }
  for (auto& delta : rec.deltas) {
    TXMOD_ASSIGN_OR_RETURN(Relation * rel, db->FindMutable(delta.relation));
    TXMOD_RETURN_IF_ERROR(ApplyDelta(delta, rel));
  }
  db->AdvanceTime();
  return Status::OK();
}

}  // namespace

Result<std::vector<WalRecord>> ReadShardedWal(const std::string& path,
                                              WalReplayStats* stats,
                                              uint64_t checkpoint_time) {
  std::vector<WalRecord> out;
  TXMOD_RETURN_IF_ERROR(ReplayLog(path, checkpoint_time, stats,
                                  [&out](WalRecord&& rec) {
                                    out.push_back(std::move(rec));
                                    return Status::OK();
                                  }));
  return out;
}

Status ApplyWalRecord(const WalRecord& rec, Database* db,
                      WalReplayStats* stats) {
  return ApplyRecord(rec, db, stats);
}

Status ApplyWalRecord(WalRecord&& rec, Database* db, WalReplayStats* stats) {
  return ApplyRecord(rec, db, stats);
}

Result<Database> RecoverDatabase(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 WalReplayStats* stats) {
  TXMOD_ASSIGN_OR_RETURN(Database db,
                         LoadDatabaseFromFile(checkpoint_path));
  TXMOD_RETURN_IF_ERROR(ReplayLog(wal_path, db.logical_time(), stats,
                                  [&db, stats](WalRecord&& rec) {
                                    return ApplyWalRecord(std::move(rec), &db,
                                                          stats);
                                  }));
  return db;
}

}  // namespace txmod
