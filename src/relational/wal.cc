#include "src/relational/wal.h"

#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>

#include "src/common/str_util.h"
#include "src/common/xxh64.h"
#include "src/relational/persist.h"

namespace txmod {

namespace {

constexpr char kWalHeader[] = "txmod-wal 3";  // format kWalFormat
// The header of a format 1 log, which is read with FNV-1a and rewritten.
constexpr char kWalV1Header[] = "txmod-wal 1";
// Builds that sharded the log wrote stream k to `<path>.shard<k>`, with
// k below this bound.
constexpr int kLegacyShardFiles = 64;

/// Parses a whole view as a decimal uint64 (no sign, no spaces).
bool ParseU64(std::string_view text, uint64_t* v) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *v);
  return !text.empty() && r.ec == std::errc() && r.ptr == end;
}

constexpr uint64_t kFnvBasis = UINT64_C(14695981039346656037);

/// FNV-1a of `s`, continued from the hash `h` of the bytes before it: the
/// checksum of formats 1 and 2, read but no longer written.
uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvBasis) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= UINT64_C(1099511628211);
  }
  return h;
}

/// A record body's checksum in a log of `format`, fed a piece at a time.
class BodyChecksum {
 public:
  explicit BodyChecksum(int format) : fnv1a_(format < 3) {}

  void Update(std::string_view bytes) {
    if (fnv1a_) {
      fnv1a_hash_ = Fnv1a(bytes, fnv1a_hash_);
    } else {
      xxh64_.Update(bytes);
    }
  }
  uint64_t Digest() const { return fnv1a_ ? fnv1a_hash_ : xxh64_.Digest(); }

 private:
  bool fnv1a_;
  uint64_t fnv1a_hash_ = kFnvBasis;
  Xxh64 xxh64_;
};

/// The longest "txn <version>\n" and "commit <version> <hex>\n" lines.
constexpr std::size_t kTxnLineBound = 4 + 20 + 1;
constexpr std::size_t kCommitLineBound = 7 + 20 + 1 + 16 + 1;

/// Writes `text` at `out` and returns its end.
char* WriteText(std::string_view text, char* out) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// Writes `v` as 16 lower-case hex digits, zero-padded, at `out`.
char* WriteHex16(uint64_t v, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 0xF];
  return out + 16;
}

/// Writes "commit <version> <checksum as 16 hex digits>\n" at `out`,
/// which has room for kCommitLineBound bytes.
char* WriteCommitLine(uint64_t version, uint64_t checksum, char* out) {
  out = WriteText("commit ", out);
  out = std::to_chars(out, out + 20, version).ptr;
  *out++ = ' ';
  out = WriteHex16(checksum, out);
  *out++ = '\n';
  return out;
}

/// A delta's tuples, in the order the encoder writes them: a WalDelta's
/// in vector order, a CommitDelta's in its set's row order (the order the
/// transaction wrote them).
const std::vector<Tuple>& TuplesOf(const std::vector<Tuple>& tuples) {
  return tuples;
}
const Relation& TuplesOf(const std::shared_ptr<const Relation>& set) {
  return *set;
}

/// An upper bound on the encoded size of `rec` and its commit line, so
/// that encoding allocates once and writes through pointers. Record is
/// WalRecord or CommitRecord.
template <typename Record>
std::size_t RecordSizeBound(const Record& rec) {
  std::size_t n = kTxnLineBound + kCommitLineBound;
  for (const auto& delta : rec.deltas) {
    n += delta.relation.size() + 5;  // "rel ", the name and the newline
    for (const auto* tuples : {&delta.plus, &delta.minus}) {
      for (const Tuple& t : TuplesOf(*tuples)) {
        n += 2;  // the "+" or "-" and the newline
        for (const Value& v : t.values()) n += 1 + ValueTextSizeBound(v);
      }
    }
  }
  return n;
}

/// The one encoder of both record forms: the record body (everything the
/// checksum covers) followed by its commit line, written in one pass into
/// `*buffer`, which it allocates once, RecordSizeBound bytes, and leaves
/// uninitialized past what it writes. Returns the bytes written.
template <typename Record>
std::string_view EncodeRecord(const Record& rec,
                              std::unique_ptr<char[]>* buffer) {
  buffer->reset(new char[RecordSizeBound(rec)]);
  char* const begin = buffer->get();
  char* p = WriteText("txn ", begin);
  p = std::to_chars(p, p + 20, rec.version).ptr;
  *p++ = '\n';
  auto write_tuples = [&p](char sign, const auto& tuples) {
    for (const Tuple& t : TuplesOf(tuples)) {
      *p++ = sign;
      for (const Value& v : t.values()) {
        *p++ = ' ';
        p = WriteValueText(v, p);
      }
      *p++ = '\n';
    }
  };
  for (const auto& delta : rec.deltas) {
    p = WriteText("rel ", p);
    p = WriteText(delta.relation, p);
    *p++ = '\n';
    write_tuples('+', delta.plus);
    write_tuples('-', delta.minus);
  }
  const uint64_t checksum = WalRecordChecksum(
      std::string_view(begin, static_cast<std::size_t>(p - begin)));
  p = WriteCommitLine(rec.version, checksum, p);
  return std::string_view(begin, static_cast<std::size_t>(p - begin));
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
  char hex[16];
  WriteHex16(checksum, hex);
  const std::string_view expected(hex, sizeof(hex));
  return StartsWith(line, expected) &&
         (line.size() == expected.size() ||
          std::isspace(static_cast<unsigned char>(line[expected.size()])));
}

/// Parses "txn <version>".
bool ParseTxnLine(std::string_view line, WalRecord* rec) {
  *rec = WalRecord{};
  return StartsWith(line, "txn ") && ParseU64(line.substr(4), &rec->version);
}

/// The one reader of a WAL stream. It yields the stream's records in
/// file order, each only after its checksum matched and every tuple line
/// in it decoded, and it ends at the first record that fails either: a
/// torn append, a truncated tail or bit rot. The checksum is the one the
/// header's format names, computed line by line as the record is read,
/// so the reader holds one record and one LineReader chunk, never the
/// stream. Not movable: its LineReader points at its file.
class StreamReader {
 public:
  StreamReader() = default;
  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Opens `path` and reads its header: format 3's, or format 1's. A
  /// missing file and one of zero bytes are empty streams; a torn
  /// header — a prefix of either header line, or the whole line without
  /// its newline, with nothing after it — is an empty stream with a
  /// dropped tail. Any other first line is not a WAL, and an error.
  Status Open(const std::string& path);

  /// The format the header named (kWalFormat for an empty stream).
  int format() const { return format_; }

  /// Reads the next record into `*rec`. False at the end of the stream
  /// and at its first bad record; tail_dropped() then tells which, and
  /// tail_error() what was wrong. The writer appends every line together
  /// with its newline, so a commit line without one is a torn record.
  bool Next(WalRecord* rec);

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
  int format_ = kWalFormat;
  bool done_ = false;
  bool tail_dropped_ = false;
  std::string tail_error_;
  std::size_t arity_hint_ = 0;  // the arity of the last tuple line
};

Status StreamReader::Open(const std::string& path) {
  in_.open(path, std::ios::binary);
  std::string_view line;
  if (!in_.is_open() || !lines_.Next(&line)) {  // no WAL, or zero bytes
    done_ = true;
    return Status::OK();
  }
  if (lines_.terminated()) {
    if (line == kWalHeader) return Status::OK();
    if (line == kWalV1Header) {
      format_ = 1;
      return Status::OK();
    }
  }
  // A crash can tear even the header write. A prefix of a header line
  // (the whole line when its newline is missing) with nothing after it
  // is such a torn tail — an empty log; anything else is genuinely not a
  // WAL.
  if ((StartsWith(kWalHeader, line) || StartsWith(kWalV1Header, line)) &&
      !lines_.Next(&line)) {
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
  BodyChecksum checksum(format_);  // of the record's lines so far
  WalDelta* delta = nullptr;
  while (lines_.Next(&line)) {
    // The line as the writer wrote it: a terminated line's newline
    // follows it in the reader's buffer, so one update covers both.
    const std::string_view written(
        line.data(), line.size() + (lines_.terminated() ? 1 : 0));
    if (!in_record) {
      if (line.empty()) continue;
      if (!StartsWith(line, "txn ")) {
        return DropTail(StrCat("expected 'txn', found '", line, "'"));
      }
      if (!ParseTxnLine(line, rec)) {
        return DropTail(StrCat("bad txn line '", line, "'"));
      }
      checksum.Update(written);
      in_record = true;
      continue;
    }
    if (StartsWith(line, "commit ")) {
      if (!CommitLineMatches(line, rec->version, checksum.Digest())) {
        return DropTail(
            StrCat("bad commit line for version ", rec->version));
      }
      if (!lines_.terminated()) {
        return DropTail(StrCat("commit line for version ", rec->version,
                               " lost its newline"));
      }
      return true;
    }
    checksum.Update(written);
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

/// Builds that sharded the log split it across `<path>.shard<k>` files.
/// Reading or appending to `path` alone would lose the commits those
/// files hold, so a log that has one is refused.
Status RefuseShardFiles(const std::string& path) {
  for (int k = 0; k < kLegacyShardFiles; ++k) {
    const std::string shard_path = StrCat(path, ".shard", k);
    if (FileExists(shard_path)) {
      return Status::InvalidArgument(StrCat(
          "WAL stream ", shard_path, " was written by a build that sharded ",
          "the log; this build reads only the single stream at ", path));
    }
  }
  return Status::OK();
}

/// Rewrites the log at `path` where appending to it would go wrong: when
/// it ends in a torn or corrupt record, because every record appended
/// after the tear would be unreachable to recovery, which stops at the
/// first invalid one; and when it is in format 1, because one file would
/// then hold records of two formats. Copies the valid records into a
/// temp log, which is written in format kWalFormat, and renames it into
/// place. The first read keeps no record; only a log that needs the
/// rewrite is read again, one record at a time into the copy.
Status RewriteIfTornOrOld(const std::string& path, Vfs* vfs) {
  {
    StreamReader reader;
    TXMOD_RETURN_IF_ERROR(reader.Open(path));
    WalRecord rec;
    while (reader.Next(&rec)) {
    }
    if (!reader.tail_dropped() && reader.format() == kWalFormat) {
      return Status::OK();
    }
  }
  const std::string tmp = StrCat(path, ".repair");
  // A crash during a previous rewrite can leave a stale (possibly itself
  // torn) .repair file; appending to it would corrupt the rewritten
  // log or brick startup. Start from nothing.
  TXMOD_RETURN_IF_ERROR(vfs->Remove(tmp));
  {
    // The temp log does not exist: this Open creates it, with nothing
    // to refuse or repair.
    TXMOD_ASSIGN_OR_RETURN(WriteAheadLog fresh, WriteAheadLog::Open(tmp, vfs));
    StreamReader reader;
    TXMOD_RETURN_IF_ERROR(reader.Open(path));
    WalRecord rec;
    while (reader.Next(&rec)) {
      TXMOD_RETURN_IF_ERROR(fresh.Append(rec).status());
    }
    TXMOD_RETURN_IF_ERROR(fresh.Sync(fresh.appended_lsn()));
  }
  TXMOD_RETURN_IF_ERROR(vfs->Rename(tmp, path));
  return vfs->SyncParentDirectory(path);
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path, Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  TXMOD_RETURN_IF_ERROR(RefuseShardFiles(path));
  TXMOD_RETURN_IF_ERROR(RewriteIfTornOrOld(path, vfs));
  WriteAheadLog log(path, vfs);
  TXMOD_ASSIGN_OR_RETURN(log.file_, vfs->OpenAppend(path));
  TXMOD_ASSIGN_OR_RETURN(const uint64_t size, log.file_->Size());
  if (size == 0) {
    TXMOD_RETURN_IF_ERROR(WriteFullyTo(log.file_.get(),
                                       StrCat(kWalHeader, "\n"), "WAL header"));
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
    // Verify this really is a WAL before appending to it.
    std::ifstream in(path);
    std::string first;
    if (!std::getline(in, first) || first != kWalHeader) {
      return Status::InvalidArgument(StrCat(path, " is not a txmod WAL"));
    }
  }
  return log;
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)),
      vfs_(other.vfs_),
      file_(std::move(other.file_)),
      appended_lsn_(other.appended_lsn_.load()),
      sync_mu_(std::move(other.sync_mu_)),
      sync_cv_(std::move(other.sync_cv_)),
      durable_lsn_guarded_(other.durable_lsn_guarded_),
      sync_in_progress_(other.sync_in_progress_),
      fsync_count_(other.fsync_count_.load()),
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
  std::unique_ptr<char[]> buffer;
  return AppendEncoded(EncodeRecord(rec, &buffer));
}

Result<uint64_t> WriteAheadLog::Append(const CommitRecord& rec) {
  std::unique_ptr<char[]> buffer;
  return AppendEncoded(EncodeRecord(rec, &buffer));
}

Result<uint64_t> WriteAheadLog::AppendEncoded(std::string_view full) {
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
      WriteFullyTo(file_.get(), StrCat(kWalHeader, "\n"), "WAL header");
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

namespace {

/// Replays the log at `path`: hands its records to `sink` (a callable
/// taking a WalRecord&& and returning a Status) in replay order, as the
/// log is read. Version order is the replay order: commit order is
/// decided under the manager's commit lock, but records are appended
/// outside it, so the log may hold versions out of file order.
///
/// A record at or below `checkpoint_time` goes to the sink at once, for
/// skip accounting. A record above it waits until every version below it
/// has gone to the sink. A record for a version that already went, or
/// already waits, cuts the log there. When the log is read, whatever
/// still waits sits above a version gap, and is cut.
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

  TXMOD_RETURN_IF_ERROR(RefuseShardFiles(path));
  StreamReader reader;
  TXMOD_RETURN_IF_ERROR(reader.Open(path));
  std::map<uint64_t, WalRecord> waiting;  // read ahead of a missing version
  uint64_t next = checkpoint_time + 1;
  WalRecord rec;
  while (reader.Next(&rec)) {
    if (rec.version <= checkpoint_time) {
      // Covered by the checkpoint (a crash or truncate fault between the
      // checkpoint's rename and the WAL's truncation leaves such records
      // behind): exempt from the gap rule.
      TXMOD_RETURN_IF_ERROR(yield(std::move(rec)));
      continue;
    }
    if (rec.version < next || waiting.count(rec.version) != 0) {
      drop_tail(StrCat("version ", rec.version, " repeated"));
      return Status::OK();
    }
    waiting.emplace(rec.version, std::move(rec));
    for (auto it = waiting.begin(); it != waiting.end() && it->first == next;
         it = waiting.begin()) {
      WalRecord ready = std::move(it->second);
      waiting.erase(it);
      TXMOD_RETURN_IF_ERROR(yield(std::move(ready)));
      ++next;
    }
  }
  if (reader.tail_dropped()) {
    drop_tail(StrCat(path, ": ", reader.tail_error()));
  }
  // Commit acknowledgement is contiguous (no commit is acked while an
  // earlier version is not durable), so nothing above a missing version
  // was acked: it is all dropped.
  if (!waiting.empty()) drop_tail(StrCat("version gap after ", next - 1));
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

uint64_t WalRecordChecksum(std::string_view body, int format) {
  return format < 3 ? Fnv1a(body) : Xxh64::Of(body);
}

std::size_t EncodedSizeBound(const WalRecord& rec) {
  return RecordSizeBound(rec);
}

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
