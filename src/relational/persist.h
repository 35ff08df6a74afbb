#ifndef TXMOD_RELATIONAL_PERSIST_H_
#define TXMOD_RELATIONAL_PERSIST_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/vfs.h"
#include "src/relational/database.h"

namespace txmod {

/// Checkpointing for the main-memory store. PRISMA/DB kept all data in
/// memory and persisted via checkpoints; this module provides the same
/// facility with a line-oriented, human-readable text format:
///
///   txmod-checkpoint 1
///   time <logical-time>
///   relation <name> <arity>
///   attr <name> <int|double|string>      (arity times)
///   tuple <v1> <v2> ...                  (one line per tuple)
///   end
///   ...
///
/// Values use the text codec below. The format is a checkpoint of
/// committed state — transaction-local structures (differentials,
/// temporaries) are never persisted, matching the model: only
/// pre-/post-transaction states exist outside a transaction.
Status SaveDatabase(const Database& db, std::ostream& out);
Status SaveDatabaseToFile(const Database& db, const std::string& path);

/// Crash-safe checkpoint: writes to `path`.tmp, flushes to stable storage
/// (fsync), atomically renames over `path`, then fsyncs the parent
/// directory so the rename itself is durable. A crash at any point
/// leaves either the old checkpoint or the new one, never a torn file —
/// the property the WAL recovery path (wal.h) builds on (in particular,
/// checkpoint-then-truncate-WAL must never observe the truncation
/// durable while the rename is not). A temp file whose write or fsync
/// failed is removed, and one left by an earlier attempt is removed
/// before writing: after a failed fsync, a later fsync of the same file
/// may report success without persisting anything. All
/// writes/fsyncs/renames go through `vfs` (nullptr = the real POSIX
/// environment).
Status CheckpointDatabaseToFile(const Database& db, const std::string& path,
                                Vfs* vfs = nullptr);

/// Restores a checkpoint into a fresh Database (schema included).
///
/// The stream is read through a LineReader, so loading never holds the
/// whole file. When the stream can be rewound (a file or a string
/// stream), a first pass counts each relation's `tuple` lines, and the
/// relation is sized for twice as many before the first one is inserted:
/// no rehash while loading, and the load factor that growth by doubling
/// would have left at its lowest.
///
/// The loader is strict, because a checkpoint has no checksum. A keyword
/// line must have exactly its fields, and each number must be whole,
/// unsigned and in range: `time` a uint64, `relation`'s arity an int.
/// Anything else is InvalidArgument naming the line. So is a `relation`
/// line before the previous relation's `end`.
Result<Database> LoadDatabase(std::istream& in);
Result<Database> LoadDatabaseFromFile(const std::string& path);

/// Splits a stream into lines, reading it in chunks. A line is a view
/// into the reader's buffer and stays valid until the next call to Next.
/// The buffer holds one chunk of kChunk bytes and grows only to fit a
/// longer line, so a reader never holds the whole stream. The checkpoint
/// loader and the WAL reader (wal.h) both read through it.
class LineReader {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit LineReader(std::istream* in) : in_(in) {}

  /// The next line, without its newline. An unterminated last line is
  /// still a line, as with std::getline. False at the end of the stream,
  /// and when it cannot be read.
  bool Next(std::string_view* line);

  /// Whether the line Next last handed out ended in a newline: false only
  /// for an unterminated last line. The WAL reader needs it, because its
  /// writer appends every line together with its newline. A terminated
  /// line's newline follows it in the buffer, so the line with its
  /// newline is one view too.
  bool terminated() const { return terminated_; }

 private:
  std::istream* in_;
  std::string buf_;
  std::size_t begin_ = 0;  // first byte not yet handed out
  std::size_t end_ = 0;    // end of the bytes read so far
  bool terminated_ = true;
};

/// The value codec behind the checkpoint format, shared with the
/// write-ahead log (wal.h) and the server's `show` response. There is one
/// encoder and one decoder, and the text format is the one checkpoint
/// version 1 and every WAL version (1 to 3) have always used:
///
///   null          the null value
///   i:<digits>    int64, decimal, optional sign
///   d:<hex>       double as printf's %a (lossless; inf, -inf, nan);
///                 the decoder also takes strtod's decimal forms
///   s:"<chars>"   string; `"`, `\`, newline and tab are written as
///                 \", \\, \n and \t, every other byte (NUL included) raw
///
/// A line holds encodings separated by single spaces; a space inside a
/// quoted string belongs to the string. `tests/format_golden_test.cc`
/// pins the bytes.
///
/// The encoder is WriteValueText, a pointer writer: it puts one encoding
/// at `out`, which must have room for ValueTextSizeBound(v) bytes, and
/// returns the end of what it wrote. The WAL sizes a record's buffer
/// once from these bounds and writes every line through it.
char* WriteValueText(const Value& v, char* out);

/// The longest encoding of a value that is not a string: "d:", a sign,
/// "0x" and 21 bytes of magnitude, as in "d:-0x1.fffffffffffffp+1023"
/// and the negative denormal "d:-0x0.0000000000001p-1022". INT64_MIN's
/// "i:-9223372036854775808" takes 22, and "null" 4.
inline constexpr std::size_t kNumberTextBound = 26;

/// The most bytes WriteValueText writes for `v`: kNumberTextBound, or for
/// a string its prefix and quotes and two bytes per byte (every byte
/// escaped).
inline std::size_t ValueTextSizeBound(const Value& v) {
  return v.is_string() ? 4 + 2 * v.as_string().size() : kNumberTextBound;
}

/// WriteValueText's bytes appended to the caller's buffer, for the
/// checkpoint and `show`, which render a line at a time.
void AppendValueText(const Value& v, std::string* out);
/// The same bytes as a fresh string.
std::string EncodeValueText(const Value& v);

/// Decodes exactly one encoding. Strict: the whole of `text` must be
/// consumed, so trailing bytes (an embedded NUL included), leading
/// whitespace in a number, an int64 overflow and a double overflow are
/// errors, never a different value. Double underflow is accepted (%a
/// round-trips denormals), and a number payload longer than 63 bytes
/// is rejected (the encoder's longest, a negative %a double, is 24).
///
/// The forms the encoder writes are parsed in place: `null`, `i:` with
/// std::from_chars, `d:[-]0x<hex>` with std::from_chars in hex, and a
/// string whose closing quote ends the encoding. Every other input, and
/// any of these that the fast path does not take whole, goes through
/// strtoll/strtod and the string unescaper on a terminated copy, which
/// also produce every error. The fast path takes only inputs those
/// accept, with the same value, so the two paths decode alike.
Result<Value> DecodeValueText(std::string_view text);

/// Decodes a line of space-separated encodings (the values of a
/// checkpoint `tuple` line or a WAL `+`/`-` line) into a tuple, in one
/// pass: each encoding is decoded where it starts, as DecodeValueText
/// would decode it. Runs of spaces between encodings are skipped. The
/// tuple's values are reserved for `arity_hint` (its expected arity;
/// 0 when unknown) and trimmed when the line holds another count, so a
/// decoded tuple holds no spare capacity.
Result<Tuple> DecodeTupleText(std::string_view line,
                              std::size_t arity_hint = 0);

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_PERSIST_H_
