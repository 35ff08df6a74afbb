#ifndef TXMOD_RELATIONAL_DATABASE_H_
#define TXMOD_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/relational/relation.h"
#include "src/relational/schema.h"

namespace txmod {

/// A database state D = {R1, ..., Rn} of a database schema (Definition
/// 2.2), together with its logical time t (Definition 2.3). Transactions
/// advance logical time by exactly one on commit (single-step transitions);
/// an aborted transaction leaves both state and time unchanged.
///
/// Snapshot facility: the schema and the relations are held behind
/// shared pointers, so copying a Database — Clone(), the copy
/// constructor, or assignment — is O(#relations) and *shares* the schema
/// and every relation state with the source.
/// Value semantics are preserved by FindMutable: the first mutable
/// access to a shared relation un-shares it privately first, with an
/// O(1) overlay over the immutable shared base (mutations then cost
/// O(|delta|)). This is what gives concurrent sessions a stable
/// committed snapshot D^t to read while writers build differentials: a
/// snapshot is just a Clone() of the committed database, and neither
/// side's mutations are ever visible to the other. A transaction layers
/// a level even over an exclusively owned state (PushLevel): the level
/// is its differential, and the state underneath stays its old(R).
///
/// Ownership discipline (the race-freedom argument): every Database
/// instance tracks which relation states it exclusively owns — those it
/// created or layered itself and has never shared out. Copying a Database
/// marks every state shared on BOTH sides, and a shared state is
/// immutable forever after: FindMutable never mutates one, it layers an
/// overlay first. Deliberately NOT shared_ptr::use_count() — observing a
/// refcount drop to 1 via its relaxed load would not establish a
/// happens-before edge with the releasing thread's prior reads, so
/// mutating "because the count says we are alone" is a data race
/// (ThreadSanitizer-verified). The owned-set is per-instance state,
/// touched only by this instance's single thread (or under the
/// transaction manager's commit lock).
///
/// Thread safety: a Database object is single-threaded, but Database
/// objects sharing relation states may be used from different threads as
/// long as snapshot creation (copying) is not concurrent with mutation
/// of the source — the transaction manager serializes Begin() against
/// commit application for exactly this reason. A shared state may also
/// be read by a thread that holds it and no Database at all: a
/// transaction manager's committer compacts the state Share hands it
/// (Relation::Compact) with no lock held while the master moves on, and
/// SwapCompacted installs the result.
class Database {
 public:
  Database() = default;
  /// Copying shares every relation state and renders them immutable on
  /// both sides (each side layers an overlay on its next write).
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Creates an empty relation for `schema`. Names must be unique.
  Status CreateRelation(RelationSchema schema);

  Result<const Relation*> Find(const std::string& name) const;

  /// Mutable access that never leaks mutation into other holders: an
  /// exclusively owned state as is, a shared one (an outstanding
  /// snapshot holds it) behind a fresh overlay level (PushLevel).
  Result<Relation*> FindMutable(const std::string& name);

  /// A state installed over the one it displaced (PushLevel,
  /// AdoptRelation); DropLevel and FoldLevel end it. Either must end the
  /// newest level on its name, with no PushLevel or AdoptRelation on that
  /// name since: ownership is tracked per name, so a later install's
  /// would pass for the level's.
  struct Level {
    Relation* top = nullptr;        // the installed state
    std::shared_ptr<Relation> pre;  // the state it displaced
    bool pre_owned = false;         // this database owned `pre` exclusively
  };

  /// Installs a fresh, exclusively owned overlay level over `name`'s
  /// current state S, shared or owned, in O(#declared indexes); declared
  /// indexes are mirrored, so compiled checks keep probing via
  /// FindIndexView. S is never mutated while the level is installed.
  Result<Level> PushLevel(const std::string& name);

  /// Re-installs `level.pre` in place of the level, O(1) — a rollback.
  /// `pre` is owned again only if it was before and the level was never
  /// shared since (a copy of the level still reads `pre` through it):
  /// under the contract above, `name` is still in the owned set exactly
  /// when the level was not shared. Returns the level's state, which
  /// this database no longer holds.
  std::shared_ptr<Relation> DropLevel(const std::string& name, Level level);

  /// A serial commit: under DropLevel's ownership condition, folds the
  /// level into `pre` (Relation::Absorb, O(|delta|)) and re-installs it,
  /// so serial masters stay flat; otherwise the level stays installed.
  /// An owned overlay result is replaced by its compaction
  /// (Relation::Compact, inline, as a transaction manager's committer
  /// compacts), which bounds overlay depth.
  void FoldLevel(const std::string& name, Level level);

  /// `name`'s current state, shared out: this database stops owning it
  /// exclusively, so it never mutates it in place again (FindMutable
  /// layers over it). A transaction manager's commit re-bases its level
  /// onto the state it takes this way, and its committer compacts the
  /// state it takes this way. Null when `name` is unknown.
  std::shared_ptr<const Relation> Share(const std::string& name);

  /// The compaction swap. Installs `replacement`, a compaction of the
  /// chain whose top was `start`, as `name`'s state — provided the
  /// current chain still holds `start`. Levels installed above `start`
  /// since are re-applied over `replacement` as one fresh level
  /// (Relation::Reapply: proportional to their delta weight; nothing
  /// merges or collapses here). The installed state is never owned: it
  /// may share levels with the chains it replaced. Returns the displaced
  /// state, or null — nothing installed — when `start` is gone (say, a
  /// DropLevel re-installed an older state).
  std::shared_ptr<const Relation> SwapCompacted(
      const std::string& name, const Relation* start,
      std::shared_ptr<const Relation> replacement);

  bool Contains(const std::string& name) const {
    return relations_.find(name) != relations_.end();
  }

  /// The schema the relations were created with, shared by every copy.
  /// CreateRelation installs an extended copy: a reference taken before
  /// it stays valid only while another copy of the database holds the
  /// older schema.
  const DatabaseSchema& schema() const;

  /// Names in deterministic (sorted) order.
  std::vector<std::string> RelationNames() const;

  uint64_t logical_time() const { return logical_time_; }
  void AdvanceTime() { ++logical_time_; }
  /// Sets the time of a restored state to the time it was saved at (the
  /// checkpoint loader).
  void RestoreTime(uint64_t time) { logical_time_ = time; }
  /// Steps time back one transition — only for un-installing the newest
  /// commit when its log record turned out not to be durable (the
  /// transaction manager's WAL-failure unwind).
  void RewindTime() { --logical_time_; }

  /// A copy with full value semantics. O(#relations) thanks to
  /// copy-on-write sharing: relation payloads are copied lazily, on first
  /// mutable access by whichever side writes first. This is the snapshot
  /// primitive: `Database snap = committed.Clone()` pins the committed
  /// state D^t for as long as `snap` lives.
  Database Clone() const;

  /// Transfers out a relation state this instance exclusively owns (see
  /// the ownership discipline above), removing the entry — this database
  /// no longer resolves `name` afterwards. Returns null when the state
  /// is shared or unknown. Together with AdoptRelation this is how the
  /// transaction manager installs every write-ful commit: the session
  /// hands its overlay level — its delta over the snapshot's state — over
  /// by pointer, not by copy, and the manager re-bases it onto the
  /// committed state (Relation::Rebase) before adopting it.
  std::shared_ptr<Relation> TakeOwnedRelation(const std::string& name);

  /// Installs `rel` as `name`'s state and takes exclusive ownership. The
  /// caller must guarantee no other Database still shares `rel` (pairs
  /// with TakeOwnedRelation, whose owned-set proof supplies exactly
  /// that). The relation must exist in the schema already. Returns the
  /// install as a Level, so DropLevel can undo it in O(1).
  Level AdoptRelation(const std::string& name, std::shared_ptr<Relation> rel);

  /// True when both databases hold the same relations with the same
  /// tuples. Logical time is deliberately NOT part of the default
  /// comparison — two states reached by different transaction histories
  /// (e.g. a recovered database vs. the live one it mirrors, or a serial
  /// replay vs. a concurrent execution) compare equal when their contents
  /// agree. Pass `compare_time = true` to additionally require equal
  /// logical times. (Clone() always copies the time; SameState ignoring
  /// it by default is the documented asymmetry.)
  bool SameState(const Database& other, bool compare_time = false) const;

 private:
  // Shared by every copy, never mutated; null until the first relation.
  std::shared_ptr<const DatabaseSchema> schema_;
  // Shared relation states: the copy-on-write substrate.
  std::map<std::string, std::shared_ptr<Relation>> relations_;
  // Names whose state this instance exclusively owns (created or layered
  // here, never shared out), all keys of relations_. Mutable: copying a
  // const source must strip the source's ownership too, or it would keep
  // mutating state the copy now reads.
  mutable std::set<std::string> owned_;
  uint64_t logical_time_ = 0;
};

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_DATABASE_H_
