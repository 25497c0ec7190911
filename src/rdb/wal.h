// Write-ahead log: logical redo records for committed work on durable
// tables, appended to one file per database directory.
//
// Redo is the missing half of the logging the transaction subsystem already
// does: rdb/txn.h logs one logical UNDO record per row mutation so an open
// transaction can roll back; the WAL captures the matching REDO image (table
// name + row id + values) so committed work survives a crash. Records are
// serialized at mutation time into an in-memory pending buffer (the row data
// may be gone by commit — e.g. a staged table dropped mid-unit), truncated
// on scope rollback in lockstep with the undo log, and written to the file
// as ONE unit — data frames followed by a commit frame carrying the next-id
// counter — when the outermost transaction commits (or, outside a
// transaction, when a top-level statement finishes, so autocommit writes and
// the bulk-load API persist too). Only whole units ever reach the file: a
// crash can tear the tail of the last write(), never interleave units.
//
// File format (little-endian):
//   header:  "XUPDWAL1" (8 bytes) | u32 format version | u64 epoch
//   frame:   u32 payload length | u32 CRC32(payload) | payload
//   payload: u8 kind | kind-specific fields:
//     1 insert     u16 table id | u64 row id | u32 count | count values
//     2 delete     u16 table id | u64 row id
//     3 update     u16 table id | u64 row id | u32 column | value
//     4 ddl        str sql
//     5 commit     i64 next id
//     6 table-def  u16 table id | str name
//   str = u32 length | bytes; value = u8 tag (0 NULL, 1 int, 2 string),
//   then an i64 for an int or a str for a string.
//
// Since format version 2 each WAL file carries a table-name dictionary:
// the first data record naming a durable table is preceded by a table-def
// frame (u16 id | name) and every insert/delete/update frame references
// the u16 id instead of repeating the name — ~30% fewer wal_bytes on
// narrow tables. The dictionary restarts with each file (checkpoints reset
// it); recovery reconstructs the committed prefix's dictionary and seeds
// the resuming writer with it.
//
// The epoch pairs the WAL with its snapshot (rdb/snapshot.h): Checkpoint
// writes a snapshot with epoch N+1 and then resets the WAL to epoch N+1, so
// a crash between the two steps leaves an epoch-N WAL that recovery
// recognizes as already contained in the snapshot and ignores. Off-thread
// checkpoints instead keep the WAL (same epoch) and stamp the snapshot with
// the byte offset it folds in; replay skips applying that prefix.
//
// Every record kind is framed in place in the pending buffer (FrameBegin,
// binio::Put*, FrameEnd), so there is one encoder.
//
// One header parser and one frame walker read the file, behind both
// recovery (ReplayWal) and the integrity scrub (VerifyWalFile). The walker
// buffers decoded records and releases them only when their commit frame
// arrives; a torn, CRC-failing or undecodable frame ends the log — the
// committed prefix is kept, everything at and after the bad frame is
// discarded (the file is truncated back to the last commit boundary before
// new writes append). A bad header (wrong magic / unsupported version), an
// epoch ahead of the snapshot's, a record naming an undefined table id, or a
// committed prefix ending short of the snapshot's WAL offset is a hard
// error. The scrub judges the same walk without applying records, so it
// flags every file the walk rejects and every kept prefix short of what the
// open writer committed.
#ifndef XUPD_RDB_WAL_H_
#define XUPD_RDB_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "rdb/governance.h"
#include "rdb/stats.h"
#include "rdb/value.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

class Database;
class Table;

/// When the WAL fsyncs.
enum class SyncMode {
  kNone,     ///< never fsync; the OS flushes eventually (survives process
             ///< crash, not power loss).
  kCommit,   ///< fsync once per commit unit (classic durable commit).
  kBatched,  ///< group commit: a background flusher fsyncs every
             ///< `group_commit_window_us` microseconds (and on
             ///< checkpoint/close) — commits never fsync inline, so the
             ///< loss bound on power loss is one time window of
             ///< acknowledged units, not a unit count.
};

const char* ToString(SyncMode mode);

struct DurabilityOptions {
  SyncMode sync_mode = SyncMode::kCommit;
  /// kBatched: the background group-commit flusher's fsync period in
  /// microseconds. Power loss can drop at most the acknowledged commit
  /// units of the last un-fsynced window (plus the one fsync in flight).
  int group_commit_window_us = 2000;
  /// Filesystem to run all durable I/O through; null means Vfs::Default().
  /// Tests interpose a FaultVfs here (rdb/vfs.h).
  Vfs* vfs = nullptr;
};

// --- binary encoding helpers (shared with rdb/snapshot.cc) -----------------

namespace binio {

/// CRC-32 of `data`; pass the CRC of the preceding bytes as `prev` to
/// continue a running checksum over a stream written in pieces.
uint32_t Crc32(const void* data, size_t size, uint32_t prev = 0);

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutString(std::string* out, std::string_view s);  ///< u32 len + bytes.
void PutValue(std::string* out, const Value& v);

/// Sequential decoder; any out-of-bounds read sets ok() false and every
/// later read returns a zero value, so callers check once at the end.
class Reader {
 public:
  Reader(const char* data, size_t size) : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  std::string String();
  Value ReadValue();

 private:
  bool Need(size_t n);
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace binio

// --- writer ----------------------------------------------------------------

class WalWriter {
 public:
  /// Opens (creating if needed) the WAL at `path` for appending. The file is
  /// truncated to `resume_offset` first — recovery passes the end of the last
  /// committed unit so a torn tail never precedes fresh records; 0 resets the
  /// file and writes a fresh header with `epoch`.
  /// `table_ids` (optional) seeds the per-file table-name dictionary when
  /// resuming an existing log (`resume_offset > 0`): the kept prefix
  /// already carries table-def records for those names, so the writer must
  /// not re-emit them under fresh ids. A reset (`resume_offset == 0`)
  /// starts with an empty dictionary.
  /// `fsync_hist` (optional) records the time of every successful fsync,
  /// the header sync of Open itself included; Database::stats() reports its
  /// count as Stats::wal_fsyncs.
  static Result<std::unique_ptr<WalWriter>> Open(
      Vfs* vfs, const std::string& path, uint64_t epoch, uint64_t resume_offset,
      const DurabilityOptions& options, Stats* stats,
      const std::vector<std::pair<std::string, uint16_t>>* table_ids = nullptr,
      Histogram* fsync_hist = nullptr);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  uint64_t epoch() const { return epoch_; }
  /// Bytes (header included) up to the last successfully fsynced commit
  /// boundary — the on-disk file must hold at least this committed prefix
  /// even across a power loss (scrub anchor; anything beyond it is
  /// acknowledged-but-unsynced work or discardable tail). Units acked under
  /// kNone/kBatched before their group sync are intentionally not counted.
  /// Safe from any thread.
  uint64_t committed_bytes() const {
    return synced_size_.load(std::memory_order_acquire);
  }
  /// Bytes (header included) up to the last fully appended commit unit —
  /// the offset an off-thread checkpoint captures as "everything before
  /// this is folded into the snapshot". Writer thread (commit boundary).
  uint64_t file_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return file_size_;
  }

  /// A position in the pending buffer; taken at transaction-scope Begin and
  /// restored on rollback (mirrors the undo log's scope boundaries).
  /// Table-def records pended after the mark are rolled back with it (their
  /// ids were never written, so they are handed back to the counter).
  struct Mark {
    size_t bytes = 0;
    uint64_t records = 0;
  };
  Mark mark() const { return {pending_.size(), pending_records_}; }
  void TruncatePending(const Mark& m);
  bool pending_empty() const { return pending_.empty(); }

  // Record appends. Insert/update serialize the row data NOW (the values or
  // even the Table may be gone by commit time); all stay in memory until
  // CommitPending.
  void PendInsert(const Table& table, size_t rowid);
  void PendDelete(const Table& table, size_t rowid);
  void PendUpdate(const Table& table, size_t rowid, int column,
                  const Value& new_value);
  void PendDdl(std::string_view sql);

  /// Appends the commit frame (carrying the database's next-id counter),
  /// writes the whole unit to the file with one write, and fsyncs according
  /// to the sync mode. No-op when nothing is pending. (Rollback — outermost
  /// or savepoint — discards pending records via TruncatePending; only
  /// committed units ever reach this call.)
  Status CommitPending(int64_t next_id);

  /// Fail-stop this writer: every later CommitPending of a non-empty unit
  /// returns an error and drops that unit, so the next unit boundary starts
  /// empty (reads — which pend no redo — are unaffected). Used when the WAL
  /// file could not be reset after a checkpoint, so durable writes fail
  /// loudly instead of silently diverging from disk. The first cause is
  /// kept for diagnostics (the Database surfaces it in read-only mode).
  /// Safe from any thread (the group-commit flusher fail-stops on fsync
  /// failure; the writer discovers it at its next commit boundary).
  void MarkBroken(std::string cause) {
    std::lock_guard<std::mutex> lock(broken_mu_);
    if (broken_cause_.empty()) broken_cause_ = std::move(cause);
    broken_.store(true, std::memory_order_release);
  }
  bool broken() const { return broken_.load(std::memory_order_acquire); }
  /// Human-readable description of the first failure that fail-stopped this
  /// writer (operation + path + symbolic errno); empty when not broken.
  std::string broken_cause() const {
    std::lock_guard<std::mutex> lock(broken_mu_);
    return broken_cause_;
  }

  /// Wires the owning Database's other observability sinks in after Open
  /// (each re-open after checkpoint re-attaches): CommitPending records its
  /// wall time into `commit_hist` plus a kWalUnit event, Sync adds a kFsync
  /// event to its fsync_hist sample and records the number of commit units
  /// the fsync covered into `batch_hist` (group-commit batch size). All may
  /// be null (detached writer, e.g. the TryHeal probe) — timing is skipped
  /// entirely then.
  void AttachMetrics(Histogram* commit_hist, Histogram* batch_hist,
                     EventLog* events) {
    commit_hist_ = commit_hist;
    batch_hist_ = batch_hist;
    events_ = events;
  }

  /// Wires the Database's memory accountant: the pending redo buffer's
  /// bytes charge to mem.wal_pending as records are pended and release when
  /// a unit commits (or rolls back). The accountant's wal_pending_limit is
  /// the bounded-buffer watermark — once the charge crosses it, statement
  /// governance polls (ExecContext::PollGovernance) fail the unit cleanly
  /// with kResourceExhausted instead of letting the buffer grow unbounded.
  /// Writer thread only, like the pending buffer itself.
  void set_accountant(MemoryAccountant* mem) { mem_ = mem; }

  /// fsync now if anything written is unsynced. Safe from any thread —
  /// this is the group-commit flusher's entry point.
  Status Sync();
  /// Sync + close the file descriptor. Pending (uncommitted) records are
  /// discarded — only committed units ever persist.
  Status Close();

 private:
  WalWriter() = default;
  /// Sync with mu_ already held (CommitPending's kCommit inline fsync).
  Status SyncLocked();
  /// In-place framing: reserves the 8-byte length+CRC header in pending_,
  /// returns its offset; FrameEnd patches it over the bytes appended since.
  size_t FrameBegin();
  void FrameEnd(size_t header_at);

  /// Drops the whole pending unit a fail-stopped writer will never persist:
  /// its bytes, their memory charge, its record count and the table-def ids
  /// it introduced.
  void DropPendingUnit();

  /// Interns `name` into the per-file table-id dictionary, pending a
  /// table-def record on first sight. Each WAL file carries each durable
  /// table name at most once; every data record then spends 2 bytes on the
  /// id instead of 4 + len on the name.
  uint16_t TableId(const std::string& name);

  /// Reconciles the mem.wal_pending charge with pending_.size(). Called
  /// after every append/truncate/flush of the pending buffer (writer
  /// thread only, like the buffer).
  void SyncPendingCharge() {
    if (mem_ == nullptr) return;
    const size_t now = pending_.size();
    if (now > charged_pending_) {
      mem_->Charge(MemoryAccountant::kWalPending, now - charged_pending_);
    } else if (now < charged_pending_) {
      mem_->Release(MemoryAccountant::kWalPending, charged_pending_ - now);
    }
    charged_pending_ = now;
  }

  std::unique_ptr<VfsFile> file_;
  std::string path_;
  uint64_t epoch_ = 0;
  DurabilityOptions options_;
  Stats* stats_ = nullptr;
  std::string pending_;
  uint64_t pending_records_ = 0;
  /// Per-file table-name dictionary (see TableId).
  std::unordered_map<std::string, uint16_t> table_ids_;
  uint16_t next_table_id_ = 0;
  /// Defs pended but not yet committed: (name, id, frame offset in
  /// pending_), offset-ascending — TruncatePending drops a suffix.
  std::vector<std::tuple<std::string, uint16_t, size_t>> pending_defs_;
  /// Observability sinks (Open, AttachMetrics); null = detached.
  Histogram* commit_hist_ = nullptr;
  Histogram* fsync_hist_ = nullptr;
  Histogram* batch_hist_ = nullptr;
  EventLog* events_ = nullptr;
  /// Guards the file descriptor and its byte-count state (file_size_,
  /// dirty_, commits_since_sync_) against the group-commit flusher thread,
  /// which calls Sync() concurrently with the writer's CommitPending.
  /// The pending buffer and table-id dictionary stay writer-thread-only
  /// and are touched outside the lock.
  mutable std::mutex mu_;
  uint64_t commits_since_sync_ = 0;  ///< guarded by mu_.
  /// Causal handoff from the last committed unit's span to the fsync that
  /// will persist it — CommitPending stashes it, SyncLocked adopts it as
  /// the kFsync event's parent. Under kBatched the adopting thread is the
  /// group-commit flusher, so this is the writer->flusher trace edge.
  /// Guarded by mu_.
  trace::Handoff sync_handoff_;
  bool dirty_ = false;  ///< written bytes not yet fsynced; guarded by mu_.
  /// File length after the last fully written unit — where a failed append
  /// truncates back to before the writer fail-stops. Guarded by mu_.
  uint64_t file_size_ = 0;
  /// file_size_ as of the last successful fsync: the newest boundary the
  /// disk is guaranteed to retain across power loss (committed_bytes()).
  /// Atomic so scrub/status paths read it without the file lock.
  std::atomic<uint64_t> synced_size_{0};
  /// Set when an append failed mid-write: the writer refuses further
  /// commits so the on-disk log always ends at a unit boundary. The flag
  /// is atomic (flusher sets it on fsync failure); the cause string has
  /// its own lock.
  std::atomic<bool> broken_{false};
  mutable std::mutex broken_mu_;
  std::string broken_cause_;  ///< guarded by broken_mu_.
  /// Memory accountant (null = unaccounted) and the mem.wal_pending bytes
  /// currently charged for pending_. Writer thread only.
  MemoryAccountant* mem_ = nullptr;
  size_t charged_pending_ = 0;
};

// --- recovery --------------------------------------------------------------

struct WalReplayResult {
  /// Byte offset just past the last applied commit frame (== header size when
  /// nothing was committed). 0 means the file should be reset from scratch
  /// (missing, empty, or from an epoch older than the snapshot's).
  uint64_t valid_bytes = 0;
  uint64_t applied_records = 0;
  /// Table-name dictionary accumulated by the committed prefix, in def
  /// order — seeds WalWriter::Open when it resumes this file.
  std::vector<std::pair<std::string, uint16_t>> table_ids;
};

/// Replays the committed prefix of the WAL at `path` into `db` (which must
/// already hold the snapshot state of `snapshot_epoch`). Torn or corrupt
/// frames end the log silently (crash semantics); a missing file or a WAL
/// whose epoch predates the snapshot is ignored; a bad header, an undefined
/// table id or a record that cannot be applied (e.g. an insert whose row id
/// does not line up) is a hard error.
/// `start_offset` (the snapshot's wal_offset, from an off-thread checkpoint
/// that kept the WAL) marks the prefix already folded into the snapshot:
/// frames before it are still decoded — the table-name dictionary and
/// commit boundaries span the whole file — but their units are not applied
/// and their commit frames do not move next_id. A committed prefix ending
/// short of `start_offset` is a hard error (a synced region was lost).
Result<WalReplayResult> ReplayWal(Database* db, Vfs* vfs,
                                  const std::string& path,
                                  uint64_t snapshot_epoch,
                                  uint64_t start_offset = 0);

/// Integrity scrub: walks the WAL file exactly as ReplayWal does, against
/// the on-disk snapshot's `snapshot_epoch` (0 = no snapshot) and
/// `snapshot_wal_offset`, without applying anything. Flagged: every file
/// recovery would reject, and — when `writer_epoch`/`writer_bytes` describe
/// the open writer and that epoch is the one recovery replays — a committed
/// prefix short of `writer_bytes`, meaning committed data would be lost. A
/// torn or CRC-failing tail is a crash artifact recovery discards, not a
/// violation. Returns human-readable violations (empty = clean). A missing
/// file is clean unless a writer is open.
std::vector<std::string> VerifyWalFile(Vfs* vfs, const std::string& path,
                                       uint64_t snapshot_epoch,
                                       uint64_t snapshot_wal_offset,
                                       uint64_t writer_epoch = 0,
                                       uint64_t writer_bytes = 0);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_WAL_H_
