// Snapshot checkpoints: the full durable state of a Database serialized to
// one versioned binary file.
//
// A snapshot captures everything WAL replay needs a base for: the catalog of
// durable tables (schemas, every row slot including tombstones — row ids are
// physical WAL addresses, so dead slots keep their positions), hash-index
// definitions (contents are rebuilt from live rows on load), trigger
// definitions (as their original CREATE TRIGGER text), and the next-id
// counter. Ephemeral tables (engine scratch created through the direct
// catalog API) are excluded, exactly like they are excluded from the WAL.
//
// File format (little-endian):
//   "XUPDSNAP" (8 bytes) | u32 format version | payload | u32 CRC32
// where the CRC covers magic + version + payload, and the payload is
//   u64 epoch | i64 next_id | u64 wal_offset
//   u32 table count | per table:
//     str name | u32 column count | per column: str name, u8 type
//     u64 slot count | per slot: u8 live, one value per column
//     u32 index count | per index: str name, u32 column ordinal
//   u32 trigger count | per trigger: str CREATE TRIGGER sql
//
// Both checkpoints (Database::Checkpoint and CheckpointBackground) write
// through one serializer, so they produce one slab image: a slot live at the
// captured epoch carries its cells as of that epoch, and a tombstoned slot
// carries the cells the slab still holds (frozen once the delete commits).
// Format version 2 is unchanged, and older v2 files load as before.
//
// Checkpoint atomicity: the snapshot is streamed through a fixed-size buffer
// into a temp file (the CRC runs alongside), fsynced, renamed over the
// previous snapshot, and the directory is fsynced — a crash leaves either the
// old or the new snapshot, never a torn one. Any mismatch on load (magic,
// version, CRC, truncation) is a clean Status error; a half-state is never
// installed.
#ifndef XUPD_RDB_SNAPSHOT_H_
#define XUPD_RDB_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

class Database;
class Table;

// The data directory's fixed layout (Database::Open): one snapshot, the
// temp file a checkpoint renames over it, and one WAL.
inline std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.xupd";
}
inline std::string SnapshotTmpPath(const std::string& dir) {
  return dir + "/snapshot.tmp";
}
inline std::string WalPath(const std::string& dir) { return dir + "/wal.xupd"; }

/// Everything a checkpoint serializes, captured by the writer at one commit
/// boundary: the epoch whose row images are written, the matching next-id
/// counter, the snapshot-file epoch to stamp and the WAL byte offset the
/// snapshot already folds in (replay resumes after it), and the exact slot
/// count per durable table at the capture instant. A background checkpoint
/// pins `pin_epoch` and keeps the WAL, while the writer keeps committing:
/// slots appended after the capture live past `wal_offset` in the WAL, so
/// serializing exactly the captured counts keeps replay's append-only rowid
/// invariant aligned. A synchronous checkpoint stamps the next epoch and
/// offset 0, because it resets the WAL right after.
struct CheckpointCapture {
  uint64_t pin_epoch = 0;
  int64_t next_id = 0;
  uint64_t wal_offset = 0;
  uint64_t epoch = 0;  // snapshot-header epoch.
  std::vector<std::pair<const Table*, size_t>> tables;  // (table, slot count)
  std::vector<std::string> trigger_sql;
};

/// Serializes the state as of `capture`, atomically replacing whatever
/// snapshot `path` held (via `tmp_path` + rename). Safe off the writer
/// thread: rows are read through Table::SnapshotReadSlot at
/// capture.pin_epoch, so the caller must keep the captured tables alive
/// (shared catalog lock) and the epoch pinned until this returns.
/// `*renamed` (optional) reports whether the rename went through — on
/// failure it tells the caller whether the new snapshot is already visible
/// (a synchronous checkpoint must then fail-stop its old-epoch WAL) or the
/// old state is still fully intact (safe to retry later).
Status WriteSnapshot(const Database& db, Vfs* vfs, const std::string& path,
                     const std::string& tmp_path,
                     const CheckpointCapture& capture,
                     bool* renamed = nullptr);

/// What LoadSnapshot recovered from the snapshot header.
struct SnapshotLoadInfo {
  uint64_t epoch = 0;
  uint64_t wal_offset = 0;  // WAL bytes already folded into the snapshot.
};

/// Loads a snapshot into `db` (which must be freshly constructed: no tables,
/// no open transaction) and returns its header info.
Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path);

/// What the integrity scrub learns from one read of the on-disk snapshot.
struct SnapshotScrub {
  /// Magic, version and whole-file CRC failures, human-readable (empty =
  /// clean; a missing file is clean — a fresh database).
  std::vector<std::string> violations;
  /// The header epoch, or 0 when the file is missing or too short to carry
  /// one. Read even when the CRC fails: the WAL epoch check must accept a
  /// WAL already reset to the epoch of a checkpoint whose old writer then
  /// fail-stopped.
  uint64_t epoch = 0;
  /// The header's WAL offset, read alongside `epoch`: the WAL scrub checks
  /// the log still reaches it, as recovery does.
  uint64_t wal_offset = 0;
};

/// Integrity scrub: re-checks the on-disk snapshot without installing
/// anything.
SnapshotScrub VerifySnapshotFile(Vfs* vfs, const std::string& path);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_SNAPSHOT_H_
