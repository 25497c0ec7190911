// Heap table with tombstone deletes, hash indexes, and epoch-snapshot MVCC.
//
// Storage layout (the scan/probe hot path of every fig. 6-11 workload):
//
//  * Rows live in ONE contiguous slab per table — `(arity + 1) * 16` bytes
//    per row slot (16-byte compact Values, rdb/value.h, plus one trailing
//    16-byte MVCC metadata slot), appended in rowid order. The executor's
//    row cursor (scans, index probes, hash-join builds, DELETE/UPDATE
//    gathers) streams over cache-line-friendly memory and a row is
//    addressed by one multiply (`slab + rowid * stride`), not a double
//    indirection.
//
//  * HashIndex keeps one entry per row id (a row holds one value per
//    column) in an array addressed by the row id, beside one flat key
//    table that maps each key to the row id heading its chain; rows of
//    equal key are threaded through a doubly-linked chain of row ids. An
//    insert writes entries_[rowid] and probes the key table once; an erase
//    probes it only when the row heads its chain; Lookup walks one chain.
//    Indexes are writer-private: snapshot readers never probe one (their
//    plans are built with index probes disabled; an equijoin step builds a
//    per-statement hash table from a snapshot scan instead), so index
//    mutation needs no synchronization.
//
// MVCC (single writer, many pinned readers — see rdb/epoch.h):
//
//  * Each row's metadata slot packs word0 = (end_epoch << 32 | begin_epoch)
//    and word1 = the epoch of the row's last in-place modification. A
//    reader pinned at epoch P sees the row iff begin <= P < end. Insert
//    stamps begin = write_epoch (invisible until the boundary publishes
//    it); Delete stamps end = write_epoch (still visible to older pins —
//    the tombstoned values stay in the slot); rollback restores the stamps.
//
//  * In-place column updates use a per-row seqlock: the first update of a
//    row inside an epoch window parks a copy of the whole pre-image in the
//    table's version buffer (keyed by rowid, tagged with the window), then
//    stamps word1 = write_epoch and overwrites cells with word-atomic
//    stores. A reader whose pin predates word1 — or whose optimistic
//    word-copy fails revalidation — fetches the row from the version
//    buffer instead. Version entries are garbage-collected once no reader
//    pins an epoch they could serve.
//
//  * The slab itself is published through an atomic pointer + atomic row
//    count: growth copies into a fresh buffer and retires the old one via
//    the epoch manager (freed raw, without running Value destructors — the
//    new buffer owns every reference; the old one holds ghost images that
//    pinned readers may still be streaming).
#ifndef XUPD_RDB_TABLE_H_
#define XUPD_RDB_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdb/epoch.h"
#include "rdb/governance.h"
#include "rdb/schema.h"
#include "rdb/stats.h"
#include "rdb/value.h"

namespace xupd::rdb {

class TransactionManager;

/// Per-table access statistics (SHOW TABLE STATS): maintained by the exec
/// nodes (scans, rows read) and the Table mutation entry points (rows
/// inserted/deleted/updated), so direct-API writes count too. Reader
/// sessions scan too, so scans and rows_read are atomics (one add per scan
/// open and per pull); the mutation counts are the writer thread's alone.
struct TableAccessStats {
  std::atomic<uint64_t> scans{0};      ///< scan operator opens.
  std::atomic<uint64_t> rows_read{0};  ///< rows emitted by scans/probes.
  uint64_t rows_inserted = 0;
  uint64_t rows_deleted = 0;
  uint64_t rows_updated = 0;
};

/// Hash index over one column: each live row id -> its key, and each key ->
/// its row ids. The entry array is addressed by row id, so Insert and Erase
/// find a row's entry without hashing it, and Erase stays O(1) for
/// low-cardinality keys (a parentId shared by thousands of children, or an
/// ASR column holding the single root id). The key table is open-addressed
/// on the key's hash and holds the row id heading each key's chain.
/// Entry array and key table are charged to mem.indexes.
class HashIndex {
 public:
  HashIndex(std::string name, int column, MemoryAccountant* mem = nullptr)
      : name_(std::move(name)), column_(column), mem_(mem) {}
  ~HashIndex() { Clear(); }
  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  const std::string& name() const { return name_; }
  int column() const { return column_; }

  /// Sizes the entry array for row ids below `rowid_end` and the key table
  /// for `new_keys` more keys, so that many inserts never regrow either (a
  /// set-oriented INSERT, or CreateIndex's build over the live rows).
  void Reserve(size_t rowid_end, size_t new_keys);
  /// Makes `v` the key of row `rowid`. Inserting a row id again under an
  /// equal key is a no-op; under another key it moves the row.
  void Insert(const Value& v, size_t rowid);
  /// Removes row `rowid` when its key equals `v`; otherwise a no-op.
  void Erase(const Value& v, size_t rowid);
  /// Appends matching row ids to *out (chain order — callers that need a
  /// deterministic order sort; multi-probe callers dedupe too). Counts one
  /// probe, and one hit when at least one row id matched.
  void Lookup(const Value& v, std::vector<size_t>* out) const;
  /// Empties the index and frees (and uncharges) its storage.
  void Clear();
  size_t size() const { return size_; }
  /// Key-table slots (a power of two, or 0 before the first insert).
  size_t key_capacity() const { return heads_.size(); }

  /// Probe lookups issued against this index, and how many found at least
  /// one entry (SHOW TABLE STATS). Only the writer thread probes.
  uint64_t probes() const { return probes_; }
  uint64_t probe_hits() const { return hits_; }

  /// Finalizing bit mixer (murmur3 fmix64). Value::Hash of an integer is
  /// the identity (libstdc++ std::hash<int64_t>), and the engine's keys are
  /// dense sequential ints — feeding them to linear probing unmixed
  /// coalesces the table into one giant probe run (O(n) inserts).
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  /// Scrub hook (rdb/integrity.cc): calls fn(value, rowid) for every live
  /// entry, in row id order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t rowid = 0; rowid < entries_.size(); ++rowid) {
      const Entry& e = entries_[rowid];
      if (e.prev != kNoEntry) fn(e.value, rowid);
    }
  }

 private:
  static constexpr int32_t kNoEntry = -2;  ///< Entry::prev of an absent row.
  /// Row `rowid`'s entry: its key, the key's hash, and the doubly-linked
  /// chain of the key's row ids.
  struct Entry {
    Value value;
    uint64_t vhash = 0;
    int32_t prev = kNoEntry;  ///< previous row id; -1 = chain head.
    int32_t next = -1;        ///< next row id; -1 = chain tail.
  };

  /// Removes row `rowid`'s (present) entry from its chain.
  void Unlink(size_t rowid);
  /// Re-places every chain head into a fresh key table of `cap` slots,
  /// dropping tombstones.
  void RebuildKeys(size_t cap);
  /// Brings the mem.indexes charge in line with the allocated capacity.
  void Recharge();
  static uint64_t HeadHash(uint64_t vhash) { return Mix(vhash); }

  std::string name_;
  int column_;
  MemoryAccountant* mem_;
  size_t charged_ = 0;  ///< bytes charged to mem.indexes.
  /// One entry per row id below entries_.size().
  std::vector<Entry> entries_;
  /// Key table, open-addressed on the key hash (power-of-two capacity,
  /// linear probing): -1 empty, -2 tombstone, else the row id heading the
  /// key's chain.
  std::vector<int32_t> heads_;
  size_t size_ = 0;        ///< live entries.
  size_t keys_ = 0;        ///< live keys (chains).
  size_t heads_used_ = 0;  ///< live + tombstoned key-table slots.
  mutable uint64_t probes_ = 0;  ///< Lookup calls (access stats).
  mutable uint64_t hits_ = 0;    ///< Lookups that matched >= 1 entry.
};

/// View over one row's 16-byte MVCC metadata slot (the trailing Value-sized
/// cell of each row). Word 0 packs (end << 32 | begin) row epochs so the
/// pair is always read/written in one untorn operation; word 1 holds the
/// epoch of the row's last in-place modification (the seqlock word). All
/// accesses are atomic: the writer stamps from its thread while pinned
/// readers load concurrently. Stores keep byte 15 (the Value tag byte)
/// zero — epochs stay far below 2^56 — so metadata slots destruct as NULL
/// Values.
class RowMetaRef {
 public:
  explicit RowMetaRef(const Value* slot)
      : words_(reinterpret_cast<uint64_t*>(
            const_cast<Value*>(slot))) {}

  static uint32_t Begin(uint64_t w0) { return static_cast<uint32_t>(w0); }
  static uint32_t End(uint64_t w0) { return static_cast<uint32_t>(w0 >> 32); }
  static bool Visible(uint64_t w0, uint64_t pin) {
    return Begin(w0) <= pin && pin < End(w0);
  }

  uint64_t begin_end() const {
    return std::atomic_ref<uint64_t>(words_[0]).load(
        std::memory_order_relaxed);
  }
  void StoreBeginEnd(uint32_t begin, uint32_t end) {
    std::atomic_ref<uint64_t>(words_[0]).store(
        (static_cast<uint64_t>(end) << 32) | begin,
        std::memory_order_relaxed);
  }
  void StoreEnd(uint32_t end) {
    StoreBeginEnd(Begin(begin_end()), end);
  }

  uint64_t mod() const {
    return std::atomic_ref<uint64_t>(words_[1]).load(
        std::memory_order_relaxed);
  }
  uint64_t mod_acquire() const {
    return std::atomic_ref<uint64_t>(words_[1]).load(
        std::memory_order_acquire);
  }
  void StoreMod(uint64_t m) {
    std::atomic_ref<uint64_t>(words_[1]).store(m, std::memory_order_relaxed);
  }

 private:
  uint64_t* words_;
};

class Table {
 public:
  /// `txn` (optional) is the undo log every mutation reports to while a
  /// transaction is active; tables created through the Database catalog are
  /// always wired to its TransactionManager.
  explicit Table(TableSchema schema, TransactionManager* txn = nullptr)
      : schema_(std::move(schema)),
        arity_(schema_.column_count()),
        stride_(arity_ + 1),
        txn_(txn),
        index_demand_(arity_, 0) {}
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Durable tables participate in write-ahead logging and snapshots
  /// (rdb/wal.h): tables created through SQL DDL or recovered from a
  /// snapshot are durable; engine scratch tables created through the direct
  /// catalog API are not — their contents are rebuilt, not recovered.
  bool durable() const { return durable_; }
  void set_durable(bool durable) { durable_ = durable; }

  /// Wires the Database's epoch manager: row metadata is stamped with its
  /// write epoch and superseded storage is retired through it. Tables
  /// without a manager (unit tests) behave single-threaded — every row is
  /// born at epoch 1 and storage is freed eagerly.
  void set_epoch_manager(EpochManager* em) { em_ = em; }

  /// Wires the Database's memory accountant: slab capacity is charged to
  /// mem.table_slabs at growth (released when the superseded buffer is
  /// actually freed, which may lag behind epoch retirement), parked
  /// pre-images to mem.version_buffers and the indexes created from then
  /// on to mem.indexes. Null = unaccounted (unit tests).
  void set_accountant(MemoryAccountant* mem) { mem_ = mem; }

  /// Number of row slots (live + tombstoned). Scans iterate this range.
  /// Writer-thread view; readers use SnapshotRowCount().
  size_t capacity() const { return live_.size(); }
  size_t live_count() const { return live_count_; }

  bool is_live(size_t rowid) const { return live_[rowid]; }
  /// The row's columns, contiguous in the table slab. Valid until the next
  /// insert into this table (slab growth may relocate it) — the same
  /// lifetime the old vector-of-rows layout gave. Writer thread only;
  /// pinned readers go through SnapshotReadRow.
  const Value* row(size_t rowid) const {
    return cells_.load(std::memory_order_relaxed) + rowid * stride_;
  }
  /// Range-for friendly view of one row.
  std::span<const Value> row_span(size_t rowid) const {
    return {row(rowid), arity_};
  }
  /// Copies one row out (callers that must survive later mutations).
  Row CopyRow(size_t rowid) const {
    const Value* r = row(rowid);
    return Row(r, r + arity_);
  }

  // --- pinned-reader snapshot API (any thread, under an epoch pin) --------

  /// Row slots a reader pinned at some epoch may examine. The acquire load
  /// pairs with the writer's release publication of each appended row, so
  /// every slot below the returned count is fully initialized (possibly
  /// with a begin epoch newer than the reader's pin, which the visibility
  /// check rejects).
  size_t SnapshotRowCount() const {
    return filled_.load(std::memory_order_acquire);
  }

  /// Copies the version of row `rowid` visible at epoch `pin` into `out`
  /// (exactly arity() values, appended). Returns false when no version of
  /// the row is visible at that epoch. `rowid` must be < a prior
  /// SnapshotRowCount() result. Thread-safe against every writer mutation.
  bool SnapshotReadRow(size_t rowid, uint64_t pin, Row* out) const;

  /// Checkpoint read of slot `rowid` (rdb/snapshot.cc): the row as of `pin`
  /// when it is visible there (returns true), otherwise the cells the slab
  /// still holds (returns false). Exact only below a SnapshotRowCount()
  /// taken at a commit boundary no later than `pin`: slots there are never
  /// reused, and a committed delete never rewrites its slot's cells.
  bool SnapshotReadSlot(size_t rowid, uint64_t pin, Row* out) const;

  size_t arity() const { return arity_; }

  /// Access statistics for SHOW TABLE STATS; bumped from the exec nodes
  /// (any thread) and the mutation entry points (writer thread).
  TableAccessStats& access_stats() const { return access_stats_; }

  /// Version-buffer occupancy: parked pre-image rows and their approximate
  /// byte footprint (cells only). Writer thread.
  uint64_t version_rows() const { return version_rows_; }
  uint64_t version_bytes() const { return version_bytes_; }

  /// Frees version-buffer entries no pinned reader can need anymore
  /// (writer thread, at commit boundaries). Returns the number of parked
  /// pre-images trimmed.
  size_t GcVersions(uint64_t min_pinned);

  /// Appends a row (arity must match the schema). Returns its rowid.
  Result<size_t> Insert(Row row);
  /// Sizes the slab and every index for `rows` more inserts, so a
  /// set-oriented INSERT grows each of them at most once.
  void Reserve(size_t rows);

  /// Snapshot-restore append (rdb/snapshot.cc): places `row` in the next
  /// slot with the given liveness, without undo/WAL logging or index
  /// maintenance — tombstoned slots keep their positions (row ids are
  /// physical WAL addresses) and indexes are created after all slots load.
  void LoadSlot(Row row, bool live);

  /// Tombstones a row; index entries are removed.
  Status Delete(size_t rowid);

  /// Truncates the table: every row slot (live and tombstoned) and all index
  /// entries are discarded, resetting capacity() to 0. NOT transactional —
  /// no undo is logged and any undo records already held for this table
  /// become no-ops (their rowids fall out of range). For scratch tables.
  void Clear();

  /// Sets one column; index entries are maintained.
  Status SetColumn(size_t rowid, int column, Value v);

  /// Creates a hash index over `column` (by index), populating from current
  /// rows into tables sized once for the live row count. Fails if an index
  /// of this name exists.
  Status CreateIndex(const std::string& index_name, int column);
  Status DropIndex(const std::string& index_name);
  /// Drops the index if this table owns one of that name; returns whether it
  /// did. Single scan — lets DROP INDEX's owning-table search avoid the
  /// find-then-drop double lookup.
  bool TryDropIndex(std::string_view index_name);

  /// The on-demand index counter of `column` (see
  /// AccessPath::demand_column): rows examined by writer-plan access steps
  /// that filtered on `column` = <row-free value> with no index over the
  /// column. The engine indexes the column once it passes a few table
  /// sizes. Writer thread only; not persisted.
  uint64_t index_demand(int column) const {
    return index_demand_[static_cast<size_t>(column)];
  }
  void AddIndexDemand(int column, uint64_t rows) const {
    index_demand_[static_cast<size_t>(column)] += rows;
  }
  void ResetIndexDemand(int column) {
    index_demand_[static_cast<size_t>(column)] = 0;
  }

  /// Index over `column`, or null.
  const HashIndex* FindIndexOnColumn(int column) const;
  const HashIndex* FindIndexByName(const std::string& name) const;
  /// All indexes, for snapshot serialization.
  const std::vector<std::unique_ptr<HashIndex>>& indexes() const {
    return indexes_;
  }

  // --- rollback hooks (TransactionManager only; none of these log) --------

  /// Reverts an Insert: removes index entries and kills the row. When the
  /// row is still the newest slot (always true under LIFO undo) the slot is
  /// popped, restoring capacity() too.
  void UndoInsert(size_t rowid);
  /// Reverts a Delete: revives the tombstoned row (its data is still in the
  /// slot) and re-adds its index entries.
  void UndoDelete(size_t rowid);
  /// Reverts a SetColumn: writes the old value back, index-maintaining.
  void UndoSetColumn(size_t rowid, int column, const Value& v);

 private:
  /// One parked pre-image: the row's contents before its first in-place
  /// update inside epoch window `end_valid` — i.e. the version readers
  /// pinned at P < end_valid must see when the slab cells have moved on.
  struct OldVersion {
    uint64_t end_valid = 0;
    Row values;
  };

  Value* mutable_row(size_t rowid) {
    return cells_.load(std::memory_order_relaxed) + rowid * stride_;
  }
  RowMetaRef meta(size_t rowid) const {
    return RowMetaRef(cells_.load(std::memory_order_relaxed) +
                      rowid * stride_ + arity_);
  }
  /// The epoch the writer's in-flight changes belong to (1 when no epoch
  /// manager is attached — single-threaded mode).
  uint64_t WriteEpoch() const { return em_ != nullptr ? em_->write_epoch() : 1; }

  /// Ensures room for one more row, growing as needed. Returns the cell
  /// pointer for the new row slot.
  Value* ReserveRowSlot();
  /// Moves the slab into a fresh buffer of `new_cap` row slots and
  /// epoch-retires the old one.
  void GrowSlab(size_t new_cap);
  /// Appends `row` as the next slot with the given MVCC stamps, publishing
  /// it to readers.
  void AppendRow(Row&& row, uint32_t begin, uint32_t end, uint64_t mod);
  /// Parks the row's pre-image for pinned readers and opens its seqlock
  /// window, if this is the row's first in-place update in the current
  /// epoch window.
  void PrepareRowUpdate(size_t rowid);
  /// Retires `buf` (holding `rows` row slots) through the epoch manager,
  /// or frees it immediately when no reader can reference it.
  /// `destroy_values` runs Value destructors at free time (Clear); growth
  /// retires ghost images without them. `charged_bytes` is the slab charge
  /// released from the accountant when the buffer is actually freed.
  void RetireBuffer(Value* buf, size_t rows, bool destroy_values,
                    size_t charged_bytes);

  TableSchema schema_;
  size_t arity_;
  size_t stride_;  ///< arity_ + 1 (trailing MVCC metadata slot).
  TransactionManager* txn_ = nullptr;
  EpochManager* em_ = nullptr;
  MemoryAccountant* mem_ = nullptr;
  bool durable_ = false;
  /// Row slots back to back: slot i occupies cells_[i*stride_ ..
  /// (i+1)*stride_). Published atomically so pinned readers can chase the
  /// pointer while the writer grows or clears the slab; the buffer itself
  /// is raw storage managed by ReserveRowSlot/RetireBuffer.
  std::atomic<Value*> cells_{nullptr};
  size_t cap_rows_ = 0;                ///< writer-only buffer capacity.
  std::atomic<size_t> filled_{0};      ///< published (initialized) rows.
  std::vector<bool> live_;             ///< writer-only liveness view.
  size_t live_count_ = 0;
  /// Parked pre-images for rows updated in place while readers could be
  /// pinned; guarded by versions_mu_ (writer emplaces/GCs, readers look
  /// up on seqlock failure).
  mutable std::mutex versions_mu_;
  std::unordered_multimap<size_t, OldVersion> versions_;
  /// Version-buffer occupancy mirrors of versions_ (rows / approx bytes),
  /// readable without the mutex for gauges and SHOW TABLE STATS (writer
  /// thread only).
  uint64_t version_rows_ = 0;
  uint64_t version_bytes_ = 0;
  mutable TableAccessStats access_stats_;
  mutable std::vector<uint64_t> index_demand_;  ///< per column.
  std::vector<std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_TABLE_H_
