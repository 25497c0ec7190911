// Online integrity scrub (Database::VerifyIntegrity, SQL CHECK INTEGRITY).
//
// The scrub is strictly read-only: it cross-checks the in-memory structures
// (row slabs vs hash indexes, next-id vs stored ids, undo log emptiness) and
// re-walks the on-disk WAL and snapshot CRCs without installing anything —
// so it stays runnable while the database is degraded to read-only mode, and
// tests can assert invariants right after an injected storage fault.
#include <string>
#include <vector>

#include "rdb/database.h"
#include "rdb/snapshot.h"
#include "rdb/table.h"
#include "rdb/wal.h"

namespace xupd::rdb {

namespace {

std::string ValueBrief(const Value& v) {
  std::string s = v.ToString();
  if (s.size() > 32) s = s.substr(0, 29) + "...";
  return s;
}

// Both directions of the slab/index invariant: every index entry points to
// a live row still carrying that value, and every live row is findable
// through every index on its table.
void VerifyTableIndexes(const Table& t, std::vector<std::string>* out) {
  const std::string& tname = t.schema().name();
  for (const auto& index : t.indexes()) {
    const int col = index->column();
    if (col < 0 || static_cast<size_t>(col) >= t.schema().column_count()) {
      out->push_back("index '" + index->name() + "' on table '" + tname +
                     "' covers out-of-range column " + std::to_string(col));
      continue;
    }
    size_t entries = 0;
    index->ForEachEntry([&](const Value& v, size_t rowid) {
      ++entries;
      if (rowid >= t.capacity()) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' holds rowid " + std::to_string(rowid) +
                       " beyond capacity " + std::to_string(t.capacity()));
        return;
      }
      if (!t.is_live(rowid)) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' holds tombstoned rowid " + std::to_string(rowid));
        return;
      }
      if (!(t.row(rowid)[col] == v)) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' entry (" + ValueBrief(v) + ", " +
                       std::to_string(rowid) + ") disagrees with the slab "
                       "value " + ValueBrief(t.row(rowid)[col]));
      }
    });
    if (entries != t.live_count()) {
      out->push_back("index '" + index->name() + "' on table '" + tname +
                     "' has " + std::to_string(entries) + " entries for " +
                     std::to_string(t.live_count()) + " live rows");
    }
    // Forward direction: a missing entry would make index probes silently
    // drop rows that a full scan still sees. One Lookup per distinct key
    // marks every live row it reaches under that key, so a run of equal
    // keys costs one probe, not one probe per row; a key is probed again
    // only for a row its earlier probe missed.
    std::vector<bool> reached(t.capacity(), false);
    std::vector<size_t> hits;
    for (size_t rowid = 0; rowid < t.capacity(); ++rowid) {
      if (!t.is_live(rowid) || reached[rowid]) continue;
      const Value& key = t.row(rowid)[col];
      hits.clear();
      index->Lookup(key, &hits);
      for (size_t h : hits) {
        if (h < reached.size() && t.is_live(h) && t.row(h)[col] == key) {
          reached[h] = true;
        }
      }
      if (!reached[rowid]) {
        out->push_back("live row " + std::to_string(rowid) + " of table '" +
                       tname + "' is missing from index '" + index->name() +
                       "'");
      }
    }
  }
}

}  // namespace

std::vector<std::string> Database::VerifyIntegrity() {
  ++stats_.integrity_checks;
  const uint64_t t0 = MonotonicNanos();
  std::vector<std::string> violations;

  // In-memory: slab liveness vs hash indexes, both directions.
  for (const auto& [key, table] : tables_) {
    VerifyTableIndexes(*table, &violations);
  }

  // next-id must stay ahead of every id the engine has handed out; a stale
  // counter after recovery would mint duplicate node ids. Only element
  // tables follow the allocator convention (the id, parentId, ... layout) —
  // arbitrary SQL tables may hold any integers in a column named "id".
  for (const auto& [key, table] : tables_) {
    int col = table->schema().ColumnIndex("id");
    if (col != 0 || table->schema().ColumnIndex("parentId") != 1) continue;
    for (size_t rowid = 0; rowid < table->capacity(); ++rowid) {
      if (!table->is_live(rowid)) continue;
      const Value& v = table->row(rowid)[col];
      if (v.is_null() || v.type() != ValueType::kInt) continue;
      if (v.AsInt() >= next_id_) {
        violations.push_back("table '" + table->schema().name() +
                             "' row " + std::to_string(rowid) + " holds id " +
                             std::to_string(v.AsInt()) +
                             " >= next id counter " + std::to_string(next_id_));
      }
    }
  }

  // Outside a transaction the undo log must be fully drained — leftover
  // records mean some commit/rollback path forgot to consume them.
  if (!txn_.active() && txn_.undo_size() != 0) {
    violations.push_back("undo log holds " + std::to_string(txn_.undo_size()) +
                         " records outside any transaction");
  }

  // On-disk: re-walk the WAL frames and the snapshot CRC. Reads only, so
  // this works even while a write fault is being injected.
  if (!data_dir_.empty() && vfs_ != nullptr) {
    // The WAL is judged against the anchors recovery would use (the
    // on-disk snapshot's epoch and WAL offset) and the open writer's
    // durably committed bytes.
    uint64_t writer_epoch = wal_ != nullptr ? wal_->epoch() : 0;
    uint64_t writer_bytes = wal_ != nullptr ? wal_->committed_bytes() : 0;
    SnapshotScrub snap = VerifySnapshotFile(vfs_, SnapshotPath(data_dir_));
    for (std::string& v :
         VerifyWalFile(vfs_, WalPath(data_dir_), snap.epoch, snap.wal_offset,
                       writer_epoch, writer_bytes)) {
      violations.push_back(std::move(v));
    }
    for (std::string& v : snap.violations) violations.push_back(std::move(v));
  }
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.scrub")->Record(dur);
  events_.Record({TraceEvent::Kind::kScrub, t0, dur, violations.size(), 0,
                  nullptr});
  return violations;
}

}  // namespace xupd::rdb
