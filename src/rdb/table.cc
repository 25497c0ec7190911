#include "rdb/table.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "rdb/txn.h"

namespace xupd::rdb {

// ---------------------------------------------------------------------------
// HashIndex: entry array by row id + key table of chain heads.

namespace {
constexpr int32_t kHeadEmpty = -1;
constexpr int32_t kHeadTombstone = -2;
constexpr size_t kInitialCap = 16;

/// The smallest key-table capacity holding `keys` under the 3/4 load limit.
size_t KeyCapFor(size_t keys) {
  size_t cap = kInitialCap;
  while (keys * 4 > cap * 3) cap <<= 1;
  return cap;
}
}  // namespace

void HashIndex::Recharge() {
  const size_t bytes = entries_.capacity() * sizeof(Entry) +
                       heads_.capacity() * sizeof(int32_t);
  if (mem_ != nullptr && bytes > charged_) {
    mem_->Charge(MemoryAccountant::kIndexes, bytes - charged_);
  } else if (mem_ != nullptr && bytes < charged_) {
    mem_->Release(MemoryAccountant::kIndexes, charged_ - bytes);
  }
  charged_ = bytes;
}

void HashIndex::RebuildKeys(size_t cap) {
  std::vector<int32_t> old = std::move(heads_);
  heads_.assign(cap, kHeadEmpty);
  heads_used_ = keys_;
  const size_t mask = cap - 1;
  for (const int32_t head : old) {
    if (head < 0) continue;
    size_t pos = HeadHash(entries_[static_cast<size_t>(head)].vhash) & mask;
    while (heads_[pos] != kHeadEmpty) pos = (pos + 1) & mask;
    heads_[pos] = head;
  }
  Recharge();
}

void HashIndex::Reserve(size_t rowid_end, size_t new_keys) {
  if (rowid_end > entries_.size()) {
    entries_.resize(std::max({rowid_end, entries_.size() * 2, kInitialCap}));
    Recharge();
  }
  if ((heads_used_ + new_keys) * 4 > heads_.size() * 3) {
    RebuildKeys(std::max(heads_.size(), KeyCapFor(keys_ + new_keys)));
  }
}

void HashIndex::Insert(const Value& v, size_t rowid) {
  if (rowid >= entries_.size()) Reserve(rowid + 1, 0);
  Entry& e = entries_[rowid];
  const uint64_t vhash = v.Hash();
  if (e.prev != kNoEntry) {
    if (e.vhash == vhash && e.value == v) return;  // same key: no-op
    Unlink(rowid);                                  // another key: move
  }
  // Past the 3/4 load limit (tombstones count — they lengthen probe runs),
  // rebuild: at the same capacity when live keys fill at most half the
  // limit (tombstones filled the rest), else at double.
  if ((heads_used_ + 1) * 4 > heads_.size() * 3) {
    RebuildKeys(std::max(heads_.size(), KeyCapFor(2 * (keys_ + 1))));
  }
  const auto self = static_cast<int32_t>(rowid);
  const size_t mask = heads_.size() - 1;
  size_t insert_at = heads_.size();
  for (size_t pos = HeadHash(vhash) & mask;; pos = (pos + 1) & mask) {
    const int32_t head = heads_[pos];
    if (head == kHeadEmpty) {
      if (insert_at == heads_.size()) {
        insert_at = pos;
        ++heads_used_;
      }
      heads_[insert_at] = self;  // a new key: a one-row chain
      e.next = -1;
      ++keys_;
      break;
    }
    if (head == kHeadTombstone) {
      if (insert_at == heads_.size()) insert_at = pos;
      continue;
    }
    Entry& h = entries_[static_cast<size_t>(head)];
    if (h.vhash == vhash && h.value == v) {
      e.next = head;  // link at the head of the key's chain
      h.prev = self;
      heads_[pos] = self;
      break;
    }
  }
  e.value = v;
  e.vhash = vhash;
  e.prev = -1;
  ++size_;
}

void HashIndex::Unlink(size_t rowid) {
  Entry& e = entries_[rowid];
  if (e.prev >= 0) {
    entries_[static_cast<size_t>(e.prev)].next = e.next;
    if (e.next >= 0) entries_[static_cast<size_t>(e.next)].prev = e.prev;
  } else {
    // Chain head: repoint (or tombstone) the key-table slot holding it.
    const auto self = static_cast<int32_t>(rowid);
    const size_t mask = heads_.size() - 1;
    size_t pos = HeadHash(e.vhash) & mask;
    while (heads_[pos] != self) pos = (pos + 1) & mask;
    if (e.next >= 0) {
      heads_[pos] = e.next;
      entries_[static_cast<size_t>(e.next)].prev = -1;
    } else {
      heads_[pos] = kHeadTombstone;
      --keys_;
    }
  }
  e.value = Value();  // release a heap string's reference
  e.prev = kNoEntry;
  e.next = -1;
  --size_;
}

void HashIndex::Erase(const Value& v, size_t rowid) {
  if (rowid >= entries_.size()) return;
  const Entry& e = entries_[rowid];
  if (e.prev == kNoEntry || !(e.value == v)) return;
  Unlink(rowid);
}

void HashIndex::Lookup(const Value& v, std::vector<size_t>* out) const {
  ++probes_;
  if (heads_.empty()) return;
  const uint64_t vhash = v.Hash();
  const size_t mask = heads_.size() - 1;
  bool hit = false;
  // Every SQL write coerces to the column's type, so a key equals a probe
  // of its own type only when identical: one chain. A probe of the other
  // type can equal several keys — 7 equals both "7" and "07" — which all
  // hash alike and so sit in one probe run: read every matching chain.
  for (size_t pos = HeadHash(vhash) & mask;; pos = (pos + 1) & mask) {
    const int32_t head = heads_[pos];
    if (head == kHeadEmpty) break;
    if (head == kHeadTombstone) continue;
    const Entry& h = entries_[static_cast<size_t>(head)];
    if (h.vhash != vhash || !(h.value == v)) continue;
    hit = true;
    for (int32_t at = head; at >= 0;
         at = entries_[static_cast<size_t>(at)].next) {
      out->push_back(static_cast<size_t>(at));
    }
    if (h.value.type() == v.type()) break;
  }
  if (hit) ++hits_;
}

void HashIndex::Clear() {
  entries_ = std::vector<Entry>();
  heads_ = std::vector<int32_t>();
  size_ = 0;
  keys_ = 0;
  heads_used_ = 0;
  Recharge();
}

// ---------------------------------------------------------------------------
// Table

Table::~Table() {
  Value* cells = cells_.load(std::memory_order_relaxed);
  if (cells != nullptr) {
    const size_t n = filled_.load(std::memory_order_relaxed) * stride_;
    for (size_t i = 0; i < n; ++i) cells[i].~Value();
    ::operator delete(cells);
    if (mem_ != nullptr) {
      mem_->Release(MemoryAccountant::kTableSlabs,
                    cap_rows_ * stride_ * sizeof(Value));
    }
  }
  if (mem_ != nullptr && version_bytes_ != 0) {
    mem_->Release(MemoryAccountant::kVersionBuffers, version_bytes_);
  }
}

Value* Table::ReserveRowSlot() {
  const size_t rows = filled_.load(std::memory_order_relaxed);
  if (rows == cap_rows_) GrowSlab(cap_rows_ == 0 ? 8 : cap_rows_ * 2);
  return cells_.load(std::memory_order_relaxed) + rows * stride_;
}

void Table::GrowSlab(size_t new_cap) {
  Value* cells = cells_.load(std::memory_order_relaxed);
  const size_t rows = filled_.load(std::memory_order_relaxed);
  const size_t old_bytes = cap_rows_ * stride_ * sizeof(Value);
  auto* grown =
      static_cast<Value*>(::operator new(new_cap * stride_ * sizeof(Value)));
  if (mem_ != nullptr) {
    mem_->Charge(MemoryAccountant::kTableSlabs,
                 new_cap * stride_ * sizeof(Value));
  }
  if (cells != nullptr) {
    // Raw byte copy, NOT Value moves: the new buffer takes over every heap
    // reference; the old buffer keeps ghost images that pinned readers may
    // still be streaming, and is retired without running destructors.
    std::memcpy(static_cast<void*>(grown), static_cast<const void*>(cells),
                rows * stride_ * sizeof(Value));
  }
  cells_.store(grown, std::memory_order_release);
  cap_rows_ = new_cap;
  if (cells != nullptr) {
    RetireBuffer(cells, rows, /*destroy_values=*/false, old_bytes);
  }
}

void Table::Reserve(size_t rows) {
  const size_t end = live_.size() + rows;
  if (end > cap_rows_) GrowSlab(std::max({end, cap_rows_ * 2, size_t{8}}));
  for (const auto& index : indexes_) index->Reserve(end, rows);
}

void Table::RetireBuffer(Value* buf, size_t rows, bool destroy_values,
                         size_t charged_bytes) {
  const size_t cell_count = rows * stride_;
  MemoryAccountant* mem = mem_;
  auto free_fn = [buf, cell_count, destroy_values, mem, charged_bytes] {
    if (destroy_values) {
      for (size_t i = 0; i < cell_count; ++i) buf[i].~Value();
    }
    ::operator delete(buf);
    if (mem != nullptr) {
      mem->Release(MemoryAccountant::kTableSlabs, charged_bytes);
    }
  };
  if (em_ != nullptr) {
    em_->Retire(em_->current(), std::move(free_fn));
  } else {
    free_fn();
  }
}

void Table::AppendRow(Row&& row, uint32_t begin, uint32_t end, uint64_t mod) {
  Value* slot = ReserveRowSlot();
  for (size_t c = 0; c < arity_; ++c) {
    new (slot + c) Value(std::move(row[c]));
  }
  Value* meta_cell = new (slot + arity_) Value();
  RowMetaRef m(meta_cell);
  m.StoreBeginEnd(begin, end);
  m.StoreMod(mod);
  // Publish: the release pairs with readers' SnapshotRowCount acquire.
  filled_.store(filled_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
}

Result<size_t> Table::Insert(Row row) {
  if (row.size() != arity_) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        schema_.name() + "' (" + std::to_string(arity_) + ")");
  }
  size_t rowid = live_.size();
  for (const auto& index : indexes_) {
    index->Insert(row[static_cast<size_t>(index->column())], rowid);
  }
  const uint64_t w = WriteEpoch();
  AppendRow(std::move(row), RowEpochClamp(w), kRowEpochInf, w);
  live_.push_back(true);
  ++live_count_;
  ++access_stats_.rows_inserted;
  if (txn_ != nullptr) txn_->LogInsert(this, rowid);
  return rowid;
}

void Table::LoadSlot(Row row, bool live) {
  // Snapshot/recovery rows predate every possible pin: born at epoch 1.
  // Dead slots get an empty [1, 1) interval — never visible, but their
  // positions (and values) are preserved for WAL redo addressing.
  AppendRow(std::move(row), 1, live ? kRowEpochInf : 1, 1);
  live_.push_back(live);
  if (live) ++live_count_;
}

Status Table::Delete(size_t rowid) {
  if (rowid >= live_.size() || !live_[rowid]) {
    return Status::NotFound("row already deleted or out of range");
  }
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Erase(r[static_cast<size_t>(index->column())], rowid);
  }
  // Tombstone for readers: end = write epoch. Pins below it still see the
  // row (its values stay in the slot); pins at or above it do not.
  meta(rowid).StoreEnd(RowEpochClamp(WriteEpoch()));
  live_[rowid] = false;
  --live_count_;
  ++access_stats_.rows_deleted;
  if (txn_ != nullptr) txn_->LogDelete(this, rowid);
  return Status::OK();
}

void Table::PrepareRowUpdate(size_t rowid) {
  if (em_ == nullptr) return;
  const uint64_t w = em_->write_epoch();
  RowMetaRef m = meta(rowid);
  if (m.mod() == w) return;  // window already open for this row
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    OldVersion ov;
    ov.end_valid = w;
    ov.values = CopyRow(rowid);
    versions_.emplace(rowid, std::move(ov));
    ++em_->version_entries;
    ++version_rows_;
    version_bytes_ += arity_ * sizeof(Value);
    if (mem_ != nullptr) {
      mem_->Charge(MemoryAccountant::kVersionBuffers, arity_ * sizeof(Value));
    }
  }
  // Seqlock open: stamp the mod word, then fence, then (in the caller)
  // word-atomic cell stores. A reader that observes any new cell bytes is
  // therefore guaranteed to observe mod >= w on revalidation and divert
  // to the parked pre-image.
  m.StoreMod(w);
  std::atomic_thread_fence(std::memory_order_release);
}

Status Table::SetColumn(size_t rowid, int column, Value v) {
  if (rowid >= live_.size() || !live_[rowid]) {
    return Status::NotFound("row deleted or out of range");
  }
  PrepareRowUpdate(rowid);
  Value& cell = mutable_row(rowid)[static_cast<size_t>(column)];
  if (txn_ != nullptr) {
    txn_->LogUpdate(this, rowid, column, cell, v);
  }
  for (const auto& index : indexes_) {
    if (index->column() == column) {
      index->Erase(cell, rowid);
      index->Insert(v, rowid);
    }
  }
  std::move(v).RacyPublishTo(&cell);
  ++access_stats_.rows_updated;
  return Status::OK();
}

void Table::Clear() {
  Value* cells = cells_.load(std::memory_order_relaxed);
  const size_t rows = filled_.load(std::memory_order_relaxed);
  // Readers re-load the row count and cell pointer per access, so after
  // these stores they observe an empty table (Clear is not snapshot-
  // isolated — it only serves writer-private scratch tables); the retired
  // buffer keeps any in-flight row copies valid until their pins drop.
  const size_t charged = cap_rows_ * stride_ * sizeof(Value);
  filled_.store(0, std::memory_order_release);
  cells_.store(nullptr, std::memory_order_release);
  cap_rows_ = 0;
  live_.clear();
  live_count_ = 0;
  if (cells != nullptr) {
    RetireBuffer(cells, rows, /*destroy_values=*/true, charged);
  }
  for (const auto& index : indexes_) index->Clear();
}

void Table::UndoInsert(size_t rowid) {
  if (rowid >= live_.size() || !live_[rowid]) return;
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Erase(r[static_cast<size_t>(index->column())], rowid);
  }
  live_[rowid] = false;
  --live_count_;
  if (rowid + 1 == live_.size()) {
    // Pop the slot. Readers with a stale row count reject it by its begin
    // epoch (> their pin) without touching the cells, so destroying the
    // writer's references here is safe.
    Value* cells = cells_.load(std::memory_order_relaxed);
    filled_.store(rowid, std::memory_order_release);
    for (size_t c = 0; c < stride_; ++c) {
      cells[rowid * stride_ + c].~Value();
    }
    live_.pop_back();
  } else {
    // Mid-undo of an interleaved multi-table scope: kill the row for every
    // epoch (empty interval) but keep the slot.
    const uint32_t w = RowEpochClamp(WriteEpoch());
    meta(rowid).StoreBeginEnd(w, w);
  }
}

void Table::UndoDelete(size_t rowid) {
  if (rowid >= live_.size() || live_[rowid]) return;
  meta(rowid).StoreEnd(kRowEpochInf);
  live_[rowid] = true;
  ++live_count_;
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Insert(r[static_cast<size_t>(index->column())], rowid);
  }
}

void Table::UndoSetColumn(size_t rowid, int column, const Value& v) {
  if (rowid >= live_.size()) return;
  // The row's seqlock window is already open (the forward SetColumn opened
  // it), so readers of older epochs are diverted; still store word-
  // atomically so a reader's optimistic copy attempt never tears.
  Value& cell = mutable_row(rowid)[static_cast<size_t>(column)];
  for (const auto& index : indexes_) {
    if (index->column() == column) {
      index->Erase(cell, rowid);
      index->Insert(v, rowid);
    }
  }
  Value(v).RacyPublishTo(&cell);
}

bool Table::SnapshotReadRow(size_t rowid, uint64_t pin, Row* out) const {
  out->clear();
  for (int attempt = 0;; ++attempt) {
    // Visibility first: the begin/end pair is one untorn word, and during
    // slot reuse (pop + re-insert) every transient value of `begin`
    // exceeds any pinned epoch, so an invisible row is rejected without
    // ever touching its cells. Acquire on the buffer pointer: a grow
    // publishes the memcpy'd rows via the release store of `cells_`, and
    // this load may observe a buffer newer than the one `filled_`'s
    // acquire synchronized with.
    const Value* cells = cells_.load(std::memory_order_acquire);
    const Value* slot = cells + rowid * stride_;
    RowMetaRef m(slot + arity_);
    if (!RowMetaRef::Visible(m.begin_end(), pin)) return false;
    const uint64_t m1 = m.mod_acquire();
    if (m1 <= pin) {
      // Optimistic seqlock copy: raw word loads, fence, revalidate, and
      // only then materialize owning Values (a torn heap pointer must
      // never reach a refcount).
      uint64_t stack_words[2 * 16];
      std::vector<uint64_t> heap_words;
      uint64_t* w = stack_words;
      if (arity_ > 16) {
        heap_words.resize(2 * arity_);
        w = heap_words.data();
      }
      for (size_t c = 0; c < arity_; ++c) {
        Value::RacyLoadWords(slot + c, w + 2 * c);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (m.mod() == m1) {
        for (size_t c = 0; c < arity_; ++c) {
          out->push_back(Value::FromSnapshotWords(w + 2 * c));
        }
        return true;
      }
      continue;  // writer opened the row's window mid-copy; retry
    }
    // The row was modified inside a window newer than our pin: fetch the
    // matching parked pre-image — the entry with the smallest end_valid
    // still above the pin holds the row as of our epoch.
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      auto [it, end] = versions_.equal_range(rowid);
      const OldVersion* best = nullptr;
      for (; it != end; ++it) {
        if (it->second.end_valid > pin &&
            (best == nullptr || it->second.end_valid < best->end_valid)) {
          best = &it->second;
        }
      }
      if (best != nullptr) {
        out->insert(out->end(), best->values.begin(), best->values.end());
        return true;
      }
    }
    // No entry can only mean the writer is between stamping `mod` and
    // parking the pre-image becoming observable — retry resolves it. The
    // attempt bound is sheer paranoia (treat the row as dead rather than
    // spin forever on a logic bug).
    if (attempt > 1000) return false;
  }
}

bool Table::SnapshotReadSlot(size_t rowid, uint64_t pin, Row* out) const {
  if (SnapshotReadRow(rowid, pin, out)) return true;
  // Dead at the pin: the cells are frozen, so no seqlock revalidation.
  const Value* slot = cells_.load(std::memory_order_acquire) + rowid * stride_;
  out->clear();
  for (size_t c = 0; c < arity_; ++c) {
    uint64_t w[2];
    Value::RacyLoadWords(slot + c, w);
    out->push_back(Value::FromSnapshotWords(w));
  }
  return false;
}

size_t Table::GcVersions(uint64_t min_pinned) {
  std::lock_guard<std::mutex> lock(versions_mu_);
  size_t trimmed = 0;
  for (auto it = versions_.begin(); it != versions_.end();) {
    if (it->second.end_valid <= min_pinned) {
      it = versions_.erase(it);
      if (em_ != nullptr) --em_->version_entries;
      ++trimmed;
    } else {
      ++it;
    }
  }
  if (trimmed != 0) {
    version_rows_ -= trimmed;
    version_bytes_ -= trimmed * arity_ * sizeof(Value);
    if (mem_ != nullptr) {
      mem_->Release(MemoryAccountant::kVersionBuffers,
                    trimmed * arity_ * sizeof(Value));
    }
  }
  return trimmed;
}

Status Table::CreateIndex(const std::string& index_name, int column) {
  if (FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  if (column < 0 || static_cast<size_t>(column) >= arity_) {
    return Status::InvalidArgument("bad index column");
  }
  auto index = std::make_unique<HashIndex>(index_name, column, mem_);
  index->Reserve(live_.size(), live_count_);
  for (size_t rowid = 0; rowid < live_.size(); ++rowid) {
    if (live_[rowid]) {
      index->Insert(row(rowid)[static_cast<size_t>(column)], rowid);
    }
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::TryDropIndex(std::string_view index_name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (EqualsIgnoreCase((*it)->name(), index_name)) {
      indexes_.erase(it);
      return true;
    }
  }
  return false;
}

Status Table::DropIndex(const std::string& index_name) {
  if (TryDropIndex(index_name)) return Status::OK();
  return Status::NotFound("index '" + index_name + "' not found");
}

const HashIndex* Table::FindIndexOnColumn(int column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

const HashIndex* Table::FindIndexByName(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name(), name)) return index.get();
  }
  return nullptr;
}

}  // namespace xupd::rdb
