#include "rdb/database.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "rdb/exec_node.h"
#include "rdb/snapshot.h"
#include "rdb/sql_executor.h"
#include "rdb/sql_parser.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

namespace {

// Busy-wait so the simulated latency shows up in wall-clock measurements.
// Deadline-aware: an armed statement deadline cuts the spin short so a
// timed-out statement fails promptly instead of first paying the full
// simulated round trip.
void SpinFor(double us, uint64_t deadline_ns = 0) {
  if (us <= 0) return;
  Stopwatch sw;
  while (sw.ElapsedSeconds() * 1e6 < us) {
    if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) return;
  }
}

bool IsDdl(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return true;
    default:
      return false;
  }
}

// Whether `stmt` writes rows: INSERT, DELETE or UPDATE, or EXPLAIN ANALYZE
// of one (which executes it).
bool IsDml(const sql::Statement& stmt) {
  if (stmt.kind == sql::Statement::Kind::kExplain) {
    return stmt.explain_analyze && IsDml(*stmt.explain);
  }
  return stmt.kind == sql::Statement::Kind::kInsert ||
         stmt.kind == sql::Statement::Kind::kDelete ||
         stmt.kind == sql::Statement::Kind::kUpdate;
}

// The bind check of every statement path: `bound` values for the
// statement's ? placeholders.
Status CheckBind(const sql::Statement& stmt, size_t bound) {
  if (static_cast<int>(bound) == stmt.param_count) return Status::OK();
  return Status::InvalidArgument("bound " + std::to_string(bound) +
                                 " parameters, statement has " +
                                 std::to_string(stmt.param_count));
}

}  // namespace

StatementHandle NewStatementHandle(std::string_view sql, sql::Statement stmt) {
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->sql = std::string(sql);
  prepared->stmt = std::move(stmt);
  return prepared;
}

Result<StatementHandle> StatementCache::Prepare(std::string_view sql,
                                                Stats* stats) {
  auto it = index_.find(sql);
  if (it != index_.end()) {
    ++stats->prepared_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  ++stats->prepared_misses;
  ++stats->sql_parses;
  auto stmt = sql::ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  StatementHandle handle = NewStatementHandle(sql, std::move(stmt).value());
  if (!IsDdl(handle->stmt)) {
    lru_.push_front(handle);
    index_.emplace(handle->sql, lru_.begin());
    if (lru_.size() > kDefaultCapacity) {
      index_.erase(lru_.back()->sql);
      lru_.pop_back();
    }
  }
  return handle;
}

void StatementCache::Clear() {
  index_.clear();
  lru_.clear();
}

std::string MultiRowInsertSql(std::string_view table, size_t columns,
                              size_t rows) {
  std::string sql = "INSERT INTO ";
  sql += table;
  sql += " VALUES ";
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) sql += ", ";
      sql += "?";
    }
    sql += ")";
  }
  return sql;
}

Database::Database() {
  InitMetrics();
  // Wire the memory accountant into the always-present charge sites; tables
  // and the WAL writer are wired as they are created/opened.
  txn_.set_accountant(&mem_);
}

void Database::InitMetrics() {
  static constexpr const char* kStmtHistNames[kStmtKindSlots] = {
      "stmt.select", "stmt.insert", "stmt.delete", "stmt.update",
      "stmt.ddl",    "stmt.txn",    "stmt.explain", "stmt.other",
  };
  for (size_t i = 0; i < kStmtKindSlots; ++i) {
    stmt_hists_[i] = metrics_.GetHistogram(kStmtHistNames[i]);
  }
  exec_ns_ = metrics_.Counter("db.exec_ns");
  trigger_ns_ = metrics_.Counter("db.trigger_ns");
  epochs_.readers_gauge = metrics_.Gauge("readers.active");
  // Concurrency telemetry (PR 9): resolved once so the commit-boundary and
  // reader hot paths touch plain atomics.
  epochs_.lag_gauge = metrics_.Gauge("epoch.lag");
  epochs_.reclaim_counter = metrics_.Counter("mvcc.slab_reclaims");
  epoch_published_gauge_ = metrics_.Gauge("epoch.published");
  version_rows_gauge_ = metrics_.Gauge("mvcc.version_rows");
  version_bytes_gauge_ = metrics_.Gauge("mvcc.version_bytes");
  version_gc_rows_ = metrics_.Counter("mvcc.version_gc_rows");
  reader_sessions_gauge_ = metrics_.Gauge("readers.sessions");
  catalog_shared_wait_ = metrics_.GetHistogram("catalog_lock.shared_wait");
  catalog_exclusive_wait_ =
      metrics_.GetHistogram("catalog_lock.exclusive_wait");
  // Resource governance (PR 10): statement-kill counters, heal/watchdog
  // observability, and the mem.* gauges the accountant mirrors into.
  stmt_cancelled_ = metrics_.Counter("stmt.cancelled");
  stmt_deadline_exceeded_ = metrics_.Counter("stmt.deadline_exceeded");
  stmt_resource_exhausted_ = metrics_.Counter("stmt.resource_exhausted");
  stmt_shed_ = metrics_.Counter("stmt.shed");
  flusher_stall_counter_ = metrics_.Counter("watchdog.flusher_stalls");
  checkpoint_stall_counter_ = metrics_.Counter("watchdog.checkpoint_stalls");
  mem_.AttachMetrics(&metrics_);
}

std::unique_lock<std::shared_mutex> Database::LockCatalogExclusive() const {
  const uint64_t t0 = MonotonicNanos();
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  catalog_exclusive_wait_->Record(MonotonicNanos() - t0);
  return lock;
}

std::shared_lock<std::shared_mutex> Database::LockCatalogShared() const {
  const uint64_t t0 = MonotonicNanos();
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  catalog_shared_wait_->Record(MonotonicNanos() - t0);
  return lock;
}

size_t Database::StmtKindSlot(sql::Statement::Kind kind) {
  switch (kind) {
    case sql::Statement::Kind::kSelect:
      return 0;
    case sql::Statement::Kind::kInsert:
      return 1;
    case sql::Statement::Kind::kDelete:
      return 2;
    case sql::Statement::Kind::kUpdate:
      return 3;
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return 4;
    case sql::Statement::Kind::kBegin:
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kSavepoint:
    case sql::Statement::Kind::kRelease:
      return 5;
    case sql::Statement::Kind::kExplain:
      return 6;
    default:  // kCheckIntegrity, kShow
      return 7;
  }
}

void Database::InvalidateStatementCache() {
  statement_cache_.Clear();
  BumpCatalogVersion();
}

void Database::BumpCatalogVersion() {
  catalog_version_.fetch_add(1, std::memory_order_acq_rel);
}

const std::vector<const Database::TriggerDef*>& Database::TriggersOn(
    const Table* table) {
  const uint64_t version = catalog_version();
  if (trigger_lists_version_ != version) {
    trigger_lists_.clear();
    trigger_lists_version_ = version;
  }
  auto [it, inserted] = trigger_lists_.try_emplace(table);
  if (inserted) {
    for (const TriggerDef& t : triggers_) {
      if (EqualsIgnoreCase(t.table, table->schema().name())) {
        it->second.push_back(&t);
      }
    }
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Durability

Database::~Database() {
  // Background threads first: the checkpoint thread holds raw Table* /
  // reader-slot state, the flusher dereferences wal_.
  (void)CheckpointWait();
  StopFlusher();
  // The metrics registry dies before tables_/txn_ do, and their
  // destructors release memory charges — stop mirroring into gauges now.
  mem_.AttachMetrics(nullptr);
  if (wal_ != nullptr) {
    // Clean shutdown persists pending direct-API writes; an open
    // transaction's pending redo is uncommitted and must not.
    if (!txn_.active()) (void)WalCommitUnit();
    (void)wal_->Close();
  }
  // lock_file_'s destructor releases the directory flock.
}

Status Database::Open(const std::string& dir,
                      const DurabilityOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability is already open");
  }
  if (!tables_.empty() || txn_.active()) {
    return Status::InvalidArgument(
        "Open requires a fresh Database (no tables, no open transaction)");
  }
  vfs_ = options.vfs != nullptr ? options.vfs : Vfs::Default();
  int err = vfs_->Mkdir(dir);
  if (err == 0) {
    // Make the new directory's own entry durable (see WalWriter::Open for
    // the file-level counterpart); without this a power loss could lose
    // the whole directory even though its files were fsynced.
    if (options.sync_mode != SyncMode::kNone) {
      if ((err = vfs_->SyncDir(dir)) != 0) {
        return ErrnoStatus("cannot fsync parent of data directory", dir, err);
      }
    }
  } else if (err != EEXIST) {
    return ErrnoStatus("cannot create data directory", dir, err);
  }
  data_dir_ = dir;
  durability_options_ = options;

  // Exclusive directory lock: two writers on one WAL would truncate and
  // overwrite each other's committed frames with no error until the next
  // recovery hits a CRC mismatch. flock conflicts across processes AND
  // across two Database instances in one process; released in ~Database.
  std::string lock_path = dir + "/LOCK";
  std::unique_ptr<VfsFile> lock =
      vfs_->Open(lock_path, Vfs::OpenMode::kWrite, &err);
  if (lock == nullptr) {
    return ErrnoStatus("cannot open lock file", lock_path, err);
  }
  if (lock->TryLockExclusive() != 0) {
    return Status::InvalidArgument(
        "data directory '" + dir +
        "' is already in use by another Database (lock held)");
  }
  lock_file_ = std::move(lock);
  // Restore the documented fresh-Database precondition on any failure: a
  // half-loaded snapshot or half-replayed WAL must not linger as a partial
  // catalog the caller could mistake for usable in-memory state.
  auto fail = [&](Status s) {
    tables_.clear();
    triggers_.clear();
    // A later Open may allocate a Table at a freed address: retire every
    // plan and trigger list keyed by the old catalog.
    BumpCatalogVersion();
    next_id_ = 1;
    data_dir_.clear();
    recovered_ = false;
    lock_file_ = nullptr;
    return s;
  };

  // A crash (or ENOSPC) between a checkpoint's temp-file write and its
  // rename leaves an orphan temp snapshot; clean it up here so it cannot
  // accumulate in the data dir forever.
  if (vfs_->Exists(SnapshotTmpPath(dir))) {
    (void)vfs_->Remove(SnapshotTmpPath(dir));
  }

  Status recovered = RecoverFromDir();
  if (!recovered.ok()) return fail(recovered);
  if (durability_options_.sync_mode == SyncMode::kBatched) StartFlusher();
  return Status::OK();
}

Status Database::RecoverFromDir() {
  const uint64_t t0 = MonotonicNanos();
  uint64_t epoch = 1;
  uint64_t wal_offset = 0;
  bool have_snapshot = false;
  if (vfs_->Exists(SnapshotPath(data_dir_))) {
    auto loaded = LoadSnapshot(this, vfs_, SnapshotPath(data_dir_));
    if (!loaded.ok()) return loaded.status();
    epoch = loaded.value().epoch;
    wal_offset = loaded.value().wal_offset;
    have_snapshot = true;
  }
  auto replayed =
      ReplayWal(this, vfs_, WalPath(data_dir_), epoch, wal_offset);
  if (!replayed.ok()) return replayed.status();
  WalReplayResult replay = std::move(replayed).value();
  stats_.recovery_replayed += replay.applied_records;
  recovered_ = have_snapshot || replay.applied_records > 0;

  XUPD_RETURN_IF_ERROR(
      InstallWal(epoch, replay.valid_bytes, &replay.table_ids));
  // Everything loaded so far belongs to the pre-boundary epoch; publish the
  // first post-recovery boundary so reader pins see the recovered state.
  epochs_.Advance();
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.recovery")->Record(dur);
  events_.Record({TraceEvent::Kind::kRecovery, t0, dur,
                  replay.applied_records, 0, nullptr});
  return Status::OK();
}

Status Database::InstallWal(
    uint64_t epoch, uint64_t resume_offset,
    const std::vector<std::pair<std::string, uint16_t>>* table_ids) {
  wal_fsync_ = metrics_.GetHistogram("wal.fsync");
  auto writer = WalWriter::Open(vfs_, WalPath(data_dir_), epoch, resume_offset,
                                durability_options_, &stats_, table_ids,
                                wal_fsync_);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer).value();
  wal_->AttachMetrics(metrics_.GetHistogram("wal.commit_unit"),
                      metrics_.GetHistogram("wal.batch_commits"), &events_);
  wal_->set_accountant(&mem_);
  txn_.AttachWal(wal_.get());
  return Status::OK();
}

Status Database::CaptureCheckpoint(CheckpointCapture* capture) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not open");
  }
  if (read_only_) return ReadOnlyError("checkpoint");
  if (txn_.active()) {
    return Status::InvalidArgument(
        "cannot checkpoint inside a transaction (the snapshot must not "
        "contain uncommitted effects)");
  }
  XUPD_RETURN_IF_ERROR(WalCommitUnit());
  // Publish the boundary the snapshot captures: every committed write,
  // direct-API loads included, is visible at the current epoch from here.
  AdvanceEpochBoundary();
  capture->pin_epoch = epochs_.current();
  capture->next_id = next_id_;
  for (const auto& [name, table] : tables_) {
    if (!table->durable()) continue;
    capture->tables.emplace_back(table.get(), table->SnapshotRowCount());
  }
  for (const auto& trigger : triggers_) {
    capture->trigger_sql.push_back(trigger.sql);
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  // A background checkpoint holds raw Table* and WAL-offset assumptions
  // this full checkpoint would invalidate (it truncates the WAL). Its own
  // failure is benign (old snapshot + full WAL stay consistent), so it
  // does not block this full checkpoint.
  (void)CheckpointWait();
  // The writer thread is the only mutator for the whole call, so the
  // captured epoch needs no reader slot to stay pinned.
  CheckpointCapture capture;
  XUPD_RETURN_IF_ERROR(CaptureCheckpoint(&capture));
  capture.epoch = wal_->epoch() + 1;
  capture.wal_offset = 0;
  const uint64_t t0 = MonotonicNanos();
  bool renamed = false;
  Status snap = WriteSnapshot(*this, vfs_, SnapshotPath(data_dir_),
                              SnapshotTmpPath(data_dir_), capture, &renamed);
  if (!snap.ok()) {
    // Fail-stop only when the new-epoch snapshot is already visible (the
    // failure hit the post-rename directory fsync): the still-open
    // old-epoch writer would otherwise accept commits that the next
    // recovery silently ignores. A pre-rename failure (e.g. transient
    // ENOSPC on the temp file) leaves old snapshot + WAL fully consistent,
    // so the writer keeps going and the checkpoint can simply be retried.
    if (renamed) {
      wal_->MarkBroken("checkpoint failed after the new snapshot became "
                       "visible: " + snap.message());
      EnterReadOnly(snap);
    }
    return snap;
  }
  // The snapshot now contains every WAL record; reset the log to the new
  // epoch. A crash between the rename above and this reset leaves an
  // old-epoch WAL that recovery recognizes as contained and ignores.
  // flusher_mu_ keeps the group-commit flusher off wal_ across the swap.
  std::unique_lock<std::mutex> flusher_lock(flusher_mu_);
  Status reset = wal_->Close();
  if (reset.ok()) reset = InstallWal(capture.epoch, 0);
  if (!reset.ok()) {
    // Same fail-stop: the snapshot is durable up to this point, but the
    // log cannot accept new units. The (closed) writer stays attached in
    // its broken state so mutations still pend and every later durable
    // COMMIT fails loudly at its unit boundary.
    wal_->MarkBroken("cannot reset WAL after checkpoint: " + reset.message());
    flusher_lock.unlock();
    EnterReadOnly(reset);
    return reset;
  }
  flusher_lock.unlock();
  ++stats_.checkpoints;
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.checkpoint")->Record(dur);
  events_.Record({TraceEvent::Kind::kCheckpoint, t0, dur, 0, 0, nullptr});
  return Status::OK();
}

Status Database::WalFlush() {
  if (txn_.active()) return Status::OK();
  Status unit = WalCommitUnit();
  // Every top-level boundary publishes an epoch — also on statement failure
  // (a failed DML statement has rolled back its rows; the boundary
  // publishes their restored metadata) and on non-durable Databases.
  AdvanceEpochBoundary();
  return unit;
}

void Database::AdvanceEpochBoundary() {
  const uint64_t published = epochs_.Advance();
  epoch_published_gauge_->store(static_cast<int64_t>(published),
                                std::memory_order_relaxed);
  // Fast path: nothing retired, no version-buffer images, no reader
  // pinned, and no stale lag to decay → the boundary cost stays the single
  // atomic increment plus three relaxed gauge touches. The min-pinned slot
  // scan runs only while it has something to observe (readers to measure
  // lag against, garbage to reclaim, or a nonzero lag to decay back to 0).
  const bool has_garbage =
      epochs_.has_retired() || epochs_.version_entries > 0;
  if (!has_garbage &&
      epochs_.readers_gauge->load(std::memory_order_relaxed) == 0 &&
      epochs_.lag_gauge->load(std::memory_order_relaxed) == 0) {
    return;
  }
  const uint64_t min_pinned = epochs_.MinPinned();
  epochs_.lag_gauge->store(
      min_pinned == UINT64_MAX ? 0
                               : static_cast<int64_t>(published - min_pinned),
      std::memory_order_relaxed);
  if (!has_garbage) return;
  epochs_.ReclaimBefore(min_pinned);
  uint64_t version_bytes = 0;
  if (epochs_.version_entries > 0) {
    uint64_t trimmed = 0;
    for (auto& [name, table] : tables_) {
      trimmed += table->GcVersions(min_pinned);
      version_bytes += table->version_bytes();
    }
    if (trimmed != 0) {
      version_gc_rows_->fetch_add(trimmed, std::memory_order_relaxed);
    }
  }
  version_rows_gauge_->store(static_cast<int64_t>(epochs_.version_entries),
                             std::memory_order_relaxed);
  version_bytes_gauge_->store(static_cast<int64_t>(version_bytes),
                              std::memory_order_relaxed);
}

Status Database::WalCommitUnit() {
  if (wal_ == nullptr || wal_->pending_empty()) return Status::OK();
  Status s = wal_->CommitPending(next_id_);
  // A fail-stopped writer can never accept another unit: flip the whole
  // Database into read-only mode so later statements are rejected up front
  // with a clean kUnavailable instead of each discovering the broken log.
  if (!s.ok() && wal_->broken()) EnterReadOnly(s);
  return s;
}

void Database::WalLogDdl(std::string_view sql_text) {
  if (wal_ == nullptr || sql_text.empty()) return;
  wal_->PendDdl(sql_text);
}

// ---------------------------------------------------------------------------
// Graceful degradation

Database::Health Database::health() const {
  Health h;
  h.read_only = read_only_.load(std::memory_order_acquire);
  h.cause = read_only_cause_;
  h.flusher_stalled = FlusherStalled();
  h.checkpoint_stalled = CheckpointStalled();
  return h;
}

bool Database::FlusherStalled() const {
  const uint64_t hb = flusher_heartbeat_ns_.load(std::memory_order_acquire);
  if (!flusher_.joinable() || hb == 0) return false;
  const int window_us = durability_options_.group_commit_window_us > 0
                            ? durability_options_.group_commit_window_us
                            : 2000;
  const uint64_t budget = static_cast<uint64_t>(watchdog_stall_windows_) *
                          static_cast<uint64_t>(window_us) * 1000;
  const uint64_t now = MonotonicNanos();
  const bool stalled = now - hb > budget;
  if (stalled) {
    if (!flusher_stall_reported_.exchange(true, std::memory_order_acq_rel)) {
      flusher_stall_counter_->fetch_add(1, std::memory_order_relaxed);
      events_.Record({TraceEvent::Kind::kGovernance, hb, now - hb,
                      static_cast<uint64_t>(watchdog_stall_windows_),
                      static_cast<uint64_t>(window_us), "flusher_stall"});
    }
  } else {
    flusher_stall_reported_.store(false, std::memory_order_release);
  }
  return stalled;
}

bool Database::CheckpointStalled() const {
  if (!checkpoint_running_ ||
      checkpoint_done_.load(std::memory_order_acquire)) {
    // A finished-but-unjoined background checkpoint made its progress; only
    // a thread still inside the snapshot write can be stalled.
    checkpoint_stall_reported_.store(false, std::memory_order_release);
    return false;
  }
  const uint64_t hb = checkpoint_heartbeat_ns_.load(std::memory_order_acquire);
  if (hb == 0) return false;
  const uint64_t budget = static_cast<uint64_t>(watchdog_stall_windows_) *
                          static_cast<uint64_t>(checkpoint_watchdog_window_us_) *
                          1000;
  const uint64_t now = MonotonicNanos();
  const bool stalled = now - hb > budget;
  if (stalled &&
      !checkpoint_stall_reported_.exchange(true, std::memory_order_acq_rel)) {
    checkpoint_stall_counter_->fetch_add(1, std::memory_order_relaxed);
    events_.Record({TraceEvent::Kind::kGovernance, hb, now - hb,
                    static_cast<uint64_t>(watchdog_stall_windows_),
                    static_cast<uint64_t>(checkpoint_watchdog_window_us_),
                    "checkpoint_stall"});
  }
  return stalled;
}

void Database::EnterReadOnly(const Status& cause) {
  if (read_only_) return;  // keep the first (root) cause
  read_only_ = true;
  read_only_cause_ = cause.message();
}

Status Database::ReadOnlyError(const std::string& action) const {
  return Status::Unavailable(
      action + " rejected: database is in read-only mode after a storage "
      "fault (" + read_only_cause_ + "); retry after TryHeal()");
}

Status Database::CheckWritable(const sql::Statement& stmt) const {
  if (!read_only_) return Status::OK();
  const char* action = nullptr;
  switch (stmt.kind) {
    // DDL always goes through the WAL when durability is open.
    case sql::Statement::Kind::kCreateTable:
      action = "CREATE TABLE";
      break;
    case sql::Statement::Kind::kCreateIndex:
      action = "CREATE INDEX";
      break;
    case sql::Statement::Kind::kCreateTrigger:
      action = "CREATE TRIGGER";
      break;
    case sql::Statement::Kind::kDrop:
      action = "DROP";
      break;
    // DML is rejected only against durable tables: engine scratch tables
    // (idlists, setup markers) bypass the WAL and must keep working so
    // reads — which stage intermediate ids — still run in degraded mode.
    case sql::Statement::Kind::kInsert: {
      const Table* t = FindTable(stmt.insert.table);
      if (t == nullptr || t->durable()) action = "INSERT";
      break;
    }
    case sql::Statement::Kind::kDelete: {
      const Table* t = FindTable(stmt.del.table);
      if (t == nullptr || t->durable()) action = "DELETE";
      break;
    }
    case sql::Statement::Kind::kUpdate: {
      const Table* t = FindTable(stmt.update.table);
      if (t == nullptr || t->durable()) action = "UPDATE";
      break;
    }
    // SELECT, EXPLAIN, CHECK INTEGRITY, and transaction control stay
    // available (a txn holding only scratch-table writes is legitimate).
    default:
      break;
  }
  if (action == nullptr) return Status::OK();
  return ReadOnlyError(action);
}

Status Database::ReopenFromDisk() {
  // No background work may straddle the rebuild: the checkpoint thread
  // holds raw Table*, the flusher dereferences wal_.
  (void)CheckpointWait();
  // Probe first: recover the on-disk state into a scratch Database. Free
  // functions only (no Open), so the scratch never touches our flock. If
  // the fault is still active this fails without disturbing our readable
  // in-memory catalog.
  {
    Database probe;
    probe.data_dir_ = data_dir_;
    probe.durability_options_ = durability_options_;
    probe.vfs_ = vfs_;
    Status probed = probe.RecoverFromDir();
    // The probe opened its own writer on our WAL path; close it before we
    // reopen ours so the header/truncate below is the only writer.
    if (probe.wal_ != nullptr) {
      (void)probe.wal_->Close();
      probe.wal_ = nullptr;
      probe.txn_.AttachWal(nullptr);
    }
    probe.data_dir_.clear();
    if (!probed.ok()) return probed;
  }

  // The disk state recovers cleanly — rebuild this Database from it.
  // Dropping the catalog invalidates every cached plan through the global
  // catalog version (InvalidateStatementCache bumps it). The exclusive
  // catalog lock covers only the teardown (holding it across RecoverFromDir
  // would deadlock with CreateTableDirect's own exclusive acquisition):
  // reader statements racing the rebuild may see a partial catalog — a
  // documented heal-window anomaly.
  {
    std::lock_guard<std::mutex> flusher_lock(flusher_mu_);
    wal_ = nullptr;
  }
  txn_.AttachWal(nullptr);
  {
    auto lock = LockCatalogExclusive();
    tables_.clear();
    triggers_.clear();
    InvalidateStatementCache();
  }
  next_id_ = 1;
  recovered_ = false;
  // Clear the gate BEFORE replaying: snapshot load re-executes CREATE
  // TRIGGER text through the Executor, which checks CheckWritable.
  read_only_ = false;
  read_only_cause_.clear();
  Status s = RecoverFromDir();
  if (!s.ok()) {
    // Half-recovered catalog: stay degraded with the new cause. Reads over
    // whatever loaded still work; writes stay rejected.
    EnterReadOnly(s);
    return s;
  }
  return Status::OK();
}

Status Database::TryHeal(int max_attempts) {
  if (data_dir_.empty()) {
    return Status::InvalidArgument("durability is not open");
  }
  if (!read_only_) return Status::OK();
  if (txn_.active()) {
    return Status::InvalidArgument(
        "cannot heal inside a transaction (roll back first)");
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff, bounded by kMaxHealBackoffMs and interruptible
      // via the cancel token (slept in 1ms slices so a Cancel() from
      // another thread is honored within ~1ms). Each backoff is a
      // kGovernance trace span annotated with the attempt and planned wait.
      const int backoff_ms =
          std::min(1 << attempt, kMaxHealBackoffMs);
      const uint64_t t0 = MonotonicNanos();
      for (int slept = 0; slept < backoff_ms; ++slept) {
        if (cancel_token_.cancelled()) {
          events_.Record({TraceEvent::Kind::kGovernance, t0,
                          MonotonicNanos() - t0,
                          static_cast<uint64_t>(attempt),
                          static_cast<uint64_t>(backoff_ms), "heal_backoff"});
          return Status::Cancelled(
              "heal cancelled during backoff (attempt " +
              std::to_string(attempt) + " of " +
              std::to_string(max_attempts) + ")");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      events_.Record({TraceEvent::Kind::kGovernance, t0,
                      MonotonicNanos() - t0, static_cast<uint64_t>(attempt),
                      static_cast<uint64_t>(backoff_ms), "heal_backoff"});
    }
    ++stats_.heal_attempts;
    last = ReopenFromDisk();
    if (last.ok()) return Status::OK();
  }
  return Status::Unavailable(
      "heal failed after " + std::to_string(max_attempts) +
      " attempts, database remains read-only (" + last.message() + ")");
}

Status Database::Begin() {
  if (!txn_.active()) txn_start_ns_ = MonotonicNanos();
  txn_.Begin(next_id_);
  return Status::OK();
}

Status Database::Commit() {
  XUPD_RETURN_IF_ERROR(txn_.Commit());
  // The outermost commit makes the unit durable: flush its redo records.
  if (!txn_.active()) {
    Status unit = WalCommitUnit();
    AdvanceEpochBoundary();
    RecordTxn(1);
    return unit;
  }
  return Status::OK();
}

Status Database::Rollback() {
  auto next_id = txn_.Rollback();
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  if (!txn_.active()) {
    // Rolled-back state is a boundary too: rows un-deleted by undo carry
    // their restored metadata and must become visible to new pins.
    AdvanceEpochBoundary();
    RecordTxn(0);
  }
  return Status::OK();
}

void Database::RecordTxn(uint64_t committed) {
  const uint64_t dur = MonotonicNanos() - txn_start_ns_;
  if (txn_hist_ == nullptr) txn_hist_ = metrics_.GetHistogram("db.txn");
  txn_hist_->Record(dur);
  events_.Record({TraceEvent::Kind::kTxn, txn_start_ns_, dur, committed, 0,
                  nullptr});
}

Status Database::Savepoint(const std::string& name) {
  if (!txn_.active()) {
    return Status::InvalidArgument(
        "SAVEPOINT requires an active transaction");
  }
  txn_.Begin(next_id_, name);
  return Status::OK();
}

Status Database::RollbackTo(const std::string& name) {
  auto next_id = txn_.RollbackTo(name);
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  return Status::OK();
}

Status Database::Release(const std::string& name) {
  XUPD_RETURN_IF_ERROR(txn_.Release(name));
  // Releasing the outermost scope commits the unit — WalFlush also
  // publishes the epoch boundary.
  if (!txn_.active()) return WalFlush();
  return Status::OK();
}

Status Database::ConsumeFailpoint() {
  if (fail_after_statements_ < 0) return Status::OK();
  if (fail_after_statements_ == 0) {
    fail_after_statements_ = -1;
    return Status::Internal("injected failure");
  }
  --fail_after_statements_;
  return Status::OK();
}

Status Database::CheckDdlBarrier(const sql::Statement& stmt) const {
  if (!IsDdl(stmt)) return Status::OK();
  if (txn_.active()) {
    return Status::InvalidArgument(
        "DDL is not allowed inside a transaction (catalog changes are not "
        "undoable; commit or roll back first)");
  }
  // The table an index or trigger statement acts on. DDL text is WAL-logged
  // and triggers are snapshotted, but scratch tables are neither, so DDL
  // over one could never replay.
  const Table* target = nullptr;
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateIndex:
      target = FindTable(stmt.create_index.table);
      break;
    case sql::Statement::Kind::kCreateTrigger:
      target = FindTable(stmt.create_trigger.table);
      break;
    case sql::Statement::Kind::kDrop:
      if (stmt.drop.what == sql::DropStmt::What::kTable) {
        target = FindTable(stmt.drop.name);
      } else if (stmt.drop.what == sql::DropStmt::What::kIndex) {
        if (!stmt.drop.table.empty()) {
          target = FindTable(stmt.drop.table);
        } else {
          // Unqualified: the first owner in catalog order, as RunDrop picks.
          for (const auto& [name, table] : tables_) {
            if (table->FindIndexByName(stmt.drop.name) != nullptr) {
              target = table.get();
              break;
            }
          }
        }
      }
      break;
    default:
      break;
  }
  if (target != nullptr && !target->durable()) {
    return Status::InvalidArgument(
        "DDL on scratch table '" + target->schema().name() +
        "' is not allowed (scratch tables are neither logged nor "
        "snapshotted)");
  }
  return Status::OK();
}

uint64_t Database::DeadlineAfter(int64_t timeout_us) {
  return timeout_us > 0
             ? MonotonicNanos() + static_cast<uint64_t>(timeout_us) * 1000
             : 0;
}

bool Database::GovernanceExempt(sql::Statement::Kind kind) {
  switch (kind) {
    // Resource-releasing and diagnostic statements must run even over
    // budget / past a deadline: COMMIT and ROLLBACK shrink the very
    // buffers the budgets meter, and SHOW / CHECK INTEGRITY / SET are how
    // an operator diagnoses and fixes an overloaded database.
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kRelease:
    case sql::Statement::Kind::kShow:
    case sql::Statement::Kind::kCheckIntegrity:
    case sql::Statement::Kind::kSet:
      return true;
    default:
      return false;
  }
}

Status Database::GovernanceAdmission(uint64_t deadline_ns) const {
  if (cancel_token_.cancelled()) {
    return Status::Cancelled(
        "statement cancelled via CancelToken (Reset() to resume)");
  }
  if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
    return Status::DeadlineExceeded(
        "statement deadline exceeded before execution (see "
        "Database::set_statement_timeout_us / SET STATEMENT_TIMEOUT)");
  }
  XUPD_RETURN_IF_ERROR(mem_.CheckHard());
  return mem_.CheckAdmission();
}

Result<ResultSet> Database::RunStatement(const sql::Statement& stmt,
                                         const std::vector<Value>* params,
                                         std::string_view sql_text,
                                         PlanCacheSlot* slot,
                                         uint64_t deadline_ns) {
  // DDL invalidation happens inside the Executor, the choke point shared
  // by all entry paths.
  const bool exempt = GovernanceExempt(stmt.kind);
  // Every statement snapshots the counts (a plain copy): a statement that
  // ends up in the slow log, killed or slow, carries its work delta even
  // with the slow log's threshold disabled.
  const Stats before = stats();
  const uint64_t t0 = MonotonicNanos();
  // Root (or nested, inside a trigger cascade) span of the statement: every
  // engine op, WAL unit and fsync recorded below inherits it through the
  // thread-local trace context.
  trace::SpanScope stmt_span;
  Executor exec(this, params, sql_text);
  exec.set_deadline(deadline_ns);
  Status gate = exempt ? Status::OK() : GovernanceAdmission(deadline_ns);
  // DML outside a transaction runs in a scope of its own, so a statement
  // that fails or is killed part way — in its trigger cascade too — rolls
  // back every row it wrote and leaves no WAL unit.
  const bool implicit_txn = gate.ok() && !txn_.active() && IsDml(stmt);
  if (implicit_txn) txn_.Begin(next_id_);
  auto result = gate.ok() ? exec.Run(stmt, slot) : Result<ResultSet>(gate);
  if (implicit_txn) {
    // Neither can fail: the scope opened above is the only open one.
    if (result.ok()) {
      (void)txn_.Commit();
    } else {
      next_id_ = txn_.Rollback().value();
    }
  }
  Status wal = WalFlush();
  const uint64_t dur = MonotonicNanos() - t0;
  stmt_hists_[StmtKindSlot(stmt.kind)]->Record(dur);
  *exec_ns_ += dur;
  TraceEvent stmt_ev{TraceEvent::Kind::kStatement, t0, dur,
                     static_cast<uint64_t>(stmt.kind), 0, nullptr};
  stmt_span.Annotate(&stmt_ev);
  events_.Record(stmt_ev);
  // Classify governance kills: count them, and force a slow-log entry with
  // the cause so operators can see WHAT was killed and how far it got.
  const char* cause = nullptr;
  if (!result.ok()) {
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        cause = "cancelled";
        stmt_cancelled_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        cause = "deadline_exceeded";
        stmt_deadline_exceeded_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kResourceExhausted:
        cause = "resource_exhausted";
        stmt_resource_exhausted_->fetch_add(1, std::memory_order_relaxed);
        if (!gate.ok()) stmt_shed_->fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
  }
  if ((slow_statement_threshold_us_ >= 0 &&
       dur >= slow_statement_threshold_us_ * 1000.0) ||
      cause != nullptr) {
    SlowStatement slow;
    slow.sql = std::string(sql_text);
    slow.duration_ns = dur;
    slow.delta = stats().Delta(before);
    if (exec.last_plan() != nullptr) slow.plan = PlanToString(*exec.last_plan());
    if (cause != nullptr) slow.cause = cause;
    if (slow_log_.size() >= slow_log_capacity_) {
      slow_log_.erase(slow_log_.begin());
    }
    slow_log_.push_back(std::move(slow));
    ++stats_.slow_statements;
  }
  if (!result.ok()) return result;
  if (!wal.ok()) return wal;
  return result;
}

Stats Database::stats() const {
  Stats s = stats_;
  s.wal_fsyncs = wal_fsync_ != nullptr ? wal_fsync_->count() : 0;
  return s;
}

uint64_t Database::IssueStatement() {
  ++stats_.statements;
  const uint64_t deadline_ns = DeadlineAfter(statement_timeout_us());
  SpinFor(statement_latency_us_, deadline_ns);
  return deadline_ns;
}

Result<ResultSet> Database::ExecuteQuery(std::string_view sql_text) {
  const uint64_t deadline_ns = IssueStatement();
  ++stats_.sql_parses;
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  XUPD_RETURN_IF_ERROR(CheckBind(stmt.value(), 0));
  return RunStatement(stmt.value(), nullptr, sql_text, nullptr, deadline_ns);
}

Result<StatementHandle> Database::Prepare(std::string_view sql_text) {
  return statement_cache_.Prepare(sql_text, &stats_);
}

Result<ResultSet> Database::ExecuteQuery(const StatementHandle& handle,
                                         const std::vector<Value>& params) {
  if (handle == nullptr) {
    return Status::InvalidArgument("null prepared statement handle");
  }
  XUPD_RETURN_IF_ERROR(CheckBind(handle->stmt, params.size()));
  const uint64_t deadline_ns = IssueStatement();
  return RunStatement(handle->stmt, &params, handle->sql, &handle->plan_slot,
                      deadline_ns);
}

Result<ResultSet> Database::ExecuteQueryBound(
    std::string_view sql_text, const std::vector<Value>& params) {
  XUPD_ASSIGN_OR_RETURN(StatementHandle handle, Prepare(sql_text));
  return ExecuteQuery(handle, params);
}

Result<Table*> Database::CreateTableDirect(TableSchema schema, bool durable) {
  if (read_only_ && durable) return ReadOnlyError("CREATE TABLE");
  if (tables_.count(schema.name()) > 0) {
    return Status::AlreadyExists("table '" + schema.name() + "' already exists");
  }
  std::string key = schema.name();
  auto table =
      std::make_unique<Table>(std::move(schema), durable ? &txn_ : nullptr);
  table->set_durable(durable);
  table->set_epoch_manager(&epochs_);
  table->set_accountant(&mem_);
  Table* raw = table.get();
  {
    auto lock = LockCatalogExclusive();
    tables_.emplace(std::move(key), std::move(table));
  }
  return raw;
}

Status Database::InsertDirect(Table* table, Row row) {
  if (read_only_ && table->durable()) return ReadOnlyError("INSERT");
  auto rowid = table->Insert(std::move(row));
  if (!rowid.ok()) return rowid.status();
  ++stats_.rows_inserted;
  return Status::OK();
}

Table* Database::FindTable(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    out.push_back(table->schema().name());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Group-commit flusher (kBatched durability)

void Database::StartFlusher() {
  if (flusher_.joinable()) return;
  flusher_stop_ = false;
  // Seed the heartbeat so the watchdog measures from thread start, not
  // from a stale stamp left by a previous flusher incarnation.
  flusher_heartbeat_ns_.store(MonotonicNanos(), std::memory_order_release);
  flusher_stall_reported_.store(false, std::memory_order_relaxed);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void Database::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  flusher_.join();
}

void Database::FlusherLoop() {
  trace::SetCurrentThreadName("wal-flusher");
  const int window_us = durability_options_.group_commit_window_us > 0
                            ? durability_options_.group_commit_window_us
                            : 2000;
  // Occupancy of the group-commit window: how much of each period the
  // flusher spent inside Sync (100 ≈ fsync saturates the window and
  // commits start seeing un-amortized latency).
  Histogram* occupancy = metrics_.GetHistogram("wal.window_occupancy_pct");
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, std::chrono::microseconds(window_us));
    if (flusher_stop_) break;
    // flusher_mu_ (held) keeps wal_ stable across checkpoint/heal swaps;
    // Sync itself no-ops when nothing is dirty. A sync failure is left for
    // the writer to discover at its next commit (MarkBroken happened
    // inside Sync); the flusher never flips the Database read-only from
    // off-thread.
    if (wal_ != nullptr && !wal_->broken()) {
      const uint64_t t0 = MonotonicNanos();
      Status synced = wal_->Sync();
      const uint64_t sync_ns = MonotonicNanos() - t0;
      occupancy->Record(sync_ns * 100 / (static_cast<uint64_t>(window_us) *
                                         1000));
      // Heartbeat only on a successful fsync: a broken or wedged WAL stops
      // the stamps, and the watchdog reports the stall after K windows.
      if (synced.ok()) {
        flusher_heartbeat_ns_.store(MonotonicNanos(),
                                    std::memory_order_release);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Off-thread checkpoint

Status Database::CheckpointBackground() {
  if (checkpoint_running_) {
    return Status::InvalidArgument(
        "a background checkpoint is already running");
  }
  auto capture = std::make_shared<CheckpointCapture>();
  XUPD_RETURN_IF_ERROR(CaptureCheckpoint(capture.get()));
  // Everything the snapshot will claim (bytes below wal_offset) must be
  // power-loss durable before the offset is stamped: under kBatched there
  // may be acknowledged-but-unsynced units.
  Status synced = wal_->Sync();
  if (!synced.ok()) {
    if (wal_->broken()) EnterReadOnly(synced);
    return synced;
  }
  // Pin the captured boundary like a reader: the writer keeps committing
  // past it while the background thread reads the pinned epoch's view, and
  // reclamation holds anything the pin can still reach.
  const int slot = epochs_.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "no epoch slot free for a background checkpoint (all reader "
        "sessions in use)");
  }
  capture->pin_epoch = epochs_.Pin(slot);
  capture->wal_offset = wal_->file_size();
  capture->epoch = wal_->epoch();
  checkpoint_slot_ = slot;
  checkpoint_running_ = true;
  checkpoint_status_ = Status::OK();
  checkpoint_done_.store(false, std::memory_order_release);
  checkpoint_stall_reported_.store(false, std::memory_order_relaxed);
  checkpoint_heartbeat_ns_.store(MonotonicNanos(), std::memory_order_release);

  // Writer-side scheduling span (kCheckpoint a=2): the background thread's
  // snapshot-write span (a=1) adopts its handoff, so the trace carries a
  // writer -> checkpoint-thread flow edge.
  trace::SpanScope schedule_span;
  {
    const uint64_t sched_ns = MonotonicNanos();
    TraceEvent ev{TraceEvent::Kind::kCheckpoint, sched_ns, 0, 2, 0,
                  "schedule"};
    schedule_span.Annotate(&ev);
    events_.Record(ev);
  }
  const trace::Handoff bg_handoff = schedule_span.handoff();

  // Handshake: the captured raw Table* are only safe while the background
  // thread holds the shared catalog lock, but a shared_lock cannot be
  // transferred across threads — so wait here until the spawned thread has
  // acquired it. Only then can the writer run DDL again (it will block on
  // the exclusive lock until the snapshot is written or CheckpointWait
  // joined).
  std::mutex ready_mu;
  std::condition_variable ready_cv;
  bool ready = false;
  checkpoint_thread_ = std::thread(
      [this, capture, slot, bg_handoff, &ready_mu, &ready_cv, &ready] {
        trace::SetCurrentThreadName("checkpoint");
        trace::SpanScope snapshot_span{bg_handoff};
        auto catalog_lock = LockCatalogShared();
        {
          // Notify under the mutex: the waiter must re-acquire it to return
          // from wait(), so it cannot destroy the stack-local cv while the
          // signal call is still touching it.
          std::lock_guard<std::mutex> lk(ready_mu);
          ready = true;
          ready_cv.notify_one();
        }
        // The stack locals above are dead after the unlock; everything
        // below uses only owned/captured state.
        const uint64_t t0 = MonotonicNanos();
        checkpoint_heartbeat_ns_.store(t0, std::memory_order_release);
        Status s = WriteSnapshot(*this, vfs_, SnapshotPath(data_dir_),
                                 SnapshotTmpPath(data_dir_), *capture);
        checkpoint_heartbeat_ns_.store(MonotonicNanos(),
                                       std::memory_order_release);
        // The snapshot is written, so nothing here reads the pinned epoch's
        // rows any more. Unpin now rather than at CheckpointWait: the
        // writer may run for a long time before it joins, and every slab
        // and pre-image it retires meanwhile would wait for this pin.
        epochs_.Unpin(slot);
        checkpoint_status_ = s;
        if (s.ok()) {
          const uint64_t dur = MonotonicNanos() - t0;
          metrics_.GetHistogram("db.checkpoint")->Record(dur);
          TraceEvent ev{TraceEvent::Kind::kCheckpoint, t0, dur, 1, 0,
                        "snapshot"};
          snapshot_span.Annotate(&ev);
          events_.Record(ev);
        }
        // Finished-but-unjoined is not a stall: the watchdog ignores the
        // heartbeat once this flips, even before CheckpointWait runs.
        checkpoint_done_.store(true, std::memory_order_release);
      });
  {
    std::unique_lock<std::mutex> lk(ready_mu);
    ready_cv.wait(lk, [&] { return ready; });
  }
  return Status::OK();
}

Status Database::CheckpointWait() {
  if (!checkpoint_running_) return Status::OK();
  checkpoint_thread_.join();
  checkpoint_running_ = false;
  checkpoint_done_.store(false, std::memory_order_release);
  checkpoint_stall_reported_.store(false, std::memory_order_relaxed);
  epochs_.ReleaseSlot(checkpoint_slot_);
  checkpoint_slot_ = -1;
  // A background-checkpoint failure is benign — the WAL was not truncated
  // and the previous snapshot (or none) plus the full WAL recover every
  // committed unit; even a renamed-but-unsynced new snapshot is consistent
  // because its wal_offset only skips records it already contains. No
  // fail-stop: the caller may simply retry.
  if (checkpoint_status_.ok()) ++stats_.checkpoints;
  return checkpoint_status_;
}

// ---------------------------------------------------------------------------
// Reader sessions

Result<std::unique_ptr<ReaderSession>> Database::OpenReaderSession() {
  const int slot = epochs_.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "all " + std::to_string(EpochManager::kMaxReaders) +
        " reader session slots are in use; retry after an open session "
        "closes (sessions release their slot on destruction)");
  }
  reader_sessions_gauge_->fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ReaderSession>(new ReaderSession(this, slot));
}

ReaderSession::~ReaderSession() {
  Unpin();
  db_->epochs_.ReleaseSlot(slot_);
  db_->reader_sessions_gauge_->fetch_sub(1, std::memory_order_relaxed);
}

uint64_t ReaderSession::PinSlot() {
  const uint64_t epoch = db_->epochs_.Pin(slot_);
  db_->epochs_.readers_gauge->fetch_add(1, std::memory_order_relaxed);
  return epoch;
}

void ReaderSession::UnpinSlot() {
  db_->epochs_.Unpin(slot_);
  db_->epochs_.readers_gauge->fetch_sub(1, std::memory_order_relaxed);
}

uint64_t ReaderSession::PinSnapshot() {
  if (explicit_pin_) return pin_epoch_;
  pin_epoch_ = PinSlot();
  explicit_pin_ = true;
  return pin_epoch_;
}

void ReaderSession::Unpin() {
  if (!explicit_pin_) return;
  UnpinSlot();
  explicit_pin_ = false;
  pin_epoch_ = 0;
}

Result<ResultSet> ReaderSession::ExecuteQuery(std::string_view sql_text) {
  ++stats_.statements;
  ++stats_.sql_parses;
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  return Run(stmt.value(), nullptr, nullptr);
}

Result<ResultSet> ReaderSession::ExecuteQueryBound(
    std::string_view sql_text, const std::vector<Value>& params) {
  ++stats_.statements;
  XUPD_ASSIGN_OR_RETURN(StatementHandle handle,
                        statement_cache_.Prepare(sql_text, &stats_));
  return Run(handle->stmt, &params, &handle->plan_slot);
}

Result<ResultSet> ReaderSession::Run(const sql::Statement& stmt,
                                     const std::vector<Value>* params,
                                     PlanCacheSlot* slot) {
  // Only SELECT and plain EXPLAIN SELECT: everything else mutates, needs
  // the writer's transaction machinery, or reports writer-private state.
  const sql::Statement* target = &stmt;
  bool explain = false;
  if (target->kind == sql::Statement::Kind::kExplain) {
    if (target->explain_analyze ||
        target->explain->kind != sql::Statement::Kind::kSelect) {
      return Status::InvalidArgument(
          "reader sessions accept only SELECT and EXPLAIN SELECT");
    }
    explain = true;
    target = target->explain.get();
  } else if (target->kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "reader sessions accept only SELECT and EXPLAIN SELECT");
  }
  XUPD_RETURN_IF_ERROR(
      CheckBind(stmt, params != nullptr ? params->size() : 0));

  // The shared catalog lock spans plan validation AND execution, so the
  // catalog (and every Table* the plan holds) is stable for the whole
  // statement; row-level consistency is the pinned epoch's job.
  auto catalog_lock = db_->LockCatalogShared();
  Planner planner(db_, nullptr);
  planner.set_allow_index_probes(false);
  XUPD_ASSIGN_OR_RETURN(auto plan, planner.PlanCached(*target, slot, &stats_));
  if (explain) return PlanRows(PlanToString(*plan));

  // Pin for this statement unless an explicit snapshot pin is open.
  const bool statement_pin = !explicit_pin_;
  const uint64_t pin = statement_pin ? PinSlot() : pin_epoch_;
  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan->cte_slot_count));
  ExecContext::SubqueryMemo memo;
  ExecContext ctx;
  ctx.db = db_;
  ctx.stats = &stats_;
  ctx.read_epoch = pin;
  ctx.params = params;
  ctx.cte_values = &cte_store;
  ctx.subquery_memo = &memo;
  // Governance for readers: the statement timeout (read atomically — the
  // writer thread owns the setting) and the shared cancel token. The
  // cancel-at-pull hook is writer-thread state and is NOT consulted here.
  ctx.deadline_ns = Database::DeadlineAfter(db_->statement_timeout_us());
  ctx.cancel = db_->cancel_token_.flag();
  ctx.mem = &db_->mem_;
  auto result = ExecutePlannedSelect(*plan->select, ctx);
  if (statement_pin) UnpinSlot();
  return result;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out = Join(columns, " | ") + "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace xupd::rdb
