#include "rdb/txn.h"

#include <algorithm>

#include "common/str_util.h"
#include "rdb/table.h"

namespace xupd::rdb {

void TransactionManager::Begin(int64_t next_id, std::string name) {
  scopes_.push_back({log_.size(), next_id, std::move(name),
                     wal_ != nullptr ? wal_->mark() : WalWriter::Mark{}});
  ++stats_->txn_begins;
}

void TransactionManager::WalInsert(Table* table, size_t rowid) {
  if (table->durable()) wal_->PendInsert(*table, rowid);
}

void TransactionManager::WalDelete(Table* table, size_t rowid) {
  if (table->durable()) wal_->PendDelete(*table, rowid);
}

void TransactionManager::WalUpdate(Table* table, size_t rowid, int column,
                                   const Value& new_value) {
  if (table->durable()) wal_->PendUpdate(*table, rowid, column, new_value);
}

Status TransactionManager::Commit() {
  if (scopes_.empty()) {
    return Status::InvalidArgument("COMMIT without an active transaction");
  }
  scopes_.pop_back();
  // Outermost commit: the changes are durable, the log is dead weight. The
  // log keeps a few chunks for the next transaction (UndoLog::clear).
  if (scopes_.empty()) {
    log_.clear();
    old_values_.clear();
  }
  ++stats_->txn_commits;
  return Status::OK();
}

void TransactionManager::UndoDownTo(size_t undo_start) {
  while (log_.size() > undo_start) {
    const UndoRecord& rec = log_.back();
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        rec.table->UndoInsert(rec.rowid);
        break;
      case UndoRecord::Kind::kDelete:
        rec.table->UndoDelete(rec.rowid);
        break;
      case UndoRecord::Kind::kUpdate:
        rec.table->UndoSetColumn(rec.rowid, rec.column, old_values_.back());
        old_values_.pop_back();
        break;
    }
    log_.pop_back();
  }
}

Result<int64_t> TransactionManager::Rollback() {
  if (scopes_.empty()) {
    return Status::InvalidArgument("ROLLBACK without an active transaction");
  }
  const Scope scope = scopes_.back();
  scopes_.pop_back();
  UndoDownTo(scope.undo_start);
  if (wal_ != nullptr) wal_->TruncatePending(scope.wal_mark);
  ++stats_->txn_rollbacks;
  return scope.next_id;
}

int TransactionManager::FindScope(std::string_view name) const {
  for (size_t i = scopes_.size(); i-- > 0;) {
    if (EqualsIgnoreCase(scopes_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

Result<int64_t> TransactionManager::RollbackTo(std::string_view name) {
  int i = FindScope(name);
  if (i < 0) {
    return Status::InvalidArgument("no savepoint named '" + std::string(name) +
                                   "'");
  }
  UndoDownTo(scopes_[static_cast<size_t>(i)].undo_start);
  if (wal_ != nullptr) {
    wal_->TruncatePending(scopes_[static_cast<size_t>(i)].wal_mark);
  }
  // The named scope stays open (SQL keeps the savepoint after ROLLBACK TO);
  // scopes nested inside it are gone.
  scopes_.resize(static_cast<size_t>(i) + 1);
  ++stats_->txn_rollbacks;
  return scopes_[static_cast<size_t>(i)].next_id;
}

Status TransactionManager::Release(std::string_view name) {
  int i = FindScope(name);
  if (i < 0) {
    return Status::InvalidArgument("no savepoint named '" + std::string(name) +
                                   "'");
  }
  scopes_.resize(static_cast<size_t>(i));
  if (scopes_.empty()) {
    log_.clear();
    old_values_.clear();
  }
  ++stats_->txn_commits;
  return Status::OK();
}

}  // namespace xupd::rdb
