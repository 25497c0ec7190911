#include "asr/asr.h"

#include "common/str_util.h"

namespace xupd::asr {

using rdb::Value;
using shred::ShreddedTuple;
using shred::TableMapping;

Status AsrManager::CreateSchema() {
  std::string sql = std::string("CREATE TABLE ") + kTableName + " (";
  bool first = true;
  for (const TableMapping& t : mapping_->tables()) {
    if (!first) sql += ", ";
    sql += IdColumn(&t) + " INTEGER";
    first = false;
  }
  sql += ", marked INTEGER)";
  XUPD_RETURN_IF_ERROR(db_->ExecuteQuery(sql).status());
  for (const TableMapping& t : mapping_->tables()) {
    XUPD_RETURN_IF_ERROR(db_->ExecuteQuery("CREATE INDEX idx_asr_" + t.table +
                                           " ON " + kTableName + " (" +
                                           IdColumn(&t) + ")").status());
  }
  // The delete and copy select `WHERE marked = 1` in every step after the
  // mark (§6.1.3/§6.2.3); the index makes those steps probes of the marked
  // rows. Nearly every row sits under key 0, which stays cheap because the
  // hash index erases an exact (value, rowid) pair in O(1).
  return db_->ExecuteQuery(std::string("CREATE INDEX idx_asr_marked ON ") +
                           kTableName + " (marked)").status();
}

namespace {

/// The one leaf-path DFS behind every ASR row the engine writes one at a
/// time. Calls `emit` with one left-complete row (every id column, then
/// marked = 0) per leaf-most tuple of `tuples`, which must be in the
/// pre-order ShredSubtree produces (root first); the `prefix` ids fill the
/// columns above the subtree. With no tuples it emits the prefix row alone.
template <typename Emit>
Status ForEachPathRow(const shred::Mapping& mapping,
                      const AsrManager::PathPrefix& prefix,
                      const std::vector<ShreddedTuple>& tuples, Emit&& emit) {
  const TableMapping* first = mapping.tables().data();
  const size_t width = mapping.tables().size();
  rdb::Row row(width + 1, Value::Null());
  row[width] = Value::Int(0);  // marked = 0
  for (const auto& [t, id] : prefix) row[t - first] = Value::Int(id);
  if (tuples.empty()) return emit(row);
  // The open path is a stack; pre-order puts a tuple's first child right
  // after it, so a tuple is leaf-most when the next one is not its child.
  std::vector<const ShreddedTuple*> open;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const ShreddedTuple& t = tuples[i];
    while (!open.empty() && open.back()->id != t.parent_id) {
      row[open.back()->table - first] = Value::Null();
      open.pop_back();
    }
    if (i > 0 && open.empty()) {
      return Status::InvalidArgument("shredded tuples are not in pre-order");
    }
    row[t.table - first] = Value::Int(t.id);
    open.push_back(&t);
    if (i + 1 == tuples.size() || tuples[i + 1].parent_id != t.id) {
      XUPD_RETURN_IF_ERROR(emit(row));
    }
  }
  return Status::OK();
}

}  // namespace

AsrManager::AsrManager(const shred::Mapping* mapping, rdb::Database* db)
    : mapping_(mapping), db_(db) {
  insert_row_sql_ = std::string("INSERT INTO ") + kTableName + " VALUES (";
  for (size_t i = 0; i < mapping_->tables().size(); ++i) {
    insert_row_sql_ += i == 0 ? "?" : ", ?";
  }
  insert_row_sql_ += ", 0)";
}

Status AsrManager::BuildFromTuples(const std::vector<ShreddedTuple>& tuples) {
  rdb::Table* asr_table = db_->FindTable(kTableName);
  if (asr_table == nullptr) {
    return Status::Internal("ASR table missing; call CreateSchema first");
  }
  if (tuples.empty()) {
    return Status::InvalidArgument("no root tuple in shredded set");
  }
  return ForEachPathRow(*mapping_, {}, tuples, [&](const rdb::Row& row) {
    return db_->InsertDirect(asr_table, row);
  });
}

Status AsrManager::InsertPathRows(const PathPrefix& prefix,
                                  const std::vector<ShreddedTuple>& tuples) {
  const size_t width = mapping_->tables().size();
  return ForEachPathRow(*mapping_, prefix, tuples, [&](const rdb::Row& row) {
    // The statement text fixes marked = 0; only the id columns are bound.
    std::vector<Value> params(row.begin(), row.begin() + width);
    return db_->ExecuteQueryBound(insert_row_sql_, params).status();
  });
}

size_t AsrManager::RowCount() const {
  const rdb::Table* t = db_->FindTable(kTableName);
  return t == nullptr ? 0 : t->live_count();
}

}  // namespace xupd::asr
