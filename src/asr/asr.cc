#include "asr/asr.h"

#include <functional>
#include <map>

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
  // Deliberately no index on `marked`: nearly every row holds the same value
  // (0), so a hash index would degenerate (O(n) erase per update). Scanning
  // the ASR for marked rows is part of the method's cost (§6.1.3).
  return Status::OK();
}

Status AsrManager::BuildFromTuples(const std::vector<ShreddedTuple>& tuples) {
  rdb::Table* asr_table = db_->FindTable(kTableName);
  if (asr_table == nullptr) {
    return Status::Internal("ASR table missing; call CreateSchema first");
  }
  // Column position per mapped table.
  std::map<const TableMapping*, size_t> col_of;
  for (size_t i = 0; i < mapping_->tables().size(); ++i) {
    col_of[&mapping_->tables()[i]] = i;
  }
  size_t width = mapping_->tables().size() + 1;  // + marked

  // Children adjacency over tuple ids.
  std::map<int64_t, std::vector<const ShreddedTuple*>> children;
  const ShreddedTuple* root = nullptr;
  for (const ShreddedTuple& t : tuples) {
    if (t.parent_id == 0) {
      root = &t;
    } else {
      children[t.parent_id].push_back(&t);
    }
  }
  if (root == nullptr) {
    return Status::InvalidArgument("no root tuple in shredded set");
  }

  // DFS emitting one left-complete row per leaf-most instance.
  rdb::Row current(width, Value::Null());
  current[width - 1] = Value::Int(0);  // marked = 0
  std::function<Status(const ShreddedTuple*)> walk =
      [&](const ShreddedTuple* node) -> Status {
    size_t col = col_of.at(node->table);
    current[col] = Value::Int(node->id);
    auto it = children.find(node->id);
    if (it == children.end() || it->second.empty()) {
      XUPD_RETURN_IF_ERROR(db_->InsertDirect(asr_table, current));
    } else {
      for (const ShreddedTuple* child : it->second) {
        XUPD_RETURN_IF_ERROR(walk(child));
      }
    }
    current[col] = Value::Null();
    return Status::OK();
  };
  XUPD_RETURN_IF_ERROR(walk(root));
  return Status::OK();
}

size_t AsrManager::RowCount() const {
  const rdb::Table* t = db_->FindTable(kTableName);
  return t == nullptr ? 0 : t->live_count();
}

}  // namespace xupd::asr
