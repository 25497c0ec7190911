#include "engine/store.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/str_util.h"
#include "engine/engine_span.h"

namespace xupd::engine {

using asr::AsrManager;
using rdb::Value;
using shred::Mapping;
using shred::ShreddedTuple;
using shred::TableMapping;

namespace {
/// Shared scratch table the engine stages bound id sets in (see
/// IdListPredicate). Predicates that reference it have constant SQL text.
constexpr const char* kIdListTable = "xupd_idlist";

/// One-row marker created as the LAST step of store setup. Durable-store
/// creation commits each schema DDL as its own WAL unit (DDL cannot ride
/// in a transaction), so a crash mid-setup leaves a partial catalog that
/// recovery would otherwise present as a complete store — with cascade
/// triggers or element tables silently missing. Reopen requires the
/// marker; its absence is reported as an incomplete creation.
constexpr const char* kSetupMarkerTable = "xupd_setup";

/// Durable key/value table persisting the strategy Options the store was
/// created with. Reopen verifies the caller's Options against it: a store
/// created with cascade triggers and reopened expecting ASR maintenance
/// (or vice versa) would silently corrupt on the first update — the
/// recovered triggers/ASR would not match the code paths the strategies
/// take. Riding in a durable SQL table keeps it inside the existing WAL +
/// snapshot formats.
constexpr const char* kMetaTable = "xupd_meta";

/// True when a predicate produces constant statement text across calls:
/// empty, or routed through the xupd_idlist scratch table. Statements built
/// from such predicates are worth caching; literal one-shot predicates
/// (e.g. "id = 42") would only evict reusable plans.
bool ConstantPredicateText(const std::string& predicate) {
  return predicate.empty() ||
         predicate.find(kIdListTable) != std::string::npos;
}
}  // namespace

const char* ToString(DeleteStrategy s) {
  switch (s) {
    case DeleteStrategy::kPerTupleTrigger:
      return "per-tuple";
    case DeleteStrategy::kPerStatementTrigger:
      return "per-stm";
    case DeleteStrategy::kCascade:
      return "cascade";
    case DeleteStrategy::kAsr:
      return "asr";
  }
  return "?";
}

const char* ToString(InsertStrategy s) {
  switch (s) {
    case InsertStrategy::kTuple:
      return "tuple";
    case InsertStrategy::kTable:
      return "table";
    case InsertStrategy::kAsr:
      return "asr";
  }
  return "?";
}

Result<std::unique_ptr<RelationalStore>> RelationalStore::Create(
    const xml::Dtd& dtd, const Options& options) {
  auto mapping = Mapping::SharedInlining(dtd);
  if (!mapping.ok()) return mapping.status();
  std::unique_ptr<RelationalStore> store(new RelationalStore());
  store->options_ = options;
  if (options.delete_strategy == DeleteStrategy::kAsr ||
      options.insert_strategy == InsertStrategy::kAsr) {
    store->options_.build_asr = true;
  }
  store->mapping_ = std::make_unique<Mapping>(std::move(mapping).value());
  store->shredder_ = std::make_unique<shred::Shredder>(
      store->mapping_.get(), &store->db_, options.insert_batch_size);
  if (store->options_.durability) {
    rdb::DurabilityOptions dopts;
    dopts.sync_mode = store->options_.sync_mode;
    dopts.vfs = store->options_.vfs;
    XUPD_RETURN_IF_ERROR(store->db_.Open(store->options_.data_dir, dopts));
  }
  if (store->options_.build_asr) {
    store->asr_ =
        std::make_unique<AsrManager>(store->mapping_.get(), &store->db_);
  }
  if (store->db_.recovered()) {
    // The schema, indexes, triggers, ASR and all rows came back from the
    // snapshot + WAL. The setup marker is written LAST during creation, so
    // its absence means the original process crashed mid-setup — the
    // partial catalog must not masquerade as a complete store (it may be
    // missing element tables or the cascade triggers).
    const rdb::Table* marker = store->db_.FindTable(kSetupMarkerTable);
    if (marker == nullptr || marker->live_count() == 0) {
      return Status::Internal(
          "data directory '" + store->options_.data_dir +
          "' holds an incomplete store creation (the process crashed "
          "mid-setup before the schema was fully committed); remove the "
          "directory and create the store again");
    }
    // The stored strategy options must match the caller's: a mismatched
    // reopen is a clean error, not silent corruption.
    XUPD_RETURN_IF_ERROR(store->VerifyStoredOptions());
    // Re-derive the engine's root id from the stored root tuple (the
    // shredder attaches the document root to parent 0).
    const TableMapping* root = store->mapping_->root();
    if (store->db_.FindTable(root->table) == nullptr) {
      return Status::Internal("recovered store is missing root table '" +
                              root->table + "' (DTD mismatch?)");
    }
    auto root_row = store->db_.ExecuteQuery(
        "SELECT id FROM " + root->table + " WHERE parentId = 0 ORDER BY id");
    if (!root_row.ok()) return root_row.status();
    if (!root_row->rows.empty()) {
      store->root_id_ = root_row->rows[0][0].AsInt();
    }
    return store;
  }
  XUPD_RETURN_IF_ERROR(store->shredder_->CreateSchema());
  if (store->options_.build_asr) {
    XUPD_RETURN_IF_ERROR(store->asr_->CreateSchema());
  }
  XUPD_RETURN_IF_ERROR(store->InstallTriggers());
  XUPD_RETURN_IF_ERROR(store->PersistOptions());
  // Setup-complete marker, created last (and in non-durable stores too, so
  // durable and in-memory state dumps stay comparable).
  XUPD_RETURN_IF_ERROR(store->db_
                           .ExecuteQuery(std::string("CREATE TABLE ") +
                                         kSetupMarkerTable +
                                         " (completed INTEGER)")
                           .status());
  XUPD_RETURN_IF_ERROR(store->db_
                           .ExecuteQuery(std::string("INSERT INTO ") +
                                         kSetupMarkerTable + " VALUES (1)")
                           .status());
  return store;
}

Status RelationalStore::Checkpoint() { return db_.Checkpoint(); }

Status RelationalStore::PersistOptions() {
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(std::string("CREATE TABLE ") +
                                        kMetaTable + " (k VARCHAR, v VARCHAR)")
                           .status());
  // One row per statement: multi-row INSERT would count into the
  // batched_rows stat the §6.2.1 shape tests pin to the workload's own
  // statements.
  for (const auto& [key, value] : StrategyFields()) {
    XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(std::string("INSERT INTO ") +
                                          kMetaTable + " VALUES ('" + key +
                                          "', '" + value + "')")
                             .status());
  }
  return Status::OK();
}

Status RelationalStore::VerifyStoredOptions() {
  if (db_.FindTable(kMetaTable) == nullptr) {
    return Status::Internal(
        "recovered store has no '" + std::string(kMetaTable) +
        "' table; it was created by a build that did not persist its "
        "strategy options");
  }
  auto rows = db_.ExecuteQuery(std::string("SELECT k, v FROM ") + kMetaTable);
  if (!rows.ok()) return rows.status();
  std::map<std::string, std::string> stored;
  for (const auto& row : rows->rows) {
    stored[std::string(row[0].AsString())] = std::string(row[1].AsString());
  }
  for (const auto& [key, expected] : StrategyFields()) {
    auto it = stored.find(key);
    const std::string& on_disk = it == stored.end() ? std::string("<absent>")
                                                    : it->second;
    if (on_disk != expected) {
      return Status::InvalidArgument(
          "data directory '" + options_.data_dir + "' was created with " +
          key + "='" + on_disk + "' but is being reopened with '" + expected +
          "'; reopen with the original strategy options (a mismatched "
          "reopen would corrupt the store on the first update)");
    }
  }
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>>
RelationalStore::StrategyFields() const {
  return {
      {"delete_strategy", ToString(options_.delete_strategy)},
      {"insert_strategy", ToString(options_.insert_strategy)},
      {"build_asr", options_.build_asr ? "1" : "0"},
  };
}

Status RelationalStore::InstallTriggers() {
  if (options_.delete_strategy != DeleteStrategy::kPerTupleTrigger &&
      options_.delete_strategy != DeleteStrategy::kPerStatementTrigger) {
    return Status::OK();
  }
  bool per_row = options_.delete_strategy == DeleteStrategy::kPerTupleTrigger;
  for (const TableMapping& t : mapping_->tables()) {
    std::vector<const TableMapping*> children = mapping_->ChildTables(t.element);
    if (children.empty()) continue;
    std::string body;
    for (const TableMapping* c : children) {
      if (per_row) {
        body += "DELETE FROM " + c->table + " WHERE parentId = OLD.id; ";
      } else {
        body += "DELETE FROM " + c->table +
                " WHERE parentId NOT IN (SELECT id FROM " + t.table + "); ";
      }
    }
    std::string sql = "CREATE TRIGGER trg_" + t.table + " AFTER DELETE ON " +
                      t.table + " FOR EACH " +
                      (per_row ? "ROW" : "STATEMENT") + " BEGIN " + body +
                      "END";
    XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(sql).status());
  }
  return Status::OK();
}

Status RelationalStore::Load(const xml::Document& doc) {
  EngineSpan span(&db_, "load");
  auto tuples = shredder_->LoadDocument(doc);
  if (!tuples.ok()) return tuples.status();
  root_id_ = tuples->front().id;
  if (asr_ != nullptr) XUPD_RETURN_IF_ERROR(asr_->BuildFromTuples(*tuples));
  // Direct bulk-API writes do not cross a statement boundary; flush them as
  // one committed WAL unit so the load survives a crash.
  return db_.WalFlush();
}

// ---------------------------------------------------------------------------
// Transactions

namespace {

// Arms the Database's operation deadline for one update entry point and
// restores the previous one on exit — sub-operations keep the outer (earlier)
// deadline because EffectiveDeadline always takes the minimum.
class OpDeadlineScope {
 public:
  OpDeadlineScope(rdb::Database* db, int64_t timeout_us) : db_(db) {
    prev_ = db_->operation_deadline_ns();
    if (timeout_us > 0) {
      uint64_t deadline =
          MonotonicNanos() + static_cast<uint64_t>(timeout_us) * 1000;
      if (prev_ != 0 && prev_ < deadline) deadline = prev_;
      db_->ArmOperationDeadline(deadline);
    }
  }
  ~OpDeadlineScope() { db_->ArmOperationDeadline(prev_); }

  OpDeadlineScope(const OpDeadlineScope&) = delete;
  OpDeadlineScope& operator=(const OpDeadlineScope&) = delete;

 private:
  rdb::Database* db_;
  uint64_t prev_ = 0;
};

}  // namespace

Status RelationalStore::RunInTxn(const std::function<Status()>& fn) {
  OpDeadlineScope deadline(&db_, options_.op_timeout_us);
  if (!options_.transactional) return fn();
  XUPD_RETURN_IF_ERROR(db_.Begin());
  Status s = fn();
  if (!s.ok()) {
    // Propagate fn's error; Rollback of an open scope cannot fail here.
    (void)db_.Rollback();
    return s;
  }
  return db_.Commit();
}

// ---------------------------------------------------------------------------
// Deletes (§6.1)

Status RelationalStore::DeleteWhere(const std::string& element,
                                    const std::string& predicate) {
  const TableMapping* tm = mapping_->ForElement(element);
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element +
                                   "> is not table-mapped");
  }
  EngineSpan span(&db_, "delete_where");
  return RunInTxn([&] { return DeleteSubtreesImpl(tm, predicate); });
}

Status RelationalStore::DeleteByIds(const std::string& element,
                                    const std::vector<int64_t>& ids) {
  const TableMapping* tm = mapping_->ForElement(element);
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element +
                                   "> is not table-mapped");
  }
  // One entry point = one transaction: the id batch lands or rolls back as a
  // unit (each id's delete still issues its own statements, §7.3).
  EngineSpan span(&db_, "delete_by_ids");
  return RunInTxn([&]() -> Status {
    if (options_.delete_strategy == DeleteStrategy::kPerTupleTrigger ||
        options_.delete_strategy == DeleteStrategy::kPerStatementTrigger) {
      // The random workload issues one DELETE per subtree (§7.3); with the
      // trigger strategies the statement text is identical across ids, so one
      // prepared plan serves the whole loop — each delete still pays its
      // round trip, but only the first pays the parse.
      auto handle = db_.Prepare("DELETE FROM " + tm->table + " WHERE id = ?");
      if (!handle.ok()) return handle.status();
      for (int64_t id : ids) {
        XUPD_RETURN_IF_ERROR(
            db_.ExecuteQuery(handle.value(), {Value::Int(id)}).status());
      }
      return Status::OK();
    }
    for (int64_t id : ids) {
      XUPD_RETURN_IF_ERROR(
          DeleteSubtreesImpl(tm, "id = " + std::to_string(id)));
    }
    return Status::OK();
  });
}

Status RelationalStore::DeleteSubtreesImpl(const TableMapping* tm,
                                           const std::string& predicate) {
  switch (options_.delete_strategy) {
    case DeleteStrategy::kPerTupleTrigger:
    case DeleteStrategy::kPerStatementTrigger: {
      // One statement; triggers cascade inside the engine (6.1.1).
      std::string sql = "DELETE FROM " + tm->table;
      if (!predicate.empty()) sql += " WHERE " + predicate;
      return db_.ExecuteQuery(sql).status();
    }
    case DeleteStrategy::kCascade:
      return CascadeDelete(tm, predicate);
    case DeleteStrategy::kAsr:
      return AsrDelete(tm, predicate);
  }
  return Status::Internal("unknown delete strategy");
}

Status RelationalStore::CascadeDelete(const TableMapping* tm,
                                      const std::string& predicate) {
  // 6.1.2: delete the targets, then sweep orphans level by level, stopping
  // along a branch as soon as a delete removes no tuples.
  std::string sql = "DELETE FROM " + tm->table;
  if (!predicate.empty()) sql += " WHERE " + predicate;
  uint64_t before = db_.stats().rows_deleted;
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(sql).status());
  if (db_.stats().rows_deleted == before) return Status::OK();

  std::vector<const TableMapping*> frontier{tm};
  while (!frontier.empty()) {
    std::vector<const TableMapping*> next;
    for (const TableMapping* parent : frontier) {
      for (const TableMapping* child : mapping_->ChildTables(parent->element)) {
        uint64_t level_before = db_.stats().rows_deleted;
        XUPD_RETURN_IF_ERROR(
            db_.ExecuteQuery("DELETE FROM " + child->table +
                             " WHERE parentId NOT IN (SELECT id FROM " +
                             parent->table + ")").status());
        if (db_.stats().rows_deleted > level_before) next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return Status::OK();
}

Status RelationalStore::AsrDelete(const TableMapping* tm,
                                  const std::string& predicate) {
  // 6.1.3: mark ASR rows through the targets, delete descendants by id sets
  // from the ASR, delete the targets, repair left-completeness, unmark.
  ScopedNsCounter asr_ns(db_.metrics().Counter("engine.asr_ns"));
  const std::string id_col = AsrManager::IdColumn(tm);
  std::string mark = std::string("UPDATE ") + AsrManager::kTableName +
                     " SET marked = 1 WHERE " + id_col + " IN (SELECT id FROM " +
                     tm->table;
  if (!predicate.empty()) mark += " WHERE " + predicate;
  mark += ")";
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(mark).status());

  std::vector<const TableMapping*> region = mapping_->SubtreeTables(tm);
  for (size_t i = 1; i < region.size(); ++i) {  // strict descendants
    XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(
        "DELETE FROM " + region[i]->table + " WHERE id IN (SELECT " +
        AsrManager::IdColumn(region[i]) + " FROM " + AsrManager::kTableName +
        " WHERE marked = 1)").status());
  }
  std::string del = "DELETE FROM " + tm->table;
  if (!predicate.empty()) del += " WHERE " + predicate;
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(del).status());

  // Left-completeness repair: a target's parent that lost its last path gets
  // a fresh row ending at its level. Only the targets' parents can lose one;
  // the marked rows name them, and those that still have a child keep its
  // paths. Apart from one probe per childless parent, the statement count
  // does not grow with the number of targets.
  const TableMapping* parent = tm->parent_element.empty()
                                   ? nullptr
                                   : mapping_->ForElement(tm->parent_element);
  std::set<int64_t> childless;
  if (parent != nullptr) {
    const std::string marked_parents = "SELECT " +
                                       AsrManager::IdColumn(parent) + " FROM " +
                                       AsrManager::kTableName +
                                       " WHERE marked = 1";
    auto candidates = db_.ExecuteQuery(marked_parents);
    if (!candidates.ok()) return candidates.status();
    for (const rdb::Row& row : candidates->rows) {
      if (!row[0].is_null()) childless.insert(row[0].AsInt());
    }
    for (const TableMapping* child : mapping_->ChildTables(parent->element)) {
      if (childless.empty()) break;
      auto kept = db_.ExecuteQuery("SELECT parentId FROM " + child->table +
                                   " WHERE parentId IN (" + marked_parents +
                                   ")");
      if (!kept.ok()) return kept.status();
      for (const rdb::Row& row : kept->rows) childless.erase(row[0].AsInt());
    }
  }

  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(std::string("DELETE FROM ") +
                                        AsrManager::kTableName +
                                        " WHERE marked = 1").status());

  for (int64_t id : childless) {
    // A childless parent may still hold its own terminal row (one written
    // before a constructed insert gave it the child just deleted).
    auto terminal = db_.ExecuteQueryBound(
        "SELECT " + AsrManager::IdColumn(parent) + " FROM " +
            AsrManager::kTableName + " WHERE " + AsrManager::IdColumn(parent) +
            " = ?",
        {Value::Int(id)});
    if (!terminal.ok()) return terminal.status();
    if (!terminal->rows.empty()) continue;
    auto path = PathTo(parent, id);
    if (!path.ok()) return path.status();
    XUPD_RETURN_IF_ERROR(asr_->InsertPathRows(*path, {}));
  }
  return Status::OK();
}

Result<AsrManager::PathPrefix> RelationalStore::PathTo(const TableMapping* tm,
                                                      int64_t id) {
  AsrManager::PathPrefix chain{{tm, id}};
  const TableMapping* cur = tm;
  int64_t cur_id = id;
  while (!cur->parent_element.empty()) {
    // Point query per level; the prepared text is constant per table, so
    // repeated chain walks parse each table's probe once.
    auto parent_id =
        db_.ExecuteQueryBound("SELECT parentId FROM " + cur->table +
                              " WHERE id = ?", {Value::Int(cur_id)});
    if (!parent_id.ok()) return parent_id.status();
    if (parent_id->rows.empty() || parent_id->rows[0][0].is_null()) break;
    const TableMapping* parent = mapping_->ForElement(cur->parent_element);
    cur_id = parent_id->rows[0][0].AsInt();
    chain.insert(chain.begin(), {parent, cur_id});
    cur = parent;
  }
  return chain;
}

// ---------------------------------------------------------------------------
// Inserts (§6.2)

Status RelationalStore::CopySubtree(const std::string& element, int64_t src_id,
                                    int64_t dest_parent_id) {
  return CopySubtreesWhere(element, "id = " + std::to_string(src_id),
                           dest_parent_id);
}

Status RelationalStore::CopySubtreesWhere(const std::string& element,
                                          const std::string& predicate,
                                          int64_t dest_parent_id) {
  const TableMapping* tm = mapping_->ForElement(element);
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element +
                                   "> is not table-mapped");
  }
  EngineSpan span(&db_, "copy_subtrees");
  switch (options_.insert_strategy) {
    case InsertStrategy::kTuple:
      return RunInTxn([&] { return TupleInsert(tm, predicate, dest_parent_id); });
    case InsertStrategy::kTable:
      // Manages its own scope: the temp-table DDL must stay outside it.
      return TableInsert(tm, predicate, dest_parent_id);
    case InsertStrategy::kAsr:
      return RunInTxn([&] { return AsrInsert(tm, predicate, dest_parent_id); });
  }
  return Status::Internal("unknown insert strategy");
}

Status RelationalStore::TupleInsert(const TableMapping* tm,
                                    const std::string& predicate,
                                    int64_t dest_parent_id) {
  // 6.2.1: read the source subtrees through the Sorted Outer Union, remap
  // ids tuple by tuple (old->new kept in memory), then hand the remapped
  // tuples to the shredder's SQL writer (per-table batches of up to
  // insert_batch_size rows; batch size 1 is the paper's literal
  // one-INSERT-per-tuple regime).
  shred::OuterUnionQuery query =
      shred::BuildOuterUnion(*mapping_, tm, predicate);
  // When the root predicate rides in the xupd_idlist scratch table (or is
  // empty) the outer-union text is constant across calls, so the big SELECT
  // reuses one cached plan no matter which ids are staged; literal
  // predicates stay on the parse-per-call path rather than churn the cache.
  auto result = ConstantPredicateText(predicate)
                    ? db_.ExecuteQueryBound(query.sql, {})
                    : db_.ExecuteQuery(query.sql);
  if (!result.ok()) return result.status();
  std::vector<ShreddedTuple> tuples;
  tuples.reserve(result->rows.size());
  std::map<int64_t, int64_t> id_map;  // old id -> new id
  for (const rdb::Row& row : result->rows) {
    // Deepest non-null segment owns the row.
    const shred::OuterUnionLayout::Segment* seg = nullptr;
    for (const auto& s : query.layout.segments) {
      if (!row[static_cast<size_t>(s.id_col)].is_null()) seg = &s;
    }
    if (seg == nullptr) continue;
    ShreddedTuple& t = tuples.emplace_back();
    t.table = seg->table;
    t.id = db_.AllocateId();
    id_map[row[static_cast<size_t>(seg->id_col)].AsInt()] = t.id;
    if (seg->parent_id_col < 0) {
      t.parent_id = dest_parent_id;
    } else {
      int64_t old_parent = row[static_cast<size_t>(seg->parent_id_col)].AsInt();
      auto it = id_map.find(old_parent);
      if (it == id_map.end()) {
        return Status::Internal("outer-union stream out of order");
      }
      t.parent_id = it->second;
    }
    t.row.reserve(2 + seg->field_count);
    t.row.push_back(Value::Int(t.id));
    t.row.push_back(Value::Int(t.parent_id));
    auto fields = row.begin() + seg->first_field_col;
    t.row.insert(t.row.end(), fields, fields + seg->field_count);
  }
  return shredder_->InsertTuplesSql(tuples);
}

Status RelationalStore::TableInsert(const TableMapping* tm,
                                    const std::string& predicate,
                                    int64_t dest_parent_id) {
  // 6.2.2: stage the source subtrees in temp tables, remap all ids with one
  // offset (nextId - minId), and insert en masse per relation. The staging
  // tables are created/dropped through the direct catalog API: DDL is barred
  // inside transactions, and scratch tables are not transactional state —
  // DropTableDirect purges their undo records, so only the real-table writes
  // remain in the enclosing scope's log.
  std::vector<const TableMapping*> region = mapping_->SubtreeTables(tm);
  auto tmp_name = [](const TableMapping* t) { return "tmp_" + t->table; };

  Status s = Status::OK();
  size_t created = 0;
  for (const TableMapping* t : region) {
    std::vector<rdb::ColumnDef> cols{{"id", rdb::ColumnType::kInteger},
                                     {"parentId", rdb::ColumnType::kInteger}};
    for (const auto& f : t->fields) {
      cols.push_back({f.column, rdb::ColumnType::kVarchar});
    }
    auto table = db_.CreateTableDirect(rdb::TableSchema(tmp_name(t), cols));
    if (!table.ok()) {
      s = table.status();
      break;
    }
    ++created;
  }
  if (s.ok()) {
    s = RunInTxn(
        [&] { return TableInsertDml(region, tm, predicate, dest_parent_id); });
  }
  for (size_t i = 0; i < created; ++i) {
    Status drop = db_.DropTableDirect(tmp_name(region[i]));
    if (s.ok() && !drop.ok()) s = drop;
  }
  return s;
}

Status RelationalStore::TableInsertDml(
    const std::vector<const TableMapping*>& region, const TableMapping* tm,
    const std::string& predicate, int64_t dest_parent_id) {
  auto tmp_name = [](const TableMapping* t) { return "tmp_" + t->table; };

  for (size_t i = 0; i < region.size(); ++i) {
    const TableMapping* t = region[i];
    if (i == 0) {
      std::string sql =
          "INSERT INTO " + tmp_name(t) + " SELECT * FROM " + t->table;
      if (!predicate.empty()) sql += " WHERE " + predicate;
      XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(sql).status());
    } else {
      const TableMapping* parent = mapping_->ForElement(t->parent_element);
      XUPD_RETURN_IF_ERROR(
          db_.ExecuteQuery("INSERT INTO " + tmp_name(t) + " SELECT * FROM " +
                           t->table + " WHERE parentId IN (SELECT id FROM " +
                           tmp_name(parent) + ")")
              .status());
    }
  }

  // min/max over all staged ids (one statement per staging table).
  int64_t min_id = 0, max_id = -1;
  for (const TableMapping* t : region) {
    auto mm = db_.ExecuteQuery("SELECT MIN(id), MAX(id) FROM " + tmp_name(t));
    if (!mm.ok()) return mm.status();
    const rdb::Row& row = mm->rows[0];
    if (row[0].is_null()) continue;
    if (max_id < min_id) {
      min_id = row[0].AsInt();
      max_id = row[1].AsInt();
    } else {
      min_id = std::min(min_id, row[0].AsInt());
      max_id = std::max(max_id, row[1].AsInt());
    }
  }
  if (max_id < min_id) {
    return Status::NotFound("source subtree is empty");
  }
  int64_t offset = db_.next_id() - min_id;
  db_.AllocateIdBlock(max_id - min_id + 1);

  for (const TableMapping* t : region) {
    std::string cols = "id + " + std::to_string(offset) + ", parentId + " +
                       std::to_string(offset);
    for (const auto& f : t->fields) cols += ", " + f.column;
    XUPD_RETURN_IF_ERROR(db_.ExecuteQuery("INSERT INTO " + t->table +
                                          " SELECT " + cols + " FROM " +
                                          tmp_name(t))
                             .status());
  }
  // The copied region roots point at their new parent.
  return db_.ExecuteQuery("UPDATE " + tm->table +
                          " SET parentId = " +
                          std::to_string(dest_parent_id) +
                          " WHERE id IN (SELECT id + " +
                          std::to_string(offset) + " FROM " + tmp_name(tm) +
                          ")")
      .status();
}

Status RelationalStore::AsrInsert(const TableMapping* tm,
                                  const std::string& predicate,
                                  int64_t dest_parent_id) {
  // 6.2.3: mark ASR paths through the sources, compute the offset from the
  // ASR (no temp tables, no outer union), replicate per relation, add the
  // new ASR paths, unmark.
  ScopedNsCounter asr_ns(db_.metrics().Counter("engine.asr_ns"));
  const std::string asr = AsrManager::kTableName;
  std::string mark = "UPDATE " + asr + " SET marked = 1 WHERE " +
                     AsrManager::IdColumn(tm) + " IN (SELECT id FROM " +
                     tm->table;
  if (!predicate.empty()) mark += " WHERE " + predicate;
  mark += ")";
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(mark).status());

  std::vector<const TableMapping*> region = mapping_->SubtreeTables(tm);
  // One combined MIN/MAX statement over all region columns (a single ASR
  // scan computes the remapping offset, §6.2.3).
  std::string mm_sql = "SELECT ";
  for (size_t i = 0; i < region.size(); ++i) {
    if (i > 0) mm_sql += ", ";
    mm_sql += "MIN(" + AsrManager::IdColumn(region[i]) + "), MAX(" +
              AsrManager::IdColumn(region[i]) + ")";
  }
  mm_sql += " FROM " + asr + " WHERE marked = 1";
  auto mm = db_.ExecuteQuery(mm_sql);
  if (!mm.ok()) return mm.status();
  int64_t min_id = 0, max_id = -1;
  for (size_t i = 0; i < region.size(); ++i) {
    const rdb::Value& lo = mm->rows[0][2 * i];
    const rdb::Value& hi = mm->rows[0][2 * i + 1];
    if (lo.is_null()) continue;
    if (max_id < min_id) {
      min_id = lo.AsInt();
      max_id = hi.AsInt();
    } else {
      min_id = std::min(min_id, lo.AsInt());
      max_id = std::max(max_id, hi.AsInt());
    }
  }
  if (max_id < min_id) {
    XUPD_RETURN_IF_ERROR(
        db_.ExecuteQuery("UPDATE " + asr + " SET marked = 0 WHERE marked = 1")
            .status());
    return Status::NotFound("source subtree not present in ASR");
  }
  int64_t offset = db_.next_id() - min_id;
  db_.AllocateIdBlock(max_id - min_id + 1);

  for (const TableMapping* t : region) {
    std::string cols = "id + " + std::to_string(offset) + ", parentId + " +
                       std::to_string(offset);
    for (const auto& f : t->fields) cols += ", " + f.column;
    XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(
        "INSERT INTO " + t->table + " SELECT " + cols + " FROM " + t->table +
        " WHERE id IN (SELECT " + AsrManager::IdColumn(t) + " FROM " + asr +
        " WHERE marked = 1)").status());
  }
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(
      "UPDATE " + tm->table +
      " SET parentId = " + std::to_string(dest_parent_id) +
      " WHERE id IN (SELECT " + AsrManager::IdColumn(tm) + " + " +
      std::to_string(offset) + " FROM " + asr + " WHERE marked = 1)").status());

  // New ASR paths: destination ancestor chain above the copy, offset ids for
  // the copied region, NULL elsewhere.
  const TableMapping* dest_table = nullptr;
  AsrManager::PathPrefix dest_chain;
  if (dest_parent_id != 0) {
    // Locate the destination parent's table by probing candidates.
    for (const TableMapping& t : mapping_->tables()) {
      auto r = db_.ExecuteQueryBound("SELECT id FROM " + t.table +
                                         " WHERE id = ?",
                                     {Value::Int(dest_parent_id)});
      if (r.ok() && !r->rows.empty()) {
        dest_table = &t;
        break;
      }
    }
    if (dest_table == nullptr) {
      return Status::NotFound("destination parent tuple not found");
    }
    auto chain = PathTo(dest_table, dest_parent_id);
    if (!chain.ok()) return chain.status();
    dest_chain = std::move(chain).value();
  }
  std::map<const TableMapping*, int64_t> dest_ids(dest_chain.begin(),
                                                  dest_chain.end());
  std::set<const TableMapping*> in_region(region.begin(), region.end());
  std::string sql = "INSERT INTO " + asr + " SELECT ";
  bool first = true;
  for (const TableMapping& t : mapping_->tables()) {
    if (!first) sql += ", ";
    first = false;
    if (in_region.count(&t) > 0) {
      sql += AsrManager::IdColumn(&t) + " + " + std::to_string(offset);
    } else if (dest_ids.count(&t) > 0) {
      sql += std::to_string(dest_ids.at(&t));
    } else {
      sql += "NULL";
    }
  }
  sql += ", 0 FROM " + asr + " WHERE marked = 1";
  XUPD_RETURN_IF_ERROR(db_.ExecuteQuery(sql).status());
  return db_.ExecuteQuery("UPDATE " + asr + " SET marked = 0 WHERE marked = 1")
      .status();
}

Status RelationalStore::InsertConstructed(const xml::Element& content,
                                          int64_t dest_parent_id) {
  EngineSpan span(&db_, "insert_constructed");
  return RunInTxn(
      [&] { return InsertConstructedImpl(content, dest_parent_id); });
}

Status RelationalStore::InsertConstructedImpl(const xml::Element& content,
                                              int64_t dest_parent_id) {
  auto tuples = shredder_->ShredSubtree(content, dest_parent_id);
  if (!tuples.ok()) return tuples.status();
  XUPD_RETURN_IF_ERROR(shredder_->InsertTuplesSql(*tuples));
  if (asr_ == nullptr) return Status::OK();
  // The new ASR paths hang below the destination's ancestor chain.
  AsrManager::PathPrefix prefix;
  const TableMapping* tm = tuples->front().table;
  if (dest_parent_id != 0 && !tm->parent_element.empty()) {
    auto path = PathTo(mapping_->ForElement(tm->parent_element), dest_parent_id);
    if (!path.ok()) return path.status();
    prefix = std::move(path).value();
  }
  return asr_->InsertPathRows(prefix, *tuples);
}

// ---------------------------------------------------------------------------
// Id-list staging (shared scratch table for the translator's IN predicates)

Result<std::string> RelationalStore::IdListPredicate(
    const std::string& column, const std::vector<int64_t>& ids) {
  rdb::Table* scratch = db_.FindTable(kIdListTable);
  if (scratch == nullptr) {
    // Unwired from the undo log: id staging is engine scratch, not
    // transactional state — rolling a statement back must not waste time
    // reviving rows the next staging would clobber anyway.
    auto table = db_.CreateTableDirect(
        rdb::TableSchema(kIdListTable, {{"id", rdb::ColumnType::kInteger}}),
        /*transactional=*/false);
    if (!table.ok()) return table.status();
    scratch = table.value();
  }
  // Truncate rather than DELETE FROM: a SQL delete only tombstones, which
  // would grow the slot array (and every later scan over it) without bound
  // across statements.
  scratch->Clear();
  // Constant statement texts for the staging INSERTs: each batch shape
  // parses once and then serves every staged id set from the plan cache.
  size_t i = 0;
  // Descending chunk sizes bound the number of distinct INSERT shapes to 4
  // while keeping the statement count ~ids/64.
  for (size_t chunk : {size_t{64}, size_t{16}, size_t{4}, size_t{1}}) {
    while (ids.size() - i >= chunk) {
      std::vector<Value> params;
      params.reserve(chunk);
      for (size_t k = 0; k < chunk; ++k) params.push_back(Value::Int(ids[i++]));
      XUPD_RETURN_IF_ERROR(
          db_.ExecuteQueryBound(rdb::MultiRowInsertSql(kIdListTable, 1, chunk),
                                params).status());
    }
  }
  return column + " IN (SELECT id FROM " + kIdListTable + ")";
}

// ---------------------------------------------------------------------------
// Queries

Result<std::vector<int64_t>> RelationalStore::SelectIds(
    const std::string& element, const std::string& predicate) {
  const TableMapping* tm = mapping_->ForElement(element);
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element +
                                   "> is not table-mapped");
  }
  std::string sql = "SELECT id FROM " + tm->table;
  if (!predicate.empty()) sql += " WHERE " + predicate;
  sql += " ORDER BY id";
  auto result = db_.ExecuteQuery(sql);
  if (!result.ok()) return result.status();
  std::vector<int64_t> ids;
  ids.reserve(result->rows.size());
  for (const rdb::Row& row : result->rows) ids.push_back(row[0].AsInt());
  return ids;
}

Result<std::vector<int64_t>> RelationalStore::PathQueryJoins(
    const std::string& start_element, const std::string& leaf_element,
    const std::string& leaf_predicate) {
  const TableMapping* start = mapping_->ForElement(start_element);
  const TableMapping* leaf = mapping_->ForElement(leaf_element);
  if (start == nullptr || leaf == nullptr) {
    return Status::InvalidArgument("elements are not table-mapped");
  }
  std::vector<const TableMapping*> path = mapping_->PathFromRoot(leaf);
  auto it = std::find(path.begin(), path.end(), start);
  if (it == path.end()) {
    return Status::InvalidArgument("'" + start_element +
                                   "' is not an ancestor of '" + leaf_element +
                                   "'");
  }
  path.erase(path.begin(), it);  // start .. leaf
  // FROM leaf l0, parent l1, ... WHERE l0.<pred> AND l0.parentId = l1.id ...
  std::string sql = "SELECT ";
  size_t n = path.size();
  sql += "l" + std::to_string(n - 1) + ".id FROM ";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) sql += ", ";
    // l0 = leaf ... l(n-1) = start
    sql += path[n - 1 - i]->table + " l" + std::to_string(i);
  }
  sql += " WHERE " + leaf_predicate;
  for (size_t i = 0; i + 1 < n; ++i) {
    sql += " AND l" + std::to_string(i) + ".parentId = l" +
           std::to_string(i + 1) + ".id";
  }
  auto result = db_.ExecuteQuery(sql);
  if (!result.ok()) return result.status();
  std::vector<int64_t> ids;
  for (const rdb::Row& row : result->rows) ids.push_back(row[0].AsInt());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<std::vector<int64_t>> RelationalStore::PathQueryAsr(
    const std::string& start_element, const std::string& leaf_element,
    const std::string& leaf_predicate) {
  if (!options_.build_asr) {
    return Status::InvalidArgument("store has no ASR");
  }
  const TableMapping* start = mapping_->ForElement(start_element);
  const TableMapping* leaf = mapping_->ForElement(leaf_element);
  if (start == nullptr || leaf == nullptr) {
    return Status::InvalidArgument("elements are not table-mapped");
  }
  // Two joins regardless of path length (§5.3): leaf (filtered) x ASR x start.
  std::string sql = "SELECT s.id FROM " + leaf->table + " l, " +
                    AsrManager::kTableName + " a, " + start->table +
                    " s WHERE " + leaf_predicate + " AND a." +
                    AsrManager::IdColumn(leaf) + " = l.id AND s.id = a." +
                    AsrManager::IdColumn(start);
  auto result = db_.ExecuteQuery(sql);
  if (!result.ok()) return result.status();
  std::vector<int64_t> ids;
  for (const rdb::Row& row : result->rows) ids.push_back(row[0].AsInt());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<rdb::ResultSet> RelationalStore::OuterUnion(
    const std::string& element, const std::string& root_where) {
  const TableMapping* tm = mapping_->ForElement(element);
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element +
                                   "> is not table-mapped");
  }
  shred::OuterUnionQuery query =
      shred::BuildOuterUnion(*mapping_, tm, root_where);
  return db_.ExecuteQuery(query.sql);
}

Result<std::unique_ptr<xml::Document>> RelationalStore::Reconstruct() {
  return shred::ReconstructDocument(*mapping_, &db_);
}

}  // namespace xupd::engine
