#include "rdb/sql_executor.h"

#include <algorithm>
#include <cctype>
#include <mutex>
#include <shared_mutex>

#include "common/str_util.h"
#include "rdb/sql_parser.h"

namespace xupd::rdb {

using sql::Expr;

ResultSet PlanRows(const std::string& rendered) {
  ResultSet out;
  out.columns = {"plan"};
  for (const std::string& line : SplitChar(rendered, '\n')) {
    out.rows.push_back({Value::Str(line)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Entry point

Result<ResultSet> Executor::Run(const sql::Statement& stmt,
                                PlanCacheSlot* slot) {
  // Both hooks see every statement execution, including trigger-body and
  // nested statements: the failpoint can land mid-cascade, and the DDL
  // barrier cannot be bypassed from inside a trigger.
  XUPD_RETURN_IF_ERROR(db_->ConsumeFailpoint());
  XUPD_RETURN_IF_ERROR(db_->CheckDdlBarrier(stmt));
  XUPD_RETURN_IF_ERROR(db_->CheckWritable(stmt));
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kDelete:
    case sql::Statement::Kind::kUpdate: {
      XUPD_ASSIGN_OR_RETURN(auto plan, GetPlan(stmt, slot));
      return RunPlanned(*plan);
    }
    case sql::Statement::Kind::kExplain:
      return RunExplain(*stmt.explain, slot, stmt.explain_analyze);
    case sql::Statement::Kind::kShow:
      return RunShow(stmt);
    case sql::Statement::Kind::kCreateTable:
      return FinishDdl(RunCreateTable(stmt.create_table));
    case sql::Statement::Kind::kCreateIndex:
      return FinishDdl(RunCreateIndex(stmt.create_index));
    case sql::Statement::Kind::kCreateTrigger:
      return FinishDdl(RunCreateTrigger(stmt.create_trigger));
    case sql::Statement::Kind::kDrop:
      return FinishDdl(RunDrop(stmt.drop));
    case sql::Statement::Kind::kBegin:
      XUPD_RETURN_IF_ERROR(db_->Begin());
      return ResultSet{};
    case sql::Statement::Kind::kCommit:
      XUPD_RETURN_IF_ERROR(db_->Commit());
      return ResultSet{};
    case sql::Statement::Kind::kRollback:
      if (stmt.txn_name.empty()) {
        XUPD_RETURN_IF_ERROR(db_->Rollback());
      } else {
        XUPD_RETURN_IF_ERROR(db_->RollbackTo(stmt.txn_name));
      }
      return ResultSet{};
    case sql::Statement::Kind::kSavepoint:
      XUPD_RETURN_IF_ERROR(db_->Savepoint(stmt.txn_name));
      return ResultSet{};
    case sql::Statement::Kind::kRelease:
      XUPD_RETURN_IF_ERROR(db_->Release(stmt.txn_name));
      return ResultSet{};
    case sql::Statement::Kind::kCheckIntegrity: {
      // Online scrub: read-only over in-memory structures and on-disk
      // files, so it stays available in degraded mode.
      ResultSet out;
      out.columns = {"violation"};
      for (std::string& v : db_->VerifyIntegrity()) {
        out.rows.push_back({Value::Str(std::move(v))});
      }
      if (out.rows.empty()) out.rows.push_back({Value::Str("ok")});
      return out;
    }
    case sql::Statement::Kind::kSet: {
      // Session knobs; governance-exempt so an operator can always raise or
      // clear a timeout even while statements are being shed.
      std::string name = stmt.set_name;
      for (char& c : name) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      if (name == "STATEMENT_TIMEOUT") {
        db_->set_statement_timeout_us(stmt.set_value);
        return ResultSet{};
      }
      return Status::InvalidArgument("unknown setting: " + stmt.set_name +
                                     " (supported: STATEMENT_TIMEOUT)");
    }
  }
  return Status::Internal("unknown statement kind");
}

// DDL invalidates here — the single choke point every writer entry point
// (ExecuteQuery by text or by handle, ExecuteQueryBound) funnels through —
// so cached parses are flushed, and cached plans and trigger lists version
// out before any reuse. Successful DDL is also pended to the WAL as its
// statement text (the Database flushes it at the statement boundary). DDL
// is always a top-level statement: the parser admits only DML in a trigger
// body.
Result<ResultSet> Executor::FinishDdl(Result<ResultSet> result) {
  if (result.ok()) {
    db_->InvalidateStatementCache();
    db_->WalLogDdl(sql_text_);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Planning

Result<std::shared_ptr<const PlannedStatement>> Executor::GetPlan(
    const sql::Statement& stmt, PlanCacheSlot* slot) {
  Planner planner(db_, trigger_old_schema_);
  XUPD_ASSIGN_OR_RETURN(auto plan,
                        planner.PlanCached(stmt, slot, &db_->stats_));
  // Keep the top-level plan alive for the slow-statement log (one shared_ptr
  // copy, and only while the log is enabled — the hot path skips this).
  if (db_->slow_statement_threshold_us_ >= 0 && trigger_depth_ == 0) {
    last_plan_ = plan;
  }
  return plan;
}

ExecContext Executor::MakeContext(
    std::vector<std::unique_ptr<ResultSet>>* cte_store) {
  ExecContext ctx;
  ctx.db = db_;
  ctx.stats = &db_->stats_;
  ctx.params = params_;
  ctx.old_table = trigger_old_table_;
  ctx.old_rowid = trigger_old_rowid_;
  ctx.cte_values = cte_store;
  ctx.subquery_memo = &subquery_memo_;
  ctx.analyze = analyze_;
  ctx.analyze_select = analyze_select_;
  // Governance: the statement deadline, the connection's cancel flag, the
  // accountant for hard-budget polls, and (when armed) the test-only
  // cancel-at-pull countdown.
  ctx.deadline_ns = deadline_ns_;
  ctx.cancel = db_->cancel_token_.flag();
  ctx.mem = &db_->mem_;
  if (db_->cancel_at_pull_armed_) ctx.cancel_at_pull = &db_->cancel_at_pull_;
  return ctx;
}

Result<ResultSet> Executor::RunPlanned(const PlannedStatement& plan) {
  switch (plan.kind) {
    case sql::Statement::Kind::kSelect:
      return RunPlannedSelect(plan);
    case sql::Statement::Kind::kInsert:
      return RunPlannedInsert(plan);
    case sql::Statement::Kind::kDelete:
      return RunPlannedDelete(plan);
    case sql::Statement::Kind::kUpdate:
      return RunPlannedUpdate(plan);
    default:
      return Status::Internal("unplanned statement kind");
  }
}

Result<ResultSet> Executor::RunExplain(const sql::Statement& stmt,
                                       PlanCacheSlot* slot, bool analyze) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kDelete:
    case sql::Statement::Kind::kUpdate:
      break;
    default:
      return Status::InvalidArgument(
          "EXPLAIN supports only SELECT, INSERT, DELETE and UPDATE");
  }
  // The handle's slot caches the inner statement's plan, so a prepared
  // EXPLAIN re-renders without re-planning.
  XUPD_ASSIGN_OR_RETURN(auto plan, GetPlan(stmt, slot));

  if (!analyze) return PlanRows(PlanToString(*plan));

  // EXPLAIN ANALYZE executes the statement for real, so the inner statement
  // must pass the same read-only gate it would face unwrapped.
  XUPD_RETURN_IF_ERROR(db_->CheckWritable(stmt));

  // Size the actuals to the plan shape, then run with the sink installed.
  AnalyzeStats actuals;
  const PlannedSelect* root_select =
      plan->kind == sql::Statement::Kind::kInsert ? plan->insert.select.get()
                                                  : plan->select.get();
  if (root_select != nullptr) {
    actuals.cores.resize(root_select->cores.size());
    for (size_t i = 0; i < root_select->cores.size(); ++i) {
      actuals.cores[i].rels.resize(root_select->cores[i].relations.size());
    }
  }
  analyze_ = &actuals;
  analyze_select_ = root_select;
  const uint64_t t0 = MonotonicNanos();
  auto result = RunPlanned(*plan);
  actuals.root.time_ns = MonotonicNanos() - t0;
  analyze_ = nullptr;
  analyze_select_ = nullptr;
  if (!result.ok()) return result.status();
  ++actuals.root.opens;
  switch (plan->kind) {
    case sql::Statement::Kind::kSelect:
      actuals.root.rows = result.value().rows.size();
      break;
    case sql::Statement::Kind::kDelete:
    case sql::Statement::Kind::kUpdate:
      actuals.root.rows = actuals.mutation.rows;
      break;
    default:
      break;  // kInsert fills root.rows during execution.
  }
  ++db_->stats_.explain_analyzes;
  return PlanRows(PlanToStringAnalyzed(*plan, actuals));
}

Result<ResultSet> Executor::RunShow(const sql::Statement& stmt) {
  ResultSet out;
  switch (stmt.show) {
    case sql::Statement::ShowWhat::kMetrics: {
      out.columns = {"metric", "value"};
      auto add = [&out](std::string name, uint64_t v) {
        out.rows.push_back(
            {Value::Str(std::move(name)), Value::Int(static_cast<int64_t>(v))});
      };
      // The Stats cost model first (declaration order), then registry
      // counters/gauges and histogram summaries (name-sorted).
      db_->stats().ForEachField(
          [&](const char* name, uint64_t v) { add(std::string("stats.") + name, v); });
      db_->metrics().ForEachCounter(
          [&](const std::string& name, uint64_t v) { add(name, v); });
      db_->metrics().ForEachGauge([&](const std::string& name, int64_t v) {
        add(name, static_cast<uint64_t>(v));
      });
      db_->metrics().ForEachHistogram(
          [&](const std::string& name, const Histogram& h) {
            const HistogramSnapshot s = h.Snapshot();
            add(name + ".count", s.count);
            if (s.count == 0) return;
            add(name + ".p50_ns", static_cast<uint64_t>(s.p50));
            add(name + ".p95_ns", static_cast<uint64_t>(s.p95));
            add(name + ".p99_ns", static_cast<uint64_t>(s.p99));
            add(name + ".max_ns", s.max);
            add(name + ".sum_ns", s.sum);
          });
      return out;
    }
    case sql::Statement::ShowWhat::kHealth: {
      out.columns = {"field", "value"};
      auto add = [&out](const char* field, std::string value) {
        out.rows.push_back({Value::Str(field), Value::Str(std::move(value))});
      };
      const Database::Health h = db_->health();
      add("read_only", h.read_only ? "1" : "0");
      add("cause", h.cause);
      add("durability_open", db_->durability_open() ? "1" : "0");
      add("recovered", db_->recovered() ? "1" : "0");
      add("flusher_stalled", h.flusher_stalled ? "1" : "0");
      add("checkpoint_stalled", h.checkpoint_stalled ? "1" : "0");
      const MemoryAccountant& mem = db_->memory_accountant();
      add("mem_total", std::to_string(mem.total_used()));
      add("mem_soft_budget", std::to_string(mem.soft_budget()));
      add("mem_hard_budget", std::to_string(mem.hard_budget()));
      add("mem_over_soft", mem.OverSoft() ? "1" : "0");
      add("mem_over_hard", mem.OverHard() ? "1" : "0");
      return out;
    }
    case sql::Statement::ShowWhat::kSlow: {
      out.columns = {"time_us", "cause", "sql", "stats", "plan"};
      for (const Database::SlowStatement& s : db_->slow_statements()) {
        out.rows.push_back(
            {Value::Int(static_cast<int64_t>(s.duration_ns / 1000)),
             Value::Str(s.cause.empty() ? "slow" : s.cause), Value::Str(s.sql),
             Value::Str(s.delta.ToString()), Value::Str(s.plan)});
      }
      return out;
    }
    case sql::Statement::ShowWhat::kEvents: {
      out.columns = {"event"};
      for (std::string& line : db_->events().ToJsonLines()) {
        out.rows.push_back({Value::Str(std::move(line))});
      }
      return out;
    }
    case sql::Statement::ShowWhat::kTableStats: {
      out.columns = {"stat", "value"};
      auto add = [&out](std::string name, uint64_t v) {
        out.rows.push_back(
            {Value::Str(std::move(name)), Value::Int(static_cast<int64_t>(v))});
      };
      // tables_ is keyed case-insensitively by name; emit in map order with
      // the schema's original casing.
      for (const auto& [key, table] : db_->tables_) {
        const std::string& name = table->schema().name();
        const TableAccessStats& s = table->access_stats();
        add("table." + name + ".scans", s.scans);
        add("table." + name + ".rows_read", s.rows_read);
        add("table." + name + ".rows_inserted", s.rows_inserted);
        add("table." + name + ".rows_deleted", s.rows_deleted);
        add("table." + name + ".rows_updated", s.rows_updated);
        add("table." + name + ".live_rows", table->live_count());
        add("table." + name + ".version_rows", table->version_rows());
        add("table." + name + ".version_bytes", table->version_bytes());
        for (const auto& index : table->indexes()) {
          add("index." + name + "." + index->name() + ".probes",
              index->probes());
          add("index." + name + "." + index->name() + ".hits",
              index->probe_hits());
        }
      }
      return out;
    }
    case sql::Statement::ShowWhat::kTrace: {
      out.columns = {"trace"};
      out.rows.push_back({Value::Str(db_->events().DumpChromeTrace())});
      return out;
    }
  }
  return Status::Internal("unknown SHOW kind");
}

// ---------------------------------------------------------------------------
// DDL

Result<ResultSet> Executor::RunCreateTable(const sql::CreateTableStmt& stmt) {
  // SQL-created tables are durable: they participate in WAL logging and
  // snapshots (direct-API scratch tables do not).
  XUPD_ASSIGN_OR_RETURN(
      Table * ignored,
      db_->CreateTableDirect(TableSchema(stmt.name, stmt.columns),
                             /*durable=*/true));
  (void)ignored;
  return ResultSet{};
}

Result<ResultSet> Executor::RunCreateIndex(const sql::CreateIndexStmt& stmt) {
  Table* table = db_->FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  int col = table->schema().ColumnIndex(stmt.column);
  if (col < 0) {
    return Status::NotFound("column '" + stmt.column + "' not found");
  }
  {
    // Index vectors are walked by reader-session planners under the shared
    // catalog lock; mutate them exclusively.
    auto lock = db_->LockCatalogExclusive();
    XUPD_RETURN_IF_ERROR(table->CreateIndex(stmt.name, col));
  }
  return ResultSet{};
}

Result<ResultSet> Executor::RunCreateTrigger(const sql::CreateTriggerStmt& stmt) {
  if (db_->FindTable(stmt.table) == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  for (const auto& t : db_->triggers_) {
    if (EqualsIgnoreCase(t.name, stmt.name)) {
      return Status::AlreadyExists("trigger '" + stmt.name + "' already exists");
    }
  }
  Database::TriggerDef def;
  def.name = stmt.name;
  def.table = stmt.table;
  def.granularity = stmt.granularity;
  // Each body statement becomes a handle of its own, so it carries its
  // own plan slot like any prepared statement.
  for (const auto& body_stmt : stmt.body) {
    def.body.push_back(NewStatementHandle({}, *body_stmt));
  }
  // The original text is how snapshots persist the trigger.
  def.sql = std::string(sql_text_);
  {
    auto lock = db_->LockCatalogExclusive();
    db_->triggers_.push_back(std::move(def));
  }
  return ResultSet{};
}

Result<ResultSet> Executor::RunDrop(const sql::DropStmt& stmt) {
  switch (stmt.what) {
    case sql::DropStmt::What::kTable: {
      auto it = db_->tables_.find(stmt.name);
      if (it == db_->tables_.end()) {
        return Status::NotFound("table '" + stmt.name + "' not found");
      }
      // An off-thread checkpoint may hold a raw Table*; let it finish
      // before the table is destroyed, then drop under the exclusive
      // catalog lock so no reader-session planner resolves a dangling
      // pointer. DDL is not snapshot-isolated: a pinned reader's next
      // statement simply fails to find the table (documented anomaly).
      db_->CheckpointWait();
      {
        auto lock = db_->LockCatalogExclusive();
        // Bump inside the exclusive section: a reader session validating a
        // cached plan under the shared lock must never pass validation
        // after the mutation but before the version change.
        db_->catalog_version_.fetch_add(1, std::memory_order_acq_rel);
        db_->tables_.erase(it);
        auto& trigs = db_->triggers_;
        trigs.erase(std::remove_if(trigs.begin(), trigs.end(),
                                   [&](const Database::TriggerDef& t) {
                                     return EqualsIgnoreCase(t.table, stmt.name);
                                   }),
                    trigs.end());
      }
      return ResultSet{};
    }
    case sql::DropStmt::What::kIndex: {
      auto lock = db_->LockCatalogExclusive();
      if (!stmt.table.empty()) {
        Table* table = db_->FindTable(stmt.table);
        if (table == nullptr) {
          return Status::NotFound("table '" + stmt.table + "' not found");
        }
        XUPD_RETURN_IF_ERROR(table->DropIndex(stmt.name));
        return ResultSet{};
      }
      // Owning table unknown: one pass over the catalog, one scan per table.
      for (auto& [name, table] : db_->tables_) {
        if (table->TryDropIndex(stmt.name)) return ResultSet{};
      }
      return Status::NotFound("index '" + stmt.name + "' not found");
    }
    case sql::DropStmt::What::kTrigger: {
      auto lock = db_->LockCatalogExclusive();
      auto& trigs = db_->triggers_;
      size_t before = trigs.size();
      trigs.erase(std::remove_if(trigs.begin(), trigs.end(),
                                 [&](const Database::TriggerDef& t) {
                                   return EqualsIgnoreCase(t.name, stmt.name);
                                 }),
                  trigs.end());
      if (trigs.size() == before) {
        return Status::NotFound("trigger '" + stmt.name + "' not found");
      }
      return ResultSet{};
    }
  }
  return Status::Internal("unknown drop kind");
}

// ---------------------------------------------------------------------------
// Planned SELECT

Result<ResultSet> Executor::RunPlannedSelect(const PlannedStatement& plan) {
  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan.cte_slot_count));
  ExecContext ctx = MakeContext(&cte_store);
  return ExecutePlannedSelect(*plan.select, ctx);
}

// ---------------------------------------------------------------------------
// Planned DML

Result<ResultSet> Executor::RunPlannedInsert(const PlannedStatement& plan) {
  const PlannedInsert& ins = plan.insert;
  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan.cte_slot_count));
  ExecContext ctx = MakeContext(&cte_store);

  // An identity column map (every column, in table order — as every
  // engine-issued staging and copy INSERT writes) coerces in place.
  const size_t arity = ins.table->schema().column_count();
  bool identity = ins.column_map.size() == arity;
  for (size_t i = 0; identity && i < arity; ++i) {
    identity = ins.column_map[i] == static_cast<int>(i);
  }
  auto build_row = [&](Row&& values) -> Result<Row> {
    if (values.size() != ins.column_map.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    if (identity) {
      for (size_t i = 0; i < arity; ++i) {
        XUPD_ASSIGN_OR_RETURN(
            values[i], CoerceValue(std::move(values[i]), ins.column_types[i]));
      }
      return std::move(values);
    }
    Row row(arity, Value::Null());
    for (size_t i = 0; i < values.size(); ++i) {
      XUPD_ASSIGN_OR_RETURN(
          row[static_cast<size_t>(ins.column_map[i])],
          CoerceValue(std::move(values[i]), ins.column_types[i]));
    }
    return row;
  };

  if (ins.select != nullptr) {
    XUPD_ASSIGN_OR_RETURN(ResultSet result,
                          ExecutePlannedSelect(*ins.select, ctx));
    ins.table->Reserve(result.rows.size());
    for (Row& row : result.rows) {
      XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
      XUPD_ASSIGN_OR_RETURN(Row built, build_row(std::move(row)));
      XUPD_ASSIGN_OR_RETURN(size_t rowid, ins.table->Insert(std::move(built)));
      (void)rowid;
      ++db_->stats_.rows_inserted;
    }
    if (analyze_ != nullptr) analyze_->root.rows += result.rows.size();
    return ResultSet{};
  }

  // Evaluate and coerce every VALUES row before inserting any, so a bad row
  // leaves the table untouched (multi-row INSERT is atomic).
  std::vector<const Value*> no_slots;
  std::vector<Row> built_rows;
  built_rows.reserve(ins.rows.size());
  for (const auto& exprs : ins.rows) {
    std::vector<Value> values;
    values.reserve(exprs.size());
    for (const BoundExpr& e : exprs) {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(e, no_slots, ctx));
      values.push_back(std::move(v));
    }
    XUPD_ASSIGN_OR_RETURN(Row built, build_row(std::move(values)));
    built_rows.push_back(std::move(built));
  }
  ins.table->Reserve(built_rows.size());
  for (Row& row : built_rows) {
    XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
    XUPD_ASSIGN_OR_RETURN(size_t rowid, ins.table->Insert(std::move(row)));
    (void)rowid;
    ++db_->stats_.rows_inserted;
  }
  if (ins.rows.size() > 1) db_->stats_.batched_rows += ins.rows.size();
  if (analyze_ != nullptr) analyze_->root.rows += built_rows.size();
  return ResultSet{};
}

MutationScratch& Executor::ScratchAtDepth() {
  const size_t depth = static_cast<size_t>(trigger_depth_);
  while (scratch_.size() <= depth) {
    scratch_.push_back(std::make_unique<MutationScratch>());
  }
  return *scratch_[depth];
}

Result<ResultSet> Executor::RunPlannedDelete(const PlannedStatement& plan) {
  const PlannedMutation& m = plan.mutation;
  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan.cte_slot_count));
  ExecContext ctx = MakeContext(&cte_store);
  MutationScratch& scratch = ScratchAtDepth();
  XUPD_RETURN_IF_ERROR(CollectMatchingRowids(m, ctx, &scratch));

  // The mutation loop ticks like an operator pull: growth the mutations
  // themselves cause (WAL pending bytes, undo chunks) must hit a poll
  // point before the statement completes.
  for (size_t rowid : scratch.rowids) {
    XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
    XUPD_RETURN_IF_ERROR(m.table->Delete(rowid));
    ++db_->stats_.rows_deleted;
  }
  XUPD_RETURN_IF_ERROR(FireDeleteTriggers(m.table, scratch.rowids));
  return ResultSet{};
}

Result<ResultSet> Executor::RunPlannedUpdate(const PlannedStatement& plan) {
  const PlannedMutation& m = plan.mutation;
  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan.cte_slot_count));
  ExecContext ctx = MakeContext(&cte_store);
  MutationScratch& scratch = ScratchAtDepth();
  XUPD_RETURN_IF_ERROR(CollectMatchingRowids(m, ctx, &scratch));

  std::vector<const Value*>& slots = scratch.slots;
  std::vector<std::pair<int, Value>> new_values;
  new_values.reserve(m.sets.size());
  for (size_t rowid : scratch.rowids) {
    XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
    // Every SET expression reads the pre-update row in place: all are
    // evaluated before the first SetColumn writes it.
    slots[0] = m.table->row(rowid);
    new_values.clear();
    for (const PlannedMutation::Set& set : m.sets) {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(set.expr, slots, ctx));
      XUPD_ASSIGN_OR_RETURN(Value coerced, CoerceValue(std::move(v), set.type));
      new_values.emplace_back(set.col, std::move(coerced));
    }
    for (auto& [col, value] : new_values) {
      XUPD_RETURN_IF_ERROR(m.table->SetColumn(rowid, col, std::move(value)));
    }
    ++db_->stats_.rows_updated;
  }
  return ResultSet{};
}

// ---------------------------------------------------------------------------
// Triggers

Status Executor::FireDeleteTriggers(const Table* table,
                                    const std::vector<size_t>& rowids) {
  if (rowids.empty()) return Status::OK();
  if (trigger_depth_ > 100) {
    return Status::Internal("trigger recursion limit exceeded");
  }
  // Resolved once per catalog version; a table without triggers (a leaf
  // relation) skips the cascade entirely.
  const std::vector<const Database::TriggerDef*>& defs =
      db_->TriggersOn(table);
  if (defs.empty()) return Status::OK();
  // A trigger cascade is the statement's side effect, not part of its plan:
  // suspend any EXPLAIN ANALYZE sink for the body statements, and at the
  // cascade root charge the whole cascade to the Database's trigger-time
  // counter (engine/store.cc spans read it to decompose operation cost).
  struct CascadeScope {
    Executor* e;
    AnalyzeStats* saved_analyze;
    const void* saved_select;
    uint64_t t0 = 0;
    bool root;
    explicit CascadeScope(Executor* ex)
        : e(ex),
          saved_analyze(ex->analyze_),
          saved_select(ex->analyze_select_),
          root(ex->trigger_depth_ == 0) {
      e->analyze_ = nullptr;
      e->analyze_select_ = nullptr;
      ++e->trigger_depth_;
      if (root) t0 = MonotonicNanos();
    }
    ~CascadeScope() {
      --e->trigger_depth_;
      e->analyze_ = saved_analyze;
      e->analyze_select_ = saved_select;
      if (root) e->db_->AddTriggerNs(MonotonicNanos() - t0);
    }
  } cascade_scope(this);
  // One firing: the body statements in order, each on its handle's plan
  // slot, with slot `old_rowid` of `old_table` (null for statement
  // triggers) as OLD.
  auto fire = [&](const Database::TriggerDef& def, const Table* old_table,
                  size_t old_rowid) -> Status {
    ++db_->stats_.trigger_firings;
    const Table* saved_table = trigger_old_table_;
    const size_t saved_rowid = trigger_old_rowid_;
    const TableSchema* saved_schema = trigger_old_schema_;
    trigger_old_table_ = old_table;
    trigger_old_rowid_ = old_rowid;
    trigger_old_schema_ = old_table != nullptr ? &table->schema() : nullptr;
    Status status;
    for (const StatementHandle& body_stmt : def.body) {
      ++db_->stats_.trigger_statements;
      auto r = Run(body_stmt->stmt, &body_stmt->plan_slot);
      if (!r.ok()) {
        status = r.status();
        break;
      }
    }
    trigger_old_table_ = saved_table;
    trigger_old_rowid_ = saved_rowid;
    trigger_old_schema_ = saved_schema;
    return status;
  };
  for (const Database::TriggerDef* def : defs) {
    if (def->granularity != sql::TriggerGranularity::kRow) {
      XUPD_RETURN_IF_ERROR(fire(*def, nullptr, 0));
      continue;
    }
    for (size_t rowid : rowids) {
      XUPD_RETURN_IF_ERROR(fire(*def, table, rowid));
    }
  }
  return Status::OK();
}

}  // namespace xupd::rdb
