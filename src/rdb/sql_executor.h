// SQL execution engine. One Executor instance runs one top-level statement
// (plus any trigger cascade it sets off).
//
// SELECT/INSERT/DELETE/UPDATE run through plan trees: the logical planner
// (rdb/planner.h) resolves names and chooses access paths once, the physical
// operators (rdb/exec_node.h) stream tuples through pull-based iterators.
// Plans are cached in the plan slot of the statement's handle (prepared
// statements and trigger-body statements alike; see PlanCacheSlot). DDL and
// transaction control execute directly; EXPLAIN plans without executing and
// returns the plan tree as rows.
#ifndef XUPD_RDB_SQL_EXECUTOR_H_
#define XUPD_RDB_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdb/database.h"
#include "rdb/exec_node.h"
#include "rdb/planner.h"
#include "rdb/result.h"
#include "rdb/sql_ast.h"

namespace xupd::rdb {

/// The EXPLAIN result shape: one "plan" column, one row per rendered line.
/// Writer EXPLAIN [ANALYZE] and reader-session EXPLAIN both return this.
ResultSet PlanRows(const std::string& rendered);

class Executor {
 public:
  /// `params` (optional) are the values bound to the statement's ?
  /// placeholders, positionally; they must outlive the Run call. `sql_text`
  /// (optional) is the statement's original text, used to persist DDL — the
  /// WAL logs DDL as its SQL, and CREATE TRIGGER keeps its text for
  /// snapshots; both must outlive the Run call.
  explicit Executor(Database* db, const std::vector<Value>* params = nullptr,
                    std::string_view sql_text = {})
      : db_(db), params_(params), sql_text_(sql_text) {}

  /// Executes any statement; SELECTs return their ResultSet, DML returns an
  /// empty set. `slot` (optional) caches the plan across calls — pass the
  /// slot of a prepared-statement handle; ad-hoc execution plans fresh.
  Result<ResultSet> Run(const sql::Statement& stmt,
                        PlanCacheSlot* slot = nullptr);

  /// Plan of the last GetPlan call, captured only while the Database's
  /// slow-statement log is enabled (so the log can render the plan without
  /// re-planning). Null otherwise.
  const PlannedStatement* last_plan() const { return last_plan_.get(); }

  /// Absolute MonotonicNanos deadline (0 = none) threaded into every
  /// ExecContext this statement (and its trigger cascade) creates.
  void set_deadline(uint64_t deadline_ns) { deadline_ns_ = deadline_ns; }

 private:
  Result<ResultSet> RunCreateTable(const sql::CreateTableStmt& stmt);
  Result<ResultSet> RunCreateIndex(const sql::CreateIndexStmt& stmt);
  Result<ResultSet> RunCreateTrigger(const sql::CreateTriggerStmt& stmt);
  Result<ResultSet> RunDrop(const sql::DropStmt& stmt);
  /// Invalidates caches and logs the text after a successful DDL statement.
  Result<ResultSet> FinishDdl(Result<ResultSet> result);
  Result<ResultSet> RunExplain(const sql::Statement& stmt,
                               PlanCacheSlot* slot, bool analyze);
  Result<ResultSet> RunShow(const sql::Statement& stmt);

  Result<ResultSet> RunPlanned(const PlannedStatement& plan);
  Result<ResultSet> RunPlannedSelect(const PlannedStatement& plan);
  Result<ResultSet> RunPlannedInsert(const PlannedStatement& plan);
  Result<ResultSet> RunPlannedDelete(const PlannedStatement& plan);
  Result<ResultSet> RunPlannedUpdate(const PlannedStatement& plan);

  /// Planner::PlanCached with this statement's trigger OLD-row schema,
  /// counted into the writer's stats; remembers the plan for the slow log.
  Result<std::shared_ptr<const PlannedStatement>> GetPlan(
      const sql::Statement& stmt, PlanCacheSlot* slot);

  /// Execution context for one planned statement: CTE store sized to the
  /// plan, subquery memo shared across the whole top-level statement.
  ExecContext MakeContext(std::vector<std::unique_ptr<ResultSet>>* cte_store);

  /// Fires AFTER DELETE triggers for `table` given the rowids just deleted
  /// from it: each row trigger once per rowid, in order, with OLD bound to
  /// the tombstoned slot.
  Status FireDeleteTriggers(const Table* table,
                            const std::vector<size_t>& rowids);

  /// The DELETE/UPDATE gather buffers of the current trigger depth. A
  /// nested body runs one depth further down, so the rowids an outer level
  /// is still firing for are never overwritten.
  MutationScratch& ScratchAtDepth();

  Database* db_;
  /// Parameter values for ? placeholders (null = none bound).
  const std::vector<Value>* params_ = nullptr;
  /// Original statement text of the top-level statement (empty when unknown;
  /// trigger-body statements never see their own text).
  std::string_view sql_text_;
  /// Memoized IN-subquery sets, keyed by planned-subquery identity; spans
  /// the statement and its trigger cascade (seed-interpreter semantics).
  ExecContext::SubqueryMemo subquery_memo_;
  /// OLD-row context while running trigger bodies: the deleted row's slot
  /// (null table for statement triggers) and the schema OLD.col plans
  /// against.
  const Table* trigger_old_table_ = nullptr;
  size_t trigger_old_rowid_ = 0;
  const TableSchema* trigger_old_schema_ = nullptr;
  int trigger_depth_ = 0;
  /// ScratchAtDepth's buffers, indexed by trigger depth; boxed so a deeper
  /// level's growth never moves a shallower level's buffers.
  std::vector<std::unique_ptr<MutationScratch>> scratch_;
  /// EXPLAIN ANALYZE sink + root-select identity while the analyzed
  /// statement runs (cleared for trigger bodies, which are the statement's
  /// side effects, not its plan).
  AnalyzeStats* analyze_ = nullptr;
  const void* analyze_select_ = nullptr;
  /// See set_deadline().
  uint64_t deadline_ns_ = 0;
  /// See last_plan().
  std::shared_ptr<const PlannedStatement> last_plan_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_SQL_EXECUTOR_H_
