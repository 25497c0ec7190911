// Logical planner: turns parsed SELECT/INSERT/DELETE/UPDATE statements into
// immutable plan trees. Planning resolves every column reference to a
// (relation ordinal, column ordinal) pair, chooses index access paths, and
// pushes WHERE conjuncts down to the earliest join step that can evaluate
// them — all ONCE per plan instead of once per row, which is what lets the
// physical operators (rdb/exec_node.h) run over pre-resolved ordinals.
//
// Plans capture raw Table* / HashIndex* pointers from the catalog snapshot
// they were built against; one guard protects every cached reuse. The
// global Database::catalog_version() is bumped by any SQL DDL (including
// CREATE INDEX / DROP INDEX — plans capture index choices) and by the
// catalog rebuild of Open/TryHeal, which are the only ways a table or index
// goes away. A stale plan is rebuilt, never dereferenced. The engine's
// scratch tables (§6.2.2 staging, the id list) are created once and only
// emptied afterwards, so they never invalidate a plan. Plans are immutable
// after construction and hold no execution state, so one cached plan can be
// executed reentrantly (e.g. a recursive trigger body).
#ifndef XUPD_RDB_PLANNER_H_
#define XUPD_RDB_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdb/sql_ast.h"
#include "rdb/stats.h"
#include "rdb/table.h"

namespace xupd::rdb {

class Database;
struct PlannedSelect;

/// A bound expression: sql::Expr with every column reference resolved to
/// ordinals (kColumn -> relation/column, kOldColumn -> trigger-schema column)
/// and IN-subqueries planned. `name` keeps the source identifier for EXPLAIN.
struct BoundExpr {
  sql::Expr::Kind kind = sql::Expr::Kind::kLiteral;
  Value literal;
  int param_index = 0;   ///< kParam: 0-based placeholder ordinal.
  size_t rel = 0;        ///< kColumn: relation ordinal within the plan.
  size_t col = 0;        ///< kColumn / kOldColumn / kAggregate argument.
  std::string name;      ///< source identifier (display only).
  sql::Expr::Op op = sql::Expr::Op::kNone;
  std::vector<BoundExpr> children;
  std::vector<BoundExpr> in_list;
  std::shared_ptr<const PlannedSelect> subquery;  ///< kInSubquery.
  /// kInSubquery tested as an index semi-join (null = the memoized set;
  /// see Planner::ChooseAccessPath): per candidate, a probe of this index
  /// of the subquery's one table over its selected column.
  const HashIndex* semi_join_index = nullptr;
  bool negated = false;
  sql::Expr::Agg agg = sql::Expr::Agg::kCount;
  bool count_star = false;
  /// Highest relation ordinal referenced by this subtree (-1 = none).
  /// Subqueries are independent (the dialect has no correlation) and do not
  /// contribute.
  int max_rel = -1;
};

/// One FROM entry, resolved: a catalog table or a materialized CTE slot.
struct PlannedRelation {
  std::string alias;
  std::string name;               ///< table / CTE name (display).
  const Table* table = nullptr;   ///< catalog table (null for a CTE).
  int cte_slot = -1;              ///< >= 0: slot in the execution's CTE store.
  std::vector<std::string> columns;  ///< column names, for * expansion.
};

/// How one relation is accessed: full scan, a hash-index probe driven by an
/// equality conjunct, an IN value list, or an IN (SELECT ...) set, or (an
/// inner join step with no index path) a probe of a hash table the step
/// builds over its join column once per execution. Beside an equality probe
/// (kIndexEq), a step's residual IN-subquery conjuncts may probe their
/// subquery's table per candidate instead of building its set
/// (BoundExpr::semi_join_index).
struct AccessPath {
  enum class Kind { kScan, kIndexEq, kIndexIn, kIndexInSubquery, kHashEq };
  Kind kind = Kind::kScan;
  const HashIndex* index = nullptr;
  std::string index_name;   ///< display only.
  std::string column_name;  ///< indexed / join column, display only.
  /// kHashEq: the join column of this step's relation (the build key).
  size_t column = 0;
  /// kIndexEq: probe value over strictly-earlier relations (or no columns).
  /// kHashEq: the probe value, which reads at least one earlier relation.
  BoundExpr probe;
  /// kIndexIn: the column-free IN-list values.
  std::vector<BoundExpr> probe_list;
  /// kIndexInSubquery: the planned set-producing subquery (shared with the
  /// bound conjunct, so the execution-time memo covers both uses).
  std::shared_ptr<const PlannedSelect> probe_subquery;
  /// Index demand (-1 = none): on a writer plan's step over a durable table
  /// that is not an equality probe, the column of its first other
  /// `col = <row-free value>` conjunct when no index serves that column.
  /// The step's row cursor adds the rows it examined to the table's
  /// Table::index_demand counter of this column.
  int demand_column = -1;
};

/// One planned SELECT core: a left-to-right nested-loop join pipeline with
/// per-step access paths and pushed-down filters, then project or aggregate.
struct PlannedCore {
  std::vector<PlannedRelation> relations;
  std::vector<AccessPath> paths;                ///< one per relation.
  std::vector<std::vector<BoundExpr>> filters;  ///< conjuncts per join step.
  std::vector<BoundExpr> const_filters;         ///< WHERE with no FROM.
  bool has_aggregate = false;
  /// Output expressions ('*' pre-expanded into kColumn refs at plan time;
  /// kAggregate items when has_aggregate).
  std::vector<BoundExpr> outputs;
  std::vector<std::string> out_columns;
};

/// A planned SELECT statement: CTEs (materialized into per-execution slots),
/// UNION ALL cores, and ORDER BY resolved to output ordinals.
struct PlannedSelect {
  struct Cte {
    std::string name;
    int slot = 0;
    std::shared_ptr<const PlannedSelect> query;
    std::vector<std::string> columns;
  };
  std::vector<Cte> ctes;
  std::vector<PlannedCore> cores;
  std::vector<std::pair<int, bool>> order_by;  ///< (output ordinal, desc).
  std::vector<std::string> out_columns;
};

/// A planned DELETE or UPDATE: single-table access path + residual filters.
struct PlannedMutation {
  Table* table = nullptr;
  /// The one-relation FROM list its expressions are bound against.
  PlannedRelation relation;
  AccessPath path;
  std::vector<BoundExpr> filters;  ///< conjuncts not consumed by the path.
  struct Set {
    int col = 0;
    ColumnType type = ColumnType::kVarchar;
    BoundExpr expr;
  };
  std::vector<Set> sets;  ///< UPDATE only.
};

/// A planned INSERT: resolved column map + bound VALUES rows or a planned
/// source SELECT.
struct PlannedInsert {
  Table* table = nullptr;
  std::string table_name;
  std::vector<int> column_map;            ///< statement position -> column.
  std::vector<ColumnType> column_types;   ///< per column_map entry.
  std::vector<std::vector<BoundExpr>> rows;
  std::shared_ptr<const PlannedSelect> select;
};

struct PlannedStatement {
  sql::Statement::Kind kind = sql::Statement::Kind::kSelect;
  std::shared_ptr<const PlannedSelect> select;
  PlannedMutation mutation;
  PlannedInsert insert;
  /// Total CTE slots across the statement (including nested subqueries);
  /// sizes the per-execution CTE store.
  int cte_slot_count = 0;
};

/// One cached plan. Every statement path owns its slots the same way: each
/// StatementHandle carries one — a writer prepared statement, a reader
/// session's cached text, a trigger-body statement. `version`/`db` guard
/// reuse against catalog changes and cross-database handle misuse.
struct PlanCacheSlot {
  std::shared_ptr<const PlannedStatement> plan;
  uint64_t version = 0;
  const void* db = nullptr;

  /// The one plan-validity check: the plan was built by `for_db` under
  /// `catalog_version`. Every change that can free a Table* or an index a
  /// plan captured (SQL DDL, the catalog rebuild of Open/TryHeal) bumps that
  /// version, so a valid plan never dereferences a dropped table.
  bool Valid(const void* for_db, uint64_t catalog_version) const {
    return plan != nullptr && db == for_db && version == catalog_version;
  }
};

class Planner {
 public:
  /// `old_schema` (optional) resolves OLD.column references — the schema of
  /// the table whose row trigger is being planned.
  Planner(Database* db, const TableSchema* old_schema)
      : db_(db), old_schema_(old_schema) {}

  /// Plans a SELECT/INSERT/DELETE/UPDATE statement. Other kinds are not
  /// plannable and return InvalidArgument.
  Result<std::shared_ptr<const PlannedStatement>> Plan(
      const sql::Statement& stmt);

  /// The plan-slot step of every statement path: returns `slot`'s plan when
  /// PlanCacheSlot::Valid, else plans `stmt` and caches the result in `slot`
  /// (null = plan without caching). Counts plan_cache_hits / plans_built
  /// into `stats`.
  Result<std::shared_ptr<const PlannedStatement>> PlanCached(
      const sql::Statement& stmt, PlanCacheSlot* slot, Stats* stats);

  /// Reader sessions plan with index probes disabled: hash indexes are
  /// writer-private (not epoch-versioned), so snapshot readers never probe
  /// one. Their equijoin steps take the kHashEq path instead and build a
  /// per-statement hash table from a snapshot scan.
  void set_allow_index_probes(bool allow) { allow_index_probes_ = allow; }
  /// Trigger-body statements keep every IN-subquery as a memoized set (see
  /// ChooseAccessPath).
  void set_trigger_body(bool trigger_body) { trigger_body_ = trigger_body; }

 private:
  struct CteScope {
    std::string name;
    int slot = 0;
    std::vector<std::string> columns;
  };

  Result<std::shared_ptr<const PlannedSelect>> PlanSelect(
      const sql::SelectStmt& stmt);
  Result<PlannedCore> PlanCore(const sql::SelectCore& core);
  /// Plans a DELETE (`sets` empty) or an UPDATE.
  Result<PlannedMutation> PlanMutation(
      const std::string& table, const std::optional<sql::Expr>& where,
      const std::vector<std::pair<std::string, sql::Expr>>& sets);
  Result<PlannedInsert> PlanInsert(const sql::InsertStmt& stmt);

  /// Resolves [alias.]column against `rels` (all of them; ambiguity and
  /// not-found reproduce the interpreter's messages).
  Result<std::pair<size_t, size_t>> ResolveColumn(
      const std::vector<PlannedRelation>& rels, const std::string& table,
      const std::string& column) const;

  /// Binds `e` against `rels`. `values_context` switches the no-columns
  /// error message (INSERT VALUES rows reject column references outright).
  Result<BoundExpr> Bind(const sql::Expr& e,
                         const std::vector<PlannedRelation>& rels,
                         bool values_context = false);

  /// Picks the access path for relation `k` from the conjuncts placed at
  /// step `k`. An index path comes first (see ChooseIndexPath); equality
  /// probes may reference strictly-earlier relations;
  /// IN-list and IN-subquery probes are row-free by construction (the
  /// dialect has no correlation) and are considered at EVERY join position
  /// — at inner steps the executor gathers their candidate set once per
  /// execution and replays it for each outer row. An inner step (k > 0)
  /// with no index path — a reader session, a CTE, an unindexed column, or
  /// probes disabled — takes kHashEq on its first `rel_k.col = expr`
  /// conjunct whose `expr` reads an earlier relation. A writer step over a
  /// durable table records its index demand (AccessPath::demand_column).
  /// Beside a kIndexEq path, outside a trigger body, each residual
  /// non-negated `x IN (SELECT col FROM t ...)` whose subquery is one core
  /// over one catalog table, selects an indexed column of it, and has no
  /// CTE, aggregate, UNION ALL or ORDER BY (the dialect has no DISTINCT or
  /// LIMIT) becomes an index semi-join: its semi_join_index is set. Every
  /// other IN-subquery keeps the memoized set — which a trigger body needs,
  /// since one set serves every firing of its cascade.
  /// Returns the index of the consumed conjunct in `conjuncts` (-1 = scan).
  int ChooseAccessPath(const std::vector<PlannedRelation>& rels, size_t k,
                       const std::vector<BoundExpr*>& conjuncts,
                       AccessPath* path) const;
  /// The index half of ChooseAccessPath (-1 = no index path): the first
  /// applicable conjunct, except that an equality on a row-free value wins
  /// over an earlier IN-list or IN-subquery path.
  int ChooseIndexPath(const Table& table, size_t k,
                      const std::vector<BoundExpr*>& conjuncts,
                      AccessPath* path) const;
  /// The kHashEq half of ChooseAccessPath (-1 = none).
  int ChooseHashPath(size_t k, const std::vector<BoundExpr*>& conjuncts,
                     AccessPath* path) const;

  Database* db_;
  const TableSchema* old_schema_;
  bool allow_index_probes_ = true;
  bool trigger_body_ = false;
  /// CTE scopes visible while planning (innermost last).
  std::vector<CteScope> cte_stack_;
  int next_cte_slot_ = 0;
};

/// Actual-execution counters for one plan operator, filled by EXPLAIN
/// ANALYZE (see exec_node.cc's TimedNode).
struct OpStats {
  uint64_t opens = 0;    ///< Open() calls — "loops" for a join inner side.
  uint64_t rows = 0;     ///< tuples emitted.
  uint64_t time_ns = 0;  ///< inclusive wall time spent in Open()/Next().
};

/// Per-operator actuals for one EXPLAIN ANALYZE execution, shaped like the
/// plan: one entry per (core, relation access step) plus a per-core total
/// (pipeline + project/aggregate) and the statement root.
struct AnalyzeStats {
  struct Core {
    OpStats total;              ///< the whole core, inclusive.
    std::vector<OpStats> rels;  ///< one per relation access step.
  };
  std::vector<Core> cores;  ///< top-level SELECT cores (or INSERT..SELECT).
  OpStats mutation;         ///< DELETE/UPDATE row-collection step.
  OpStats root;             ///< the whole statement (rows = result/affected).
};

/// Renders a plan tree, one node per line (the EXPLAIN output).
std::string PlanToString(const PlannedStatement& plan);

/// Renders the plan annotated with per-operator actuals plus a trailing
/// "Execution: ..." summary line (the EXPLAIN ANALYZE output).
std::string PlanToStringAnalyzed(const PlannedStatement& plan,
                                 const AnalyzeStats& stats);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_PLANNER_H_
