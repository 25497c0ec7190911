// Physical operators: pull-based (Volcano-style) iterator nodes over a
// PlannedCore. The join pipeline streams row pointers through a shared slot
// array — one slot per relation — instead of materializing the joined
// cross-product, and every predicate evaluates over plan-time-resolved
// ordinals. Nodes are built fresh per execution (they are tiny); the plan
// itself stays immutable and shareable.
#ifndef XUPD_RDB_EXEC_NODE_H_
#define XUPD_RDB_EXEC_NODE_H_

#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "rdb/epoch.h"
#include "rdb/governance.h"
#include "rdb/planner.h"
#include "rdb/result.h"
#include "rdb/stats.h"

namespace xupd::rdb {

class Database;

/// The non-NULL first-column values an IN-subquery produced.
/// Value::operator== is not transitive across types ('07' == 7 and
/// 7 == '7', but '07' != '7'), so a set keyed by it would keep whichever of
/// two mixed-type values came first and answer membership by row order.
/// This one keeps every value that differs from the others in type or
/// content, and Contains tests == against each value in the probe's hash
/// bucket: SQL `=` to any produced value. Value::Hash coerces integer-like
/// strings, so every value == the probe shares its bucket.
class SubqueryValues {
 public:
  void Insert(const Value& v) { set_.insert(v); }
  bool Contains(const Value& v) const {
    if (set_.empty()) return false;
    const size_t b = set_.bucket(v);
    for (auto it = set_.begin(b); it != set_.end(b); ++it) {
      if (*it == v) return true;
    }
    return false;
  }
  auto begin() const { return set_.begin(); }
  auto end() const { return set_.end(); }

 private:
  struct SameTypeEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.type() == b.type() && a == b;
    }
  };
  std::unordered_set<Value, ValueHash, SameTypeEq> set_;
};

/// Per-statement execution context threaded through every operator.
struct ExecContext {
  /// Memoized IN-subquery result sets, keyed by planned-subquery identity.
  /// Owned by the Executor so the memo spans a whole top-level statement
  /// (including its trigger cascade), matching the seed interpreter: every
  /// firing of a cascade sees the set its first evaluation built, which is
  /// why trigger bodies never plan the index semi-join. A semi-join
  /// conjunct (BoundExpr::semi_join_index) builds no set; a nested IN
  /// inside its subquery still uses this memo.
  using SubqueryMemo =
      std::map<const PlannedSelect*, std::unique_ptr<SubqueryValues>>;

  Database* db = nullptr;
  /// Event-count sink for this execution: the Database's Stats on the
  /// writer thread, the session's own Stats on a ReaderSession. Each Stats
  /// has one writing thread, so every count is a plain add.
  Stats* stats = nullptr;
  /// MVCC read epoch. kLatestEpoch (writer thread) scans the live in-memory
  /// state via the liveness bitmap; a pinned epoch (reader sessions) routes
  /// every table scan through Table::SnapshotReadRow for a consistent
  /// point-in-time view.
  uint64_t read_epoch = kLatestEpoch;
  /// Values bound to ? placeholders (null = none bound).
  const std::vector<Value>* params = nullptr;
  /// Trigger OLD row: slot `old_rowid` of `old_table` (null outside a
  /// row-trigger body). The deleted row's tombstoned slot keeps its cells,
  /// so OLD.col reads the slab in place on each access; a body that grows
  /// the same table's slab cannot leave it dangling.
  const Table* old_table = nullptr;
  size_t old_rowid = 0;
  /// Materialized CTE values for the executing planned statement, indexed
  /// by plan slot. Sized from PlannedStatement::cte_slot_count.
  std::vector<std::unique_ptr<ResultSet>>* cte_values = nullptr;
  SubqueryMemo* subquery_memo = nullptr;
  /// EXPLAIN ANALYZE sink (null in normal execution — the hot path pays one
  /// pointer test). Filled by the pipeline for the select identified by
  /// `analyze_select`, and by CollectMatchingRowids for mutations.
  AnalyzeStats* analyze = nullptr;
  /// Identity of the root PlannedSelect being analyzed; CTE bodies and
  /// IN-subqueries execute other PlannedSelects and stay uninstrumented.
  const void* analyze_select = nullptr;

  // --- Resource governance (see rdb/governance.h) -------------------------
  /// Absolute statement deadline (MonotonicNanos instant); 0 = none.
  uint64_t deadline_ns = 0;
  /// External cancel flag (a CancelToken's state); null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Memory budgets polled alongside the deadline; null = unaccounted.
  MemoryAccountant* mem = nullptr;
  /// Test hook: counts down once per operator pull; reaching zero injects a
  /// kCancelled failure at exactly that pull (null in production). Only
  /// the writer thread's statements arm it.
  int64_t* cancel_at_pull = nullptr;
  /// Amortization counter for TickGovernance (per-statement, not shared).
  uint32_t governance_tick = 0;

  /// Every pull loop calls this; every kGovernanceCheckInterval-th pull (or
  /// every pull while the injection hook is armed) runs the full poll:
  /// deadline, cancel flag, hard memory budget, WAL pending watermark.
  static constexpr uint32_t kGovernanceCheckInterval = 64;
  Status TickGovernance() {
    if (cancel_at_pull != nullptr && (*cancel_at_pull)-- <= 1) {
      return Status::Cancelled("cancellation injected at operator pull");
    }
    if ((++governance_tick & (kGovernanceCheckInterval - 1)) != 0) {
      return Status::OK();
    }
    return PollGovernance();
  }
  /// The unamortized check (also called per statement by the executor).
  Status PollGovernance() const;
};

/// Pull-based operator: Open resets state, Next advances to the next tuple
/// (writing row pointers into the shared slot array) and reports whether one
/// is available.
class ExecNode {
 public:
  virtual ~ExecNode() = default;
  virtual Status Open(ExecContext& ctx) = 0;
  virtual Result<bool> Next(ExecContext& ctx) = 0;
};

/// Evaluates a bound expression against the current tuple. `slots` holds
/// one pointer per relation to the current row's first column — rows are
/// contiguous Value slots in the table slab (empty for row-free
/// expressions).
Result<Value> EvalBound(const BoundExpr& expr,
                        const std::vector<const Value*>& slots,
                        ExecContext& ctx);
/// Boolean evaluation with SQL three-valued logic collapsed to true /
/// not-true (NULL counts as not-true).
Result<bool> EvalBoolBound(const BoundExpr& expr,
                           const std::vector<const Value*>& slots,
                           ExecContext& ctx);

/// Coerces `v` to a column type (INTEGER parse or textual rendering).
Result<Value> CoerceValue(Value v, ColumnType type);

/// Builds the iterator tree for one core; current-tuple pointers stream
/// through `slots` (must be sized to the relation count and outlive the
/// tree). With `core_stats` (EXPLAIN ANALYZE), each access step is wrapped
/// in a timing node filling core_stats->rels. Exposed for tests; most
/// callers want ExecutePlannedSelect.
std::unique_ptr<ExecNode> BuildCorePipeline(
    const PlannedCore& core, std::vector<const Value*>* slots,
    AnalyzeStats::Core* core_stats = nullptr);

/// Runs a planned SELECT to completion: materializes CTEs into their
/// context slots, streams each core through its pipeline (project or
/// aggregate), concatenates UNION ALL cores, and applies ORDER BY.
Result<ResultSet> ExecutePlannedSelect(const PlannedSelect& plan,
                                       ExecContext& ctx);

/// Evaluates (and memoizes) the set of first-column values a planned
/// IN-subquery produces. Every IN-subquery goes through it except a
/// semi-join conjunct, which probes its subquery's index per candidate
/// instead (BoundExpr::semi_join_index).
Result<const SubqueryValues*> SubquerySet(
    const PlannedSelect& sub, ExecContext& ctx);

/// Caller-owned buffers of one DELETE/UPDATE gather. A trigger cascade
/// keeps one per depth, so a per-tuple firing reuses grown storage instead
/// of allocating.
struct MutationScratch {
  std::vector<size_t> rowids;      ///< CollectMatchingRowids' result.
  std::vector<size_t> candidates;  ///< The gather's index-path rowids.
  std::vector<const Value*> slots = std::vector<const Value*>(1);
};

/// Fills scratch->rowids with the rowids of the mutation's target table
/// matching its access path + residual filters, in ascending rowid order
/// (the order DELETE/UPDATE apply their changes in). The rows are read by
/// the same row cursor as a SELECT's access step, and counted as it counts.
Status CollectMatchingRowids(const PlannedMutation& m, ExecContext& ctx,
                             MutationScratch* scratch);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_EXEC_NODE_H_
