// Execution statistics — the observable cost model of the engine. Tests and
// benches assert on these (e.g. tuple-based insert issues O(#tuples)
// statements; per-statement triggers scan whole child relations).
//
// Fields are declared once, in the XUPD_RDB_STATS_FIELDS X-macro: each
// X(field, label) entry generates the counter itself, its Delta() line, its
// ToString() key and its ForEachField() visit, so a new counter cannot be
// half-wired (the old hand-written Delta/ToString silently dropped fields
// that were added in only one place).
#ifndef XUPD_RDB_STATS_H_
#define XUPD_RDB_STATS_H_

#include <cstdint>
#include <string>

namespace xupd::rdb {

// One writer per counter: every field is a plain integer that one thread
// writes. The writer thread writes Database's Stats and each reader session
// writes its own, so a bump is a plain add. Two counts have more than one
// writing thread and so are not kept here: wal_fsyncs, which the kBatched
// flusher adds to, is the wal.fsync histogram's count (Database::stats()
// fills it in), and a table's scans / rows_read, which reader sessions add
// to, are atomics in TableAccessStats (rdb/table.h).

// X(field, label): `field` is the struct member, `label` the short key used
// by ToString() — bench logs and tests grep these, keep them stable.
#define XUPD_RDB_STATS_FIELDS(X)                                             \
  /* SQL statements issued through Database::ExecuteQuery (by text or by     \
     handle) / ExecuteQueryBound (each pays the simulated round-trip         \
     latency once), or through a reader session's entry points. */           \
  X(statements, "stmts")                                                     \
  /* Full ParseSql invocations: every ExecuteQuery-by-text call plus every   \
     prepared-cache miss. Statement reuse shows up as this counter growing   \
     slower than `statements`. */                                            \
  X(sql_parses, "parses")                                                    \
  /* Prepared-statement cache hits: Prepare (or ExecuteQueryBound, on the    \
     writer or a reader session) found the SQL text already parsed and       \
     skipped ParseSql entirely. */                                           \
  X(prepared_hits, "prep_hits")                                              \
  /* Prepared-statement cache misses: Prepare had to parse. misses == the    \
     number of distinct statement shapes seen (modulo LRU eviction and DDL   \
     invalidation). */                                                       \
  X(prepared_misses, "prep_miss")                                            \
  /* Rows inserted through multi-row INSERT ... VALUES (...), (...) ...      \
     statements (only statements carrying more than one row count). The     \
     batched bulk-load path drives this. */                                  \
  X(batched_rows, "batched")                                                 \
  /* Plans built by the logical planner: every ExecuteQuery-by-text call     \
     of a plannable statement, every plan-cache miss, and every EXPLAIN. */  \
  X(plans_built, "plans")                                                    \
  /* Cached-plan reuses: a handle execution (ExecuteQuery by handle,         \
     ExecuteQueryBound, or a trigger body re-firing) found its plan slot     \
     still valid (PlanCacheSlot::Valid) and skipped name resolution +        \
     access-path selection entirely. */                                      \
  X(plan_cache_hits, "plan_hits")                                            \
  /* Statements executed inside trigger bodies. */                           \
  X(trigger_statements, "trig_stmts")                                        \
  /* Trigger firings (row triggers: per row; stmt triggers: per stmt). */    \
  X(trigger_firings, "trig_fires")                                           \
  /* Rows visited by table scans. */                                         \
  X(rows_scanned, "scanned")                                                 \
  /* Index probes (hash lookups). */                                         \
  X(index_probes, "probes")                                                  \
  X(rows_inserted, "ins")                                                    \
  X(rows_deleted, "del")                                                     \
  X(rows_updated, "upd")                                                     \
  /* Transaction scopes opened (nested Begin = savepoint counts too, and so  \
     does the implicit scope of each autocommit DML statement). */           \
  X(txn_begins, "txn_begin")                                                 \
  /* Scopes committed (outermost commit makes the changes durable). */       \
  X(txn_commits, "txn_commit")                                               \
  /* Scopes rolled back (each undoes that scope's records LIFO). */          \
  X(txn_rollbacks, "txn_rollback")                                           \
  /* Undo records logged (one per row insert/delete/column update made       \
     inside a transaction or the implicit scope of an autocommit DML         \
     statement) — the txn write-amplification signal. */                     \
  X(undo_records, "undo")                                                    \
  /* Redo records written to the WAL file (data records, DDL records and     \
     commit markers) — the durability write-amplification signal. Pending    \
     records of rolled-back scopes never count. */                           \
  X(wal_appends, "wal_appends")                                              \
  /* Bytes written to the WAL file (frames + commit markers; excludes the    \
     file header). */                                                        \
  X(wal_bytes, "wal_bytes")                                                  \
  /* fsync calls issued by the WAL (per commit unit in `commit` mode, by     \
     the background flusher every group_commit_window_us microseconds in     \
     `batched`, zero in `none`). Database::stats() reads it from the         \
     wal.fsync histogram's count, which the flusher also records. */         \
  X(wal_fsyncs, "wal_fsyncs")                                                \
  /* Snapshot checkpoints taken. Checkpoint() truncates the WAL;             \
     CheckpointBackground() never does (its snapshot records the WAL         \
     offset it covers, and the WAL keeps growing). */                        \
  X(checkpoints, "checkpoints")                                              \
  /* Redo records replayed from the WAL by the last Database::Open. */       \
  X(recovery_replayed, "replayed")                                           \
  /* VerifyIntegrity runs (SQL CHECK INTEGRITY counts too). */               \
  X(integrity_checks, "scrubs")                                              \
  /* TryHeal attempts (each re-opens the data dir; successful or not). */    \
  X(heal_attempts, "heals")                                                  \
  /* Statements captured by the slow-statement log (threshold exceeded). */  \
  X(slow_statements, "slow")                                                 \
  /* EXPLAIN ANALYZE executions (the wrapped statement runs for real). */    \
  X(explain_analyzes, "analyzed")

struct Stats {
#define XUPD_RDB_STATS_DECLARE(field, label) uint64_t field = 0;
  XUPD_RDB_STATS_FIELDS(XUPD_RDB_STATS_DECLARE)
#undef XUPD_RDB_STATS_DECLARE

  Stats Delta(const Stats& earlier) const {
    Stats d;
#define XUPD_RDB_STATS_DELTA(field, label) d.field = field - earlier.field;
    XUPD_RDB_STATS_FIELDS(XUPD_RDB_STATS_DELTA)
#undef XUPD_RDB_STATS_DELTA
    return d;
  }

  std::string ToString() const {
    std::string out;
#define XUPD_RDB_STATS_TOSTRING(field, label) \
  if (!out.empty()) out += ' ';               \
  out += label "=";                           \
  out += std::to_string(field);
    XUPD_RDB_STATS_FIELDS(XUPD_RDB_STATS_TOSTRING)
#undef XUPD_RDB_STATS_TOSTRING
    return out;
  }

  /// Visits every counter as fn(field_name, value) in declaration order —
  /// SHOW METRICS enumerates the full cost model through this.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define XUPD_RDB_STATS_VISIT(field, label) fn(#field, field);
    XUPD_RDB_STATS_FIELDS(XUPD_RDB_STATS_VISIT)
#undef XUPD_RDB_STATS_VISIT
  }
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_STATS_H_
