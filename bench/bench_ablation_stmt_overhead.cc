// Ablation: per-SQL-statement overhead. Quantifies why the tuple-based
// insert (one INSERT per tuple) loses to the table-based insert (one
// INSERT...SELECT per relation) as subtrees grow — §6 "issuing multiple
// separate SQL statements incurs overhead" — and how much of that overhead
// the prepared-statement cache and multi-row batching recover:
//
//   parse-per-call    one literal INSERT per row, parsed + planned each call
//   cached-prepared   one INSERT per row, ? params, parsed + planned once
//                     (LRU statement cache; the plan rides on the handle)
//   batched-insert    multi-row prepared INSERTs of `batch` rows
//   insert-select     set-oriented INSERT ... SELECT (one statement)
//   direct-bulk-api   no SQL at all (floor)
//
// Each mode runs at statement latency 0 and at --latency_us (default 20) to
// separate the parse cost from the round-trip cost, and emits one JSON row
// per (mode, latency) combination.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "harness.h"
#include "rdb/database.h"

using namespace xupd;

namespace {

struct ModeResult {
  double seconds = 0;
  rdb::Stats stats;
  /// Per-INSERT-statement latency percentiles (the stmt.insert histogram the
  /// Database records always-on), scoped to the timed body.
  bench::LatencySummary stmt;
};

ModeResult RunMode(int n, double latency_us,
                   const std::function<void(rdb::Database&)>& body,
                   const std::function<void(rdb::Database&)>& setup = {}) {
  rdb::Database db;
  Status s =
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, payload VARCHAR)").status();
  if (!s.ok()) std::abort();
  if (setup) setup(db);  // untimed, latency off: staging is not the workload
  db.set_statement_latency_us(latency_us);
  rdb::Stats before = db.stats();
  db.metrics().GetHistogram("stmt.insert")->Reset();
  Stopwatch sw;
  body(db);
  ModeResult out;
  out.seconds = sw.ElapsedSeconds();
  out.stats = db.stats().Delta(before);
  out.stmt = bench::Summarize(*db.metrics().GetHistogram("stmt.insert"));
  auto count = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  if (!count.ok() || count->rows[0][0].AsInt() != n) {
    std::fprintf(stderr, "row count mismatch\n");
    std::abort();
  }
  return out;
}

void Report(const char* mode, int n, double latency_us, const ModeResult& r) {
  double us_per_row = n > 0 ? 1e6 * r.seconds / n : 0;
  std::printf("%-18s lat=%4.0fus %10.6f sec (%8.2f us/row)\n", mode,
              latency_us, r.seconds, us_per_row);
  std::printf(
      "{\"bench\":\"ablation_stmt_overhead\",\"mode\":\"%s\",\"rows\":%d,"
      "\"latency_us\":%.1f,\"seconds\":%.6f,\"us_per_row\":%.3f,"
      "\"stmt_p50_us\":%.3f,\"stmt_p99_us\":%.3f,\"stmt_count\":%llu,"
      "\"statements\":%llu,\"sql_parses\":%llu,\"prepared_hits\":%llu,"
      "\"prepared_misses\":%llu,\"batched_rows\":%llu,"
      "\"plans_built\":%llu,\"plan_cache_hits\":%llu,%s\n",
      mode, n, latency_us, r.seconds, us_per_row,
      r.stmt.p50_us, r.stmt.p99_us,
      static_cast<unsigned long long>(r.stmt.count),
      static_cast<unsigned long long>(r.stats.statements),
      static_cast<unsigned long long>(r.stats.sql_parses),
      static_cast<unsigned long long>(r.stats.prepared_hits),
      static_cast<unsigned long long>(r.stats.prepared_misses),
      static_cast<unsigned long long>(r.stats.batched_rows),
      static_cast<unsigned long long>(r.stats.plans_built),
      static_cast<unsigned long long>(r.stats.plan_cache_hits),
      bench::JsonTail().c_str());
}

std::string Payload(int i) { return "payload-" + std::to_string(i); }

}  // namespace

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 20000;
  double max_latency = argc > 2 ? std::atof(argv[2]) : 20.0;
  int batch = argc > 3 ? std::atoi(argv[3]) : 64;
  if (batch < 1) batch = 1;
  std::printf("# Ablation: per-statement overhead (%d rows, batch=%d)\n", n,
              batch);

  std::vector<double> latencies = {0.0};
  if (max_latency > 0) latencies.push_back(max_latency);
  for (double latency_us : latencies) {
    ModeResult parse_per_call = RunMode(n, latency_us, [&](rdb::Database& db) {
      for (int i = 0; i < n; ++i) {
        Status s = db.ExecuteQuery("INSERT INTO t VALUES (" +
                                   std::to_string(i) + ", '" + Payload(i) +
                                   "')")
                       .status();
        if (!s.ok()) std::abort();
      }
    });
    Report("parse-per-call", n, latency_us, parse_per_call);

    ModeResult cached_prepared = RunMode(n, latency_us, [&](rdb::Database& db) {
      for (int i = 0; i < n; ++i) {
        Status s = db.ExecuteQueryBound(
            "INSERT INTO t VALUES (?, ?)",
            {rdb::Value::Int(i), rdb::Value::Str(Payload(i))}).status();
        if (!s.ok()) std::abort();
      }
    });
    Report("cached-prepared", n, latency_us, cached_prepared);

    // cached-prepared with every governance surface armed (deadline, memory
    // budgets) at bounds generous enough to never trip: isolates the cost
    // of the per-pull tick and the statement admission gate. CI holds this
    // row to the same 1.5x budget as cached-prepared itself.
    ModeResult governed = RunMode(
        n, latency_us,
        [&](rdb::Database& db) {
          for (int i = 0; i < n; ++i) {
            Status s = db.ExecuteQueryBound(
                "INSERT INTO t VALUES (?, ?)",
                {rdb::Value::Int(i), rdb::Value::Str(Payload(i))}).status();
            if (!s.ok()) std::abort();
          }
        },
        [&](rdb::Database& db) {
          db.set_statement_timeout_us(60'000'000);
          db.memory_accountant().set_soft_budget(uint64_t{1} << 40);
          db.memory_accountant().set_hard_budget(uint64_t{1} << 40);
        });
    Report("governance-on", n, latency_us, governed);

    ModeResult batched = RunMode(n, latency_us, [&](rdb::Database& db) {
      for (int start = 0; start < n; start += batch) {
        int rows = std::min(batch, n - start);
        std::vector<rdb::Value> params;
        params.reserve(static_cast<size_t>(rows) * 2);
        for (int i = start; i < start + rows; ++i) {
          params.push_back(rdb::Value::Int(i));
          params.push_back(rdb::Value::Str(Payload(i)));
        }
        Status s =
            db.ExecuteQueryBound(
                  rdb::MultiRowInsertSql("t", 2, static_cast<size_t>(rows)),
                  params)
                .status();
        if (!s.ok()) std::abort();
      }
    });
    Report("batched-insert", n, latency_us, batched);

    ModeResult insert_select = RunMode(
        n, latency_us,
        [&](rdb::Database& db) {
          Status s =
              db.ExecuteQuery("INSERT INTO t SELECT id, payload FROM src")
                  .status();
          if (!s.ok()) std::abort();
        },
        [&](rdb::Database& db) {  // untimed staging via the direct API
          Status s =
              db.ExecuteQuery("CREATE TABLE src (id INTEGER, payload VARCHAR)")
                  .status();
          if (!s.ok()) std::abort();
          rdb::Table* src = db.FindTable("src");
          for (int i = 0; i < n; ++i) {
            (void)db.InsertDirect(
                src, {rdb::Value::Int(i), rdb::Value::Str(Payload(i))});
          }
        });
    Report("insert-select", n, latency_us, insert_select);

    ModeResult direct = RunMode(n, latency_us, [&](rdb::Database& db) {
      rdb::Table* t = db.FindTable("t");
      for (int i = 0; i < n; ++i) {
        (void)db.InsertDirect(t,
                              {rdb::Value::Int(i), rdb::Value::Str(Payload(i))});
      }
    });
    Report("direct-bulk-api", n, latency_us, direct);
  }
  return 0;
}
