// Governance smoke tool for CI: drive an overloaded workload into every
// resource-governance surface — soft-budget load shedding, hard-budget
// kills, statement deadlines, cooperative cancellation — and prove the
// database degrades CLEANLY: every rejection carries the right governed
// status code, nothing partial lands, the diagnostic statements (SHOW
// HEALTH / SHOW METRICS / CHECK INTEGRITY / SET) stay admitted throughout,
// and lifting the pressure restores full service with integrity intact.
// Exits nonzero on any violation, so a crash or a silently-admitted
// statement under pressure fails the build.
//
//   $ ./example_governance_smoke            (no arguments)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "rdb/database.h"
#include "rdb/governance.h"

using namespace xupd;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

int64_t Count(rdb::Database& db, const char* table) {
  auto rows = db.ExecuteQuery(std::string("SELECT COUNT(*) FROM ") + table);
  if (!rows.ok()) return -1;
  return rows->rows[0][0].AsInt();
}

}  // namespace

int main() {
  rdb::Database db;
  Check(db.ExecuteQuery("CREATE TABLE t (id INTEGER, payload VARCHAR)").ok(),
        "schema creation");

  // Warm load: the data every later phase must leave untouched.
  constexpr int kWarmRows = 5000;
  for (int i = 0; i < kWarmRows; ++i) {
    Status s = db.ExecuteQueryBound(
        "INSERT INTO t VALUES (?, ?)",
        {rdb::Value::Int(i), rdb::Value::Str("row-" + std::to_string(i))})
        .status();
    if (!s.ok()) {
      std::fprintf(stderr, "FAIL: warm load: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- Phase 1: soft-budget overload => every new statement sheds --------
  rdb::MemoryAccountant& mem = db.memory_accountant();
  mem.set_soft_budget(1);
  int shed = 0;
  for (int i = 0; i < 200; ++i) {
    Status s = db.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                    {rdb::Value::Int(kWarmRows + i),
                                     rdb::Value::Str("overload")}).status();
    if (s.ok()) {
      Check(false, "statement admitted while over the soft budget");
      break;
    }
    Check(s.code() == StatusCode::kResourceExhausted,
          "shed status is kResourceExhausted");
    ++shed;
  }
  Check(shed == 200, "all overload statements were shed");
  // Diagnostics stay admitted under pressure — this is how an operator
  // sees what is wrong and fixes it.
  Check(db.ExecuteQuery("SHOW HEALTH").ok(), "SHOW HEALTH under pressure");
  Check(db.ExecuteQuery("SHOW METRICS").ok(), "SHOW METRICS under pressure");
  Check(db.ExecuteQuery("CHECK INTEGRITY").ok(),
        "CHECK INTEGRITY under pressure");
  Check(db.ExecuteQuery("SET STATEMENT_TIMEOUT 0").ok(), "SET under pressure");
  Check(db.metrics().Counter("stmt.shed")->load(std::memory_order_relaxed) >=
            static_cast<uint64_t>(shed),
        "stmt.shed counter tracked the shed statements");
  mem.set_soft_budget(0);

  // --- Phase 2: statement-deadline storm --------------------------------
  db.set_statement_latency_us(5000);  // every statement "takes" 5ms...
  db.set_statement_timeout_us(100);   // ...against a 100us deadline
  for (int i = 0; i < 50; ++i) {
    Status s = db.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                    {rdb::Value::Int(kWarmRows + i),
                                     rdb::Value::Str("too-slow")}).status();
    Check(s.code() == StatusCode::kDeadlineExceeded,
          "overloaded statement returns kDeadlineExceeded");
  }
  db.set_statement_timeout_us(0);
  db.set_statement_latency_us(0);
  Check(db.metrics()
            .Counter("stmt.deadline_exceeded")
            ->load(std::memory_order_relaxed) >= 50,
        "stmt.deadline_exceeded counter tracked the kills");

  // --- Phase 3: cooperative cancellation --------------------------------
  // Latched cancel: everything is rejected until Reset().
  db.cancel_token().Cancel();
  Status cancelled = db.ExecuteQuery("INSERT INTO t VALUES (0, 'x')").status();
  Check(cancelled.code() == StatusCode::kCancelled,
        "cancelled statement returns kCancelled");
  Check(db.ExecuteQuery("SELECT COUNT(*) FROM t").status().code() ==
            StatusCode::kCancelled,
        "cancel latches until Reset");
  db.cancel_token().Reset();
  // Cross-thread cancel of a running statement: a long scan dies cleanly.
  {
    std::thread canceller([&db] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      db.cancel_token().Cancel();
    });
    Status s = Status::OK();
    // Re-run scans until the canceller lands mid-statement (or latches and
    // kills the next admission — either way the status must be governed).
    while (s.ok()) {
      s = db.ExecuteQuery("SELECT COUNT(*) FROM t WHERE id >= 0").status();
    }
    canceller.join();
    Check(s.code() == StatusCode::kCancelled,
          "cross-thread cancel returns kCancelled");
    db.cancel_token().Reset();
  }

  // --- Phase 4: hard budget => kResourceExhausted, nothing partial ------
  mem.set_hard_budget(1);
  Status hard =
      db.ExecuteQuery("INSERT INTO t VALUES (0, 'over-hard')").status();
  Check(hard.code() == StatusCode::kResourceExhausted,
        "hard-budget kill returns kResourceExhausted");
  mem.set_hard_budget(0);

  // --- Recovery: pressure lifted, full service restored -----------------
  Check(Count(db, "t") == kWarmRows,
        "no governed rejection leaked partial effects");
  for (int i = 0; i < 100; ++i) {
    Status s = db.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                    {rdb::Value::Int(kWarmRows + i),
                                     rdb::Value::Str("recovered")}).status();
    Check(s.ok(), "post-pressure insert admitted");
  }
  Check(Count(db, "t") == kWarmRows + 100, "post-pressure inserts landed");
  Check(db.VerifyIntegrity().empty(), "integrity scrub clean");

  if (failures != 0) {
    std::fprintf(stderr, "governance smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("governance smoke: all surfaces shed cleanly and recovered\n");
  return 0;
}
