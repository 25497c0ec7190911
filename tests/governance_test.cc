// Resource-governance tests: statement deadlines, cooperative cancellation,
// memory budgets, and background-thread watchdogs.
//
// Tentpole acceptance: a statement killed by an expired deadline, a
// CancelToken, an injected cancellation at ANY operator pull, or an
// exceeded memory budget must return kDeadlineExceeded / kCancelled /
// kResourceExhausted with ALL partial effects rolled back — element
// tables, hash indexes, the ASR, and the WAL land exactly on the
// pre-operation state, proven by the every-k-th-pull cancellation matrix
// and the budget-exhaustion matrix over the paper's fig. 6/10 strategies
// (mirroring the fault-injection matrix of fault_injection_test.cc).
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/governance.h"
#include "rdb/txn.h"
#include "rdb/vfs.h"
#include "workload/synthetic.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;
using rdb::FaultVfs;
using rdb::MemoryAccountant;
using FaultKind = rdb::FaultVfs::FaultKind;

// ---------------------------------------------------------------------------
// Helpers (mirrors fault_injection_test.cc — each test binary is
// self-contained)

/// A scratch data directory, removed (with its contents) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_gov_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p == nullptr ? "/tmp/xupd_gov_fallback" : p;
  }
  ~TempDir() {
    DIR* d = ::opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Renders the full durable state of a database as one comparable string.
std::string DumpDurableState(const rdb::Database& db) {
  std::string out = "next_id=" + std::to_string(db.next_id()) + "\n";
  for (const std::string& name : db.TableNames()) {
    const rdb::Table* t = db.FindTable(name);
    if (t == nullptr || !t->durable()) continue;
    out += "table " + t->schema().name() + " (";
    for (const auto& c : t->schema().columns()) out += c.name + ",";
    out += ")\n";
    for (size_t rowid = 0; rowid < t->capacity(); ++rowid) {
      out += t->is_live(rowid) ? "  live " : "  dead ";
      for (const rdb::Value& v : t->row_span(rowid)) out += v.ToString() + "|";
      out += "\n";
    }
    for (const auto& index : t->indexes()) {
      out += "  index " + index->name() + " col " +
             std::to_string(index->column()) + " size " +
             std::to_string(index->size()) + "\n";
    }
  }
  return out;
}

/// The cancellation matrix checks EVERY pull, so a small doc suffices; the
/// budget/deadline tests only poll at every 64th pull and need enough rows
/// per statement for several polls to land after memory has grown, so they
/// pass a larger scaling factor.
workload::GeneratedDoc MakeDoc(int scaling_factor = 6) {
  workload::SyntheticSpec spec;
  spec.scaling_factor = scaling_factor;
  spec.depth = 3;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).value();
}

std::unique_ptr<RelationalStore> MakeStore(const workload::GeneratedDoc& gen,
                                           const std::string& dir,
                                           DeleteStrategy del,
                                           InsertStrategy ins) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kCommit;
  auto store = RelationalStore::Create(gen.dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  if (!store.value()->recovered()) {
    Status s = store.value()->Load(*gen.doc);
    EXPECT_TRUE(s.ok()) << s;
  }
  return std::move(store).value();
}

using EngineOp = std::function<Status(RelationalStore*)>;

struct EngineCase {
  const char* name;
  DeleteStrategy del;
  InsertStrategy ins;
  EngineOp op;
};

/// The paper's fig. 6 (bulk delete) and fig. 10 (bulk copy) operations
/// across every delete/insert translation strategy.
std::vector<EngineCase> EngineCases() {
  auto bulk_delete = [](RelationalStore* s) {
    return s->DeleteWhere("n2", "v2 > 500000");
  };
  auto bulk_copy = [](RelationalStore* s) {
    return s->CopySubtreesWhere("n2", "v2 < 300000", s->root_id());
  };
  return {
      {"fig6-delete-tuple-trigger", DeleteStrategy::kPerTupleTrigger,
       InsertStrategy::kTable, bulk_delete},
      {"fig6-delete-stmt-trigger", DeleteStrategy::kPerStatementTrigger,
       InsertStrategy::kTable, bulk_delete},
      {"fig6-delete-cascade", DeleteStrategy::kCascade, InsertStrategy::kTable,
       bulk_delete},
      {"fig6-delete-asr", DeleteStrategy::kAsr, InsertStrategy::kAsr,
       bulk_delete},
      {"fig10-copy-tuple", DeleteStrategy::kCascade, InsertStrategy::kTuple,
       bulk_copy},
      {"fig10-copy-table", DeleteStrategy::kCascade, InsertStrategy::kTable,
       bulk_copy},
      {"fig10-copy-asr", DeleteStrategy::kAsr, InsertStrategy::kAsr,
       bulk_copy},
  };
}

/// Asserts both scrub layers pass with governance hooks disarmed.
void ExpectScrubClean(RelationalStore* store) {
  rdb::Database* db = store->db();
  std::vector<std::string> rv = db->VerifyIntegrity();
  EXPECT_TRUE(rv.empty()) << rv[0];
  std::vector<std::string> ev = store->VerifyStore();
  EXPECT_TRUE(ev.empty()) << ev[0];
  auto scrub = db->ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(scrub.ok()) << scrub.status();
}

// ---------------------------------------------------------------------------
// Statement deadlines

TEST(StatementTimeoutTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  // The simulated per-statement latency dwarfs the timeout: SpinFor exits
  // early at the deadline and the admission check reports the expiry.
  db.set_statement_latency_us(50000);
  db.set_statement_timeout_us(100);
  Status s = db.ExecuteQuery("INSERT INTO t VALUES (1)").status();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  EXPECT_NE(s.message().find("deadline"), std::string::npos) << s;
  // Nothing landed.
  db.set_statement_timeout_us(0);
  db.set_statement_latency_us(0);
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 0);
  EXPECT_GE(db.metrics().Counter("stmt.deadline_exceeded")
                ->load(std::memory_order_relaxed),
            1u);
}

TEST(StatementTimeoutTest, MidExecutionExpiryRollsBackPartialEffects) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(db.Begin().ok());
  auto ins = db.Prepare("INSERT INTO t VALUES (?)");
  ASSERT_TRUE(ins.ok());
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(
        db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.Commit().ok());
  // A deadline short enough to expire inside the delete's pull loop but
  // long enough to pass admission (the absolute instant is checked at
  // every 64th pull; 50000 rows give hundreds of polls and comfortably
  // more than 250us of execution).
  db.set_statement_timeout_us(250);
  Status s = db.ExecuteQuery("DELETE FROM t WHERE id >= 0").status();
  db.set_statement_timeout_us(0);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  // The partial delete rolled back: every row is still there.
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 50000);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST(SetStatementTimeoutSqlTest, SetsClampsAndClears) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT 2500").ok());
  EXPECT_EQ(db.statement_timeout_us(), 2500);
  ASSERT_TRUE(db.ExecuteQuery("SET statement_timeout = 800").ok());
  EXPECT_EQ(db.statement_timeout_us(), 800);
  // Negative clamps to 0 (= disabled).
  ASSERT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT -5").ok());
  EXPECT_EQ(db.statement_timeout_us(), 0);
  ASSERT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT 0").ok());
  EXPECT_EQ(db.statement_timeout_us(), 0);
  Status unknown = db.ExecuteQuery("SET NO_SUCH_KNOB 1").status();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("STATEMENT_TIMEOUT"), std::string::npos)
      << unknown;
  EXPECT_FALSE(db.ExecuteQuery("SET STATEMENT_TIMEOUT abc").ok());
  // SET is governance-exempt: it still runs with an absurd timeout armed.
  ASSERT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT 1").ok());
  db.set_statement_latency_us(50000);
  EXPECT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT 0").ok());
  db.set_statement_latency_us(0);
  EXPECT_EQ(db.statement_timeout_us(), 0);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation

TEST(CancelTokenTest, CancelFromAnotherThreadKillsARunningStatement) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE a (x INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE b (y INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE c (z INTEGER)").ok());
  ASSERT_TRUE(db.Begin().ok());
  for (int t = 0; t < 3; ++t) {
    const char* names[] = {"a", "b", "c"};
    auto ins = db.Prepare(std::string("INSERT INTO ") + names[t] +
                          " VALUES (?)");
    ASSERT_TRUE(ins.ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
    }
  }
  ASSERT_TRUE(db.Commit().ok());
  // 120^3 join pulls take far longer than the canceller's 2ms nap.
  std::thread canceller([&db] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    db.cancel_token().Cancel();
  });
  auto joined = db.ExecuteQuery("SELECT COUNT(*) FROM a, b, c");
  canceller.join();
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kCancelled) << joined.status();
  EXPECT_GE(db.metrics().Counter("stmt.cancelled")
                ->load(std::memory_order_relaxed),
            1u);
  // The token latches until Reset: new statements are refused at admission.
  EXPECT_EQ(db.ExecuteQuery("SELECT COUNT(*) FROM a").status().code(),
            StatusCode::kCancelled);
  db.cancel_token().Reset();
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM a");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 120);
}

TEST(CancelTokenTest, CancelledStatementLogsItsPartialWork) {
  rdb::Database db;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(db.ExecuteQuery(std::string("CREATE TABLE ") + name +
                                " (x INTEGER)")
                    .ok());
    auto ins = db.Prepare(std::string("INSERT INTO ") + name + " VALUES (?)");
    ASSERT_TRUE(ins.ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
    }
  }
  // No deadline, no budget, no cancel-at-pull hook, slow log threshold
  // disabled: only the token can kill the join.
  ASSERT_LT(db.slow_statement_threshold_us(), 0.0);
  // Cancel once the join is running. A table's rows_read lands when the
  // access step that read the rows ends, so the innermost relation is a CTE
  // over c: c's rows are counted once the CTE is materialized, before the
  // join's first pull.
  constexpr char kJoin[] =
      "WITH w (x) AS (SELECT x FROM c) SELECT COUNT(*) FROM a, b, w";
  const auto& inner_rows = db.FindTable("c")->access_stats().rows_read;
  const auto& outer_rows = db.FindTable("a")->access_stats().rows_read;
  const uint64_t outer_before = outer_rows.load();
  std::thread canceller([&db, &inner_rows] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inner_rows.load() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    db.cancel_token().Cancel();
  });
  auto joined = db.ExecuteQuery(kJoin);
  canceller.join();
  db.cancel_token().Reset();
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kCancelled) << joined.status();
  ASSERT_FALSE(db.slow_statements().empty());
  const rdb::Database::SlowStatement& killed = db.slow_statements().back();
  EXPECT_EQ(killed.cause, "cancelled");
  EXPECT_EQ(killed.sql, kJoin);
  // The CTE scanned c's 120 rows before the join; every join step the kill
  // unwound added the rows it had examined, a's included (the first poll
  // after the CTE comes several pulls into the join).
  EXPECT_GT(killed.delta.rows_scanned, 120u) << killed.delta.ToString();
  EXPECT_GT(outer_rows.load(), outer_before);
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: cancellation injected at every k-th operator pull of
// the fig. 6/10 operations, across all delete/insert strategies. Every
// injection must land on the rolled-back pre-operation state with both
// scrub layers clean.

TEST(CancellationInjectionMatrixTest, EveryKthPullRollsBackCleanly) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const EngineCase& ec : EngineCases()) {
    SCOPED_TRACE(ec.name);
    // Clean run: pre/post states and the op's total pull count (the huge
    // armed countdown doubles as a pull counter; it never reaches zero).
    std::string pre;
    std::string post;
    int64_t total_pulls = 0;
    {
      TempDir dir;
      auto store = MakeStore(gen, dir.path(), ec.del, ec.ins);
      ASSERT_NE(store, nullptr);
      rdb::Database* db = store->db();
      pre = DumpDurableState(*db);
      const int64_t armed = int64_t{1} << 40;
      db->ArmCancelAtPull(armed);
      Status s = ec.op(store.get());
      total_pulls = armed - db->cancel_at_pull_remaining();
      db->DisarmCancelAtPull();
      ASSERT_TRUE(s.ok()) << s;
      post = DumpDurableState(*db);
      EXPECT_TRUE(store->VerifyStore().empty());
    }
    ASSERT_GT(total_pulls, 0);
    const int64_t step = std::max<int64_t>(1, total_pulls / 12);
    for (int64_t k = 1; k <= total_pulls; k += step) {
      SCOPED_TRACE("cancel injected at pull " + std::to_string(k));
      TempDir dir;
      auto store = MakeStore(gen, dir.path(), ec.del, ec.ins);
      ASSERT_NE(store, nullptr);
      rdb::Database* db = store->db();
      ASSERT_EQ(DumpDurableState(*db), pre);
      db->ArmCancelAtPull(k);
      Status s = ec.op(store.get());
      db->DisarmCancelAtPull();
      ASSERT_FALSE(s.ok()) << "pull " << k << " of " << total_pulls
                           << " did not inject";
      EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
      EXPECT_FALSE(s.message().empty());
      ASSERT_FALSE(db->in_transaction());
      // ALL partial effects rolled back: element tables, indexes, and the
      // ASR are byte-identical to the pre-op state, and both scrubs pass.
      EXPECT_EQ(DumpDurableState(*db), pre);
      ExpectScrubClean(store.get());
      // The operation re-issues to completion (governance left no residue).
      Status retry = ec.op(store.get());
      ASSERT_TRUE(retry.ok()) << retry;
      EXPECT_EQ(DumpDurableState(*db), post);
      EXPECT_TRUE(store->VerifyStore().empty());
    }
    // WAL proof for one mid-operation injection: recovery of the killed
    // store lands exactly on the pre-op state (no partial unit leaked).
    {
      TempDir dir;
      {
        auto store = MakeStore(gen, dir.path(), ec.del, ec.ins);
        ASSERT_NE(store, nullptr);
        store->db()->ArmCancelAtPull(std::max<int64_t>(1, total_pulls / 2));
        Status s = ec.op(store.get());
        store->db()->DisarmCancelAtPull();
        ASSERT_FALSE(s.ok());
      }
      auto reopened = MakeStore(gen, dir.path(), ec.del, ec.ins);
      ASSERT_NE(reopened, nullptr);
      EXPECT_TRUE(reopened->recovered());
      EXPECT_EQ(DumpDurableState(*reopened->db()), pre);
      EXPECT_TRUE(reopened->VerifyStore().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Memory budgets

TEST(BudgetExhaustionMatrixTest, HardBudgetKillsAndRollsBackEveryStrategy) {
  // Large doc: every op mutates thousands of rows, so the every-64th-pull
  // poll fires many times after the statement's WAL pending bytes (and, for
  // the copies, fresh slabs) have grown past the frozen budget.
  workload::GeneratedDoc gen = MakeDoc(400);
  for (const EngineCase& ec : EngineCases()) {
    SCOPED_TRACE(ec.name);
    TempDir dir;
    auto store = MakeStore(gen, dir.path(), ec.del, ec.ins);
    ASSERT_NE(store, nullptr);
    rdb::Database* db = store->db();
    const std::string pre = DumpDurableState(*db);
    // Freeze the hard budget at current usage: the op's first growth
    // (undo records, version buffers, WAL pending) trips the next poll.
    MemoryAccountant& mem = db->memory_accountant();
    mem.set_hard_budget(mem.total_used());
    Status s = ec.op(store.get());
    mem.set_hard_budget(0);
    ASSERT_FALSE(s.ok()) << ec.name << " never exceeded its budget";
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
    EXPECT_NE(s.message().find("budget"), std::string::npos) << s;
    ASSERT_FALSE(db->in_transaction());
    EXPECT_EQ(DumpDurableState(*db), pre);
    ExpectScrubClean(store.get());
    // With the budget lifted the same op completes.
    Status retry = ec.op(store.get());
    ASSERT_TRUE(retry.ok()) << retry;
    EXPECT_TRUE(store->VerifyStore().empty());
    EXPECT_GE(db->metrics().Counter("stmt.resource_exhausted")
                  ->load(std::memory_order_relaxed),
              1u);
  }
}

TEST(SoftBudgetTest, ShedsNewStatementsButExemptsDiagnostics) {
  rdb::Database db;
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  MemoryAccountant& mem = db.memory_accountant();
  ASSERT_GT(mem.total_used(), 0u);
  mem.set_soft_budget(1);  // far below current usage: shed everything new
  Status shed = db.ExecuteQuery("INSERT INTO t VALUES (3, 'c')").status();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed;
  EXPECT_NE(shed.message().find("shedding"), std::string::npos) << shed;
  EXPECT_EQ(db.ExecuteQuery("SELECT * FROM t").status().code(),
            StatusCode::kResourceExhausted);
  // Diagnostic / resource-releasing statements stay admitted: this is how
  // an operator sees what is wrong and fixes it.
  EXPECT_TRUE(db.ExecuteQuery("SHOW HEALTH").ok());
  EXPECT_TRUE(db.ExecuteQuery("SHOW METRICS").ok());
  EXPECT_TRUE(db.ExecuteQuery("CHECK INTEGRITY").ok());
  EXPECT_TRUE(db.ExecuteQuery("SET STATEMENT_TIMEOUT 0").ok());
  EXPECT_GE(
      db.metrics().Counter("stmt.shed")->load(std::memory_order_relaxed), 2u);
  // SHOW HEALTH reports the pressure.
  auto health = db.ExecuteQuery("SHOW HEALTH");
  ASSERT_TRUE(health.ok());
  bool over_soft_reported = false;
  for (const auto& row : health->rows) {
    if (row[0].AsString() == "mem_over_soft" && row[1].AsString() == "1") {
      over_soft_reported = true;
    }
  }
  EXPECT_TRUE(over_soft_reported);
  // Lifting the budget resumes admission; in-flight data was never lost.
  mem.set_soft_budget(0);
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (3, 'c')").ok());
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), 3);
}

TEST(WalPendingWatermarkTest, OversizedCommitUnitFailsCleanly) {
  TempDir dir;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  MemoryAccountant& mem = db.memory_accountant();
  mem.set_wal_pending_limit(2048);
  ASSERT_TRUE(db.Begin().ok());
  auto ins = db.Prepare("INSERT INTO t VALUES (?, 'x-pad-x-pad-x-pad')");
  ASSERT_TRUE(ins.ok());
  Status s = Status::OK();
  for (int i = 0; i < 10000 && s.ok(); ++i) {
    s = db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).status();
  }
  // The unit's staged bytes crossed the watermark: a clean failure instead
  // of unbounded growth.
  ASSERT_FALSE(s.ok()) << "watermark never tripped";
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_NE(s.message().find("watermark"), std::string::npos) << s;
  ASSERT_TRUE(db.Rollback().ok());
  // TruncatePending released the staged bytes (charge mirrors the buffer).
  EXPECT_EQ(mem.used(MemoryAccountant::kWalPending), 0u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), 0);
  // Without the watermark the same transaction lands.
  mem.set_wal_pending_limit(0);
  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.Commit().ok());
  EXPECT_EQ(mem.used(MemoryAccountant::kWalPending), 0u);
}

TEST(MemoryAccountingTest, GaugesTrackTheDominantConsumers) {
  rdb::Database db;
  MemoryAccountant& mem = db.memory_accountant();
  const uint64_t before = mem.total_used();
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.Begin().ok());
  auto ins = db.Prepare("INSERT INTO t VALUES (?, 'some-long-string-name')");
  ASSERT_TRUE(ins.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
  }
  // Mid-transaction: slabs and the undo log both carry charges, mirrored
  // into mem.* gauges.
  EXPECT_GT(mem.used(MemoryAccountant::kTableSlabs), 0u);
  EXPECT_GT(mem.used(MemoryAccountant::kUndoLog), 0u);
  EXPECT_GT(mem.total_used(), before);
  EXPECT_GT(db.metrics().Gauge("mem.total")->load(std::memory_order_relaxed),
            0);
  EXPECT_GT(db.metrics()
                .Gauge("mem.table_slabs")
                ->load(std::memory_order_relaxed),
            0);
  const size_t undo_mid = mem.used(MemoryAccountant::kUndoLog);
  ASSERT_TRUE(db.Commit().ok());
  // Commit retires the undo scope, but the log's chunks are pooled for reuse
  // (txn.h): the charge reflects retained capacity, so it must not grow.
  EXPECT_LE(mem.used(MemoryAccountant::kUndoLog), undo_mid);

  // Each index charges its entry array (one entry, holding a Value, per row
  // id) and key table to mem.indexes; DROP INDEX, Table::Clear and DROP
  // TABLE release the charge.
  EXPECT_EQ(mem.used(MemoryAccountant::kIndexes), 0u);
  ASSERT_TRUE(db.ExecuteQuery("CREATE INDEX idx_t_id ON t (id)").ok());
  const uint64_t one_index = mem.used(MemoryAccountant::kIndexes);
  EXPECT_GE(one_index, 2000 * sizeof(rdb::Value));
  EXPECT_EQ(
      db.metrics().Gauge("mem.indexes")->load(std::memory_order_relaxed),
      static_cast<int64_t>(one_index));
  ASSERT_TRUE(db.ExecuteQuery("CREATE INDEX idx_t_name ON t (name)").ok());
  EXPECT_GT(mem.used(MemoryAccountant::kIndexes), one_index);
  ASSERT_TRUE(db.ExecuteQuery("DROP INDEX idx_t_name").ok());
  EXPECT_EQ(mem.used(MemoryAccountant::kIndexes), one_index);
  ASSERT_TRUE(
      db.ExecuteQuery("INSERT INTO t SELECT id + 2000, name FROM t").ok());
  EXPECT_GT(mem.used(MemoryAccountant::kIndexes), one_index);
  db.FindTable("t")->Clear();
  EXPECT_EQ(mem.used(MemoryAccountant::kIndexes), 0u);
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1, 'x')").ok());
  EXPECT_GT(mem.used(MemoryAccountant::kIndexes), 0u);
  ASSERT_TRUE(db.ExecuteQuery("DROP TABLE t").ok());
  EXPECT_EQ(mem.used(MemoryAccountant::kIndexes), 0u);
  EXPECT_EQ(
      db.metrics().Gauge("mem.indexes")->load(std::memory_order_relaxed), 0);
}

TEST(SoftBudgetTest, LargeAutocommitDeleteLeavesLaterStatementsAdmitted) {
  using rdb::UndoLog;
  rdb::Database db;
  MemoryAccountant& mem = db.memory_accountant();
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  // 40,000 rows in statements of 4,000: each logs one undo chunk at most.
  constexpr int kStatements = 10;
  constexpr int kRowsPerStatement = 4000;
  for (int s = 0; s < kStatements; ++s) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < kRowsPerStatement; ++i) {
      sql += (i == 0 ? "(" : ", (") +
             std::to_string(s * kRowsPerStatement + i) + ")";
    }
    ASSERT_TRUE(db.ExecuteQuery(sql).ok());
  }
  // The DELETE's implicit scope logs one undo record per row, about ten
  // chunks. Once it commits, the log keeps only its retained chunks
  // charged, so usage settles under the budget and the next statement is
  // admitted.
  const uint64_t retained = UndoLog::kRetainedChunks * UndoLog::kChunkRecords *
                            sizeof(rdb::UndoRecord);
  mem.set_soft_budget(mem.total_used() + retained);
  ASSERT_TRUE(db.ExecuteQuery("DELETE FROM t").ok());
  EXPECT_LE(mem.used(MemoryAccountant::kUndoLog), retained);
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 0);
  mem.set_soft_budget(0);
}

// ---------------------------------------------------------------------------
// Statement deadlines inside an engine op (engine/store.cc)

TEST(EngineOpTimeoutTest, OperationDeadlineKillsAndRollsBack) {
  // Large doc: the trigger bulk delete's cascade mutates thousands of rows,
  // taking far longer than a 50us statement deadline.
  workload::GeneratedDoc gen = MakeDoc(400);
  TempDir dir;
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.durability = true;
  options.data_dir = dir.path();
  auto store = RelationalStore::Create(gen.dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()->Load(*gen.doc).ok());
  rdb::Database* db = store.value()->db();
  const std::string pre = DumpDurableState(*db);
  db->set_statement_timeout_us(50);
  Status s = store.value()->DeleteWhere("n2", "v2 > 500000");
  db->set_statement_timeout_us(0);
  ASSERT_FALSE(s.ok()) << "50us bulk delete should not finish";
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  ASSERT_FALSE(db->in_transaction());
  EXPECT_EQ(DumpDurableState(*db), pre);
  ExpectScrubClean(store.value().get());
  auto rows = db->ExecuteQuery("SELECT COUNT(*) FROM n2");
  EXPECT_TRUE(rows.ok()) << rows.status();
}

// ---------------------------------------------------------------------------
// Background-thread watchdogs

TEST(FlusherWatchdogTest, BrokenWalStopsHeartbeatsAndReportsStall) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kBatched;
  opts.group_commit_window_us = 500;
  opts.vfs = &fault;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), opts).ok());
  db.set_watchdog_stall_windows(2);
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  // A healthy flusher stamps its heartbeat every window; poll for it
  // (scheduling under sanitizers can briefly delay the thread past the
  // staleness budget right after startup).
  bool healthy = false;
  for (int i = 0; i < 2000 && !healthy; ++i) {
    healthy = !db.health().flusher_stalled;
    if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(healthy);
  // Baseline AFTER the healthy poll: a slow-scheduled startup may already
  // have burned (and re-armed) one stall episode.
  const uint64_t base = db.metrics()
                            .Counter("watchdog.flusher_stalls")
                            ->load(std::memory_order_relaxed);
  // Break the WAL: appends and fsyncs fail, the flusher stops stamping its
  // heartbeat, and the watchdog trips after 2 windows (1ms).
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  (void)db.ExecuteQuery("INSERT INTO t VALUES (2)");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rdb::Database::Health h = db.health();
  EXPECT_TRUE(h.flusher_stalled);
  EXPECT_TRUE(h.degraded());
  // The stall-episode latch: the counter fires once, not per health() call.
  const uint64_t stalls = db.metrics()
                              .Counter("watchdog.flusher_stalls")
                              ->load(std::memory_order_relaxed);
  EXPECT_EQ(stalls, base + 1);
  EXPECT_TRUE(db.health().flusher_stalled);
  EXPECT_EQ(db.metrics()
                .Counter("watchdog.flusher_stalls")
                ->load(std::memory_order_relaxed),
            stalls);
  // The episode is visible in the trace ring.
  bool traced = false;
  for (const std::string& line : db.events().ToJsonLines()) {
    if (line.find("flusher_stall") != std::string::npos) traced = true;
  }
  EXPECT_TRUE(traced);
  // SHOW HEALTH surfaces it (SHOW is admission-exempt).
  auto health = db.ExecuteQuery("SHOW HEALTH");
  ASSERT_TRUE(health.ok());
  bool reported = false;
  for (const auto& row : health->rows) {
    if (row[0].AsString() == "flusher_stalled" && row[1].AsString() == "1") {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  fault.ClearFault();
}

TEST(CheckpointWatchdogTest, SlowSnapshotTripsAndClearsAfterJoin) {
  TempDir dir;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.Begin().ok());
  auto ins = db.Prepare("INSERT INTO t VALUES (?, 'payload-payload')");
  ASSERT_TRUE(ins.ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db.ExecuteQuery(ins.value(), {rdb::Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.Commit().ok());
  // A 1us window on a 20k-row snapshot: while the write is in flight every
  // health() poll past the first microsecond sees a stall.
  db.set_checkpoint_watchdog_window_us(1);
  db.set_watchdog_stall_windows(1);
  ASSERT_TRUE(db.CheckpointBackground().ok());
  bool saw_stall = false;
  for (int i = 0; i < 200000 && !saw_stall; ++i) {
    saw_stall = db.health().checkpoint_stalled;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_GE(db.metrics()
                .Counter("watchdog.checkpoint_stalls")
                ->load(std::memory_order_relaxed),
            1u);
  bool traced = false;
  for (const std::string& line : db.events().ToJsonLines()) {
    if (line.find("checkpoint_stall") != std::string::npos) traced = true;
  }
  EXPECT_TRUE(traced);
  ASSERT_TRUE(db.CheckpointWait().ok());
  // Joined: finished-but-unjoined or joined checkpoints are not stalls.
  EXPECT_FALSE(db.health().checkpoint_stalled);
}

// ---------------------------------------------------------------------------
// Reader-session admission and governance

TEST(ReaderAdmissionTest, ExhaustedSlotsReturnUnavailableWithRetryHint) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  std::vector<std::unique_ptr<rdb::ReaderSession>> sessions;
  for (int i = 0; i < rdb::EpochManager::kMaxReaders; ++i) {
    auto s = db.OpenReaderSession();
    ASSERT_TRUE(s.ok()) << "slot " << i << ": " << s.status();
    sessions.push_back(std::move(s).value());
  }
  auto overflow = db.OpenReaderSession();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable)
      << overflow.status();
  EXPECT_NE(overflow.status().message().find("retry"), std::string::npos)
      << overflow.status();
  // Releasing one slot re-admits: the clean retry contract.
  sessions.pop_back();
  EXPECT_TRUE(db.OpenReaderSession().ok());
}

TEST(ReaderGovernanceTest, SessionsHonorTimeoutAndCancelToken) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE a (x INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE b (y INTEGER)").ok());
  ASSERT_TRUE(db.Begin().ok());
  auto ia = db.Prepare("INSERT INTO a VALUES (?)");
  auto ib = db.Prepare("INSERT INTO b VALUES (?)");
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  for (int i = 0; i < 700; ++i) {
    ASSERT_TRUE(db.ExecuteQuery(ia.value(), {rdb::Value::Int(i)}).ok());
    ASSERT_TRUE(db.ExecuteQuery(ib.value(), {rdb::Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.Commit().ok());
  auto session = db.OpenReaderSession();
  ASSERT_TRUE(session.ok());
  // Deadline: a 700x700 join cannot finish in 200us.
  db.set_statement_timeout_us(200);
  auto timed_out = session.value()->ExecuteQuery("SELECT COUNT(*) FROM a, b");
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status();
  db.set_statement_timeout_us(0);
  // Cancel token: shared with reader sessions.
  db.cancel_token().Cancel();
  auto cancelled = session.value()->ExecuteQuery("SELECT COUNT(*) FROM a, b");
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status();
  db.cancel_token().Reset();
  auto rows = session.value()->ExecuteQuery("SELECT COUNT(*) FROM a");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 700);
}

// ---------------------------------------------------------------------------
// Hash-join steps: the per-statement build is governed like any scan

/// Tables a(x) with `outer` rows and b(y) with `inner` rows, keys 0..99
/// (every 10th b key NULL), no indexes: `a, b WHERE b.y = a.x` plans a hash
/// step over b for the writer and for readers alike.
void MakeJoinTables(rdb::Database* db, int outer, int inner) {
  ASSERT_TRUE(db->ExecuteQuery("CREATE TABLE a (x INTEGER)").ok());
  ASSERT_TRUE(db->ExecuteQuery("CREATE TABLE b (y INTEGER)").ok());
  ASSERT_TRUE(db->ExecuteQuery("CREATE TABLE out (x INTEGER, y INTEGER)").ok());
  ASSERT_TRUE(db->Begin().ok());
  auto ia = db->Prepare("INSERT INTO a VALUES (?)");
  auto ib = db->Prepare("INSERT INTO b VALUES (?)");
  ASSERT_TRUE(ia.ok() && ib.ok());
  for (int i = 0; i < outer; ++i) {
    ASSERT_TRUE(db->ExecuteQuery(ia.value(), {rdb::Value::Int(i % 100)}).ok());
  }
  for (int i = 0; i < inner; ++i) {
    rdb::Value y = i % 10 == 0 ? rdb::Value::Null() : rdb::Value::Int(i % 100);
    ASSERT_TRUE(db->ExecuteQuery(ib.value(), {y}).ok());
  }
  ASSERT_TRUE(db->Commit().ok());
}

constexpr char kHashJoin[] = "SELECT COUNT(*) FROM a, b WHERE b.y = a.x";

TEST(HashJoinGovernanceTest, ReaderDeadlineExpiringMidBuildIsReported) {
  rdb::Database db;
  constexpr int kInner = 100000;
  MakeJoinTables(&db, 1, kInner);
  auto session = db.OpenReaderSession();
  ASSERT_TRUE(session.ok());
  auto plan = (*session)->ExecuteQuery(std::string("EXPLAIN ") + kHashJoin);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->ToString().find("HashProbe b"), std::string::npos)
      << plan->ToString();
  // One outer row, so all but one of the rows read belong to b's build.
  db.set_statement_timeout_us(200);
  auto timed_out = (*session)->ExecuteQuery(kHashJoin);
  db.set_statement_timeout_us(0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status();
  const uint64_t scanned = (*session)->stats().rows_scanned;
  EXPECT_GT(scanned, 1u);
  EXPECT_LT(scanned, 1u + kInner);
  EXPECT_EQ(db.memory_accountant().used(MemoryAccountant::kQueryScratch), 0u);
}

TEST(HashJoinGovernanceTest, QueryScratchReturnsToItsPreStatementValue) {
  rdb::Database db;
  MakeJoinTables(&db, 500, 5000);
  auto session = db.OpenReaderSession();
  ASSERT_TRUE(session.ok());
  MemoryAccountant& mem = db.memory_accountant();
  const uint64_t before = mem.used(MemoryAccountant::kQueryScratch);
  for (bool read : {false, true}) {
    SCOPED_TRACE(read ? "reader" : "writer");
    auto run = [&]() {
      return read ? (*session)->ExecuteQuery(kHashJoin)
                  : db.ExecuteQuery(kHashJoin);
    };
    // The build's charge is real: with the hard budget frozen at the
    // current total, the probes' governance polls fail the statement.
    mem.set_hard_budget(mem.total_used());
    auto killed = run();
    mem.set_hard_budget(0);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted)
        << killed.status();
    EXPECT_EQ(mem.used(MemoryAccountant::kQueryScratch), before);
    // 450 outer rows have a key ending in 1-9, and b holds 50 of each.
    auto rows = run();
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->rows[0][0].AsInt(), 500 * 45);
    EXPECT_EQ(mem.used(MemoryAccountant::kQueryScratch), before);
  }
}

TEST(HashJoinGovernanceTest, CancelAtEveryPullOfAForcedScanJoinRollsBack) {
  constexpr char kInsert[] =
      "INSERT INTO out SELECT a.x, b.y FROM a, b WHERE b.y = a.x";
  auto make = [](rdb::Database* db) {
    MakeJoinTables(db, 30, 60);
    db->set_planner_index_probes_enabled(false);
  };
  std::string pre, post;
  int64_t total_pulls = 0;
  {
    rdb::Database db;
    make(&db);
    auto plan = db.ExecuteQuery(std::string("EXPLAIN ") + kInsert);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_NE(plan->ToString().find("HashProbe b"), std::string::npos)
        << plan->ToString();
    pre = DumpDurableState(db);
    const int64_t armed = int64_t{1} << 40;
    db.ArmCancelAtPull(armed);
    ASSERT_TRUE(db.ExecuteQuery(kInsert).ok());
    total_pulls = armed - db.cancel_at_pull_remaining();
    db.DisarmCancelAtPull();
    post = DumpDurableState(db);
    ASSERT_NE(pre, post);
  }
  ASSERT_GT(total_pulls, 60);
  // No transaction: the autocommit statement rolls back on its own.
  for (int64_t k = 1; k <= total_pulls; ++k) {
    SCOPED_TRACE("cancel injected at pull " + std::to_string(k));
    rdb::Database db;
    make(&db);
    db.ArmCancelAtPull(k);
    Status s = db.ExecuteQuery(kInsert).status();
    db.DisarmCancelAtPull();
    ASSERT_EQ(s.code(), StatusCode::kCancelled) << s;
    EXPECT_FALSE(db.in_transaction());
    EXPECT_EQ(DumpDurableState(db), pre);
    EXPECT_TRUE(db.VerifyIntegrity().empty());
    EXPECT_EQ(db.memory_accountant().used(MemoryAccountant::kQueryScratch),
              0u);
    ASSERT_TRUE(db.ExecuteQuery(kInsert).ok());
    EXPECT_EQ(DumpDurableState(db), post);
  }
}

// ---------------------------------------------------------------------------
// Slow-statement log: governance kills carry their cause

TEST(SlowLogCauseTest, KilledStatementsAreLoggedWithCauseAndDelta) {
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  // The slow log's duration threshold stays DISABLED: governance kills are
  // captured regardless.
  ASSERT_LT(db.slow_statement_threshold_us(), 0.0);
  db.set_statement_latency_us(20000);
  db.set_statement_timeout_us(100);
  ASSERT_EQ(db.ExecuteQuery("INSERT INTO t VALUES (1)").status().code(),
            StatusCode::kDeadlineExceeded);
  db.set_statement_timeout_us(0);
  db.set_statement_latency_us(0);
  ASSERT_FALSE(db.slow_statements().empty());
  const rdb::Database::SlowStatement& killed = db.slow_statements().back();
  EXPECT_EQ(killed.cause, "deadline_exceeded");
  EXPECT_EQ(killed.sql, "INSERT INTO t VALUES (1)");
  // Cancelled statements record their cause too.
  db.cancel_token().Cancel();
  ASSERT_EQ(db.ExecuteQuery("INSERT INTO t VALUES (2)").status().code(),
            StatusCode::kCancelled);
  db.cancel_token().Reset();
  EXPECT_EQ(db.slow_statements().back().cause, "cancelled");
  // SHOW SLOW exposes the cause column.
  auto slow = db.ExecuteQuery("SHOW SLOW");
  ASSERT_TRUE(slow.ok());
  ASSERT_GE(slow->columns.size(), 2u);
  EXPECT_EQ(slow->columns[1], "cause");
  bool saw_deadline = false;
  bool saw_cancelled = false;
  for (const auto& row : slow->rows) {
    if (row[1].AsString() == "deadline_exceeded") saw_deadline = true;
    if (row[1].AsString() == "cancelled") saw_cancelled = true;
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_cancelled);
  // Both counters surfaced.
  EXPECT_GE(db.metrics().Counter("stmt.deadline_exceeded")
                ->load(std::memory_order_relaxed),
            1u);
  EXPECT_GE(db.metrics().Counter("stmt.cancelled")
                ->load(std::memory_order_relaxed),
            1u);
}

// ---------------------------------------------------------------------------
// TryHeal: bounded, interruptible, observable backoff

TEST(TryHealBackoffTest, BackoffIsBoundedInterruptibleAndObservable) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kCommit;
  opts.vfs = &fault;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), opts).ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db.read_only());
  // Bounded: with the fault persisting, 3 attempts back off 2ms + 4ms and
  // return promptly (the per-attempt cap is kMaxHealBackoffMs).
  const auto t0 = std::chrono::steady_clock::now();
  Status failed = db.TryHeal(3);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << failed;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  const uint64_t attempts = db.stats().heal_attempts;
  EXPECT_GE(attempts, 3u);
  // Observable: each backoff is a kGovernance trace span.
  bool traced = false;
  for (const std::string& line : db.events().ToJsonLines()) {
    if (line.find("heal_backoff") != std::string::npos) traced = true;
  }
  EXPECT_TRUE(traced);
  // Interruptible: a cancelled token aborts the backoff with kCancelled.
  db.cancel_token().Cancel();
  Status interrupted = db.TryHeal(5);
  EXPECT_EQ(interrupted.code(), StatusCode::kCancelled) << interrupted;
  db.cancel_token().Reset();
  // And once the fault clears, healing succeeds.
  fault.ClearFault();
  Status healed = db.TryHeal();
  ASSERT_TRUE(healed.ok()) << healed;
  EXPECT_FALSE(db.read_only());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (2)").ok());
}

}  // namespace
}  // namespace xupd
