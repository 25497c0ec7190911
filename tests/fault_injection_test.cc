// Storage fault-injection tests (rdb/vfs.h FaultVfs): the headline
// robustness property of the durability subsystem. For EIO / ENOSPC /
// power-loss faults injected at EVERY k-th mutating file operation of a
// representative workload, the database must (a) surface a clean error,
// (b) keep its in-memory and on-disk invariants (VerifyIntegrity /
// VerifyStore find nothing), (c) recover onto exactly a committed unit
// boundary, and (d) resume writes through TryHeal() once the fault clears.
// Transient EINTR / short-write faults must be absorbed by the retry loop
// without the workload ever noticing. Also covers the degraded (read-only)
// mode contract, stale snapshot.tmp cleanup, and SQL CHECK INTEGRITY.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/vfs.h"
#include "workload/synthetic.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;
using rdb::FaultVfs;
using FaultKind = rdb::FaultVfs::FaultKind;

// ---------------------------------------------------------------------------
// Helpers (mirrors recovery_test.cc — each test binary is self-contained)

/// A scratch data directory, removed (with its contents) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_fault_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p == nullptr ? "/tmp/xupd_fault_fallback" : p;
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

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Renders the full durable state of a database as one comparable string
/// (same rendering as recovery_test.cc).
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

bool IsBoundaryState(const std::string& got,
                     const std::vector<std::string>& states) {
  for (const std::string& state : states) {
    if (got == state) return true;
  }
  return false;
}

rdb::DurabilityOptions FaultOptions(FaultVfs* fault) {
  rdb::DurabilityOptions opts;
  // Power-loss recovery must land on a commit boundary, so every unit is
  // synced (what survives the simulated outage IS the committed prefix).
  opts.sync_mode = rdb::SyncMode::kCommit;
  opts.vfs = fault;
  return opts;
}

/// The fault-matrix workload: DDL, autocommit DML, a committed transaction,
/// update/delete, a checkpoint, and a rolled-back transaction — every WAL
/// and snapshot code path a fig. 6/10 run exercises. "@checkpoint" marks a
/// Database::Checkpoint() call.
const std::vector<std::string>& WorkloadSteps() {
  static const std::vector<std::string> steps = {
      "CREATE TABLE t (id INTEGER, name VARCHAR)",
      "CREATE INDEX idx_t_id ON t (id)",
      "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')",
      "BEGIN",
      "INSERT INTO t VALUES (4, 'd')",
      "INSERT INTO t VALUES (5, 'e')",
      "COMMIT",
      "UPDATE t SET name = 'z' WHERE id = 2",
      "DELETE FROM t WHERE id = 3",
      "@checkpoint",
      "INSERT INTO t VALUES (6, 'f')",
      "BEGIN",
      "INSERT INTO t VALUES (7, 'g')",
      "ROLLBACK",
      "INSERT INTO t VALUES (8, 'h')",
  };
  return steps;
}

/// Runs the workload, stopping at the first error. When `states` is given,
/// records the durable state at every commit-unit boundary (outside any
/// transaction) — the only states a recovery may legally land on.
Status RunWorkload(rdb::Database* db, std::vector<std::string>* states) {
  if (states != nullptr) states->push_back(DumpDurableState(*db));
  for (const std::string& step : WorkloadSteps()) {
    Status s =
        step == "@checkpoint" ? db->Checkpoint() : db->ExecuteQuery(step)
            .status();
    if (!s.ok()) return s;
    if (states != nullptr && !db->in_transaction()) {
      states->push_back(DumpDurableState(*db));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The rdb fault matrix (tentpole acceptance test)

struct CleanSchedule {
  std::vector<std::string> states;  ///< Every commit-boundary durable state.
  int total_ops = 0;                ///< Mutating file ops of one clean run.
};

CleanSchedule RunClean() {
  CleanSchedule clean;
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  // Unarmed FaultVfs still counts mutating ops: the clean run yields the
  // deterministic op schedule the matrix below indexes into.
  Status open = db.Open(dir.path(), FaultOptions(&fault));
  EXPECT_TRUE(open.ok()) << open;
  Status s = RunWorkload(&db, &clean.states);
  EXPECT_TRUE(s.ok()) << s;
  clean.total_ops = fault.mutating_ops();
  EXPECT_GT(clean.total_ops, 10);
  return clean;
}

void RunFaultMatrix(FaultKind kind, const CleanSchedule& clean) {
  for (int k = 1; k <= clean.total_ops; ++k) {
    SCOPED_TRACE("fault at mutating op " + std::to_string(k));
    TempDir dir;
    FaultVfs fault(rdb::Vfs::Default());
    if (kind == FaultKind::kPowerLoss) fault.set_torn_tail_bytes(3);
    fault.ArmFault(kind, k);
    rdb::Database db;
    Status open = db.Open(dir.path(), FaultOptions(&fault));
    if (!open.ok()) {
      // (a) Open itself hit the fault: clean error, and once the fault
      // clears a fresh open must land on a committed boundary (here: the
      // empty database).
      EXPECT_FALSE(open.message().empty());
      fault.ClearFault();
      rdb::Database db2;
      Status reopen = db2.Open(dir.path(), FaultOptions(&fault));
      ASSERT_TRUE(reopen.ok()) << reopen;
      EXPECT_TRUE(IsBoundaryState(DumpDurableState(db2), clean.states));
      EXPECT_TRUE(db2.VerifyIntegrity().empty());
      continue;
    }
    Status s = RunWorkload(&db, nullptr);
    if (s.ok()) continue;  // the fault fired on an absorbed/benign op
    // (a) Clean, descriptive error.
    EXPECT_FALSE(s.message().empty());
    if (db.in_transaction()) (void)db.Rollback();
    // (b) Invariants hold right now — even mid-fault, the scrub is
    // read-only and must pass.
    std::vector<std::string> violations = db.VerifyIntegrity();
    EXPECT_TRUE(violations.empty())
        << "after fault: " << (violations.empty() ? "" : violations[0]);
    if (db.read_only()) {
      EXPECT_FALSE(db.health().cause.empty());
      // Degraded contract: writes are rejected with kUnavailable while the
      // fault persists, reads keep working.
      Status rejected =
          db.ExecuteQuery("INSERT INTO t VALUES (99, 'rejected')").status();
      EXPECT_EQ(rejected.code(), StatusCode::kUnavailable) << rejected;
      fault.ClearFault();
      // (d) TryHeal returns to read-write once the fault clears...
      Status heal = db.TryHeal();
      ASSERT_TRUE(heal.ok()) << heal;
      EXPECT_FALSE(db.read_only());
    } else {
      // Retryable failure (e.g. a checkpoint that never renamed its tmp
      // file): the database stays read-write.
      fault.ClearFault();
    }
    // (c) ...and the recovered state is exactly a committed unit boundary.
    std::string got = DumpDurableState(db);
    bool on_boundary = IsBoundaryState(got, clean.states);
    if (!on_boundary && !db.read_only()) {
      // A power-loss fault can kill the WAL handle without any statement
      // noticing until the next write; force the heal path and re-check.
      Status poke = db.ExecuteQuery("DELETE FROM t WHERE id = 0").status();
      if (!poke.ok() && db.read_only()) {
        ASSERT_TRUE(db.TryHeal().ok());
        got = DumpDurableState(db);
        on_boundary = IsBoundaryState(got, clean.states);
      }
    }
    EXPECT_TRUE(on_boundary) << "recovered a non-boundary state:\n" << got;
    EXPECT_TRUE(db.VerifyIntegrity().empty());
    // (d) Writes resume for real.
    if (db.FindTable("t") == nullptr) {
      ASSERT_TRUE(
          db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
    }
    Status resumed =
        db.ExecuteQuery("INSERT INTO t VALUES (100, 'resumed')").status();
    if (!resumed.ok()) {
      // Dead power-loss handle surfacing on first use: one heal allowed.
      ASSERT_TRUE(db.read_only()) << resumed;
      ASSERT_TRUE(db.TryHeal().ok());
      ASSERT_TRUE(
          db.ExecuteQuery("INSERT INTO t VALUES (100, 'resumed')").ok());
    }
    EXPECT_TRUE(db.VerifyIntegrity().empty());
  }
}

TEST(RdbFaultMatrixTest, EioAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kEio, RunClean());
}

TEST(RdbFaultMatrixTest, EnospcAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kEnospc, RunClean());
}

TEST(RdbFaultMatrixTest, PowerLossAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kPowerLoss, RunClean());
}

TEST(RdbFaultMatrixTest, TransientEintrAndShortWritesAreAbsorbed) {
  // EINTR and short writes are not failures: WriteFully's bounded retry loop
  // must absorb them with the workload none the wiser.
  for (FaultKind kind : {FaultKind::kEintr, FaultKind::kShortWrite}) {
    CleanSchedule clean = RunClean();
    for (int k = 1; k <= clean.total_ops; k += 3) {
      SCOPED_TRACE("transient fault at op " + std::to_string(k));
      TempDir dir;
      FaultVfs fault(rdb::Vfs::Default());
      fault.ArmFault(kind, k);
      rdb::Database db;
      ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
      Status s = RunWorkload(&db, nullptr);
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_FALSE(db.read_only());
      EXPECT_TRUE(db.VerifyIntegrity().empty());
      EXPECT_TRUE(
          IsBoundaryState(DumpDurableState(db), clean.states));
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded (read-only) mode contract

TEST(ReadOnlyModeTest, ReadsServeWritesRejectHealRestores) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1, 'a')").ok());

  // Break the WAL on the next append.
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  Status broken = db.ExecuteQuery("INSERT INTO t VALUES (2, 'b')").status();
  ASSERT_FALSE(broken.ok());
  ASSERT_TRUE(db.read_only());
  rdb::Database::Health h = db.health();
  EXPECT_TRUE(h.read_only);
  EXPECT_NE(h.cause.find("EIO"), std::string::npos) << h.cause;

  // Reads keep serving the in-memory state (which includes the statement
  // whose memory effects landed before its WAL unit failed).
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 2);
  EXPECT_TRUE(db.ExecuteQuery("EXPLAIN SELECT * FROM t WHERE id = 1").ok());
  auto scrub = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(scrub.ok()) << scrub.status();

  // Writes to durable state are rejected with kUnavailable naming the
  // original fault and the healing path.
  Status ins = db.ExecuteQuery("INSERT INTO t VALUES (3, 'c')").status();
  EXPECT_EQ(ins.code(), StatusCode::kUnavailable);
  EXPECT_NE(ins.message().find("read-only"), std::string::npos) << ins;
  EXPECT_NE(ins.message().find("EIO"), std::string::npos) << ins;
  EXPECT_NE(ins.message().find("TryHeal"), std::string::npos) << ins;
  EXPECT_EQ(db.ExecuteQuery("CREATE TABLE u (id INTEGER)").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db.ExecuteQuery("DELETE FROM t WHERE id = 1").status().code(),
            StatusCode::kUnavailable);

  // Ephemeral scratch tables bypass the WAL and stay writable.
  auto scratch = db.CreateTableDirect(
      rdb::TableSchema("scratch", {{"id", rdb::ColumnType::kInteger}}));
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  EXPECT_TRUE(db.InsertDirect(scratch.value(), {rdb::Value::Int(7)}).ok());

  // Healing is refused while the fault persists (kEio keeps failing)...
  EXPECT_FALSE(db.TryHeal(2).ok());
  EXPECT_TRUE(db.read_only());

  // ...and succeeds once it clears, discarding the never-durable row.
  fault.ClearFault();
  Status heal = db.TryHeal();
  ASSERT_TRUE(heal.ok()) << heal;
  EXPECT_FALSE(db.read_only());
  EXPECT_TRUE(db.health().cause.empty());
  rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (2, 'b2')").ok());
  EXPECT_GE(db.stats().heal_attempts, 1u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

// The group-commit flusher fail-stops the writer while a transaction holds
// pending redo. COMMIT reports the fault and drops the unit, so later reads
// and SHOW HEALTH pass their statement boundary, and durable writes are
// rejected by the read-only gate.
TEST(ReadOnlyModeTest, FlusherFailStopLeavesReadsAndHealthServing) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kBatched;
  opts.group_commit_window_us = 500;
  opts.vfs = &fault;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), opts).ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  // A checkpoint leaves a fresh, synced WAL: the flusher has nothing to
  // sync until the next unit is written.
  ASSERT_TRUE(db.Checkpoint().ok());

  // The next unit's append lands; the flusher's fsync of it fails.
  fault.ArmFault(FaultKind::kEio, 2, "wal");
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (2)").ok());
  ASSERT_TRUE(db.ExecuteQuery("BEGIN").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (3)").ok());
  for (int i = 0; i < 5000 && !fault.fired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(fault.fired());

  Status commit = db.ExecuteQuery("COMMIT").status();
  ASSERT_FALSE(commit.ok());
  EXPECT_NE(commit.message().find("fail-stopped"), std::string::npos)
      << commit;
  EXPECT_TRUE(db.read_only());

  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 3);
  auto health = db.ExecuteQuery("SHOW HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_FALSE(health->rows.empty());
  EXPECT_EQ(health->rows[0][0].AsString(), "read_only");
  EXPECT_EQ(health->rows[0][1].AsString(), "1");
  EXPECT_EQ(db.ExecuteQuery("INSERT INTO t VALUES (4)").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db.ExecuteQuery("DELETE FROM t WHERE id = 1").status().code(),
            StatusCode::kUnavailable);
  // Still serving after the rejected writes.
  EXPECT_TRUE(db.ExecuteQuery("SELECT id FROM t WHERE id = 2").ok());
}

// ---------------------------------------------------------------------------
// Engine fault matrix: the paper's fig. 6 (bulk delete) and fig. 10 (bulk
// copy) operations under injected faults.

workload::GeneratedDoc MakeDoc() {
  workload::SyntheticSpec spec;
  spec.scaling_factor = 6;
  spec.depth = 3;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).value();
}

std::unique_ptr<RelationalStore> MakeFaultStore(
    const workload::GeneratedDoc& gen, const std::string& dir,
    DeleteStrategy del, InsertStrategy ins, FaultVfs* fault) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kCommit;
  options.vfs = fault;
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

std::vector<EngineCase> EngineCases() {
  return {
      {"fig6-bulk-delete", DeleteStrategy::kPerTupleTrigger,
       InsertStrategy::kTable,
       [](RelationalStore* s) { return s->DeleteWhere("n2", "v2 > 500000"); }},
      {"fig10-bulk-copy", DeleteStrategy::kCascade, InsertStrategy::kTable,
       [](RelationalStore* s) {
         return s->CopySubtreesWhere("n2", "v2 < 300000", s->root_id());
       }},
      {"delete-then-checkpoint", DeleteStrategy::kCascade,
       InsertStrategy::kTable,
       [](RelationalStore* s) {
         Status d = s->DeleteWhere("n3", "v3 < 400000");
         if (!d.ok()) return d;
         return s->Checkpoint();
       }},
  };
}

TEST(EngineFaultMatrixTest, UpdateOperationsSurviveInjectedFaults) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const EngineCase& ec : EngineCases()) {
    SCOPED_TRACE(ec.name);
    // Clean run: pre/post states and the op's mutating-op count (the
    // deterministic fault schedule).
    std::string pre;
    std::string post;
    int total_ops = 0;
    {
      TempDir dir;
      FaultVfs fault(rdb::Vfs::Default());
      auto store = MakeFaultStore(gen, dir.path(), ec.del, ec.ins, &fault);
      ASSERT_NE(store, nullptr);
      pre = DumpDurableState(*store->db());
      int before = fault.mutating_ops();
      Status s = ec.op(store.get());
      ASSERT_TRUE(s.ok()) << s;
      total_ops = fault.mutating_ops() - before;
      post = DumpDurableState(*store->db());
      EXPECT_TRUE(store->VerifyStore().empty());
    }
    ASSERT_GT(total_ops, 0);
    const int step = std::max(1, total_ops / 20);
    for (FaultKind kind : {FaultKind::kEio, FaultKind::kPowerLoss}) {
      for (int k = 1; k <= total_ops; k += step) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     " fault at op " + std::to_string(k));
        TempDir dir;
        FaultVfs fault(rdb::Vfs::Default());
        auto store = MakeFaultStore(gen, dir.path(), ec.del, ec.ins, &fault);
        ASSERT_NE(store, nullptr);
        ASSERT_EQ(DumpDurableState(*store->db()), pre);
        fault.ArmFault(kind, k);
        Status s = ec.op(store.get());
        fault.ClearFault();
        rdb::Database* db = store->db();
        if (db->in_transaction()) (void)db->Rollback();
        if (s.ok()) {
          EXPECT_TRUE(store->VerifyStore().empty());
          continue;
        }
        // (a) clean error; (b) both scrub layers pass immediately.
        EXPECT_FALSE(s.message().empty());
        std::vector<std::string> ev = store->VerifyStore();
        EXPECT_TRUE(ev.empty()) << ev[0];
        std::vector<std::string> rv = db->VerifyIntegrity();
        EXPECT_TRUE(rv.empty()) << rv[0];
        if (db->read_only()) {
          Status heal = db->TryHeal();
          ASSERT_TRUE(heal.ok()) << heal;
          EXPECT_FALSE(db->read_only());
        }
        // (c) the durable state is exactly the pre-op or post-op boundary.
        std::string got = DumpDurableState(*db);
        EXPECT_TRUE(got == pre || got == post)
            << "fault left a non-boundary state";
        EXPECT_TRUE(store->VerifyStore().empty());
        EXPECT_TRUE(db->VerifyIntegrity().empty());
        // (d) the operation can be re-issued to completion.
        if (got == pre) {
          Status retry = ec.op(store.get());
          if (!retry.ok() && db->read_only()) {
            ASSERT_TRUE(db->TryHeal().ok());
            retry = ec.op(store.get());
          }
          EXPECT_TRUE(retry.ok()) << retry;
          EXPECT_TRUE(store->VerifyStore().empty());
        }
      }
    }
  }
}

TEST(ReadOnlyModeTest, ValueQueriesBuildNoIndexWhileReadOnly) {
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  auto store = MakeFaultStore(gen, dir.path(), DeleteStrategy::kPerTupleTrigger,
                              InsertStrategy::kTable, &fault);
  ASSERT_NE(store, nullptr);
  // A broken WAL fails the next update and leaves the store read-only.
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(store->DeleteWhere("n2", "v2 > 500000").ok());
  ASSERT_TRUE(store->db()->read_only());

  // Value queries keep serving, and their scans pass the index threshold
  // many times over, but no index is built while the store is read-only.
  auto v1 = store->db()->ExecuteQuery("SELECT v1 FROM n1");
  ASSERT_TRUE(v1.ok()) << v1.status();
  const std::string predicate = "v1 = '" + v1->rows[0][0].ToString() + "'";
  std::vector<int64_t> first;
  for (uint64_t q = 0; q < 4 * RelationalStore::kIndexAfterScans; ++q) {
    auto ids = store->SelectIds("n1", predicate);
    ASSERT_TRUE(ids.ok()) << ids.status();
    if (q == 0) first = *ids;
    EXPECT_EQ(*ids, first);
  }
  EXPECT_EQ(first.size(), 1u);
  const rdb::Table* n1 = store->db()->FindTable("n1");
  EXPECT_EQ(n1->FindIndexByName("idx_n1_v1"), nullptr);
  EXPECT_GT(n1->index_demand(n1->schema().ColumnIndex("v1")),
            RelationalStore::kIndexAfterScans * n1->live_count());
}

// ---------------------------------------------------------------------------
// Scrub detection power: the scrubs must actually catch corruption, not
// just pass on healthy stores.

TEST(VerifyStoreTest, DetectsOrphanedSubtrees) {
  // Deep enough that every orphaned n3 tuple has descendants of its own.
  workload::SyntheticSpec spec;
  spec.scaling_factor = 6;
  spec.depth = 5;
  spec.fanout = 2;
  auto doc = workload::GenerateFixedSynthetic(spec, 42);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const workload::GeneratedDoc& gen = *doc;
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kCascade;  // no cascade triggers
  auto store = RelationalStore::Create(gen.dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()->Load(*gen.doc).ok());
  ASSERT_TRUE(store.value()->VerifyStore().empty());
  // Deleting mid-level tuples directly (no strategy, no cascade) orphans
  // their children — exactly what the engine scrub exists to catch.
  auto children = store.value()->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM n3 WHERE parentId IN (SELECT id FROM n2)");
  ASSERT_TRUE(children.ok()) << children.status();
  const int64_t orphaned = children->rows[0][0].AsInt();
  ASSERT_GT(orphaned, 0);
  ASSERT_TRUE(store.value()->db()->ExecuteQuery("DELETE FROM n2").ok());
  std::vector<std::string> violations = store.value()->VerifyStore();
  ASSERT_FALSE(violations.empty());
  // Each orphan is reported once, by itself; its descendants (n4 and
  // below) still reach it and report nothing.
  int64_t orphan_reports = 0;
  for (const std::string& v : violations) {
    if (v.find("orphan") != std::string::npos) ++orphan_reports;
  }
  EXPECT_EQ(orphan_reports, orphaned) << violations[0];
}

TEST(VerifyStoreTest, ReportsAParentCycleOncePerTupleOnIt) {
  workload::SyntheticSpec spec;
  spec.scaling_factor = 1;
  spec.depth = 5;
  spec.fanout = 2;
  auto doc = workload::GenerateFixedSynthetic(spec, 42);
  ASSERT_TRUE(doc.ok()) << doc.status();
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kCascade;
  auto store = RelationalStore::Create(doc->dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()->Load(*doc->doc).ok());
  ASSERT_TRUE(store.value()->VerifyStore().empty());
  // One n2 tuple becomes the child of its own n3 child: a 2-tuple cycle
  // with the rest of that n2 subtree (13 tuples) hanging below it.
  rdb::Database* db = store.value()->db();
  auto n3 = db->ExecuteQuery(
      "SELECT id, parentId FROM n3 WHERE parentId IN (SELECT id FROM n2)");
  ASSERT_TRUE(n3.ok() && !n3->rows.empty()) << n3.status();
  const int64_t child = n3->rows[0][0].AsInt();
  const int64_t n2 = n3->rows[0][1].AsInt();
  ASSERT_TRUE(db->ExecuteQuery("UPDATE n2 SET parentId = " +
                               std::to_string(child) +
                               " WHERE id = " + std::to_string(n2))
                  .ok());
  std::vector<std::string> violations = store.value()->VerifyStore();
  int cycle_reports = 0;
  for (const std::string& v : violations) {
    if (v.find("cycle") != std::string::npos) ++cycle_reports;
  }
  EXPECT_EQ(cycle_reports, 2) << (violations.empty() ? "" : violations[0]);
}

/// An in-memory table t(k, v) with rows k = 1..5 at rowids 0..4 and a hash
/// index on k, for tampering with the index behind the scrub's back.
class IndexScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteQuery("CREATE TABLE t (k INTEGER, v VARCHAR)").ok());
    ASSERT_TRUE(db_.ExecuteQuery("CREATE INDEX idx_t_k ON t (k)").ok());
    ASSERT_TRUE(db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (2, 'b'), "
                                 "(3, 'c'), (4, 'd'), (5, 'e')")
                    .ok());
    ASSERT_TRUE(db_.VerifyIntegrity().empty());
  }
  rdb::HashIndex* Index() { return db_.FindTable("t")->indexes()[0].get(); }
  /// True when some scrub violation contains `needle`.
  bool ScrubReports(const std::string& needle) {
    for (const std::string& v : db_.VerifyIntegrity()) {
      if (v.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  rdb::Database db_;
};

TEST_F(IndexScrubTest, ErasedEntryIsMissingFromIndex) {
  Index()->Erase(rdb::Value::Int(2), 1);
  EXPECT_TRUE(ScrubReports("live row 1 of table 't' is missing from index"));
}

TEST_F(IndexScrubTest, StaleEntryOnATombstoneIsFlagged) {
  ASSERT_TRUE(db_.ExecuteQuery("DELETE FROM t WHERE k = 3").ok());
  ASSERT_TRUE(db_.VerifyIntegrity().empty());
  Index()->Insert(rdb::Value::Int(3), 2);
  EXPECT_TRUE(ScrubReports("holds tombstoned rowid 2"));
}

TEST_F(IndexScrubTest, WrongValueEntryDisagreesWithTheSlab) {
  Index()->Erase(rdb::Value::Int(4), 3);
  Index()->Insert(rdb::Value::Int(99), 3);
  EXPECT_TRUE(ScrubReports("entry (99, 3) disagrees with the slab"));
  EXPECT_TRUE(ScrubReports("live row 3 of table 't' is missing from index"));
}

TEST(IndexScrubCostTest, EqualKeyRunCostsOneProbePerDistinctKey) {
  // Every row shares one key (like the ASR root column): the forward check
  // must probe once per distinct key, not once per row.
  rdb::Database db;
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE INDEX idx_t_k ON t (k)").ok());
  constexpr int kRows = 5000;
  constexpr int kBatch = 500;
  for (int base = 0; base < kRows; base += kBatch) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = base; i < base + kBatch; ++i) {
      if (i > base) sql += ", ";
      sql += "(7, " + std::to_string(i) + ")";
    }
    ASSERT_TRUE(db.ExecuteQuery(sql).ok());
  }
  const rdb::HashIndex* index = db.FindTable("t")->FindIndexByName("idx_t_k");
  ASSERT_NE(index, nullptr);
  const uint64_t before = index->probes();
  EXPECT_TRUE(db.VerifyIntegrity().empty());
  EXPECT_LE(index->probes() - before, 1u);
}

TEST(CheckIntegritySqlTest, ReportsOkThenFlagsOnDiskCorruption) {
  TempDir dir;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  auto clean = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->columns.size(), 1u);
  EXPECT_EQ(clean->columns[0], "violation");
  ASSERT_EQ(clean->rows.size(), 1u);
  EXPECT_EQ(clean->rows[0][0].AsString(), "ok");
  uint64_t scrubs = db.stats().integrity_checks;
  EXPECT_GE(scrubs, 1u);

  // Corrupt the snapshot under the running database: the online scrub
  // re-walks the file CRCs and must flag it without crashing anything.
  ASSERT_TRUE(db.Checkpoint().ok());
  std::string snap_path = dir.path() + "/snapshot.xupd";
  auto snap = rdb::ReadWholeFile(rdb::Vfs::Default(), snap_path);
  ASSERT_TRUE(snap.ok());
  std::string corrupt = *snap;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0xFF);
  WriteFile(snap_path, corrupt);
  auto flagged = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(flagged.ok()) << flagged.status();
  bool mentions_crc = false;
  for (const auto& row : flagged->rows) {
    if (row[0].AsString().find("CRC") != std::string::npos) {
      mentions_crc = true;
    }
  }
  EXPECT_TRUE(mentions_crc);
  // Restore and the scrub is clean again — it never mutates anything.
  WriteFile(snap_path, *snap);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
  EXPECT_GT(db.stats().integrity_checks, scrubs);
}

TEST(CheckIntegritySqlTest, IsRejectedUnderExplainButRunsInReadOnlyMode) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  EXPECT_FALSE(db.ExecuteQuery("EXPLAIN CHECK INTEGRITY").ok());
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db.read_only());
  // The scrub stays available while degraded (and while the fault is still
  // armed — it is strictly read-only).
  auto scrub = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_EQ(scrub->rows.size(), 1u);
  EXPECT_EQ(scrub->rows[0][0].AsString(), "ok");
}

// ---------------------------------------------------------------------------
// Satellites

TEST(StaleSnapshotTmpTest, LeftoverTmpFileIsRemovedOnOpen) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  }
  // A crash between writing snapshot.tmp and renaming it leaves the tmp
  // file behind; Open must clean it up instead of letting it shadow a
  // later checkpoint.
  std::string tmp = dir.path() + "/snapshot.tmp";
  WriteFile(tmp, "half-written snapshot garbage");
  ASSERT_TRUE(rdb::Vfs::Default()->Exists(tmp));
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  EXPECT_FALSE(rdb::Vfs::Default()->Exists(tmp));
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_FALSE(rdb::Vfs::Default()->Exists(tmp));
}

TEST(ErrnoStatusTest, NamesTheErrnoSymbolically) {
  Status s = rdb::ErrnoStatus("cannot append to WAL", "/x/wal.xupd", ENOSPC);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s;
  EXPECT_NE(s.message().find("/x/wal.xupd"), std::string::npos) << s;
  EXPECT_STREQ(rdb::ErrnoName(EIO), "EIO");
  EXPECT_STREQ(rdb::ErrnoName(EINTR), "EINTR");
}

TEST(TryHealTest, WithoutDurabilityOrInsideTxnIsRejected) {
  rdb::Database db;  // durability never opened
  EXPECT_EQ(db.TryHeal().code(), StatusCode::kInvalidArgument);
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db2.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db2.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db2.read_only());
  fault.ClearFault();
  ASSERT_TRUE(db2.Begin().ok());
  EXPECT_EQ(db2.TryHeal().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db2.Rollback().ok());
  EXPECT_TRUE(db2.TryHeal().ok());
}

TEST(TryHealTest, RebuildReplansCachedWriterAndReaderStatements) {
  // The heal rebuild frees every Table the cached plans below captured; the
  // global catalog version is what makes each re-plan instead of reading a
  // freed table (ASan reports the use-after-free otherwise).
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(
      db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE INDEX t_id ON t (id)").ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  // The heal then loads t from the snapshot and replays no DDL, so the
  // rebuild's own version bump is the only one.
  ASSERT_TRUE(db.Checkpoint().ok());

  auto writer = db.Prepare("SELECT COUNT(*), SUM(id) FROM t WHERE id > ?");
  ASSERT_TRUE(writer.ok()) << writer.status();
  auto probe = db.Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(probe.ok()) << probe.status();
  auto session = db.OpenReaderSession();
  ASSERT_TRUE(session.ok()) << session.status();
  rdb::ReaderSession* reader = session->get();
  const std::string kReaderSql = "SELECT COUNT(*), SUM(id) FROM t";
  ASSERT_TRUE(db.ExecuteQuery(*writer, {rdb::Value::Int(0)}).ok());
  ASSERT_TRUE(db.ExecuteQuery(*probe, {rdb::Value::Int(2)}).ok());
  ASSERT_TRUE(reader->ExecuteQueryBound(kReaderSql, {}).ok());

  // A WAL fault leaves row 3 in memory only; healing discards it.
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db.ExecuteQuery("INSERT INTO t VALUES (3, 'c')").ok());
  ASSERT_TRUE(db.read_only());
  fault.ClearFault();
  ASSERT_TRUE(db.TryHeal().ok());

  rdb::Stats before = db.stats();
  auto w = db.ExecuteQuery(*writer, {rdb::Value::Int(0)});
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->rows[0][0].AsInt(), 2);
  EXPECT_EQ(w->rows[0][1].AsInt(), 3);
  EXPECT_EQ(db.stats().Delta(before).plans_built, 1u);
  before = db.stats();
  auto p = db.ExecuteQuery(*probe, {rdb::Value::Int(2)});
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->rows.size(), 1u);
  EXPECT_EQ(p->rows[0][0].AsString(), "b");
  EXPECT_EQ(db.stats().Delta(before).plans_built, 1u);

  before = reader->stats();
  auto r = reader->ExecuteQueryBound(kReaderSql, {});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
  EXPECT_EQ(r->rows[0][1].AsInt(), 3);
  EXPECT_EQ(reader->stats().Delta(before).plans_built, 1u);
  // Each re-planned once: the next run hits the new plan.
  before = reader->stats();
  ASSERT_TRUE(reader->ExecuteQueryBound(kReaderSql, {}).ok());
  EXPECT_EQ(reader->stats().Delta(before).plans_built, 0u);
}

TEST(TryHealTest, RebuildReresolvesTriggerLists) {
  // The trigger lists are cached per Table* and hold TriggerDef pointers;
  // the heal rebuild frees both, and its catalog version bump must retire
  // the cache (ASan reports the use-after-free otherwise).
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE p (id INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE log (id INTEGER)").ok());
  ASSERT_TRUE(db.ExecuteQuery("CREATE TRIGGER p_del AFTER DELETE ON p FOR "
                              "EACH ROW BEGIN INSERT INTO log VALUES "
                              "(OLD.id); END")
                  .ok());
  ASSERT_TRUE(db.ExecuteQuery("INSERT INTO p VALUES (1), (2), (3)").ok());
  rdb::Stats before = db.stats();
  ASSERT_TRUE(db.ExecuteQuery("DELETE FROM p WHERE id = 1").ok());
  ASSERT_TRUE(db.ExecuteQuery("DELETE FROM log WHERE id = 0").ok());
  EXPECT_EQ(db.stats().Delta(before).trigger_firings, 1u);

  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db.ExecuteQuery("INSERT INTO p VALUES (4)").ok());
  ASSERT_TRUE(db.read_only());
  fault.ClearFault();
  ASSERT_TRUE(db.TryHeal().ok());

  // The rebuilt catalog replayed the trigger's DDL: one firing per deleted
  // row of p, none for log.
  before = db.stats();
  ASSERT_TRUE(db.ExecuteQuery("DELETE FROM p WHERE id >= 2").ok());
  EXPECT_EQ(db.stats().Delta(before).trigger_firings, 2u);
  before = db.stats();
  ASSERT_TRUE(db.ExecuteQuery("DELETE FROM log WHERE id = 1").ok());
  EXPECT_EQ(db.stats().Delta(before).trigger_firings, 0u);
  auto rows = db.ExecuteQuery("SELECT id FROM log");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows->rows[1][0].AsInt(), 3);
}

}  // namespace
}  // namespace xupd
