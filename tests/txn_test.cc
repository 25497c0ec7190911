// Transaction subsystem tests: BEGIN/COMMIT/ROLLBACK through SQL, savepoint
// nesting, the DDL-in-txn barrier, undo of inserts/deletes/updates including
// hash-index and tombstone state, trigger-cascade logging, and the engine
// guarantee the paper inherits from the relational engine (§6): a failure
// anywhere inside an XML update operation leaves element tables, indexes and
// the ASR exactly as they were.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

// ---------------------------------------------------------------------------
// rdb layer

class RdbTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE t (id INTEGER, name VARCHAR)");
    Must("CREATE INDEX idx_t_id ON t (id)");
    Must("INSERT INTO t VALUES (1, 'a')");
    Must("INSERT INTO t VALUES (2, 'b')");
  }

  void Must(const std::string& sql) {
    Status s = db_.ExecuteQuery(sql).status();
    ASSERT_TRUE(s.ok()) << sql << ": " << s;
  }

  int64_t Count(const std::string& table) {
    auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  // Probes through the hash index (id is indexed).
  int64_t CountById(int64_t id) {
    auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM t WHERE id = " +
                              std::to_string(id));
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  rdb::Database db_;
};

TEST_F(RdbTxnTest, RollbackUndoesInsertDeleteUpdate) {
  rdb::Table* t = db_.FindTable("t");
  size_t capacity_before = t->capacity();
  size_t index_before = t->FindIndexOnColumn(0)->size();

  Must("BEGIN");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("DELETE FROM t WHERE id = 1");
  Must("UPDATE t SET id = 20, name = 'B' WHERE id = 2");
  EXPECT_EQ(CountById(20), 1);
  EXPECT_EQ(CountById(1), 0);
  Must("ROLLBACK");

  EXPECT_EQ(Count("t"), 2);
  EXPECT_EQ(CountById(1), 1);   // tombstone revived, index entry back
  EXPECT_EQ(CountById(2), 1);   // update undone through the index
  EXPECT_EQ(CountById(20), 0);
  EXPECT_EQ(CountById(3), 0);   // insert gone
  auto name = db_.ExecuteQuery("SELECT name FROM t WHERE id = 2");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->rows[0][0].AsString(), "b");
  EXPECT_EQ(t->capacity(), capacity_before);  // LIFO undo popped the slot
  EXPECT_EQ(t->FindIndexOnColumn(0)->size(), index_before);
}

TEST_F(RdbTxnTest, CommitMakesChangesDurable) {
  Must("BEGIN TRANSACTION");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("COMMIT TRANSACTION");
  EXPECT_EQ(Count("t"), 3);
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(db_.undo_log_size(), 0u);
  // A rollback after commit has nothing to undo.
  Status s = db_.ExecuteQuery("ROLLBACK").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Count("t"), 3);
}

TEST_F(RdbTxnTest, NestedScopesAreSavepoints) {
  Must("BEGIN");
  Must("INSERT INTO t VALUES (3, 'outer')");
  Must("BEGIN");  // savepoint
  Must("INSERT INTO t VALUES (4, 'inner')");
  EXPECT_EQ(db_.transaction_depth(), 2u);
  Must("ROLLBACK");  // undoes only the inner scope
  EXPECT_EQ(Count("t"), 3);
  EXPECT_EQ(CountById(3), 1);
  EXPECT_EQ(CountById(4), 0);
  Must("COMMIT");
  EXPECT_EQ(Count("t"), 3);
}

TEST_F(RdbTxnTest, InnerCommitMergesIntoOuterScope) {
  Must("BEGIN");
  Must("BEGIN");
  Must("INSERT INTO t VALUES (3, 'inner')");
  Must("COMMIT");  // merges into the outer scope, not durable yet
  EXPECT_EQ(Count("t"), 3);
  Must("ROLLBACK");  // outer rollback undoes the merged writes
  EXPECT_EQ(Count("t"), 2);
  EXPECT_EQ(CountById(3), 0);
}

TEST_F(RdbTxnTest, DdlInsideTransactionIsRejected) {
  Must("BEGIN");
  for (const char* ddl :
       {"CREATE TABLE t2 (id INTEGER)", "CREATE INDEX idx2 ON t (name)",
        "DROP TABLE t", "DROP INDEX idx_t_id ON t",
        "CREATE TRIGGER trg AFTER DELETE ON t FOR EACH ROW BEGIN "
        "DELETE FROM t WHERE id = OLD.id; END"}) {
    Status s = db_.ExecuteQuery(ddl).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << ddl << ": " << s;
  }
  Must("COMMIT");
  Must("CREATE TABLE t2 (id INTEGER)");  // fine outside
}

TEST_F(RdbTxnTest, CommitAndRollbackWithoutBeginFail) {
  EXPECT_EQ(db_.ExecuteQuery("COMMIT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.ExecuteQuery("ROLLBACK").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RdbTxnTest, RollbackRestoresNextId) {
  db_.set_next_id(100);
  ASSERT_TRUE(db_.Begin().ok());
  db_.AllocateIdBlock(50);
  EXPECT_EQ(db_.next_id(), 150);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(db_.next_id(), 100);
}

TEST_F(RdbTxnTest, StatsCountTxnActivity) {
  rdb::Stats before = db_.stats();
  Must("BEGIN");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("DELETE FROM t WHERE id = 3");
  Must("ROLLBACK");
  Must("BEGIN");
  Must("COMMIT");
  rdb::Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.txn_begins, 2u);
  EXPECT_EQ(delta.txn_commits, 1u);
  EXPECT_EQ(delta.txn_rollbacks, 1u);
  EXPECT_EQ(delta.undo_records, 2u);  // one insert + one delete
}

TEST_F(RdbTxnTest, TriggerWritesLogIntoEnclosingTxn) {
  Must("CREATE TABLE child (id INTEGER, parentId INTEGER)");
  Must("CREATE INDEX idx_child_pid ON child (parentId)");
  Must("INSERT INTO child VALUES (10, 1)");
  Must("INSERT INTO child VALUES (11, 1)");
  Must("CREATE TRIGGER trg_t AFTER DELETE ON t FOR EACH ROW BEGIN "
       "DELETE FROM child WHERE parentId = OLD.id; END");
  Must("BEGIN");
  Must("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(Count("child"), 0);  // cascade fired
  Must("ROLLBACK");
  EXPECT_EQ(Count("t"), 2);
  EXPECT_EQ(Count("child"), 2);  // cascade undone too
  auto probe = db_.ExecuteQuery("SELECT COUNT(*) FROM child WHERE parentId = 1");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows[0][0].AsInt(), 2);  // index entries restored
}

TEST_F(RdbTxnTest, InjectedFailureInsideStatementSequence) {
  ASSERT_TRUE(db_.Begin().ok());
  Must("INSERT INTO t VALUES (3, 'c')");
  db_.InjectFailureAfterStatements(0);
  Status s = db_.ExecuteQuery("INSERT INTO t VALUES (4, 'd')").status();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(Count("t"), 2);
}

// Outside a transaction every DML statement is atomic: a failure part way
// through — in its trigger cascade too — leaves none of its writes.

TEST_F(RdbTxnTest, AutocommitUpdateThatOverflowsChangesNoRow) {
  Must("CREATE TABLE s (x INTEGER)");
  Must("INSERT INTO s VALUES (1), (2), (4611686018427387904), (3)");
  Status s = db_.ExecuteQuery("UPDATE s SET x = x * 2").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  EXPECT_EQ(s.message(), "integer overflow");
  EXPECT_FALSE(db_.in_transaction());
  auto rows = db_.ExecuteQuery("SELECT x FROM s");
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<int64_t> xs;
  for (const rdb::Row& row : rows->rows) xs.push_back(row[0].AsInt());
  EXPECT_EQ(xs, (std::vector<int64_t>{1, 2, 4611686018427387904, 3}));
}

TEST_F(RdbTxnTest, AutocommitDeleteWhoseTriggerFailsDeletesNoRow) {
  Must("CREATE TABLE p (id INTEGER)");
  Must("CREATE TABLE c (id INTEGER, pid INTEGER)");
  Must("CREATE INDEX idx_c_pid ON c (pid)");
  Must("INSERT INTO p VALUES (1), (2), (3), (4)");
  Must("INSERT INTO c VALUES (10, 1), (11, 2), (12, 3), (13, 4)");
  // The first firing deletes c's row 10, then fails in its second statement.
  Must("CREATE TRIGGER trg_p AFTER DELETE ON p FOR EACH ROW BEGIN "
       "DELETE FROM c WHERE pid = OLD.id; UPDATE c SET pid = pid / 0; END");
  Status s = db_.ExecuteQuery("DELETE FROM p").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(Count("p"), 4);
  EXPECT_EQ(Count("c"), 4);
  auto probe = db_.ExecuteQuery("SELECT id FROM c WHERE pid = 1");
  ASSERT_TRUE(probe.ok()) << probe.status();
  ASSERT_EQ(probe->rows.size(), 1u);  // the index entry is back too
  EXPECT_EQ(probe->rows[0][0].AsInt(), 10);
}

// ---------------------------------------------------------------------------
// engine layer: mid-operation failure must restore the pre-op snapshot.

struct StoreState {
  std::map<std::string, size_t> live_counts;
  std::map<std::string, size_t> id_index_sizes;
  int64_t next_id = 0;
  size_t asr_rows = 0;
  std::string document;
};

StoreState Capture(RelationalStore* store) {
  StoreState state;
  for (const std::string& name : store->db()->TableNames()) {
    // Engine scratch (the lazily-created id-list table, temp staging) is not
    // document state: it is unwired from the undo log by design, so both its
    // catalog entry and its last staged contents survive rollback.
    if (name == "xupd_idlist" || name.rfind("tmp_", 0) == 0) continue;
    const rdb::Table* t = store->db()->FindTable(name);
    state.live_counts[name] = t->live_count();
    const rdb::HashIndex* idx = t->FindIndexOnColumn(0);
    if (idx != nullptr) state.id_index_sizes[name] = idx->size();
  }
  state.next_id = store->db()->next_id();
  if (store->asr() != nullptr) state.asr_rows = store->asr()->RowCount();
  auto doc = store->Reconstruct();
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (doc.ok()) state.document = xml::Serialize(*doc.value()->root());
  return state;
}

void ExpectSameState(const StoreState& before, const StoreState& after) {
  EXPECT_EQ(before.live_counts, after.live_counts);
  EXPECT_EQ(before.id_index_sizes, after.id_index_sizes);
  EXPECT_EQ(before.next_id, after.next_id);
  EXPECT_EQ(before.asr_rows, after.asr_rows);
  EXPECT_EQ(before.document, after.document);
}

std::unique_ptr<RelationalStore> MakeStore(DeleteStrategy del,
                                           InsertStrategy ins) {
  auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  auto store = RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = testing::MustParse(testing::kCustomerXml);
  Status s = store.value()->Load(*doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

/// Statement executions (incl. trigger bodies) one run of `op` performs.
int64_t CountStatements(RelationalStore* store,
                        const std::function<Status(RelationalStore*)>& op) {
  rdb::Stats before = store->stats();
  Status s = op(store);
  EXPECT_TRUE(s.ok()) << s;
  rdb::Stats delta = store->stats().Delta(before);
  return static_cast<int64_t>(delta.statements + delta.trigger_statements);
}

/// Runs `op` against fresh stores with a failure injected at several points
/// and verifies the store always rolls back to its pre-op state.
void CheckMidFailureRollback(DeleteStrategy del, InsertStrategy ins,
                             const std::function<Status(RelationalStore*)>& op) {
  int64_t total = CountStatements(MakeStore(del, ins).get(), op);
  ASSERT_GT(total, 1) << "op too small to fail mid-flight";
  std::vector<int64_t> points = {1, total / 2, total - 1};
  for (int64_t k : points) {
    if (k < 1 || k >= total) continue;
    auto store = MakeStore(del, ins);
    StoreState before = Capture(store.get());
    store->db()->InjectFailureAfterStatements(k);
    Status s = op(store.get());
    store->db()->InjectFailureAfterStatements(-1);  // disarm leftovers
    ASSERT_EQ(s.code(), StatusCode::kInternal)
        << "expected the injected failure at k=" << k << ", got: " << s;
    EXPECT_FALSE(store->db()->in_transaction());
    EXPECT_EQ(store->db()->undo_log_size(), 0u);
    StoreState after = Capture(store.get());
    {
      SCOPED_TRACE("failure injected after " + std::to_string(k) + " of " +
                   std::to_string(total) + " statements");
      ExpectSameState(before, after);
    }
  }
}

class InsertRollbackTest : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(InsertRollbackTest, MidCopySubtreesWhereFailureRollsBack) {
  CheckMidFailureRollback(
      testing::PairedDelete(GetParam()), GetParam(), [](RelationalStore* s) {
        return s->CopySubtreesWhere("Customer", "", s->root_id());
      });
}

TEST_P(InsertRollbackTest, StagingTablesAreEmptyAfterAFailedCopy) {
  auto store = MakeStore(testing::PairedDelete(GetParam()), GetParam());
  int64_t total = CountStatements(store.get(), [](RelationalStore* s) {
    return s->CopySubtreesWhere("Customer", "", s->root_id());
  });
  auto victim = MakeStore(testing::PairedDelete(GetParam()), GetParam());
  victim->db()->InjectFailureAfterStatements(total / 2);
  Status s = victim->CopySubtreesWhere("Customer", "", victim->root_id());
  victim->db()->InjectFailureAfterStatements(-1);
  ASSERT_FALSE(s.ok());
  size_t staging = 0;
  for (const std::string& name : victim->db()->TableNames()) {
    if (name.rfind("tmp_", 0) != 0) continue;
    ++staging;
    EXPECT_EQ(victim->db()->FindTable(name)->live_count(), 0u)
        << "staged rows outlived the failed copy: " << name;
  }
  // Only the table strategy stages; it creates its tables before any
  // statement runs, so they exist by the time the failure fires.
  EXPECT_EQ(staging > 0, GetParam() == InsertStrategy::kTable);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, InsertRollbackTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr),
                         [](const auto& info) {
                           return ToString(info.param) == std::string("tuple")
                                      ? "Tuple"
                                  : ToString(info.param) == std::string("table")
                                      ? "Table"
                                      : "Asr";
                         });

// ---------------------------------------------------------------------------
// §6.2.2 staging contract: the tmp_<table> scratch tables are created once per
// store, so a table-strategy copy issues no DDL.

/// The tmp_* tables' live rows (and how many such tables exist).
std::pair<size_t, size_t> StagedRows(RelationalStore* store) {
  size_t tables = 0, rows = 0;
  for (const std::string& name : store->db()->TableNames()) {
    if (name.rfind("tmp_", 0) != 0) continue;
    ++tables;
    rows += store->db()->FindTable(name)->live_count();
  }
  return {tables, rows};
}

TEST(TableStagingTest, RepeatCopyIssuesNoDdlAndLeavesStagingEmpty) {
  auto store =
      MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  rdb::Database* db = store->db();
  auto copy = [&] {
    auto ids = store->SelectIds("Customer", "Name = 'Mary'");
    ASSERT_TRUE(ids.ok()) << ids.status();
    ASSERT_FALSE(ids->empty());
    Status s = store->CopySubtree("Customer", ids->front(), store->root_id());
    ASSERT_TRUE(s.ok()) << s;
  };
  copy();
  auto [tables, rows] = StagedRows(store.get());
  EXPECT_GT(tables, 0u);
  EXPECT_EQ(rows, 0u);

  const std::vector<std::string> names = db->TableNames();
  const Histogram* exclusive =
      db->metrics().GetHistogram("catalog_lock.exclusive_wait");
  const uint64_t exclusive_before = exclusive->count();
  copy();
  EXPECT_EQ(db->TableNames(), names);
  EXPECT_EQ(exclusive->count(), exclusive_before)
      << "a repeat copy took the exclusive catalog lock";
  EXPECT_EQ(StagedRows(store.get()), std::make_pair(tables, size_t{0}));
}

TEST(TableStagingTest, CopyNeverStagesInADurableTable) {
  auto store =
      MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  rdb::Database* db = store->db();
  ASSERT_TRUE(
      db->ExecuteQuery("CREATE TABLE tmp_Customer (id INTEGER)").ok());
  ASSERT_TRUE(db->ExecuteQuery("INSERT INTO tmp_Customer VALUES (7)").ok());
  StoreState before = Capture(store.get());
  Status s = store->CopySubtreesWhere("Customer", "", store->root_id());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
  EXPECT_EQ(db->FindTable("tmp_Customer")->live_count(), 1u);
  ExpectSameState(before, Capture(store.get()));
}

TEST(TableStagingTest, CopyDoesNotJoinARunningBackgroundCheckpoint) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "xupd_staging_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  {
    auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
    RelationalStore::Options options;
    options.insert_strategy = InsertStrategy::kTable;
    options.durability = true;
    options.data_dir = dir;
    auto store = RelationalStore::Create(dtd, options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store.value()->Load(*testing::MustParse(testing::kCustomerXml))
                    .ok());
    rdb::Database* db = store.value()->db();
    auto ids = store.value()->SelectIds("Customer", "Name = 'Mary'");
    ASSERT_TRUE(ids.ok()) << ids.status();
    ASSERT_FALSE(ids->empty());

    const uint64_t checkpoints = db->stats().checkpoints;
    ASSERT_TRUE(db->CheckpointBackground().ok());
    Status s = store.value()->CopySubtree("Customer", ids->front(),
                                          store.value()->root_id());
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(db->checkpoint_running());
    EXPECT_EQ(db->stats().checkpoints, checkpoints);
    ASSERT_TRUE(db->CheckpointWait().ok());
    EXPECT_EQ(db->stats().checkpoints, checkpoints + 1);
  }
  std::filesystem::remove_all(dir);
}

class DeleteRollbackTest : public ::testing::TestWithParam<DeleteStrategy> {};

TEST_P(DeleteRollbackTest, MidDeleteFailureRollsBack) {
  CheckMidFailureRollback(GetParam(), testing::PairedInsert(GetParam()),
                          [](RelationalStore* s) {
                            return s->DeleteWhere("Customer", "");
                          });
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DeleteRollbackTest,
                         ::testing::Values(DeleteStrategy::kPerTupleTrigger,
                                           DeleteStrategy::kPerStatementTrigger,
                                           DeleteStrategy::kCascade,
                                           DeleteStrategy::kAsr),
                         [](const auto& info) {
                           std::string name = ToString(info.param);
                           return name == "per-tuple"     ? "PerTuple"
                                  : name == "per-stm"     ? "PerStatement"
                                  : name == "cascade"     ? "Cascade"
                                                          : "Asr";
                         });

TEST(TxnEngineTest, TriggerCascadeDeleteMidFailureRestoresEverything) {
  // The per-tuple trigger delete is ONE SQL statement whose cascade runs
  // entirely inside trigger bodies; the failpoint lands inside the cascade.
  auto probe = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  rdb::Stats before_stats = probe->stats();
  ASSERT_TRUE(probe->DeleteWhere("Customer", "").ok());
  rdb::Stats delta = probe->stats().Delta(before_stats);
  int64_t total =
      static_cast<int64_t>(delta.statements + delta.trigger_statements);
  ASSERT_GT(total, 2);  // a real cascade, not a single statement

  for (int64_t k = 1; k < total; ++k) {
    auto store =
        MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
    StoreState before = Capture(store.get());
    store->db()->InjectFailureAfterStatements(k);
    Status s = store->DeleteWhere("Customer", "");
    store->db()->InjectFailureAfterStatements(-1);
    ASSERT_EQ(s.code(), StatusCode::kInternal) << "k=" << k;
    StoreState after = Capture(store.get());
    SCOPED_TRACE("cascade failpoint k=" + std::to_string(k));
    ExpectSameState(before, after);
  }
}

TEST(TxnEngineTest, TranslatorStatementMidFailureRollsBack) {
  // Example 8-style statement: several sub-operations over multiple targets.
  const char* kQuery = R"(
    FOR $o IN document("custdb.xml")//Order[Status="ready"]
    UPDATE $o {
      INSERT <Status>suspended</Status>,
      FOR $i IN $o/OrderLine[ItemName="tire"]
      UPDATE $i { INSERT <comment>recalled</comment> }
    })";
  CheckMidFailureRollback(
      DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable,
      [kQuery](RelationalStore* s) { return s->ExecuteXQueryUpdate(kQuery); });
}

TEST(TxnEngineTest, TranslatorDeleteMidFailureRollsBack) {
  const char* kQuery = R"(
    FOR $d IN document("custdb.xml"),
        $c IN $d/Customer[Name="John"]
    UPDATE $d { DELETE $c })";
  CheckMidFailureRollback(
      DeleteStrategy::kAsr, InsertStrategy::kAsr,
      [kQuery](RelationalStore* s) { return s->ExecuteXQueryUpdate(kQuery); });
}

TEST(TxnEngineTest, AutocommitModeLeavesPartialEffects) {
  // Contrast case documenting what Options::transactional buys: without it,
  // a mid-operation failure strands partial writes.
  auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = InsertStrategy::kTuple;
  options.insert_batch_size = 1;
  options.transactional = false;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = testing::MustParse(testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  int64_t customers = store->db()->FindTable("Customer")->live_count();
  // Outer-union read + first INSERT succeed, second INSERT fails.
  store->db()->InjectFailureAfterStatements(2);
  Status s = store->CopySubtreesWhere("Customer", "", store->root_id());
  store->db()->InjectFailureAfterStatements(-1);
  ASSERT_FALSE(s.ok());
  EXPECT_GT(store->db()->FindTable("Customer")->live_count(),
            static_cast<size_t>(customers));  // stranded partial copy
}

TEST(TxnEngineTest, IdListScratchStaysBoundedAcrossStatements) {
  // The translator's id staging truncates the scratch table per use; slots
  // must not accumulate across statements (a tombstoning DELETE would grow
  // the slot array, and every later probe over it, without bound).
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  const char* kQuery = R"(
    FOR $c IN document("custdb.xml")/Customer[Name="Mary"]
    UPDATE $c { INSERT <Name>Mary</Name> })";
  ASSERT_TRUE(store->ExecuteXQueryUpdate(kQuery).ok());
  const rdb::Table* scratch = store->db()->FindTable("xupd_idlist");
  ASSERT_NE(scratch, nullptr);
  size_t capacity_after_one = scratch->capacity();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->ExecuteXQueryUpdate(kQuery).ok());
  }
  EXPECT_EQ(scratch->capacity(), capacity_after_one);
}

TEST(TxnEngineTest, IdListScratchIsNotUndoLogged) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  uint64_t undo_before = store->stats().undo_records;
  // A statement whose only writes are scratch staging + one real UPDATE:
  // the undo log must reflect the real write, not the staged ids.
  ASSERT_TRUE(store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("custdb.xml")/Customer[Name="Mary"]
    UPDATE $c { INSERT <Name>Maria</Name> })").ok());
  uint64_t undo = store->stats().undo_records - undo_before;
  EXPECT_GT(undo, 0u);
  EXPECT_LE(undo, 4u);  // column updates on the one matched customer row
}

TEST(TxnEngineTest, SuccessfulOpsCommitAndLeaveNoOpenScope) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  ASSERT_TRUE(store->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                       store->root_id()).ok());
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_FALSE(store->db()->in_transaction());
  EXPECT_EQ(store->db()->undo_log_size(), 0u);
  rdb::Stats stats = store->stats();
  EXPECT_GT(stats.txn_begins, 0u);
  EXPECT_EQ(stats.txn_begins, stats.txn_commits);
  EXPECT_EQ(stats.txn_rollbacks, 0u);
}

}  // namespace
}  // namespace xupd
