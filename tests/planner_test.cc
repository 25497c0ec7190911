// Tests for the plan-based query execution layer: index selection (probe vs
// scan), join-conjunct pushdown, plan caching + invalidation on DDL, EXPLAIN
// output shape, and parity between probed and forced-scan execution on the
// fig. 6-11 workload query shapes (through the engine's update strategies).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xupd::rdb {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void Must(const std::string& sql) {
    Status s = db_.ExecuteQuery(sql).status();
    ASSERT_TRUE(s.ok()) << sql << "\n  -> " << s;
  }
  ResultSet Query(const std::string& sql) {
    auto r = db_.ExecuteQuery(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }
  /// EXPLAIN output joined back into one string for substring assertions.
  std::string Explain(const std::string& sql) {
    ResultSet r = Query("EXPLAIN " + sql);
    std::string out;
    for (const Row& row : r.rows) {
      out += row[0].AsString();
      out += '\n';
    }
    return out;
  }

  void CreateEmpDept(bool indexed) {
    Must("CREATE TABLE Emp (id INTEGER, deptId INTEGER, name VARCHAR)");
    Must("CREATE TABLE Dept (id INTEGER, name VARCHAR)");
    if (indexed) {
      Must("CREATE INDEX emp_dept ON Emp (deptId)");
      Must("CREATE INDEX dept_id ON Dept (id)");
    }
    Must("INSERT INTO Dept VALUES (1, 'eng'), (2, 'ops'), (3, 'hr')");
    Must("INSERT INTO Emp VALUES (10, 1, 'ann'), (11, 1, 'bob'), "
         "(12, 2, 'cat'), (13, 3, 'dan')");
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Index selection: probe vs scan.

TEST_F(PlannerTest, PointQueryUsesIndexProbe) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  ResultSet r = Query("SELECT name FROM Emp WHERE deptId = 1");
  EXPECT_EQ(r.rows.size(), 2u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_GT(delta.index_probes, 0u);
  EXPECT_EQ(delta.rows_scanned, 0u);  // no scan of Emp
  EXPECT_NE(Explain("SELECT name FROM Emp WHERE deptId = 1")
                .find("IndexProbe Emp via emp_dept"),
            std::string::npos);
}

TEST_F(PlannerTest, UnindexedPredicateFallsBackToScan) {
  CreateEmpDept(/*indexed=*/false);
  Stats before = db_.stats();
  ResultSet r = Query("SELECT name FROM Emp WHERE deptId = 1");
  EXPECT_EQ(r.rows.size(), 2u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.index_probes, 0u);
  EXPECT_GT(delta.rows_scanned, 0u);
  std::string plan = Explain("SELECT name FROM Emp WHERE deptId = 1");
  EXPECT_NE(plan.find("Scan Emp"), std::string::npos);
  EXPECT_EQ(plan.find("IndexProbe"), std::string::npos);
}

TEST_F(PlannerTest, InListProbesTheIndexPerValue) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  ResultSet r = Query("SELECT name FROM Emp WHERE deptId IN (1, 3)");
  EXPECT_EQ(r.rows.size(), 3u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.index_probes, 2u);  // one probe per IN value
  EXPECT_EQ(delta.rows_scanned, 0u);
}

TEST_F(PlannerTest, InSubqueryProbesTheIndex) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  ResultSet r = Query(
      "SELECT name FROM Emp WHERE deptId IN (SELECT id FROM Dept "
      "WHERE name = 'eng')");
  EXPECT_EQ(r.rows.size(), 2u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_GT(delta.index_probes, 0u);
  // Only the subquery's Dept scan touches rows; Emp is probed.
  EXPECT_EQ(delta.rows_scanned, 3u);
}

// ---------------------------------------------------------------------------
// Join-conjunct pushdown.

TEST_F(PlannerTest, JoinConjunctDrivesInnerIndexProbe) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  ResultSet r = Query(
      "SELECT Emp.name, Dept.name FROM Emp, Dept "
      "WHERE Emp.deptId = Dept.id AND Emp.id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "eng");
  Stats delta = db_.stats().Delta(before);
  // Emp is scanned (no index on Emp.id) but Dept is probed per Emp row —
  // never scanned — because the equi-join conjunct was pushed down.
  EXPECT_EQ(delta.rows_scanned, 4u);  // Emp only
  EXPECT_GT(delta.index_probes, 0u);
  std::string plan = Explain(
      "SELECT Emp.name, Dept.name FROM Emp, Dept "
      "WHERE Emp.deptId = Dept.id AND Emp.id = 10");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos);
  EXPECT_NE(plan.find("IndexProbe Dept via dept_id"), std::string::npos);
}

TEST_F(PlannerTest, SingleRelationFilterIsAppliedBeforeTheJoin) {
  CreateEmpDept(/*indexed=*/false);
  Stats before = db_.stats();
  // `Dept.id + 0` is no join column, so Dept stays a rescanned inner scan.
  ResultSet r = Query(
      "SELECT Emp.name FROM Emp, Dept "
      "WHERE Emp.deptId = Dept.id + 0 AND Dept.name = 'hr'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "dan");
  // Emp (4 rows) scanned once; Dept (3 rows) rescanned per Emp row. Without
  // pushdown the cross product would join first and filter 12 tuples later;
  // the filter placement keeps the inner loop's emitted tuples at 4.
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.rows_scanned, 4u + 4u * 3u);
}

TEST_F(PlannerTest, UnindexedEquijoinBuildsAHashTableOnce) {
  CreateEmpDept(/*indexed=*/false);
  const std::string sql =
      "SELECT Emp.name FROM Emp, Dept "
      "WHERE Emp.deptId = Dept.id AND Dept.name = 'hr'";
  EXPECT_NE(Explain(sql).find("HashProbe Dept (Dept.id = Emp.deptId) "
                              "(filter: (Emp.deptId = Dept.id) AND "
                              "(Dept.name = 'hr'))"),
            std::string::npos)
      << Explain(sql);
  Stats before = db_.stats();
  ResultSet r = Query(sql);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "dan");
  // Emp (4 rows) scanned once; Dept (3 rows) read once into the hash table.
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.rows_scanned, 4u + 3u);
  EXPECT_EQ(delta.index_probes, 0u);
}

TEST_F(PlannerTest, AnIndexPathWinsOverAnEarlierHashableConjunct) {
  CreateEmpDept(/*indexed=*/true);
  // Dept.name has no index, Dept.id has one: the probe wins, whatever the
  // conjunct order.
  std::string plan = Explain(
      "SELECT Emp.name FROM Emp, Dept "
      "WHERE Dept.name = Emp.name AND Dept.id = Emp.deptId");
  EXPECT_NE(plan.find("IndexProbe Dept via dept_id"), std::string::npos)
      << plan;
  // A row-free equality is a filter, not a join key: Dept is scanned.
  db_.set_planner_index_probes_enabled(false);
  plan = Explain("SELECT Emp.name FROM Emp, Dept WHERE Dept.id = 2");
  EXPECT_NE(plan.find("Scan Dept (filter: (Dept.id = 2))"), std::string::npos)
      << plan;
  plan = Explain(
      "SELECT Emp.name FROM Emp, Dept "
      "WHERE Dept.name = Emp.name AND Dept.id = Emp.deptId");
  EXPECT_NE(plan.find("HashProbe Dept (Dept.name = Emp.name)"),
            std::string::npos)
      << plan;
  db_.set_planner_index_probes_enabled(true);
}

TEST_F(PlannerTest, ARowFreeEqualityWinsOverAnEarlierInPath) {
  // The translator's step shape: the parentId probe matches most n1 rows,
  // the v1 probe the two x rows.
  Must("CREATE TABLE n1 (id INTEGER, parentId INTEGER, v1 VARCHAR)");
  Must("CREATE TABLE idlist (id INTEGER)");
  Must("CREATE INDEX idx_n1_pid ON n1 (parentId)");
  Must("CREATE INDEX idx_n1_v1 ON n1 (v1)");
  Must("INSERT INTO idlist VALUES (1)");
  Must("INSERT INTO n1 VALUES (10, 1, 'x'), (11, 1, 'y'), (12, 1, 'z'), "
       "(13, 2, 'x')");
  const std::string in_subquery = "parentId IN (SELECT id FROM idlist)";
  for (const std::string& where :
       {in_subquery + " AND v1 = 'x'", "v1 = 'x' AND " + in_subquery,
        std::string("parentId IN (1, 3) AND v1 = 'x'")}) {
    SCOPED_TRACE(where);
    const std::string sql = "SELECT id FROM n1 WHERE " + where;
    EXPECT_NE(Explain(sql).find("IndexProbe n1 via idx_n1_v1 (v1 = 'x')"),
              std::string::npos)
        << Explain(sql);
    for (const char* verb : {"DELETE FROM n1", "UPDATE n1 SET v1 = 'w'"}) {
      const std::string mutation = std::string(verb) + " WHERE " + where;
      EXPECT_NE(Explain(mutation).find("via idx_n1_v1 (v1 = 'x')"),
                std::string::npos)
          << Explain(mutation);
    }
    Stats before = db_.stats();
    ResultSet r = Query(sql);
    Stats delta = db_.stats().Delta(before);
    // Both x rows are candidates; the residual IN drops id 13.
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsInt(), 10);
    EXPECT_EQ(delta.index_probes, 1u);
  }
}

TEST_F(PlannerTest, InSubquerySetKeepsMixedTypeValues) {
  // '07' = 7 and 7 = '7' under SQL comparison, but '07' <> '7': a set keyed
  // by that equality kept whichever of '07' and 7 came first, so the row
  // '7' matched in one branch order and not in the other.
  Must("CREATE TABLE s (k VARCHAR)");
  Must("CREATE TABLE i (k INTEGER)");
  Must("CREATE TABLE t (x VARCHAR)");
  Must("INSERT INTO s VALUES ('07')");
  Must("INSERT INTO i VALUES (7)");
  Must("INSERT INTO t VALUES ('7'), ('07'), ('8')");
  for (bool indexed : {false, true}) {
    if (indexed) Must("CREATE INDEX idx_t_x ON t (x)");
    for (const char* branches : {"SELECT k FROM s UNION ALL SELECT k FROM i",
                                 "SELECT k FROM i UNION ALL SELECT k FROM s"}) {
      SCOPED_TRACE(std::string(indexed ? "probe: " : "scan: ") + branches);
      const std::string sql =
          std::string("SELECT x FROM t WHERE x IN (") + branches + ")";
      EXPECT_NE(Explain(sql).find(indexed ? "IndexProbe t via idx_t_x"
                                          : "Scan t"),
                std::string::npos)
          << Explain(sql);
      ResultSet r = Query(sql + " ORDER BY x");
      ASSERT_EQ(r.rows.size(), 2u);
      EXPECT_EQ(r.rows[0][0].AsString(), "07");
      EXPECT_EQ(r.rows[1][0].AsString(), "7");
      // DELETE drops the probed conjunct: the probes alone must find both.
      Must("BEGIN");
      Must("DELETE FROM t WHERE x IN (" + std::string(branches) + ")");
      EXPECT_EQ(Query("SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 1);
      Must("ROLLBACK");
    }
  }
}

TEST_F(PlannerTest, IndexDemandCountsWriterStepsOverDurableTablesOnly) {
  CreateEmpDept(/*indexed=*/true);
  Table* emp = db_.FindTable("Emp");
  const int name = emp->schema().ColumnIndex("name");
  const int id = emp->schema().ColumnIndex("id");
  // A scan, and a probe of an IN path, both examine rows an index on the
  // equality's column would skip: 4 rows, then the 3 of departments 1 and 2.
  Query("SELECT id FROM Emp WHERE name = 'bob'");
  EXPECT_EQ(emp->index_demand(name), 4u);
  Query("SELECT id FROM Emp WHERE deptId IN (1, 2) AND name = 'bob'");
  EXPECT_EQ(emp->index_demand(name), 7u);
  ASSERT_TRUE(db_.ExecuteQueryBound("UPDATE Emp SET name = 'x' WHERE id = ?",
                                    {Value::Int(99)})
                  .ok());
  EXPECT_EQ(emp->index_demand(id), 4u);
  emp->ResetIndexDemand(name);
  emp->ResetIndexDemand(id);
  // An equality probe, a join value, a CTE, a reader session and a
  // probe-free plan record none.
  Query("SELECT id FROM Emp WHERE deptId = 1 AND name = 'bob'");
  Query("SELECT Emp.id FROM Dept, Emp WHERE Emp.name = Dept.name");
  Query("WITH e (n) AS (SELECT name FROM Emp) SELECT n FROM e WHERE n = 'x'");
  {
    auto reader = db_.OpenReaderSession();
    ASSERT_TRUE(reader.ok()) << reader.status();
    ASSERT_TRUE((*reader)->ExecuteQuery("SELECT id FROM Emp WHERE name = 'a'")
                    .ok());
  }
  db_.set_planner_index_probes_enabled(false);
  Query("SELECT id FROM Emp WHERE name = 'bob'");
  db_.set_planner_index_probes_enabled(true);
  EXPECT_EQ(emp->index_demand(name), 0u);
  EXPECT_EQ(emp->index_demand(id), 0u);
  // A scratch table (direct catalog API) is never indexed by SQL DDL.
  auto scratch = db_.CreateTableDirect(
      TableSchema("scratch", {{"id", ColumnType::kInteger}}));
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  ASSERT_TRUE(db_.InsertDirect(*scratch, {Value::Int(1)}).ok());
  Query("SELECT id FROM scratch WHERE id = 1");
  EXPECT_EQ((*scratch)->index_demand(0), 0u);
}

// ---------------------------------------------------------------------------
// Plan cache: reuse and invalidation.

TEST_F(PlannerTest, ExecuteBoundReusesThePlan) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  for (int i = 0; i < 5; ++i) {
    auto r = db_.ExecuteQueryBound("SELECT name FROM Emp WHERE deptId = ?",
                                   {Value::Int(1)});
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows.size(), 2u);
  }
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.plans_built, 1u);
  EXPECT_EQ(delta.plan_cache_hits, 4u);
}

TEST_F(PlannerTest, CreateIndexInvalidatesCachedPlans) {
  CreateEmpDept(/*indexed=*/false);
  const char kSql[] = "SELECT name FROM Emp WHERE deptId = ?";
  ASSERT_TRUE(db_.ExecuteQueryBound(kSql, {Value::Int(1)}).ok());
  Stats before = db_.stats();
  ASSERT_TRUE(db_.ExecuteQueryBound(kSql, {Value::Int(1)}).ok());
  EXPECT_EQ(db_.stats().Delta(before).plan_cache_hits, 1u);

  // The new index must be picked up: the cached scan plan is stale.
  Must("CREATE INDEX emp_dept ON Emp (deptId)");
  before = db_.stats();
  auto r = db_.ExecuteQueryBound(kSql, {Value::Int(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.plan_cache_hits, 0u);
  EXPECT_GE(delta.plans_built, 1u);
  EXPECT_GT(delta.index_probes, 0u);
  EXPECT_EQ(delta.rows_scanned, 0u);
}

TEST_F(PlannerTest, DropIndexInvalidatesCachedPlans) {
  CreateEmpDept(/*indexed=*/true);
  const char kSql[] = "SELECT name FROM Emp WHERE deptId = ?";
  ASSERT_TRUE(db_.ExecuteQueryBound(kSql, {Value::Int(1)}).ok());
  Must("DROP INDEX emp_dept");  // owning table resolved by catalog search
  Stats before = db_.stats();
  auto r = db_.ExecuteQueryBound(kSql, {Value::Int(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.plan_cache_hits, 0u);  // stale probe plan was rebuilt
  EXPECT_EQ(delta.index_probes, 0u);
  EXPECT_GT(delta.rows_scanned, 0u);
}

TEST_F(PlannerTest, DropTableInvalidatesCachedPlans) {
  CreateEmpDept(/*indexed=*/true);
  const char kSql[] = "SELECT name FROM Emp WHERE deptId = ?";
  ASSERT_TRUE(db_.ExecuteQueryBound(kSql, {Value::Int(1)}).ok());
  Must("DROP TABLE Emp");
  // The stale plan holds a dead Table*; the version check forces a re-plan,
  // which reports the missing table instead of dereferencing it.
  auto r = db_.ExecuteQueryBound(kSql, {Value::Int(1)});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // Recreating the table makes the same handle usable again.
  Must("CREATE TABLE Emp (id INTEGER, deptId INTEGER, name VARCHAR)");
  auto r2 = db_.ExecuteQueryBound(kSql, {Value::Int(1)});
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->rows.size(), 0u);
}

TEST_F(PlannerTest, DdlThroughEveryEntryPointInvalidatesPlans) {
  // Regression: DDL issued by text must version out plans cached on
  // handles — a stale plan holds the dropped Table* and would otherwise be
  // dereferenced after free.
  CreateEmpDept(/*indexed=*/true);
  const char kSql[] = "SELECT name FROM Emp WHERE deptId = ?";
  auto handle = db_.Prepare(kSql);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(db_.ExecuteQuery(handle.value(), {Value::Int(1)}).ok());
  ASSERT_TRUE(db_.ExecuteQuery("DROP TABLE Emp").ok());
  auto r = db_.ExecuteQuery(handle.value(), {Value::Int(1)});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PlannerTest, PreparedExplainReusesThePlan) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  for (int i = 0; i < 3; ++i) {
    auto r = db_.ExecuteQueryBound("EXPLAIN SELECT name FROM Emp WHERE "
                                   "deptId = ?",
                                   {Value::Int(1)});
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->rows.empty());
  }
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.plans_built, 1u);
  EXPECT_EQ(delta.plan_cache_hits, 2u);
}

TEST_F(PlannerTest, TableInsertStagingChurnDoesNotEvictEnginePlans) {
  // Engine-level version of the property: two consecutive table-strategy
  // copies. The second operation's statements re-plan only what touched the
  // re-created tmp_ staging tables; the per-id DELETE probe cached before
  // the churn stays hot.
  auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
  auto doc = testing::MustParse(testing::kCustomerXml);
  engine::RelationalStore::Options options;
  options.delete_strategy = engine::DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = engine::InsertStrategy::kTable;
  auto store = engine::RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Load(*doc).ok());
  Database* db = store.value()->db();
  const char kProbe[] = "SELECT id FROM Customer WHERE id = ?";
  ASSERT_TRUE(db->ExecuteQueryBound(kProbe, {Value::Int(1)}).ok());
  auto ids = store.value()->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_FALSE(ids->empty());
  ASSERT_TRUE(store.value()
                  ->CopySubtree("Customer", ids->front(), store.value()->root_id())
                  .ok());
  Stats before = db->stats();
  ASSERT_TRUE(db->ExecuteQueryBound(kProbe, {Value::Int(1)}).ok());
  Stats delta = db->stats().Delta(before);
  EXPECT_EQ(delta.plans_built, 0u);  // staging churn did not evict it
  EXPECT_EQ(delta.plan_cache_hits, 1u);
}

TEST_F(PlannerTest, TriggerBodyPlansAreCachedAcrossRows) {
  Must("CREATE TABLE parent (id INTEGER)");
  Must("CREATE TABLE child (id INTEGER, parentId INTEGER)");
  Must("CREATE INDEX child_pid ON child (parentId)");
  Must("CREATE TRIGGER cascade_del AFTER DELETE ON parent FOR EACH ROW "
       "BEGIN DELETE FROM child WHERE parentId = OLD.id; END");
  Must("INSERT INTO parent VALUES (1), (2), (3), (4)");
  Must("INSERT INTO child VALUES (10, 1), (11, 2), (12, 3), (13, 4)");
  Stats before = db_.stats();
  Must("DELETE FROM parent");
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.trigger_firings, 4u);
  // One plan for the DELETE itself + one for the body; the body's remaining
  // three firings reuse the cached plan.
  EXPECT_EQ(delta.plans_built, 2u);
  EXPECT_EQ(delta.plan_cache_hits, 3u);
  ResultSet r = Query("SELECT COUNT(*) FROM child");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(PlannerTest, TriggerBodyReplansOnceAfterCreateIndex) {
  // The body's plan lives in its own handle's slot: the CREATE INDEX
  // version bump must make the next firing re-plan (once) onto the index.
  Must("CREATE TABLE parent (id INTEGER)");
  Must("CREATE TABLE child (id INTEGER, parentId INTEGER)");
  Must("CREATE TRIGGER cascade_del AFTER DELETE ON parent FOR EACH ROW "
       "BEGIN DELETE FROM child WHERE parentId = OLD.id; END");
  Must("INSERT INTO parent VALUES (1), (2), (3), (4)");
  Must("INSERT INTO child VALUES (10, 1), (11, 2), (12, 3), (13, 4)");
  Stats before = db_.stats();
  Must("DELETE FROM parent WHERE id IN (1, 2)");
  Stats first = db_.stats().Delta(before);
  EXPECT_EQ(first.trigger_firings, 2u);
  EXPECT_EQ(first.plans_built, 2u);  // the DELETE text + the body once
  EXPECT_EQ(first.index_probes, 0u);

  Must("CREATE INDEX child_pid ON child (parentId)");
  before = db_.stats();
  Must("DELETE FROM parent WHERE id IN (3, 4)");
  Stats second = db_.stats().Delta(before);
  EXPECT_EQ(second.trigger_firings, 2u);
  // The DELETE text plans as always; the body re-plans once, then its
  // second firing reuses the new plan.
  EXPECT_EQ(second.plans_built, 2u);
  EXPECT_EQ(second.plan_cache_hits, 1u);
  EXPECT_GT(second.index_probes, 0u);
  ResultSet r = Query("SELECT COUNT(*) FROM child");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// EXPLAIN output shape.

TEST_F(PlannerTest, ExplainSelectShowsProjectAndAccessPath) {
  CreateEmpDept(/*indexed=*/true);
  std::string plan = Explain("SELECT name FROM Emp WHERE deptId = 1");
  EXPECT_NE(plan.find("Project [name]"), std::string::npos);
  EXPECT_NE(plan.find("IndexProbe Emp via emp_dept (deptId = 1)"),
            std::string::npos);
}

TEST_F(PlannerTest, ExplainShowsSortUnionAndAggregate) {
  CreateEmpDept(/*indexed=*/false);
  std::string plan = Explain(
      "SELECT id FROM Emp UNION ALL SELECT id FROM Dept ORDER BY id DESC");
  EXPECT_NE(plan.find("Sort [id DESC]"), std::string::npos);
  EXPECT_NE(plan.find("UnionAll"), std::string::npos);
  std::string agg = Explain("SELECT COUNT(*), MIN(id) FROM Emp");
  EXPECT_NE(agg.find("Aggregate [COUNT(*), MIN(id)]"), std::string::npos);
}

TEST_F(PlannerTest, ExplainDeleteAndUpdateShowTargetAndPath) {
  CreateEmpDept(/*indexed=*/true);
  std::string del = Explain("DELETE FROM Emp WHERE deptId = 2");
  EXPECT_NE(del.find("Delete Emp"), std::string::npos);
  EXPECT_NE(del.find("IndexProbe Emp via emp_dept"), std::string::npos);
  std::string upd = Explain("UPDATE Emp SET name = 'x' WHERE id = 10");
  EXPECT_NE(upd.find("Update Emp [set name]"), std::string::npos);
  EXPECT_NE(upd.find("Scan Emp (filter: (id = 10))"), std::string::npos);
}

TEST_F(PlannerTest, ExplainDoesNotExecute) {
  CreateEmpDept(/*indexed=*/false);
  ASSERT_TRUE(db_.ExecuteQuery("EXPLAIN DELETE FROM Emp").ok());
  ResultSet r = Query("SELECT COUNT(*) FROM Emp");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
}

TEST_F(PlannerTest, ExplainRejectsNonPlannableStatements) {
  EXPECT_EQ(db_.ExecuteQuery("EXPLAIN BEGIN").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      db_.ExecuteQuery("EXPLAIN CREATE TABLE t (a INTEGER)").status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, ExplainErrorsOnUnknownNames) {
  EXPECT_EQ(db_.ExecuteQuery("EXPLAIN SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Planner name-resolution errors surface even on empty tables (the seed
// interpreter validated up front; the planner must too).

TEST_F(PlannerTest, UnknownColumnsFailOnEmptyTables) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(db_.ExecuteQuery("SELECT nope FROM t").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteQuery("SELECT a FROM t WHERE nope = 1").status().code(),
            StatusCode::kNotFound);
  Must("CREATE TABLE u (a INTEGER)");
  EXPECT_EQ(
      db_.ExecuteQuery("SELECT a FROM t, u").status().code(),
      StatusCode::kInvalidArgument);  // ambiguous
}

// ---------------------------------------------------------------------------
// Parity: probed and forced-scan execution return identical results on the
// workload query shapes (point/join/IN-subquery/aggregate/outer-union).

class ParityTest : public PlannerTest {
 protected:
  /// Customer/Order/OrderLine fixture: 8 customers x 3 orders x 2 lines.
  static void LoadParityData(Database* db, bool indexed) {
    auto must = [db](const std::string& sql) {
      Status s = db->ExecuteQuery(sql).status();
      ASSERT_TRUE(s.ok()) << sql << "\n  -> " << s;
    };
    must("CREATE TABLE CustDB (id INTEGER)");
    must("CREATE TABLE Customer (id INTEGER, parentId INTEGER, "
         "Name VARCHAR, City VARCHAR)");
    must("CREATE TABLE Ord (id INTEGER, parentId INTEGER, Status VARCHAR)");
    must("CREATE TABLE OrderLine (id INTEGER, parentId INTEGER, "
         "ItemName VARCHAR, Qty INTEGER)");
    if (indexed) {
      for (const char* idx :
           {"cust_id ON Customer (id)", "cust_pid ON Customer (parentId)",
            "ord_id ON Ord (id)", "ord_pid ON Ord (parentId)",
            "ol_id ON OrderLine (id)", "ol_pid ON OrderLine (parentId)"}) {
        must(std::string("CREATE INDEX ") + idx);
      }
    }
    must("INSERT INTO CustDB VALUES (1)");
    for (int c = 0; c < 8; ++c) {
      int cid = 100 + c;
      must("INSERT INTO Customer VALUES (" + std::to_string(cid) + ", 1, "
           "'cust" + std::to_string(c % 3) + "', 'city" +
           std::to_string(c % 2) + "')");
      for (int o = 0; o < 3; ++o) {
        int oid = 1000 + c * 10 + o;
        must("INSERT INTO Ord VALUES (" + std::to_string(oid) + ", " +
             std::to_string(cid) + ", 'st" + std::to_string(o) + "')");
        for (int l = 0; l < 2; ++l) {
          must("INSERT INTO OrderLine VALUES (" +
               std::to_string(10000 + oid * 10 + l) + ", " +
               std::to_string(oid) + ", 'item" + std::to_string(l) + "', " +
               std::to_string(l + c) + ")");
        }
      }
    }
  }

  void SetUp() override { LoadParityData(&db_, /*indexed=*/true); }

  /// Runs `sql` with index probes on and off and asserts identical results.
  void ExpectParity(const std::string& sql) {
    db_.set_planner_index_probes_enabled(true);
    auto probed = db_.ExecuteQuery(sql);
    ASSERT_TRUE(probed.ok()) << sql << "\n  -> " << probed.status();
    db_.set_planner_index_probes_enabled(false);
    auto scanned = db_.ExecuteQuery(sql);
    ASSERT_TRUE(scanned.ok()) << sql << "\n  -> " << scanned.status();
    db_.set_planner_index_probes_enabled(true);
    EXPECT_EQ(probed->columns, scanned->columns) << sql;
    // Row order can legitimately differ between access paths (hash-set
    // iteration vs scan order); compare as sorted multisets.
    auto normalize = [](const ResultSet& r) {
      std::vector<std::string> rows;
      for (const Row& row : r.rows) {
        std::string s;
        for (const Value& v : row) s += v.ToSqlLiteral() + "|";
        rows.push_back(std::move(s));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(normalize(*probed), normalize(*scanned)) << sql;
  }
};

TEST_F(ParityTest, WorkloadQueryShapesMatch) {
  // Point and range predicates (fig. 6/8 subtree-root selection).
  ExpectParity("SELECT id FROM Customer WHERE Name = 'cust1'");
  ExpectParity("SELECT id FROM Ord WHERE parentId = 103");
  ExpectParity("SELECT id FROM OrderLine WHERE Qty > 3");
  // Parent/child join chains (§7.2 path queries).
  ExpectParity(
      "SELECT OrderLine.id FROM Customer, Ord, OrderLine "
      "WHERE Ord.parentId = Customer.id AND OrderLine.parentId = Ord.id "
      "AND Customer.Name = 'cust0'");
  // IN-subquery semijoins (the translator's xupd_idlist shape).
  ExpectParity(
      "SELECT id FROM Ord WHERE parentId IN "
      "(SELECT id FROM Customer WHERE City = 'city1')");
  // Aggregates over joins (fig. 7/9 bookkeeping queries).
  ExpectParity(
      "SELECT COUNT(*), MIN(OrderLine.id), MAX(OrderLine.Qty) "
      "FROM Ord, OrderLine WHERE OrderLine.parentId = Ord.id");
  // Outer-union style UNION ALL + ORDER BY (§5.2 sorted outer union).
  ExpectParity(
      "SELECT id, parentId FROM Ord WHERE parentId = 101 UNION ALL "
      "SELECT id, parentId FROM OrderLine WHERE parentId = 1010 "
      "ORDER BY id");
  // CTE staging (the compound-select machinery).
  ExpectParity(
      "WITH eng (cid) AS (SELECT id FROM Customer WHERE Name = 'cust2') "
      "SELECT Ord.id FROM Ord, eng WHERE Ord.parentId = eng.cid "
      "ORDER BY id DESC");
}

TEST_F(ParityTest, MutationsMatchUnderBothAccessPaths) {
  // Apply the same delete+update sequence on probed and scanned plans and
  // compare the full surviving contents.
  auto run_sequence = [&](Database* db) {
    ASSERT_TRUE(db->ExecuteQuery("DELETE FROM OrderLine WHERE parentId IN "
                                 "(SELECT id FROM Ord WHERE Status = 'st1')")
                    .ok());
    ASSERT_TRUE(db->ExecuteQuery("UPDATE Ord SET Status = 'gone' "
                                 "WHERE id IN (SELECT parentId FROM OrderLine "
                                 "WHERE Qty = 4)")
                    .ok());
    ASSERT_TRUE(
        db->ExecuteQuery("DELETE FROM Customer WHERE Name = 'cust0'").ok());
    // A NULL probe value matches no row, not the rows whose parentId is
    // NULL: each table gets one such row and one statement of its own.
    for (const char* sql : {"INSERT INTO Ord VALUES (2000, NULL, 'loose')",
                            "INSERT INTO OrderLine VALUES (30000, NULL, "
                            "'loose', 0)",
                            "INSERT INTO Customer VALUES (200, NULL, 'loose', "
                            "'city0')"}) {
      ASSERT_TRUE(db->ExecuteQuery(sql).ok()) << sql;
    }
    ASSERT_TRUE(db->ExecuteQuery("DELETE FROM Ord WHERE parentId = NULL").ok());
    ASSERT_TRUE(db->ExecuteQueryBound("DELETE FROM OrderLine WHERE parentId = ?",
                                      {Value::Null()})
                    .ok());
    ASSERT_TRUE(
        db->ExecuteQuery("DELETE FROM Customer WHERE parentId IN (NULL, 5)")
            .ok());
    ASSERT_TRUE(db->ExecuteQuery("UPDATE Ord SET Status = 'hit' "
                                 "WHERE parentId IN (NULL, 105)")
                    .ok());
  };
  auto dump = [&](Database* db) {
    std::vector<std::string> rows;
    for (const char* sql :
         {"SELECT * FROM Customer", "SELECT * FROM Ord",
          "SELECT * FROM OrderLine"}) {
      auto r = db->ExecuteQuery(sql);
      EXPECT_TRUE(r.ok()) << r.status();
      for (const Row& row : r->rows) {
        std::string s;
        for (const Value& v : row) s += v.ToSqlLiteral() + "|";
        rows.push_back(std::move(s));
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  db_.set_planner_index_probes_enabled(true);
  run_sequence(&db_);
  auto probed = dump(&db_);

  // Fresh database, same schema + data (no indexes), scans forced.
  Database scan_db;
  LoadParityData(&scan_db, /*indexed=*/false);
  scan_db.set_planner_index_probes_enabled(false);
  run_sequence(&scan_db);
  auto scanned = dump(&scan_db);
  EXPECT_EQ(probed, scanned);
}

// ---------------------------------------------------------------------------
// Engine-level: the fig. 6 bulk-delete workload runs fully planned, and the
// engine's hot paths (store/translator) reuse cached plans.

TEST(PlannerEngineTest, EngineWorkloadReconstructsIdenticallyUnderForcedScans) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  engine::RelationalStore::Options options;
  options.delete_strategy = engine::DeleteStrategy::kPerTupleTrigger;

  std::string probed_xml, scanned_xml;
  for (bool probes : {true, false}) {
    auto store = engine::RelationalStore::Create(dtd, options);
    ASSERT_TRUE(store.ok()) << store.status();
    auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
    ASSERT_TRUE(store.value()->Load(*doc).ok());
    store.value()->db()->set_planner_index_probes_enabled(probes);
    ASSERT_TRUE(store.value()->DeleteWhere("Customer", "Name = 'John'").ok());
    ASSERT_TRUE(store.value()
                    ->ExecuteXQueryUpdate(R"(
      FOR $d IN document("custdb.xml"), $c IN $d/Customer[Name="Mary"]
      UPDATE $d { DELETE $c })")
                    .ok());
    auto rebuilt = store.value()->Reconstruct();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    (probes ? probed_xml : scanned_xml) = xml::Serialize(*rebuilt.value());
  }
  EXPECT_EQ(probed_xml, scanned_xml);
}

TEST(PlannerEngineTest, EngineUpdatePathsHitThePlanCache) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  engine::RelationalStore::Options options;
  options.delete_strategy = engine::DeleteStrategy::kPerTupleTrigger;
  auto store = engine::RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store.value()->Load(*doc).ok());

  // The bulk delete cascades through per-row triggers: after the first row,
  // every body statement runs on a cached plan, so the engine's hottest
  // delete path executes fully planned with reuse.
  uint64_t before = store.value()->stats().plan_cache_hits;
  ASSERT_TRUE(store.value()->DeleteWhere("Customer", "").ok());
  EXPECT_GT(store.value()->stats().plan_cache_hits, before);
}

// ---------------------------------------------------------------------------
// Savepoint SQL surface (mapped onto nested transaction scopes).

class SavepointTest : public PlannerTest {
 protected:
  void SetUp() override {
    Must("CREATE TABLE t (id INTEGER, v VARCHAR)");
    Must("CREATE INDEX t_id ON t (id)");
    Must("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  }
  int64_t CountRows() {
    ResultSet r = Query("SELECT COUNT(*) FROM t");
    return r.rows[0][0].AsInt();
  }
};

TEST_F(SavepointTest, RollbackToUndoesOnlyThePostSavepointWrites) {
  Must("BEGIN");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("SAVEPOINT sp1");
  Must("INSERT INTO t VALUES (4, 'd')");
  Must("UPDATE t SET v = 'z' WHERE id = 1");
  EXPECT_EQ(CountRows(), 4);
  Must("ROLLBACK TO sp1");
  EXPECT_EQ(CountRows(), 3);  // (4,'d') undone, (3,'c') kept
  ResultSet r = Query("SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsString(), "a");  // update undone
  // The savepoint survives ROLLBACK TO: it can be rolled back to again.
  Must("INSERT INTO t VALUES (5, 'e')");
  Must("ROLLBACK TO SAVEPOINT sp1");
  EXPECT_EQ(CountRows(), 3);
  // The savepoint is a nested scope: COMMIT merges it into the outer
  // transaction, which a second COMMIT then makes durable.
  Must("COMMIT");
  EXPECT_EQ(db_.transaction_depth(), 1u);
  Must("COMMIT");
  EXPECT_EQ(CountRows(), 3);
  EXPECT_FALSE(db_.in_transaction());
}

TEST_F(SavepointTest, ReleaseMergesIntoTheParentScope) {
  Must("BEGIN");
  Must("SAVEPOINT sp1");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("RELEASE sp1");
  EXPECT_EQ(db_.transaction_depth(), 1u);
  // The released writes roll back with the outer transaction.
  Must("ROLLBACK");
  EXPECT_EQ(CountRows(), 2);
}

TEST_F(SavepointTest, RollbackToDiscardsNestedSavepoints) {
  Must("BEGIN");
  Must("SAVEPOINT outer_sp");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("SAVEPOINT inner_sp");
  Must("INSERT INTO t VALUES (4, 'd')");
  Must("ROLLBACK TO outer_sp");
  EXPECT_EQ(CountRows(), 2);
  // inner_sp is gone with its enclosing rollback.
  EXPECT_EQ(db_.ExecuteQuery("ROLLBACK TO inner_sp").status().code(),
            StatusCode::kInvalidArgument);
  Must("COMMIT");
}

TEST_F(SavepointTest, SavepointRequiresActiveTransaction) {
  EXPECT_EQ(db_.ExecuteQuery("SAVEPOINT sp1").status().code(),
            StatusCode::kInvalidArgument);
  Must("BEGIN");
  EXPECT_EQ(db_.ExecuteQuery("ROLLBACK TO nope").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.ExecuteQuery("RELEASE nope").status().code(),
            StatusCode::kInvalidArgument);
  Must("COMMIT");
}

TEST_F(SavepointTest, SavepointNamesAreCaseInsensitive) {
  Must("BEGIN");
  Must("SAVEPOINT MySp");
  Must("INSERT INTO t VALUES (3, 'c')");
  Must("ROLLBACK TO mysp");
  EXPECT_EQ(CountRows(), 2);
  Must("RELEASE MYSP");
  Must("COMMIT");
}

// ---------------------------------------------------------------------------
// IN-list / IN-subquery probes at inner join steps: the probe values are
// row-free by construction, so the executor gathers the candidate set once
// per execution and replays it for every outer row.

TEST_F(PlannerTest, InnerJoinStepUsesInListProbe) {
  CreateEmpDept(/*indexed=*/true);
  std::string plan = Explain(
      "SELECT Emp.name FROM Dept, Emp "
      "WHERE Emp.deptId IN (1, 2) AND Dept.id = 1");
  // The IN conjunct binds only Emp (the inner relation) and must drive an
  // index probe there, not a per-outer-row scan.
  EXPECT_NE(plan.find("IndexProbe Emp via emp_dept (Emp.deptId IN [2 values])"),
            std::string::npos)
      << plan;

  Stats before = db_.stats();
  ResultSet r = Query(
      "SELECT Emp.name FROM Dept, Emp "
      "WHERE Emp.deptId IN (1, 2) AND Dept.id = 1 ORDER BY name");
  ASSERT_EQ(r.rows.size(), 3u);  // ann, bob (dept 1) + cat (dept 2)
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.rows_scanned, 0u);  // both steps probe, nothing scans
  // One gather for the single qualifying outer row; re-Opens replay it.
  EXPECT_GT(delta.index_probes, 0u);
}

TEST_F(PlannerTest, InnerJoinStepUsesInSubqueryProbe) {
  CreateEmpDept(/*indexed=*/true);
  std::string plan = Explain(
      "SELECT Emp.name FROM Dept, Emp "
      "WHERE Emp.deptId IN (SELECT id FROM Dept WHERE name = 'eng')");
  EXPECT_NE(plan.find("IndexProbe Emp via emp_dept (Emp.deptId IN (subquery))"),
            std::string::npos)
      << plan;
  // Parity with the forced-scan plan on the same query.
  ResultSet probed = Query(
      "SELECT Emp.name FROM Dept, Emp WHERE Emp.deptId IN "
      "(SELECT id FROM Dept WHERE name = 'eng') ORDER BY name");
  db_.set_planner_index_probes_enabled(false);
  ResultSet scanned = Query(
      "SELECT Emp.name FROM Dept, Emp WHERE Emp.deptId IN "
      "(SELECT id FROM Dept WHERE name = 'eng') ORDER BY name");
  db_.set_planner_index_probes_enabled(true);
  ASSERT_EQ(probed.rows.size(), scanned.rows.size());
  for (size_t i = 0; i < probed.rows.size(); ++i) {
    EXPECT_EQ(probed.rows[i][0].AsString(), scanned.rows[i][0].AsString());
  }
  // 3 Dept outer rows x 2 eng Emps each.
  EXPECT_EQ(probed.rows.size(), 6u);
}

TEST_F(PlannerTest, InnerInProbeGathersOncePerExecution) {
  CreateEmpDept(/*indexed=*/true);
  Stats before = db_.stats();
  ResultSet r = Query(
      "SELECT Emp.name FROM Dept, Emp WHERE Emp.deptId IN (1, 2)");
  EXPECT_EQ(r.rows.size(), 9u);  // 3 Dept rows x 3 matching Emps
  Stats delta = db_.stats().Delta(before);
  // One Lookup per IN value, once — NOT once per outer Dept row.
  EXPECT_EQ(delta.index_probes, 2u);
}

}  // namespace
}  // namespace xupd::rdb
