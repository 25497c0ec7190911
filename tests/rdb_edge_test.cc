// Edge cases and failure paths of the relational engine.
#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "rdb/database.h"

namespace xupd::rdb {
namespace {

class RdbEdgeTest : public ::testing::Test {
 protected:
  void Must(const std::string& sql) {
    Status s = db_.ExecuteQuery(sql).status();
    ASSERT_TRUE(s.ok()) << sql << " -> " << s;
  }
  Database db_;
};

TEST_F(RdbEdgeTest, UnknownTableAndColumnErrors) {
  EXPECT_EQ(db_.ExecuteQuery("SELECT * FROM nosuch").status().code(),
            StatusCode::kNotFound);
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(db_.ExecuteQuery("SELECT b FROM t").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteQuery("INSERT INTO t (b) VALUES (1)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteQuery("UPDATE t SET b = 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteQuery("CREATE INDEX i ON t (b)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteQuery("CREATE INDEX i ON nosuch (a)").status().code(),
            StatusCode::kNotFound);
}

TEST_F(RdbEdgeTest, AmbiguousColumnInJoin) {
  Must("CREATE TABLE a (id INTEGER)");
  Must("CREATE TABLE b (id INTEGER)");
  Must("INSERT INTO a VALUES (1)");
  Must("INSERT INTO b VALUES (1)");
  auto r = db_.ExecuteQuery("SELECT id FROM a, b");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto ok = db_.ExecuteQuery("SELECT a.id FROM a, b");
  EXPECT_TRUE(ok.ok());
}

TEST_F(RdbEdgeTest, SelfJoinWithAliases) {
  Must("CREATE TABLE n (id INTEGER, parentId INTEGER)");
  Must("CREATE INDEX n_id ON n (id)");
  Must("INSERT INTO n VALUES (1, NULL)");
  Must("INSERT INTO n VALUES (2, 1)");
  Must("INSERT INTO n VALUES (3, 2)");
  auto r = db_.ExecuteQuery(
      "SELECT c.id FROM n c, n p WHERE c.parentId = p.id AND p.parentId = 1");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
}

TEST_F(RdbEdgeTest, DivisionByZero) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1)");
  EXPECT_FALSE(db_.ExecuteQuery("SELECT a / 0 FROM t").ok());
}

TEST_F(RdbEdgeTest, UnionArityMismatch) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  auto r = db_.ExecuteQuery(
      "(SELECT a FROM t) UNION ALL (SELECT a, b FROM t)");
  EXPECT_FALSE(r.ok());
}

TEST_F(RdbEdgeTest, OrderByUnknownColumn) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_FALSE(db_.ExecuteQuery("SELECT a FROM t ORDER BY z").ok());
}

TEST_F(RdbEdgeTest, TriggerOnlyAfterDeleteSupported) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_FALSE(
      db_.ExecuteQuery("CREATE TRIGGER x AFTER INSERT ON t FOR EACH ROW "
                       "BEGIN DELETE FROM t; END")
          .ok());
}

TEST_F(RdbEdgeTest, DuplicateTriggerNameRejected) {
  Must("CREATE TABLE p (id INTEGER)");
  Must("CREATE TABLE c (id INTEGER, parentId INTEGER)");
  Must("CREATE TRIGGER x AFTER DELETE ON p FOR EACH ROW BEGIN "
       "DELETE FROM c WHERE parentId = OLD.id; END");
  EXPECT_EQ(db_.ExecuteQuery("CREATE TRIGGER x AFTER DELETE ON p FOR EACH ROW "
                             "BEGIN DELETE FROM c WHERE parentId = OLD.id; END")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RdbEdgeTest, RecursiveSchemaTriggersTerminate) {
  // A self-referencing table with a per-row trigger: deleting a chain head
  // cascades through the whole chain without infinite recursion.
  Must("CREATE TABLE n (id INTEGER, parentId INTEGER)");
  Must("CREATE INDEX n_pid ON n (parentId)");
  Must("CREATE TRIGGER n_del AFTER DELETE ON n FOR EACH ROW BEGIN "
       "DELETE FROM n WHERE parentId = OLD.id; END");
  for (int i = 1; i <= 20; ++i) {
    Must("INSERT INTO n VALUES (" + std::to_string(i) + ", " +
         (i == 1 ? std::string("NULL") : std::to_string(i - 1)) + ")");
  }
  Must("DELETE FROM n WHERE id = 1");
  auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST_F(RdbEdgeTest, OldColumnOutsideTriggerFails) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_FALSE(db_.ExecuteQuery("SELECT OLD.a FROM t").ok());
}

TEST_F(RdbEdgeTest, CteShadowsNothingAndExpires) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (5)");
  auto r = db_.ExecuteQuery(
      "WITH w (x) AS (SELECT a FROM t) SELECT x FROM w");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
  // The CTE does not persist beyond its statement.
  EXPECT_FALSE(db_.ExecuteQuery("SELECT * FROM w").ok());
}

TEST_F(RdbEdgeTest, CtesChainInOrder) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1)");
  auto r = db_.ExecuteQuery(R"(
      WITH w1 (x) AS (SELECT a + 1 FROM t),
           w2 (y) AS (SELECT x * 10 FROM w1)
      SELECT y FROM w2)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
}

TEST_F(RdbEdgeTest, EmptyInListAndSubquery) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("CREATE TABLE e (b INTEGER)");
  Must("INSERT INTO t VALUES (1)");
  auto r = db_.ExecuteQuery(
      "SELECT COUNT(*) FROM t WHERE a IN (SELECT b FROM e)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  auto r2 = db_.ExecuteQuery(
      "SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT b FROM e)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].AsInt(), 1);
}

TEST_F(RdbEdgeTest, DeleteEverythingThenReuse) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("CREATE INDEX t_a ON t (a)");
  for (int i = 0; i < 10; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  Must("DELETE FROM t");
  auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM t WHERE a = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  Must("INSERT INTO t VALUES (3)");
  r = db_.ExecuteQuery("SELECT COUNT(*) FROM t WHERE a = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(RdbEdgeTest, StatementLatencyIsObservable) {
  Must("CREATE TABLE t (a INTEGER)");
  db_.set_statement_latency_us(2000);  // 2 ms
  Stopwatch sw;
  Must("INSERT INTO t VALUES (1)");
  EXPECT_GE(sw.ElapsedSeconds(), 0.0018);
  db_.set_statement_latency_us(0);
}

TEST_F(RdbEdgeTest, MixedTypeComparisonCoercesNumericStrings) {
  Must("CREATE TABLE t (a VARCHAR)");
  Must("INSERT INTO t VALUES ('0042')");
  auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM t WHERE a = 42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

}  // namespace
}  // namespace xupd::rdb
