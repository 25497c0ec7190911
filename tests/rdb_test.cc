// Tests for the relational engine: SQL parsing/execution, joins, CTE outer
// unions (Fig. 5), triggers (per-row / per-statement), and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdb/database.h"
#include "rdb/exec_node.h"
#include "rdb/sql_parser.h"

namespace xupd::rdb {
namespace {

class RdbTest : public ::testing::Test {
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
  int64_t QueryInt(const std::string& sql) {
    ResultSet r = Query(sql);
    EXPECT_EQ(r.rows.size(), 1u) << sql;
    EXPECT_GE(r.rows[0].size(), 1u) << sql;
    return r.rows[0][0].AsInt();
  }

  // The customer schema of §5.1 (4 relations with id/parentId links).
  void CreateCustomerSchema() {
    Must("CREATE TABLE CustDB (id INTEGER)");
    Must("CREATE TABLE Customer (id INTEGER, parentId INTEGER, "
         "Name VARCHAR, Address_City VARCHAR, Address_State VARCHAR)");
    Must("CREATE TABLE Ord (id INTEGER, parentId INTEGER, Status VARCHAR)");
    Must("CREATE TABLE OrderLine (id INTEGER, parentId INTEGER, "
         "ItemName VARCHAR, Qty INTEGER)");
    Must("CREATE INDEX cust_id ON Customer (id)");
    Must("CREATE INDEX cust_pid ON Customer (parentId)");
    Must("CREATE INDEX ord_id ON Ord (id)");
    Must("CREATE INDEX ord_pid ON Ord (parentId)");
    Must("CREATE INDEX ol_id ON OrderLine (id)");
    Must("CREATE INDEX ol_pid ON OrderLine (parentId)");
  }

  void LoadCustomerData() {
    Must("INSERT INTO CustDB VALUES (1)");
    Must("INSERT INTO Customer VALUES (2, 1, 'John', 'Seattle', 'WA')");
    Must("INSERT INTO Customer VALUES (3, 1, 'Mary', 'Fresno', 'CA')");
    Must("INSERT INTO Customer VALUES (4, 1, 'John', 'Portland', 'OR')");
    Must("INSERT INTO Ord VALUES (5, 2, 'ready')");
    Must("INSERT INTO Ord VALUES (6, 2, 'shipped')");
    Must("INSERT INTO Ord VALUES (7, 3, 'ready')");
    Must("INSERT INTO OrderLine VALUES (8, 5, 'tire', 4)");
    Must("INSERT INTO OrderLine VALUES (9, 5, 'wrench', 1)");
    Must("INSERT INTO OrderLine VALUES (10, 6, 'tire', 2)");
    Must("INSERT INTO OrderLine VALUES (11, 7, 'hammer', 1)");
  }

  Database db_;
};

TEST_F(RdbTest, CreateTableAndInsertSelect) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR)");
  Must("INSERT INTO t VALUES (1, 'x')");
  Must("INSERT INTO t (b, a) VALUES ('y', 2)");
  ResultSet r = Query("SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsString(), "x");
  EXPECT_EQ(r.rows[1][1].AsString(), "y");
}

TEST_F(RdbTest, DuplicateTableFails) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(db_.ExecuteQuery("CREATE TABLE t (a INTEGER)").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RdbTest, ParseErrors) {
  EXPECT_FALSE(db_.ExecuteQuery("SELEC 1").ok());
  EXPECT_FALSE(db_.ExecuteQuery("CREATE TABLE ()").ok());
  EXPECT_FALSE(db_.ExecuteQuery("INSERT t VALUES (1)").ok());
  EXPECT_FALSE(db_.ExecuteQuery("DELETE t").ok());
  EXPECT_FALSE(db_.ExecuteQuery("SELECT * FROM t WHERE").ok());
}

TEST_F(RdbTest, TypeCoercionOnInsert) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR)");
  Must("INSERT INTO t VALUES ('42', 7)");  // both coerced
  ResultSet r = Query("SELECT a, b FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 42);
  EXPECT_EQ(r.rows[0][1].AsString(), "7");
  EXPECT_EQ(
      db_.ExecuteQuery("INSERT INTO t VALUES ('abc', 'x')").status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(RdbTest, NullHandling) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR)");
  Must("INSERT INTO t VALUES (NULL, 'x')");
  Must("INSERT INTO t VALUES (1, NULL)");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a IS NULL"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE b IS NOT NULL"), 1);
  // NULL comparisons are not true.
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a = 1"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a <> 1"), 0);
}

TEST_F(RdbTest, OrderByNullsFirst) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (2)");
  Must("INSERT INTO t VALUES (NULL)");
  Must("INSERT INTO t VALUES (1)");
  ResultSet r = Query("SELECT a FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[1][0].AsInt(), 1);
  EXPECT_EQ(r.rows[2][0].AsInt(), 2);
  ResultSet d = Query("SELECT a FROM t ORDER BY a DESC");
  EXPECT_EQ(d.rows[0][0].AsInt(), 2);
  EXPECT_TRUE(d.rows[2][0].is_null());
}

TEST_F(RdbTest, WhereComparisonsAndLogic) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR)");
  for (int i = 1; i <= 10; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
         std::to_string(i % 3) + "')");
  }
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a > 5"), 5);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a >= 5 AND a <= 7"), 3);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a < 3 OR a > 8"), 4);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE NOT a = 1"), 9);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE b = 'v0'"), 3);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a IN (1, 5, 99)"), 2);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t WHERE a NOT IN (1, 5)"), 8);
}

TEST_F(RdbTest, Arithmetic) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (10)");
  ResultSet r = Query("SELECT a + 5, a - 3, a * 2, a / 4 FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 15);
  EXPECT_EQ(r.rows[0][1].AsInt(), 7);
  EXPECT_EQ(r.rows[0][2].AsInt(), 20);
  EXPECT_EQ(r.rows[0][3].AsInt(), 2);
}

TEST_F(RdbTest, Aggregates) {
  Must("CREATE TABLE t (a INTEGER)");
  for (int i = 1; i <= 5; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i * 10) + ")");
  }
  ResultSet r = Query("SELECT MIN(a), MAX(a), COUNT(*), SUM(a) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt(), 50);
  EXPECT_EQ(r.rows[0][2].AsInt(), 5);
  EXPECT_EQ(r.rows[0][3].AsInt(), 150);
  // Aggregates over empty input: COUNT 0, MIN/MAX NULL.
  Must("DELETE FROM t");
  ResultSet e = Query("SELECT COUNT(*), MIN(a) FROM t");
  EXPECT_EQ(e.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(e.rows[0][1].is_null());
}

TEST_F(RdbTest, JoinTwoTables) {
  CreateCustomerSchema();
  LoadCustomerData();
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Customer c, Ord o "
                     "WHERE o.parentId = c.id AND c.Name = 'John'"),
            2);
}

TEST_F(RdbTest, ThreeWayJoin) {
  CreateCustomerSchema();
  LoadCustomerData();
  // Customers who ordered tires.
  ResultSet r = Query(
      "SELECT c.Name FROM Customer c, Ord o, OrderLine l "
      "WHERE o.parentId = c.id AND l.parentId = o.id AND l.ItemName = 'tire' "
      "ORDER BY Name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "John");
}

TEST_F(RdbTest, JoinUsesIndex) {
  CreateCustomerSchema();
  LoadCustomerData();
  Stats before = db_.stats();
  Query("SELECT o.id FROM Customer c, Ord o "
        "WHERE c.Name = 'Mary' AND o.parentId = c.id");
  Stats delta = db_.stats().Delta(before);
  // Ord must be probed via its parentId index, not scanned.
  EXPECT_GT(delta.index_probes, 0u);
  // Customer scan (4 rows incl. CustDB? no: just Customer's 3 live rows).
  EXPECT_LE(delta.rows_scanned, 4u);
}

TEST_F(RdbTest, InSubquery) {
  CreateCustomerSchema();
  LoadCustomerData();
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord WHERE parentId IN "
                     "(SELECT id FROM Customer WHERE Name = 'John')"),
            2);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord WHERE parentId NOT IN "
                     "(SELECT id FROM Customer)"),
            0);
}

TEST_F(RdbTest, DeleteWithWhere) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("DELETE FROM Customer WHERE Name = 'John'");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Customer"), 1);
  // Orphan delete (cascading-delete building block, §6.1.2).
  Must("DELETE FROM Ord WHERE parentId NOT IN (SELECT id FROM Customer)");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord"), 1);
  Must("DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Ord)");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM OrderLine"), 1);
}

TEST_F(RdbTest, UpdateSetsColumns) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("UPDATE Ord SET Status = 'suspended' WHERE Status = 'ready'");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord WHERE Status = 'suspended'"), 2);
  // SET expressions read the pre-update row.
  Must("CREATE TABLE n (a INTEGER, b INTEGER)");
  Must("INSERT INTO n VALUES (1, 2)");
  Must("UPDATE n SET a = b, b = a");
  ResultSet r = Query("SELECT a, b FROM n");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
}

TEST_F(RdbTest, UpdateWithArithmeticOffset) {
  // The table-based insert remaps ids by adding an offset (§6.2.2).
  Must("CREATE TABLE tmp (id INTEGER, parentId INTEGER)");
  Must("INSERT INTO tmp VALUES (100, 50)");
  Must("INSERT INTO tmp VALUES (101, 100)");
  Must("UPDATE tmp SET id = id + 1000, parentId = parentId + 1000");
  ResultSet r = Query("SELECT id, parentId FROM tmp ORDER BY id");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1100);
  EXPECT_EQ(r.rows[1][1].AsInt(), 1100);
}

TEST_F(RdbTest, InsertFromSelect) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("INSERT INTO Customer SELECT id + 100, parentId, Name, Address_City, "
       "Address_State FROM Customer WHERE Name = 'Mary'");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Customer WHERE Name = 'Mary'"), 2);
  EXPECT_EQ(QueryInt("SELECT MAX(id) FROM Customer"), 103);
}

TEST_F(RdbTest, InsertSelectSharesHeapStringBlocks) {
  // A copied row holds its source's string blocks: INSERT ... SELECT never
  // rebuilds a string longer than the 14-byte inline limit.
  Must("CREATE TABLE t (id INTEGER, s VARCHAR)");
  Must("CREATE TABLE u (id INTEGER, s VARCHAR)");
  for (int i = 0; i < 8; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) +
         ", 'a string longer than the inline limit #" + std::to_string(i) +
         "')");
  }
  Must("INSERT INTO u SELECT * FROM t");
  const Table* t = db_.FindTable("t");
  const Table* u = db_.FindTable("u");
  ASSERT_EQ(u->capacity(), t->capacity());
  for (size_t r = 0; r < t->capacity(); ++r) {
    ASSERT_NE(t->row(r)[1].rep(), nullptr);
    EXPECT_EQ(u->row(r)[1].rep(), t->row(r)[1].rep()) << "row " << r;
  }
}

TEST_F(RdbTest, OuterUnionFigure5Shape) {
  CreateCustomerSchema();
  LoadCustomerData();
  // The WITH/UNION ALL/ORDER BY query of Figure 5, for customers named John.
  ResultSet r = Query(R"(
    WITH Q1 (C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
      SELECT id, Name, Address_City, Address_State,
             NULL, NULL, NULL, NULL, NULL
      FROM Customer WHERE Name = 'John'
    ), Q2 (C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
      SELECT Q1.C1, NULL, NULL, NULL, O.id, O.Status, NULL, NULL, NULL
      FROM Q1, Ord O WHERE O.parentId = Q1.C1
    ), Q3 (C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
      SELECT Q2.C1, NULL, NULL, NULL, Q2.C5, NULL, OL.id, OL.ItemName, OL.Qty
      FROM Q2, OrderLine OL WHERE OL.parentId = Q2.C5
    )
    (SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2) UNION ALL (SELECT * FROM Q3)
    ORDER BY C1, C5, C7)");
  // John(2): order 5 (2 lines), order 6 (1 line); John(4): no orders.
  // Rows: 2 customer rows + 2 order rows + 3 orderline rows = 7.
  ASSERT_EQ(r.rows.size(), 7u);
  ASSERT_EQ(r.columns.size(), 9u);
  EXPECT_EQ(r.columns[0], "C1");
  // Sorted stream: customer 2 first (C5 NULL), then its orders/lines,
  // child data after parent data, different parents not intermixed.
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_TRUE(r.rows[0][4].is_null());  // customer row: C5 NULL
  EXPECT_EQ(r.rows[1][4].AsInt(), 5);   // order 5 row precedes its lines
  EXPECT_TRUE(r.rows[1][6].is_null());
  EXPECT_EQ(r.rows[2][6].AsInt(), 8);   // line 8
  EXPECT_EQ(r.rows[3][6].AsInt(), 9);   // line 9
  EXPECT_EQ(r.rows[4][4].AsInt(), 6);   // order 6
  EXPECT_EQ(r.rows[5][6].AsInt(), 10);  // line 10
  EXPECT_EQ(r.rows[6][0].AsInt(), 4);   // customer 4 block last
  EXPECT_TRUE(r.rows[6][4].is_null());
}

TEST_F(RdbTest, PerRowTriggerCascades) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH ROW BEGIN "
       "DELETE FROM Ord WHERE parentId = OLD.id; END");
  Must("CREATE TRIGGER ord_del AFTER DELETE ON Ord FOR EACH ROW BEGIN "
       "DELETE FROM OrderLine WHERE parentId = OLD.id; END");
  Stats before = db_.stats();
  Must("DELETE FROM Customer WHERE Name = 'John'");
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Customer"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM OrderLine"), 1);
  // 2 customers + 2 orders fired row triggers; 1 app statement only.
  EXPECT_EQ(delta.statements, 1u);
  EXPECT_EQ(delta.trigger_firings, 4u);
  EXPECT_EQ(delta.rows_deleted, 7u);
}

TEST_F(RdbTest, PerStatementTriggerCascades) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT "
       "BEGIN DELETE FROM Ord WHERE parentId NOT IN (SELECT id FROM Customer); "
       "END");
  Must("CREATE TRIGGER ord_del AFTER DELETE ON Ord FOR EACH STATEMENT BEGIN "
       "DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Ord); END");
  Must("DELETE FROM Customer WHERE Name = 'John'");
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Customer"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM Ord"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM OrderLine"), 1);
}

TEST_F(RdbTest, PerStatementTriggerScansWholeChildRelation) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT "
       "BEGIN DELETE FROM Ord WHERE parentId NOT IN (SELECT id FROM Customer); "
       "END");
  Stats before = db_.stats();
  Must("DELETE FROM Customer WHERE Name = 'Mary'");
  Stats delta = db_.stats().Delta(before);
  // The orphan sweep scans the whole Ord relation (cost grows with data
  // size — the effect behind Figure 7's per-statement curve).
  EXPECT_GE(delta.rows_scanned, 3u);
}

TEST_F(RdbTest, TriggerNotFiredWhenNothingDeleted) {
  CreateCustomerSchema();
  LoadCustomerData();
  Must("CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT "
       "BEGIN DELETE FROM Ord WHERE parentId NOT IN (SELECT id FROM Customer); "
       "END");
  Stats before = db_.stats();
  Must("DELETE FROM Customer WHERE Name = 'Nobody'");
  EXPECT_EQ(db_.stats().Delta(before).trigger_firings, 0u);
}

TEST_F(RdbTest, DropTriggerAndTable) {
  CreateCustomerSchema();
  Must("CREATE TRIGGER t1 AFTER DELETE ON Customer FOR EACH ROW BEGIN "
       "DELETE FROM Ord WHERE parentId = OLD.id; END");
  Must("DROP TRIGGER t1");
  EXPECT_EQ(db_.ExecuteQuery("DROP TRIGGER t1").status().code(),
            StatusCode::kNotFound);
  Must("DROP TABLE OrderLine");
  EXPECT_FALSE(db_.ExecuteQuery("SELECT * FROM OrderLine").ok());
}

// ---------------------------------------------------------------------------
// Row-trigger OLD binding. OLD names the deleted row's tombstoned slot by
// rowid; each firing reads the slab cells on access.

class TriggerOldTest : public RdbTest {
 protected:
  // Every log row, rendered "a|b|c" in scan (= insertion = firing) order.
  std::vector<std::string> LogRows(const std::string& sql) {
    std::vector<std::string> out;
    for (const Row& row : Query(sql).rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += "|";
        line += row[i].ToString();
      }
      out.push_back(line);
    }
    return out;
  }
};

TEST_F(TriggerOldTest, OldReadsNonKeyColumnsIncludingHeapStrings) {
  const std::string long_a = "a note well past the fourteen-byte SSO (1)";
  const std::string long_b = "a note well past the fourteen-byte SSO (2)";
  Must("CREATE TABLE p (id INTEGER, name VARCHAR, note VARCHAR, n INTEGER)");
  Must("CREATE TABLE log (id INTEGER, name VARCHAR, note VARCHAR, n INTEGER)");
  Must("CREATE TRIGGER p_del AFTER DELETE ON p FOR EACH ROW BEGIN "
       "INSERT INTO log VALUES (OLD.id, OLD.name, OLD.note, OLD.n); END");
  Must("INSERT INTO p VALUES (1, 'fourteen bytes', '" + long_a + "', 10)");
  Must("INSERT INTO p VALUES (2, 'short', '" + long_b + "', NULL)");
  Must("INSERT INTO p VALUES (3, 'kept', 'kept', 30)");
  Must("DELETE FROM p WHERE id < 3");
  EXPECT_EQ(LogRows("SELECT * FROM log"),
            (std::vector<std::string>{"1|fourteen bytes|" + long_a + "|10",
                                      "2|short|" + long_b + "|NULL"}));
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM p"), 1);
}

TEST_F(TriggerOldTest, OldSurvivesBodyGrowingTheSameTablesSlab) {
  // Each firing inserts 20 rows into p itself before logging OLD, so p's
  // slab (8 slots, doubling) relocates several times mid-cascade.
  Must("CREATE TABLE p (id INTEGER, note VARCHAR)");
  Must("CREATE TABLE nums (k INTEGER)");
  Must("CREATE TABLE log (id INTEGER, note VARCHAR)");
  for (int k = 0; k < 20; ++k) {
    Must("INSERT INTO nums VALUES (" + std::to_string(k) + ")");
  }
  Must("CREATE TRIGGER p_del AFTER DELETE ON p FOR EACH ROW BEGIN "
       "INSERT INTO p SELECT OLD.id * 1000 + k, 'filler' FROM nums; "
       "INSERT INTO log VALUES (OLD.id, OLD.note); END");
  std::vector<std::string> want;
  for (int id = 1; id <= 6; ++id) {
    const std::string note =
        "row " + std::to_string(id) + " with a heap-allocated note";
    Must("INSERT INTO p VALUES (" + std::to_string(id) + ", '" + note + "')");
    want.push_back(std::to_string(id) + "|" + note);
  }
  Must("DELETE FROM p WHERE id <= 6");
  EXPECT_EQ(LogRows("SELECT * FROM log"), want);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM p"), 6 * 20);
}

TEST_F(TriggerOldTest, SecondBodyStatementReadsOldAfterNestedCascade) {
  Must("CREATE TABLE a (id INTEGER, name VARCHAR)");
  Must("CREATE TABLE b (id INTEGER, parentId INTEGER, name VARCHAR)");
  Must("CREATE TABLE c (id INTEGER, parentId INTEGER)");
  Must("CREATE TABLE log (tbl VARCHAR, id INTEGER, name VARCHAR)");
  Must("CREATE TRIGGER a_del AFTER DELETE ON a FOR EACH ROW BEGIN "
       "DELETE FROM b WHERE parentId = OLD.id; "
       "INSERT INTO log VALUES ('a', OLD.id, OLD.name); END");
  Must("CREATE TRIGGER b_del AFTER DELETE ON b FOR EACH ROW BEGIN "
       "DELETE FROM c WHERE parentId = OLD.id; "
       "INSERT INTO log VALUES ('b', OLD.id, OLD.name); END");
  Must("INSERT INTO a VALUES (1, 'a-one'), (2, 'a-two')");
  Must("INSERT INTO b VALUES (10, 1, 'b-ten'), (11, 1, 'b-eleven'), "
       "(20, 2, 'b-twenty')");
  Must("INSERT INTO c VALUES (100, 10), (110, 11), (200, 20)");
  Stats before = db_.stats();
  Must("DELETE FROM a");
  EXPECT_EQ(LogRows("SELECT * FROM log"),
            (std::vector<std::string>{"b|10|b-ten", "b|11|b-eleven",
                                      "a|1|a-one", "b|20|b-twenty",
                                      "a|2|a-two"}));
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM c"), 0);
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.trigger_firings, 5u);
  EXPECT_EQ(delta.trigger_statements, 10u);
}

TEST_F(TriggerOldTest, FiringOrderIsDeletedRowidOrder) {
  // Ids out of rowid order; the scan and the index probe both gather in
  // rowid order, and the firings follow it.
  Must("CREATE TABLE p (id INTEGER, k INTEGER)");
  Must("CREATE INDEX p_k ON p (k)");
  Must("CREATE TABLE log (id INTEGER)");
  Must("CREATE TRIGGER p_del AFTER DELETE ON p FOR EACH ROW BEGIN "
       "INSERT INTO log VALUES (OLD.id); END");
  Must("INSERT INTO p VALUES (5, 1), (3, 2), (9, 1), (1, 2), (7, 1), (2, 2)");
  Must("DELETE FROM p WHERE k = 1");  // index probe
  EXPECT_EQ(LogRows("SELECT id FROM log"),
            (std::vector<std::string>{"5", "9", "7"}));
  Must("DELETE FROM p WHERE id > 0");  // scan
  EXPECT_EQ(LogRows("SELECT id FROM log"),
            (std::vector<std::string>{"5", "9", "7", "3", "1", "2"}));
}

TEST_F(TriggerOldTest, SelfCascadeKeepsEachDepthsRowids) {
  // A binary tree in one table, six levels deep: every level iterates its
  // own deleted rowids while the deeper levels run, so the log is the
  // post-order walk with children in rowid order.
  Must("CREATE TABLE p (id INTEGER, parentId INTEGER)");
  Must("CREATE INDEX p_pid ON p (parentId)");
  Must("CREATE TABLE log (id INTEGER)");
  Must("CREATE TRIGGER p_del AFTER DELETE ON p FOR EACH ROW BEGIN "
       "DELETE FROM p WHERE parentId = OLD.id; "
       "INSERT INTO log VALUES (OLD.id); END");
  for (int id = 1; id < 64; ++id) {
    Must("INSERT INTO p VALUES (" + std::to_string(id) + ", " +
         std::to_string(id / 2) + ")");
  }
  std::vector<std::string> want;
  std::function<void(int)> post_order = [&](int id) {
    if (id >= 64) return;
    post_order(2 * id);
    post_order(2 * id + 1);
    want.push_back(std::to_string(id));
  };
  post_order(1);
  Must("DELETE FROM p WHERE id = 1");
  EXPECT_EQ(LogRows("SELECT id FROM log"), want);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM p"), 0);

  // A chain deeper than the cascade limit stops with an error.
  for (int id = 1; id <= 150; ++id) {
    Must("INSERT INTO p VALUES (" + std::to_string(id) + ", " +
         std::to_string(id - 1) + ")");
  }
  auto deep = db_.ExecuteQuery("DELETE FROM p WHERE id = 1");
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("recursion limit"),
            std::string::npos)
      << deep.status();
}

TEST_F(TriggerOldTest, TriggerListsFollowTriggerAndTableDdl) {
  Must("CREATE TABLE p (id INTEGER)");
  Must("CREATE TABLE log (who VARCHAR, id INTEGER)");
  auto fired = [&](const std::string& del) {
    Stats before = db_.stats();
    Must(del);
    return db_.stats().Delta(before).trigger_firings;
  };
  Must("INSERT INTO p VALUES (1), (2)");
  EXPECT_EQ(fired("DELETE FROM p WHERE id = 1"), 0u);  // cached: no triggers

  Must("CREATE TRIGGER t1 AFTER DELETE ON p FOR EACH ROW BEGIN "
       "INSERT INTO log VALUES ('t1', OLD.id); END");
  Must("CREATE TRIGGER t2 AFTER DELETE ON p FOR EACH ROW BEGIN "
       "INSERT INTO log VALUES ('t2', OLD.id); END");
  Must("INSERT INTO p VALUES (3), (4)");
  EXPECT_EQ(fired("DELETE FROM p WHERE id >= 3"), 4u);
  // Creation order, then rowid order within each trigger.
  EXPECT_EQ(LogRows("SELECT * FROM log"),
            (std::vector<std::string>{"t1|3", "t1|4", "t2|3", "t2|4"}));

  Must("DROP TRIGGER t1");
  EXPECT_EQ(fired("DELETE FROM p WHERE id = 2"), 1u);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM log WHERE who = 't1'"), 2);

  // DROP TABLE takes its triggers along; the re-created table (which may
  // reuse the freed Table's address) starts with none.
  Must("DROP TABLE p");
  Must("CREATE TABLE p (id INTEGER)");
  Must("INSERT INTO p VALUES (5), (6)");
  EXPECT_EQ(fired("DELETE FROM p WHERE id = 5"), 0u);
  Must("CREATE TRIGGER t3 AFTER DELETE ON p FOR EACH STATEMENT BEGIN "
       "INSERT INTO log VALUES ('t3', NULL); END");
  EXPECT_EQ(fired("DELETE FROM p WHERE id = 6"), 1u);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM log WHERE who = 't3'"), 1);
}

TEST_F(RdbTest, StatementCountTracksAppStatements) {
  Must("CREATE TABLE t (a INTEGER)");
  uint64_t before = db_.stats().statements;
  for (int i = 0; i < 7; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(db_.stats().statements - before, 7u);
}

TEST_F(RdbTest, IndexLookupAfterDeleteSeesLiveRowsOnly) {
  Must("CREATE TABLE t (id INTEGER, v VARCHAR)");
  Must("CREATE INDEX t_id ON t (id)");
  Must("INSERT INTO t VALUES (1, 'a')");
  Must("INSERT INTO t VALUES (1, 'b')");
  Must("DELETE FROM t WHERE v = 'a'");
  ResultSet r = Query("SELECT v FROM t WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "b");
}

TEST_F(RdbTest, MinMaxIdRemapHeuristic) {
  // §6.2.2: offset = nextId - minId; advance nextId by maxId - minId + 1.
  Must("CREATE TABLE src (id INTEGER)");
  Must("INSERT INTO src VALUES (100)");
  Must("INSERT INTO src VALUES (140)");
  ResultSet r = Query("SELECT MIN(id), MAX(id) FROM src");
  int64_t min_id = r.rows[0][0].AsInt(), max_id = r.rows[0][1].AsInt();
  db_.set_next_id(500);
  int64_t offset = db_.next_id() - min_id;
  db_.AllocateIdBlock(max_id - min_id + 1);
  Must("UPDATE src SET id = id + " + std::to_string(offset));
  EXPECT_EQ(QueryInt("SELECT MIN(id) FROM src"), 500);
  EXPECT_EQ(QueryInt("SELECT MAX(id) FROM src"), 540);
  EXPECT_EQ(db_.next_id(), 541);
}

TEST_F(RdbTest, CaseInsensitiveIdentifiers) {
  Must("CREATE TABLE Customer (Id INTEGER, NAME VARCHAR)");
  Must("insert into CUSTOMER values (1, 'x')");
  EXPECT_EQ(QueryInt("select count(*) from customer where name = 'x'"), 1);
}

TEST_F(RdbTest, SelectStarColumnsOrdered) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR)");
  Must("INSERT INTO t VALUES (1, 'z')");
  ResultSet r = Query("SELECT * FROM t");
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0], "a");
  EXPECT_EQ(r.columns[1], "b");
}

TEST_F(RdbTest, QuotedStringEscapes) {
  Must("CREATE TABLE t (v VARCHAR)");
  Must("INSERT INTO t VALUES ('John''s data')");
  ResultSet r = Query("SELECT v FROM t");
  EXPECT_EQ(r.rows[0][0].AsString(), "John's data");
}

// ---------------------------------------------------------------------------
// Direct comparisons. Scans, index probes and the DML gather decide a
// comparison whose operands are each a column, a literal or a bound ? on
// the operands in place; every such statement must select exactly the rows
// that EvalBoolBound accepts for the same comparison.

BoundExpr ColumnRef(size_t rel, size_t col) {
  BoundExpr e;
  e.kind = sql::Expr::Kind::kColumn;
  e.rel = rel;
  e.col = col;
  return e;
}

BoundExpr Constant(const Value& v) {
  BoundExpr e;
  e.kind = sql::Expr::Kind::kLiteral;
  e.literal = v;
  return e;
}

BoundExpr Comparison(sql::Expr::Op op, BoundExpr l, BoundExpr r) {
  BoundExpr e;
  e.kind = sql::Expr::Kind::kBinary;
  e.op = op;
  e.children.push_back(std::move(l));
  e.children.push_back(std::move(r));
  return e;
}

class DirectComparisonTest : public RdbTest {
 protected:
  void SetUp() override {
    // t is scanned; tx holds the same rows behind an index on id, so a join
    // into tx is an index probe that keeps the comparison as its filter.
    for (const char* table : {"t", "tx"}) {
      Must(std::string("CREATE TABLE ") + table +
           " (id INTEGER, i INTEGER, s VARCHAR)");
      Must(std::string("INSERT INTO ") + table +
           " VALUES (1, 42, '42'), (2, 7, 'abcdefghijklm'), "
           "(3, NULL, 'abcdefghijklmn'), (4, 43, 'abcdefghijklmno'), "
           "(5, -1, 'abcdefghijklmnopqrstuvwxyz'), (6, 42, NULL), "
           "(7, 0, '7'), (8, NULL, NULL), (9, 100, 'abcdefghijklmnz')");
    }
    Must("CREATE INDEX tx_id ON tx (id)");
    rows_ = Query("SELECT id, i, s FROM t").rows;
    ASSERT_EQ(rows_.size(), 9u);
  }

  /// The oracle: whether EvalBoolBound accepts `cmp` over `slots`.
  bool Accepts(const BoundExpr& cmp, const std::vector<const Value*>& slots,
               const std::vector<Value>& params) {
    Stats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.params = &params;
    auto r = EvalBoolBound(cmp, slots, ctx);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  }

  /// Ids of the t rows the oracle accepts for `cmp` (one relation).
  std::vector<int64_t> ExpectedIds(const BoundExpr& cmp,
                                   const std::vector<Value>& params = {}) {
    std::vector<int64_t> ids;
    for (const Row& row : rows_) {
      if (Accepts(cmp, {row.data()}, params)) ids.push_back(row[0].AsInt());
    }
    return ids;
  }

  static std::vector<int64_t> Ids(const Result<ResultSet>& r) {
    std::vector<int64_t> ids;
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return ids;
    for (const Row& row : r->rows) ids.push_back(row[0].AsInt());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  static std::vector<std::pair<int64_t, int64_t>> Pairs(
      const Result<ResultSet>& r) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return pairs;
    for (const Row& row : r->rows) {
      pairs.emplace_back(row[0].AsInt(), row[1].AsInt());
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  }

  /// The t ids a DELETE removes, read inside a transaction that is then
  /// rolled back.
  std::vector<int64_t> DeletedIds(const std::string& sql,
                                  const std::vector<Value>& params) {
    EXPECT_TRUE(db_.Begin().ok());
    auto del = db_.ExecuteQueryBound(sql, params);
    EXPECT_TRUE(del.ok()) << sql << " -> " << del.status();
    std::vector<int64_t> kept = Ids(db_.ExecuteQuery("SELECT id FROM t"));
    EXPECT_TRUE(db_.Rollback().ok());
    std::vector<int64_t> deleted;
    for (const Row& row : rows_) {
      int64_t id = row[0].AsInt();
      if (!std::binary_search(kept.begin(), kept.end(), id)) {
        deleted.push_back(id);
      }
    }
    return deleted;
  }

  std::vector<Row> rows_;  ///< t's rows as (id, i, s), in scan order.
};

const std::vector<std::pair<std::string, sql::Expr::Op>>& Comparisons() {
  using Op = sql::Expr::Op;
  static const auto* ops = new std::vector<std::pair<std::string, Op>>{
      {"=", Op::kEq}, {"<>", Op::kNe}, {"<", Op::kLt},
      {"<=", Op::kLe}, {">", Op::kGt}, {">=", Op::kGe}};
  return *ops;
}

TEST_F(DirectComparisonTest, ColumnAgainstConstantMatchesEvalBoolBound) {
  // Constant operands: ints, a numeric string, SSO strings of 13 and 14
  // bytes, heap strings of 15 and more bytes, and NULL.
  const std::vector<std::pair<std::string, Value>> constants = {
      {"42", Value::Int(42)},
      {"7", Value::Int(7)},
      {"'42'", Value::Str("42")},
      {"'0042'", Value::Str("0042")},
      {"'abcdefghijklm'", Value::Str("abcdefghijklm")},
      {"'abcdefghijklmn'", Value::Str("abcdefghijklmn")},
      {"'abcdefghijklmno'", Value::Str("abcdefghijklmno")},
      {"'abcdefghijklmnopqrstuvwxyz'",
       Value::Str("abcdefghijklmnopqrstuvwxyz")},
      {"NULL", Value::Null()}};
  auto reader = db_.OpenReaderSession();
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::vector<std::pair<std::string, size_t>> columns = {{"i", 1},
                                                               {"s", 2}};
  for (const auto& [col, ordinal] : columns) {
    for (const auto& [text, value] : constants) {
      for (const auto& [op_text, op] : Comparisons()) {
        const std::string col_lit = col + " " + op_text + " " + text;
        const std::string lit_col = text + " " + op_text + " " + col;
        const std::string col_param = col + " " + op_text + " ?";
        SCOPED_TRACE(col_lit);
        const std::vector<Value> params = {value};
        const auto expected =
            ExpectedIds(Comparison(op, ColumnRef(0, ordinal), Constant(value)));
        EXPECT_EQ(Ids(db_.ExecuteQuery("SELECT id FROM t WHERE " + col_lit)),
                  expected);
        EXPECT_EQ(Ids(db_.ExecuteQueryBound(
                      "SELECT id FROM t WHERE " + col_param, params)),
                  expected);
        EXPECT_EQ(Ids((*reader)->ExecuteQuery("SELECT id FROM t WHERE " +
                                              col_lit)),
                  expected);
        EXPECT_EQ(Ids((*reader)->ExecuteQueryBound(
                      "SELECT id FROM t WHERE " + col_param, params)),
                  expected);
        EXPECT_EQ(DeletedIds("DELETE FROM t WHERE " + col_param, params),
                  expected);
        EXPECT_EQ(DeletedIds("DELETE FROM t WHERE " + col_lit, {}), expected);
        EXPECT_EQ(Ids(db_.ExecuteQuery("SELECT id FROM t WHERE " + lit_col)),
                  ExpectedIds(Comparison(op, Constant(value),
                                         ColumnRef(0, ordinal))));
      }
    }
  }
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM t"), 9);
}

TEST_F(DirectComparisonTest, ColumnAgainstColumnAcrossJoinStepsMatches) {
  auto reader = db_.OpenReaderSession();
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::vector<std::pair<std::string, size_t>> columns = {{"i", 1},
                                                               {"s", 2}};
  for (const auto& [ca, oa] : columns) {
    for (const auto& [cb, ob] : columns) {
      for (const auto& [op_text, op] : Comparisons()) {
        const std::string cmp = "a." + ca + " " + op_text + " b." + cb;
        SCOPED_TRACE(cmp);
        const BoundExpr bound = Comparison(op, ColumnRef(0, oa),
                                           ColumnRef(1, ob));
        std::vector<std::pair<int64_t, int64_t>> expected;
        std::vector<std::pair<int64_t, int64_t>> expected_same_row;
        for (const Row& a : rows_) {
          for (const Row& b : rows_) {
            if (!Accepts(bound, {a.data(), b.data()}, {})) continue;
            expected.emplace_back(a[0].AsInt(), b[0].AsInt());
            if (a[0].AsInt() == b[0].AsInt()) {
              expected_same_row.emplace_back(a[0].AsInt(), b[0].AsInt());
            }
          }
        }
        // Scan x scan: the comparison is the inner scan's conjunct.
        const std::string join = "SELECT a.id, b.id FROM t a, t b WHERE " + cmp;
        EXPECT_EQ(Pairs(db_.ExecuteQuery(join)), expected);
        EXPECT_EQ(Pairs((*reader)->ExecuteQuery(join)), expected);
        // Scan x index probe: the comparison filters the probed rows.
        EXPECT_EQ(Pairs(db_.ExecuteQuery(
                      "SELECT a.id, b.id FROM t a, tx b WHERE b.id = a.id "
                      "AND " + cmp)),
                  expected_same_row);
      }
    }
  }
}

TEST_F(DirectComparisonTest, UnboundParameterStillFails) {
  // The statement paths reject a missing bind before executing...
  auto bare = db_.ExecuteQuery("SELECT id FROM t WHERE i = ?");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
  // ...and a plan executed with no parameters bound reports the ? at the
  // first examined row, through the scan and through the DML gather.
  for (const char* sql : {"SELECT id FROM t WHERE i = ?",
                          "SELECT id FROM t WHERE ? < s",
                          "DELETE FROM t WHERE s <> ?"}) {
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto plan = Planner(&db_, nullptr).Plan(*stmt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    Stats stats;
    std::vector<std::unique_ptr<ResultSet>> ctes;
    ExecContext::SubqueryMemo memo;
    ExecContext ctx;
    ctx.db = &db_;
    ctx.stats = &stats;
    ctx.cte_values = &ctes;
    ctx.subquery_memo = &memo;
    MutationScratch scratch;
    Status s = (*plan)->select != nullptr
                   ? ExecutePlannedSelect(*(*plan)->select, ctx).status()
                   : CollectMatchingRowids((*plan)->mutation, ctx, &scratch);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(s.message().find("not bound"), std::string::npos) << s;
    EXPECT_EQ(stats.rows_scanned, 1u);
  }
}

// ---------------------------------------------------------------------------
// Scan counters. Stats::rows_scanned and SHOW TABLE STATS rows_read / scans
// count every live row a scan examines (probes: every live candidate), for
// SELECT, DELETE and UPDATE alike; each access step adds its counts once,
// when it ends.

class ScanCounterTest : public RdbTest {
 protected:
  void SetUp() override {
    // p: 10 slots, ids 1..10 with v = id; ids 2 and 3 are tombstones, so a
    // scan visits 10 slots and examines 8 live rows. q: 3 rows, scanned.
    Must("CREATE TABLE p (id INTEGER, v INTEGER)");
    Must("CREATE TABLE q (id INTEGER, v INTEGER)");
    Must("CREATE TABLE r (id INTEGER)");
    Must("CREATE INDEX r_id ON r (id)");
    for (int i = 1; i <= 10; ++i) {
      Must("INSERT INTO p VALUES (" + std::to_string(i) + ", " +
           std::to_string(i) + ")");
    }
    Must("DELETE FROM p WHERE id = 2 OR id = 3");
    Must("INSERT INTO q VALUES (1, 4), (2, 5), (3, 40)");
    Must("INSERT INTO r VALUES (4), (5), (6), (7)");
    Must("DELETE FROM r WHERE id = 6");
  }

  int64_t TableStat(const std::string& table, const std::string& stat) {
    ResultSet r = Query("SHOW TABLE STATS");
    const std::string name = "table." + table + "." + stat;
    for (const Row& row : r.rows) {
      if (row[0].AsString() == name) return row[1].AsInt();
    }
    ADD_FAILURE() << "no " << name;
    return -1;
  }

  struct Counts {
    uint64_t rows_scanned;
    int64_t p_scans, p_rows_read, q_scans, q_rows_read, r_rows_read;
  };
  Counts Snapshot() {
    return {db_.stats().rows_scanned,  TableStat("p", "scans"),
            TableStat("p", "rows_read"), TableStat("q", "scans"),
            TableStat("q", "rows_read"), TableStat("r", "rows_read")};
  }
  /// Runs `sql` on the writer and checks the counter deltas.
  void ExpectDeltas(const std::string& sql, Counts want, bool ok = true) {
    SCOPED_TRACE(sql);
    Counts before = Snapshot();
    auto res = db_.ExecuteQuery(sql);
    EXPECT_EQ(res.ok(), ok) << res.status();
    Counts after = Snapshot();
    EXPECT_EQ(after.rows_scanned - before.rows_scanned, want.rows_scanned);
    EXPECT_EQ(after.p_scans - before.p_scans, want.p_scans);
    EXPECT_EQ(after.p_rows_read - before.p_rows_read, want.p_rows_read);
    EXPECT_EQ(after.q_scans - before.q_scans, want.q_scans);
    EXPECT_EQ(after.q_rows_read - before.q_rows_read, want.q_rows_read);
    EXPECT_EQ(after.r_rows_read - before.r_rows_read, want.r_rows_read);
  }
};

TEST_F(ScanCounterTest, FilteredWriterScanCountsEveryExaminedRow) {
  ExpectDeltas("SELECT id FROM p WHERE v > 5", {8, 1, 8, 0, 0, 0});
}

TEST_F(ScanCounterTest, InnerJoinRescanCountsEachOpen) {
  // 3 of p's 8 live rows pass v <= 5 (1, 4, 5); q is re-opened and
  // rescanned for each: 8 + 3 x 3 rows scanned. (`q.v + 0` is no join
  // column, so q stays a scan.)
  ExpectDeltas("SELECT p.id FROM p, q WHERE p.v <= 5 AND q.v + 0 = p.v",
               {17, 1, 8, 3, 9, 0});
}

TEST_F(ScanCounterTest, HashJoinBuildCountsEachRowOnce) {
  // The unindexed equijoin builds a hash table over q's 3 rows at the
  // first of the 3 opens and probes it for the others: 8 + 3 rows scanned.
  ExpectDeltas("SELECT p.id FROM p, q WHERE p.v <= 5 AND q.v = p.v",
               {11, 1, 8, 1, 3, 0});
}

TEST_F(ScanCounterTest, IndexProbeCountsLiveCandidates) {
  // Probes for v = 4..10 find r rows 4, 5 and 7 (6 is a tombstone), and the
  // r.id < 7 filter keeps two of them: rows_read counts all 3 candidates.
  ExpectDeltas("SELECT p.id FROM p, r WHERE r.id = p.v AND r.id < 7",
               {8, 1, 8, 0, 0, 3});
}

TEST_F(ScanCounterTest, CteScanCountsBodyAndMaterializedRows) {
  // The body scans p's 8 rows; the CTE scan examines the 8 materialized
  // rows, which have no table to charge.
  ExpectDeltas("WITH w (x) AS (SELECT v FROM p) SELECT x FROM w WHERE x > 5",
               {16, 1, 8, 0, 0, 0});
}

TEST_F(ScanCounterTest, DmlGatherCountsEveryExaminedRow) {
  ASSERT_TRUE(db_.Begin().ok());
  ExpectDeltas("DELETE FROM p WHERE v > 5", {8, 1, 8, 0, 0, 0});
  ExpectDeltas("UPDATE p SET v = v + 1 WHERE v < 0", {3, 1, 3, 0, 0, 0});
  ASSERT_TRUE(db_.Rollback().ok());
}

TEST_F(ScanCounterTest, DmlProbeCountsLiveCandidates) {
  // r's index holds 4, 5 and 7 (6 was deleted): the probe examines 5 and 7.
  ExpectDeltas("DELETE FROM r WHERE id IN (5, 6, 7)", {0, 0, 0, 0, 0, 2});
  ExpectDeltas("UPDATE r SET id = 40 WHERE id = 4", {0, 0, 0, 0, 0, 1});
}

TEST_F(ScanCounterTest, ReaderSessionScanCountsIntoItsOwnStats) {
  auto reader = db_.OpenReaderSession();
  ASSERT_TRUE(reader.ok()) << reader.status();
  Counts before = Snapshot();
  auto res = (*reader)->ExecuteQuery("SELECT id FROM p WHERE v > 5");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->rows.size(), 5u);
  Counts after = Snapshot();
  EXPECT_EQ((*reader)->stats().rows_scanned, 8u);
  EXPECT_EQ(after.rows_scanned, before.rows_scanned);
  EXPECT_EQ(after.p_scans - before.p_scans, 1);
  EXPECT_EQ(after.p_rows_read - before.p_rows_read, 8);
}

TEST_F(ScanCounterTest, CancelledScanCountsOnlyRowsExaminedBeforeIt) {
  // Pulls tick once per slot: pulls 1..5 visit slots 0..4 (live: ids 1, 4
  // and 5), and pull 6 is cancelled before slot 5 is examined.
  db_.ArmCancelAtPull(6);
  ExpectDeltas("SELECT id FROM p WHERE v > 100", {3, 1, 3, 0, 0, 0},
               /*ok=*/false);
  db_.DisarmCancelAtPull();
}

}  // namespace
}  // namespace xupd::rdb
