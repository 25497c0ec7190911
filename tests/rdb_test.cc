// Tests for the relational engine: SQL parsing/execution, joins, CTE outer
// unions (Fig. 5), triggers (per-row / per-statement), and statistics.
#include <gtest/gtest.h>

#include "rdb/database.h"
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

}  // namespace
}  // namespace xupd::rdb
