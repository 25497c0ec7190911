// SELECT equijoin oracle. A seed-reproducible generator builds small tables
// with NULL, duplicate and mixed-type keys and tombstoned rows, then 2- and
// 3-table equijoins (some over a CTE, some with a middle step whose
// conjuncts read an earlier relation). Every query runs under four plans
// that must return the same rows in the same order:
//   - the writer with index probes;
//   - the writer with index probes disabled (inner steps probe a hash table
//     built once per statement);
//   - the nested-loop form of the query (each join conjunct wrapped as
//     `(x = y OR 1 = 0)`, which no step can key on);
//   - a ReaderSession (hash steps over snapshot scans).
// A reader pinned before the writer changes an inner key must keep joining
// on the parked pre-image.
//
// The DML half runs seeded DELETE and UPDATE statements (=, IN-list,
// IN-subquery, NOT IN and ? bound to NULL, over the same keys, plus a
// per-row trigger body) on twin databases, one with index probes and one
// without, and compares the tables and the deleted and updated row counts
// after every statement. A third case indexes both columns and pairs an
// equality on a literal with an IN list or IN subquery on the other column
// in SELECTs, joins, DELETEs and UPDATEs: the equality's probe must return
// and change the rows a forced scan does, in the same order. A fourth case
// puts residual IN-subqueries (with their own filters and nested INs) beside
// an indexed equality: the probed twin tests them as index semi-joins, the
// unprobed twin builds their sets, and both must agree.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rdb/database.h"
#include "rdb/stats.h"

namespace xupd::rdb {
namespace {

constexpr uint64_t kSeeds = 60;
constexpr int kQueriesPerSeed = 8;

// a.k and c.k are VARCHAR, b.k is INTEGER. Under the index's key rules
// "42" matches 42, "07" matches 7, and "7" does not match "07".
const char* const kStrKeys[] = {"'1'", "'2'", "'42'", "'7'",
                                "'07'", "'x'", "NULL"};
const char* const kIntKeys[] = {"1", "2", "42", "7", "NULL"};

template <size_t N>
const char* Pick(const char* const (&items)[N], Rng* rng) {
  return items[rng->Uniform(N)];
}

void Must(Database* db, const std::string& sql) {
  Status s = db->ExecuteQuery(sql).status();
  ASSERT_TRUE(s.ok()) << sql << ": " << s;
}

/// One result as comparable text: the column names, then each row's
/// values as SQL literals (so '42' and 42 differ).
std::vector<std::string> Rows(const Result<ResultSet>& r) {
  std::vector<std::string> out;
  if (!r.ok()) {
    out.push_back("error: " + r.status().ToString());
    return out;
  }
  std::string head;
  for (const std::string& c : r->columns) head += c + "|";
  out.push_back(head);
  for (const Row& row : r->rows) {
    std::string s;
    for (const Value& v : row) s += v.ToSqlLiteral() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

/// Tables a, b, c (id, k, n) with a random subset of indexes (both k and n
/// with `index_both`), 0-9 rows each, and a few rows deleted.
void Populate(Database* db, Rng* rng, int64_t* next_id,
              bool index_both = false) {
  Must(db, "CREATE TABLE a (id INTEGER, k VARCHAR, n INTEGER)");
  Must(db, "CREATE TABLE b (id INTEGER, k INTEGER, n INTEGER)");
  Must(db, "CREATE TABLE c (id INTEGER, k VARCHAR, n INTEGER)");
  for (const char* t : {"a", "b", "c"}) {
    const bool index_k = rng->Uniform(4) != 0;
    const bool index_n = rng->Uniform(3) == 0;
    if (index_both || index_k) {
      Must(db, std::string("CREATE INDEX idx_") + t + "_k ON " + t + " (k)");
    }
    if (index_both || index_n) {
      Must(db, std::string("CREATE INDEX idx_") + t + "_n ON " + t + " (n)");
    }
    const bool int_keys = std::string(t) == "b";
    const uint64_t rows = rng->Uniform(10);
    for (uint64_t i = 0; i < rows; ++i) {
      const char* key = int_keys ? Pick(kIntKeys, rng) : Pick(kStrKeys, rng);
      const std::string n =
          rng->Uniform(6) == 0 ? "NULL" : std::to_string(rng->Uniform(4));
      Must(db, std::string("INSERT INTO ") + t + " VALUES (" +
                   std::to_string((*next_id)++) + ", " + key + ", " + n + ")");
    }
    // Tombstones: delete about a quarter of the rows.
    for (uint64_t i = 0; i < rows / 4 + 1; ++i) {
      Must(db, std::string("DELETE FROM ") + t + " WHERE id = " +
                   std::to_string(*next_id - 1 -
                                  static_cast<int64_t>(rng->Uniform(rows + 1))));
    }
  }
}

struct JoinQuery {
  std::string sql;          ///< equijoin conjuncts as written.
  std::string nested_sql;   ///< the same query in nested-loop form.
  size_t join_steps = 0;    ///< inner steps a join conjunct can key.
};

/// A random 2- or 3-relation equijoin over a, b, c and a CTE over b or c.
JoinQuery MakeQuery(Rng* rng) {
  const char* const kRelations[] = {"a", "b", "c", "d"};
  const size_t count = 2 + rng->Uniform(2);
  std::vector<std::string> rels;
  bool cte = false;
  for (size_t i = 0; i < count; ++i) {
    rels.push_back(Pick(kRelations, rng));
    cte = cte || rels.back() == "d";
  }
  std::string with;
  if (cte) {
    with = std::string("WITH d (id, k, n) AS (SELECT id, k, n FROM ") +
           (rng->Uniform(2) == 0 ? "b" : "c") + " WHERE n <> 1) ";
  }
  std::string from;
  std::string select = "SELECT ";
  for (size_t i = 0; i < count; ++i) {
    const std::string alias = "l" + std::to_string(i);
    from += (i > 0 ? ", " : "") + rels[i] + " " + alias;
    select += (i > 0 ? ", " : "") + alias + ".id";
  }
  select += ", l" + std::to_string(count - 1) + ".k";
  if (rng->Uniform(4) == 0) select = "SELECT *";

  std::vector<std::string> where, nested;
  auto both = [&](const std::string& c) {
    where.push_back(c);
    nested.push_back(c);
  };
  for (size_t i = 1; i < count; ++i) {
    const std::string inner = "l" + std::to_string(i) + ".k";
    const std::string outer = "l" + std::to_string(rng->Uniform(i)) + ".k";
    const std::string eq =
        rng->Uniform(2) == 0 ? inner + " = " + outer : outer + " = " + inner;
    where.push_back(eq);
    nested.push_back("(" + eq + " OR 1 = 0)");
    // A conjunct at this step that reads an earlier relation.
    if (rng->Uniform(2) == 0) {
      both("l" + std::to_string(i) + ".n >= l" +
           std::to_string(rng->Uniform(i)) + ".n");
    }
    if (rng->Uniform(3) == 0) both("l" + std::to_string(i) + ".n < 3");
  }
  if (rng->Uniform(3) == 0) both("l0.n <> 2");

  auto join = [](const std::vector<std::string>& conjuncts) {
    std::string out;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      out += (i > 0 ? " AND " : "") + conjuncts[i];
    }
    return out;
  };
  JoinQuery q;
  q.sql = with + select + " FROM " + from + " WHERE " + join(where);
  q.nested_sql = with + select + " FROM " + from + " WHERE " + join(nested);
  q.join_steps = count - 1;
  return q;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

std::string Explain(const Result<ResultSet>& r) {
  std::string out;
  if (!r.ok()) return "error: " + r.status().ToString();
  for (const Row& row : r->rows) out += row[0].ToString() + "\n";
  return out;
}

TEST(JoinOracleTest, FourPlansReturnTheSameRowsInTheSameOrder) {
  size_t rows_compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db;
    int64_t next_id = 1;
    Populate(&db, &rng, &next_id);
    if (HasFatalFailure()) return;
    auto reader = db.OpenReaderSession();
    ASSERT_TRUE(reader.ok()) << reader.status();

    std::vector<JoinQuery> queries;
    std::vector<std::vector<std::string>> at_pin;
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      queries.push_back(MakeQuery(&rng));
      const JoinQuery& q = queries.back();
      SCOPED_TRACE(q.sql);
      db.set_planner_index_probes_enabled(true);
      std::vector<std::string> probed = Rows(db.ExecuteQuery(q.sql));
      db.set_planner_index_probes_enabled(false);
      std::vector<std::string> hashed = Rows(db.ExecuteQuery(q.sql));
      const std::string hash_plan = Explain(db.ExecuteQuery("EXPLAIN " + q.sql));
      db.set_planner_index_probes_enabled(true);
      std::vector<std::string> nested = Rows(db.ExecuteQuery(q.nested_sql));
      const std::string nested_plan =
          Explain(db.ExecuteQuery("EXPLAIN " + q.nested_sql));
      std::vector<std::string> read = Rows((*reader)->ExecuteQuery(q.sql));
      const std::string read_plan =
          Explain((*reader)->ExecuteQuery("EXPLAIN " + q.sql));
      ASSERT_EQ(probed.front().rfind("error", 0), std::string::npos)
          << probed.front();
      EXPECT_EQ(hashed, probed);
      EXPECT_EQ(nested, probed);
      EXPECT_EQ(read, probed);
      EXPECT_EQ(Count(hash_plan, "HashProbe "), q.join_steps) << hash_plan;
      EXPECT_EQ(Count(read_plan, "HashProbe "), q.join_steps) << read_plan;
      EXPECT_EQ(Count(nested_plan, "HashProbe "), 0u) << nested_plan;
      rows_compared += probed.size() - 1;
      at_pin.push_back(std::move(probed));
    }

    // Pinned reader: the writer rewrites inner keys, deletes and inserts;
    // the pinned reader still joins the rows as of its pin.
    (*reader)->PinSnapshot();
    Must(&db, "UPDATE b SET k = 42 WHERE k = 7 OR k IS NULL");
    Must(&db, "UPDATE c SET k = '07' WHERE k = '7'");
    Must(&db, "UPDATE a SET k = NULL WHERE k = '42'");
    Must(&db, "DELETE FROM c WHERE n = 0");
    Must(&db, "INSERT INTO b VALUES (" + std::to_string(next_id) +
                  ", 2, 2), (" + std::to_string(next_id + 1) + ", 42, 0)");
    next_id += 2;
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(queries[i].sql);
      EXPECT_EQ(Rows((*reader)->ExecuteQuery(queries[i].sql)), at_pin[i]);
    }
    (*reader)->Unpin();
    for (const JoinQuery& q : queries) {
      SCOPED_TRACE(q.sql);
      std::vector<std::string> probed = Rows(db.ExecuteQuery(q.sql));
      EXPECT_EQ(Rows(db.ExecuteQuery(q.nested_sql)), probed);
      EXPECT_EQ(Rows((*reader)->ExecuteQuery(q.sql)), probed);
    }
  }
  // The generator is not vacuous: the joins match rows.
  EXPECT_GT(rows_compared, kSeeds * 2);
}

TEST(JoinOracleTest, HashStepsFollowTheIndexKeyRules) {
  Database db;
  Must(&db, "CREATE TABLE s (id INTEGER, k VARCHAR)");
  Must(&db, "CREATE TABLE i (id INTEGER, k INTEGER)");
  Must(&db, "CREATE TABLE t (id INTEGER, k VARCHAR)");
  Must(&db, "INSERT INTO s VALUES (1, '42'), (2, '07'), (3, '7'), (4, NULL)");
  Must(&db, "INSERT INTO i VALUES (10, 42), (11, 7), (12, NULL)");
  Must(&db, "INSERT INTO t VALUES (20, '7'), (21, '07'), (22, NULL)");
  auto reader = db.OpenReaderSession();
  ASSERT_TRUE(reader.ok()) << reader.status();
  for (bool read : {false, true}) {
    SCOPED_TRACE(read ? "reader" : "writer");
    auto run = [&](const std::string& sql) {
      return Rows(read ? (*reader)->ExecuteQuery(sql) : db.ExecuteQuery(sql));
    };
    // '42' = 42, '07' = 7 and '7' = 7; NULL matches nothing.
    EXPECT_EQ(run("SELECT s.id, i.id FROM s, i WHERE i.k = s.k"),
              (std::vector<std::string>{"id|id|", "1|10|", "2|11|", "3|11|"}));
    // Between strings, '7' and '07' differ.
    EXPECT_EQ(run("SELECT s.id, t.id FROM s, t WHERE t.k = s.k"),
              (std::vector<std::string>{"id|id|", "2|21|", "3|20|"}));
  }
}

TEST(JoinOracleTest, AnIntegerProbeOfStringKeysReadsEveryEqualKey) {
  Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, k VARCHAR)");
  Must(&db, "CREATE INDEX idx_t_k ON t (k)");
  Must(&db, "INSERT INTO t VALUES (20, '7'), (21, '07'), (22, '70'), (23, NULL)");
  // 7 equals both '7' and '07', which are two keys of the index.
  EXPECT_EQ(Rows(db.ExecuteQuery("SELECT id FROM t WHERE k = 7")),
            (std::vector<std::string>{"id|", "20|", "21|"}));
  Must(&db, "DELETE FROM t WHERE k IN (7)");
  EXPECT_EQ(Rows(db.ExecuteQuery("SELECT id FROM t")),
            (std::vector<std::string>{"id|", "22|", "23|"}));
}

/// A random DELETE or UPDATE over a, b or c. `params` gets the values of
/// its ? placeholders.
std::string MakeMutation(Rng* rng, std::vector<Value>* params) {
  const char* const kTables[] = {"a", "b", "c"};
  const std::string t = Pick(kTables, rng);
  auto key = [&] {
    return std::string(rng->Uniform(2) == 0 ? Pick(kIntKeys, rng)
                                            : Pick(kStrKeys, rng));
  };
  const std::string col = rng->Uniform(4) == 0 ? "n" : "k";
  std::string pred;
  switch (rng->Uniform(5)) {
    case 0:
      pred = col + " = " + key();
      break;
    case 1:
      pred = col + " IN (" + key() + ", " + key() + ", " + key() + ")";
      break;
    case 2:
      pred = col + " IN (SELECT " + col + " FROM " + Pick(kTables, rng) +
             " WHERE n <> " + std::to_string(rng->Uniform(4)) + ")";
      break;
    case 3:
      pred = col + " NOT IN (" + key() + ", " + key() + ")";
      break;
    default:
      pred = col + " = ?";
      params->push_back(rng->Uniform(2) == 0 ? Value::Null()
                                             : Value::Int(42));
      break;
  }
  if (rng->Uniform(3) == 0) pred += " AND n <> 1";
  switch (rng->Uniform(3)) {
    case 0:
      return "DELETE FROM " + t + " WHERE " + pred;
    case 1:
      return "UPDATE " + t + " SET n = n + 1 WHERE " + pred;
    default:
      return "UPDATE " + t + " SET k = " + key() + " WHERE " + pred;
  }
}

/// Every table's rows in slot order, and the deleted and updated counts.
std::vector<std::string> State(Database* db) {
  std::vector<std::string> out;
  for (const char* t : {"a", "b", "c"}) {
    for (std::string& row :
         Rows(db->ExecuteQuery(std::string("SELECT * FROM ") + t))) {
      out.push_back(t + std::string(": ") + std::move(row));
    }
    const TableAccessStats& s = db->FindTable(t)->access_stats();
    out.push_back(t + std::string(" deleted ") +
                  std::to_string(s.rows_deleted) + " updated " +
                  std::to_string(s.rows_updated));
  }
  out.push_back("deleted " + std::to_string(db->stats().rows_deleted) +
                " updated " + std::to_string(db->stats().rows_updated));
  return out;
}

TEST(JoinOracleTest, DeleteAndUpdateChangeTheSameRowsProbedOrScanned) {
  uint64_t changed = 0;
  size_t probed_paths = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database probed, scanned;
    scanned.set_planner_index_probes_enabled(false);
    for (Database* db : {&probed, &scanned}) {
      Rng rng(seed);
      int64_t next_id = 1;
      Populate(db, &rng, &next_id);
      if (HasFatalFailure()) return;
      // Deleting an a row deletes the b rows keyed by its n and bumps the
      // c rows that share its key.
      Must(db,
           "CREATE TRIGGER trg_a AFTER DELETE ON a FOR EACH ROW BEGIN "
           "DELETE FROM b WHERE k = OLD.n; "
           "UPDATE c SET n = n + 1 WHERE k = OLD.k; END");
    }
    ASSERT_EQ(State(&probed), State(&scanned));
    const uint64_t before = probed.stats().rows_deleted +
                            probed.stats().rows_updated;
    Rng rng(seed + 1000);
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      std::vector<Value> params;
      const std::string sql = MakeMutation(&rng, &params);
      SCOPED_TRACE(sql);
      const std::string plan = Explain(probed.ExecuteQueryBound(
          "EXPLAIN " + sql, std::vector<Value>(params)));
      probed_paths += Count(plan, "IndexProbe ");
      EXPECT_EQ(Count(Explain(scanned.ExecuteQueryBound("EXPLAIN " + sql,
                                                        params)),
                      "IndexProbe "),
                0u);
      const Status p = probed.ExecuteQueryBound(sql, params).status();
      const Status q = scanned.ExecuteQueryBound(sql, params).status();
      EXPECT_EQ(p.ToString(), q.ToString());
      ASSERT_EQ(State(&probed), State(&scanned)) << plan;
    }
    changed += probed.stats().rows_deleted + probed.stats().rows_updated -
               before;
  }
  // The generator is not vacuous: statements change rows, and the probed
  // twin takes index paths.
  EXPECT_GT(changed, kSeeds);
  EXPECT_GT(probed_paths, kSeeds);
}

/// A conjunct pair over one relation (columns prefixed by `prefix`): an
/// equality of one column with a literal, and an IN list or IN subquery
/// over the other column, in either order. Sets `*eq_col` to the equality's
/// column.
std::string EqualityBesideAnIn(Rng* rng, const std::string& prefix,
                               std::string* eq_col) {
  const char* const kNs[] = {"0", "1", "2", "3", "'2'", "NULL"};
  const char* const kTables[] = {"a", "b", "c"};
  const bool eq_on_k = rng->Uniform(2) == 0;
  *eq_col = eq_on_k ? "k" : "n";
  const std::string in_col = eq_on_k ? "n" : "k";
  auto value = [&](const std::string& col) {
    if (col == "n") return std::string(Pick(kNs, rng));
    return std::string(rng->Uniform(2) == 0 ? Pick(kIntKeys, rng)
                                            : Pick(kStrKeys, rng));
  };
  const std::string eq = prefix + *eq_col + " = " + value(*eq_col);
  std::string in = prefix + in_col + " IN (";
  switch (rng->Uniform(3)) {
    case 0:
      in += value(in_col) + ", " + value(in_col) + ", " + value(in_col);
      break;
    case 1:
      in += std::string("SELECT ") + (rng->Uniform(2) == 0 ? "k" : "n") +
            " FROM " + Pick(kTables, rng) + " WHERE n <> " +
            std::to_string(rng->Uniform(4));
      break;
    default:
      // Mixed-type values: VARCHAR and INTEGER keys in one set.
      in += std::string("SELECT k FROM ") + (rng->Uniform(2) == 0 ? "a" : "c") +
            " UNION ALL SELECT k FROM b";
      break;
  }
  in += ")";
  return rng->Uniform(2) == 0 ? eq + " AND " + in : in + " AND " + eq;
}

TEST(JoinOracleTest, ARowFreeEqualityBesideAnInPathMatchesTheScan) {
  // With k and n both indexed, the equality wins the access path over the
  // IN form whatever the conjunct order; the IN form stays a filter. SELECTs
  // (alone or as the inner step of a join), DELETEs and UPDATEs return and
  // change the same rows, in the same order, as a forced scan.
  size_t rows_compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database probed, scanned;
    scanned.set_planner_index_probes_enabled(false);
    for (Database* db : {&probed, &scanned}) {
      Rng rng(seed);
      int64_t next_id = 1;
      Populate(db, &rng, &next_id, /*index_both=*/true);
      if (HasFatalFailure()) return;
    }
    Rng rng(seed + 2000);
    const char* const kTables[] = {"a", "b", "c"};
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      const std::string t = Pick(kTables, &rng);
      std::string eq_col;
      std::string sql;
      std::string prefix;
      switch (rng.Uniform(4)) {
        case 0:
          sql = "SELECT * FROM " + t + " WHERE " +
                EqualityBesideAnIn(&rng, prefix, &eq_col);
          break;
        case 1:
          prefix = "l1.";
          sql = "SELECT l0.id, l1.id, l1.k FROM " +
                std::string(Pick(kTables, &rng)) + " l0, " + t +
                " l1 WHERE l1.n >= l0.n AND " +
                EqualityBesideAnIn(&rng, prefix, &eq_col);
          break;
        case 2:
          sql = "DELETE FROM " + t + " WHERE " +
                EqualityBesideAnIn(&rng, prefix, &eq_col);
          break;
        default:
          sql = "UPDATE " + t + " SET n = n + 1 WHERE " +
                EqualityBesideAnIn(&rng, prefix, &eq_col);
          break;
      }
      SCOPED_TRACE(sql);
      const std::string plan = Explain(probed.ExecuteQuery("EXPLAIN " + sql));
      EXPECT_NE(plan.find("via idx_" + t + "_" + eq_col + " (" + prefix +
                          eq_col + " = "),
                std::string::npos)
          << plan;
      if (sql.rfind("SELECT", 0) == 0) {
        std::vector<std::string> rows = Rows(probed.ExecuteQuery(sql));
        ASSERT_EQ(rows.front().rfind("error", 0), std::string::npos)
            << rows.front();
        EXPECT_EQ(Rows(scanned.ExecuteQuery(sql)), rows);
        rows_compared += rows.size() - 1;
      } else {
        const Status p = probed.ExecuteQuery(sql).status();
        EXPECT_TRUE(p.ok()) << p;
        EXPECT_EQ(scanned.ExecuteQuery(sql).status().ToString(), p.ToString());
      }
      ASSERT_EQ(State(&probed), State(&scanned));
    }
  }
  // The generator is not vacuous: the queries match rows.
  EXPECT_GT(rows_compared, kSeeds);
}

/// `x IN (SELECT ...)` for an operand `x` of relation `t` (columns prefixed
/// by `prefix`), over a, b, c or `t` itself. The subquery mostly selects the
/// operand's column, which is indexed (the semi-join form) except for id
/// (the set form), optionally filtered by a comparison, by a nested IN, or
/// by an indexed equality beside a nested IN (itself a semi-join).
std::string ResidualIn(Rng* rng, const std::string& prefix,
                       const std::string& t) {
  const char* const kTables[] = {"a", "b", "c"};
  const char* const kColumns[] = {"k", "k", "n", "n", "id"};
  const std::string operand = Pick(kColumns, rng);
  const std::string output =
      rng->Uniform(4) == 0 ? Pick(kColumns, rng) : operand;
  std::string sub = "SELECT " + output + " FROM " +
                    (rng->Uniform(3) == 0 ? t : Pick(kTables, rng));
  const std::string nested = std::string("(SELECT ") +
                             (rng->Uniform(2) == 0 ? "n" : "k") + " FROM " +
                             Pick(kTables, rng) + " WHERE n <> " +
                             std::to_string(rng->Uniform(4)) + ")";
  switch (rng->Uniform(4)) {
    case 0:
      break;
    case 1:
      sub += " WHERE n <> " + std::to_string(rng->Uniform(4));
      break;
    case 2:
      sub += " WHERE k IN " + nested;
      break;
    default:
      sub += " WHERE n = " + std::to_string(rng->Uniform(4)) + " AND k IN " +
             nested;
      break;
  }
  return prefix + operand + " IN (" + sub + ")";
}

TEST(JoinOracleTest, ResidualInSubqueriesProbeOrBuildTheSetAlike) {
  // Beside an indexed equality path, a residual IN-subquery over an indexed
  // output column probes that index per candidate (`IN probe`); the twin
  // without index probes scans and builds every subquery's set. SELECTs
  // (alone or as the inner step of a join), DELETEs and UPDATEs must return
  // and change the same rows, in the same order, with the same counts, over
  // mixed-type and NULL keys and operands and tombstoned subquery rows.
  uint64_t rows_matched = 0;
  size_t semi_joins = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database probed, scanned;
    scanned.set_planner_index_probes_enabled(false);
    for (Database* db : {&probed, &scanned}) {
      Rng rng(seed);
      int64_t next_id = 1;
      Populate(db, &rng, &next_id, /*index_both=*/true);
      if (HasFatalFailure()) return;
    }
    const uint64_t before =
        probed.stats().rows_deleted + probed.stats().rows_updated;
    Rng rng(seed + 3000);
    const char* const kTables[] = {"a", "b", "c"};
    for (int i = 0; i < 2 * kQueriesPerSeed; ++i) {
      const std::string t = Pick(kTables, &rng);
      const bool join = rng.Uniform(4) == 1;
      const std::string prefix = join ? "l1." : "";
      const bool eq_on_k = rng.Uniform(2) == 0;
      const std::string eq =
          prefix + (eq_on_k ? "k = " + std::string(rng.Uniform(2) == 0
                                                       ? Pick(kIntKeys, &rng)
                                                       : Pick(kStrKeys, &rng))
                            : "n = " + std::to_string(rng.Uniform(4)));
      std::string where = ResidualIn(&rng, prefix, t);
      where = rng.Uniform(2) == 0 ? eq + " AND " + where : where + " AND " + eq;
      if (rng.Uniform(3) == 0) where += " AND " + ResidualIn(&rng, prefix, t);
      std::string sql;
      if (join) {
        sql = "SELECT l0.id, l1.id, l1.k FROM " +
              std::string(Pick(kTables, &rng)) + " l0, " + t +
              " l1 WHERE l1.n >= l0.n AND " + where;
      } else {
        switch (rng.Uniform(3)) {
          case 0:
            sql = "SELECT * FROM " + t + " WHERE " + where;
            break;
          case 1:
            sql = "DELETE FROM " + t + " WHERE " + where;
            break;
          default:
            sql = "UPDATE " + t + " SET n = n + 1 WHERE " + where;
            break;
        }
      }
      SCOPED_TRACE(sql);
      const std::string plan = Explain(probed.ExecuteQuery("EXPLAIN " + sql));
      semi_joins += Count(plan, " IN probe ");
      EXPECT_EQ(Count(Explain(scanned.ExecuteQuery("EXPLAIN " + sql)),
                      " IN probe "),
                0u);
      if (sql.rfind("SELECT", 0) == 0) {
        std::vector<std::string> rows = Rows(probed.ExecuteQuery(sql));
        ASSERT_EQ(rows.front().rfind("error", 0), std::string::npos)
            << rows.front();
        EXPECT_EQ(Rows(scanned.ExecuteQuery(sql)), rows) << plan;
        rows_matched += rows.size() - 1;
      } else {
        const Status p = probed.ExecuteQuery(sql).status();
        EXPECT_TRUE(p.ok()) << p;
        EXPECT_EQ(scanned.ExecuteQuery(sql).status().ToString(), p.ToString());
      }
      ASSERT_EQ(State(&probed), State(&scanned)) << plan;
    }
    rows_matched += probed.stats().rows_deleted +
                    probed.stats().rows_updated - before;
  }
  // The generator is not vacuous: the statements return or change rows,
  // and most of them test a residual IN as a semi-join.
  EXPECT_GT(rows_matched, kSeeds);
  EXPECT_GT(semi_joins, kSeeds * kQueriesPerSeed);
}

}  // namespace
}  // namespace xupd::rdb
