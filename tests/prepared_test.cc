// Tests for the prepared-statement subsystem: LRU cache hit/miss accounting,
// invalidation on DDL, positional ? parameter binding for every Value type
// (including NULL), and multi-row VALUES parsing + execution.
#include <gtest/gtest.h>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/sql_parser.h"
#include "test_util.h"

namespace xupd::rdb {
namespace {

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  }

  int64_t CountRows() {
    auto r = db_.ExecuteQuery("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Cache accounting.

TEST_F(PreparedTest, RepeatedPrepareHitsTheCache) {
  const char kSql[] = "INSERT INTO t VALUES (?, ?)";
  Stats before = db_.stats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_.ExecuteQueryBound(kSql, {Value::Int(i), Value::Str("row")}).ok());
  }
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.prepared_misses, 1u);
  EXPECT_EQ(delta.prepared_hits, 9u);
  EXPECT_EQ(delta.sql_parses, 1u);  // one parse serves all ten statements
  EXPECT_EQ(delta.statements, 10u);
  EXPECT_EQ(CountRows(), 10);
}

TEST_F(PreparedTest, HandleReuseSkipsTheCacheLookup) {
  auto handle = db_.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(handle.ok()) << handle.status();
  Stats before = db_.stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.ExecuteQuery(handle.value(),
                                 {Value::Int(i), Value::Str("h")})
                    .ok());
  }
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.sql_parses, 0u);
  EXPECT_EQ(delta.statements, 5u);
  EXPECT_EQ(CountRows(), 5);
}

TEST_F(PreparedTest, DistinctTextsAreDistinctEntries) {
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t").ok());
  ASSERT_TRUE(db_.Prepare("SELECT name FROM t").ok());
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t").ok());  // hit
  EXPECT_EQ(db_.prepared_cache_size(), 2u);
  EXPECT_EQ(db_.stats().prepared_misses, 2u);
  EXPECT_EQ(db_.stats().prepared_hits, 1u);
}

TEST_F(PreparedTest, LruEvictsLeastRecentlyUsed) {
  // Fill the cache to capacity with distinct texts, refresh the oldest, then
  // one text past capacity evicts the least recently used: text(1).
  auto text = [](size_t n) {
    return "SELECT id FROM t WHERE id = " + std::to_string(n);
  };
  const size_t capacity = StatementCache::kDefaultCapacity;
  for (size_t n = 0; n < capacity; ++n) {
    ASSERT_TRUE(db_.Prepare(text(n)).ok());
  }
  ASSERT_TRUE(db_.Prepare(text(0)).ok());         // refresh text(0)
  ASSERT_TRUE(db_.Prepare(text(capacity)).ok());  // evicts text(1)
  EXPECT_EQ(db_.prepared_cache_size(), capacity);
  uint64_t misses = db_.stats().prepared_misses;
  ASSERT_TRUE(db_.Prepare(text(0)).ok());  // still cached
  EXPECT_EQ(db_.stats().prepared_misses, misses);
  ASSERT_TRUE(db_.Prepare(text(1)).ok());  // evicted -> miss
  EXPECT_EQ(db_.stats().prepared_misses, misses + 1);
}

// ---------------------------------------------------------------------------
// Invalidation.

TEST_F(PreparedTest, DropInvalidatesCache) {
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t").ok());
  EXPECT_EQ(db_.prepared_cache_size(), 1u);
  ASSERT_TRUE(db_.ExecuteQuery("DROP TABLE t").ok());
  EXPECT_EQ(db_.prepared_cache_size(), 0u);
  uint64_t misses = db_.stats().prepared_misses;
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t").ok());  // re-parse
  EXPECT_EQ(db_.stats().prepared_misses, misses + 1);
}

TEST_F(PreparedTest, CreateInvalidatesCache) {
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t").ok());
  ASSERT_TRUE(db_.ExecuteQuery("CREATE TABLE u (id INTEGER)").ok());
  EXPECT_EQ(db_.prepared_cache_size(), 0u);
  ASSERT_TRUE(db_.ExecuteQuery("CREATE INDEX t_id ON t (id)").ok());
  EXPECT_EQ(db_.prepared_cache_size(), 0u);
}

TEST_F(PreparedTest, HandleSurvivesInvalidation) {
  auto handle = db_.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(db_.ExecuteQuery("CREATE TABLE u (id INTEGER)").ok());
  // The cache is empty, but the outstanding handle still executes (name
  // resolution happens at run time).
  ASSERT_TRUE(db_.ExecuteQuery(handle.value(),
                               {Value::Int(1), Value::Str("x")})
                  .ok());
  EXPECT_EQ(CountRows(), 1);
}

TEST_F(PreparedTest, DdlIsNotCached) {
  ASSERT_TRUE(db_.Prepare("CREATE TABLE v (id INTEGER)").ok());
  EXPECT_EQ(db_.prepared_cache_size(), 0u);
}

// ---------------------------------------------------------------------------
// Parameter binding.

TEST_F(PreparedTest, BindsAllValueTypes) {
  ASSERT_TRUE(db_.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                    {Value::Int(7), Value::Str("seven")})
                  .ok());
  ASSERT_TRUE(db_.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                    {Value::Int(8), Value::Null()})
                  .ok());
  auto r = db_.ExecuteQueryBound("SELECT name FROM t WHERE id = ?",
                                 {Value::Int(7)});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "seven");
  auto null_row = db_.ExecuteQuery("SELECT id FROM t WHERE name IS NULL");
  ASSERT_TRUE(null_row.ok());
  ASSERT_EQ(null_row->rows.size(), 1u);
  EXPECT_EQ(null_row->rows[0][0].AsInt(), 8);
}

TEST_F(PreparedTest, NullParamInComparisonMatchesNothing) {
  ASSERT_TRUE(db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a')").ok());
  auto r = db_.ExecuteQueryBound("SELECT id FROM t WHERE name = ?",
                                 {Value::Null()});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(PreparedTest, ParamsWorkInUpdateAndDelete) {
  ASSERT_TRUE(db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a')").ok());
  ASSERT_TRUE(db_.ExecuteQuery("INSERT INTO t VALUES (2, 'b')").ok());
  ASSERT_TRUE(db_.ExecuteQueryBound("UPDATE t SET name = ? WHERE id = ?",
                                    {Value::Str("z"), Value::Int(1)})
                  .ok());
  auto r = db_.ExecuteQueryBound("SELECT name FROM t WHERE id = ?",
                                 {Value::Int(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "z");
  ASSERT_TRUE(
      db_.ExecuteQueryBound("DELETE FROM t WHERE id = ?", {Value::Int(2)})
          .ok());
  EXPECT_EQ(CountRows(), 1);
}

TEST_F(PreparedTest, ParamProbeUsesIndex) {
  ASSERT_TRUE(db_.ExecuteQuery("CREATE INDEX t_id ON t (id)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_.ExecuteQueryBound("INSERT INTO t VALUES (?, ?)",
                                      {Value::Int(i), Value::Str("r")})
                    .ok());
  }
  Stats before = db_.stats();
  auto r = db_.ExecuteQueryBound("SELECT name FROM t WHERE id = ?",
                                 {Value::Int(11)});
  ASSERT_TRUE(r.ok());
  Stats delta = db_.stats().Delta(before);
  EXPECT_GT(delta.index_probes, 0u);
  EXPECT_EQ(delta.rows_scanned, 0u);
}

TEST_F(PreparedTest, ArityMismatchIsAnError) {
  auto handle = db_.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(handle.ok());
  Status s = db_.ExecuteQuery(handle.value(), {Value::Int(1)}).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Status s2 = db_.ExecuteQuery(
      handle.value(), {Value::Int(1), Value::Str("a"), Value::Int(2)}).status();
  EXPECT_EQ(s2.code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedTest, UnboundParamViaExecuteIsAnError) {
  // The parse-per-call ExecuteQuery binds no parameters; a ? must fail
  // cleanly.
  Status s = db_.ExecuteQuery("INSERT INTO t VALUES (?, 'x')").status();
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// Multi-row VALUES.

TEST_F(PreparedTest, MultiRowValuesParses) {
  auto stmt = sql::ParseSql("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt.value().insert.rows.size(), 3u);
}

TEST_F(PreparedTest, MultiRowValuesExecutesAndCounts) {
  Stats before = db_.stats();
  ASSERT_TRUE(
      db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
          .ok());
  Stats delta = db_.stats().Delta(before);
  EXPECT_EQ(delta.rows_inserted, 3u);
  EXPECT_EQ(delta.batched_rows, 3u);
  EXPECT_EQ(delta.statements, 1u);
  EXPECT_EQ(CountRows(), 3);
}

TEST_F(PreparedTest, SingleRowInsertIsNotCountedAsBatched) {
  Stats before = db_.stats();
  ASSERT_TRUE(db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a')").ok());
  EXPECT_EQ(db_.stats().Delta(before).batched_rows, 0u);
}

TEST_F(PreparedTest, MultiRowInsertSqlHelperRoundTrips) {
  EXPECT_EQ(MultiRowInsertSql("t", 2, 2), "INSERT INTO t VALUES (?, ?), (?, ?)");
  std::string sql = MultiRowInsertSql("t", 2, 3);
  ASSERT_TRUE(db_.ExecuteQueryBound(sql, {Value::Int(1), Value::Str("a"),
                                          Value::Int(2), Value::Null(),
                                          Value::Int(3), Value::Str("c")})
                  .ok());
  EXPECT_EQ(CountRows(), 3);
  EXPECT_EQ(db_.stats().batched_rows, 3u);
}

TEST_F(PreparedTest, MultiRowArityMismatchRejected) {
  Status s = db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (2)").status();
  EXPECT_FALSE(s.ok());
}

TEST_F(PreparedTest, MultiRowInsertIsAtomic) {
  // A bad row anywhere in the VALUES list must leave the table untouched
  // and must not inflate batched_rows.
  Status s =
      db_.ExecuteQuery("INSERT INTO t VALUES (1, 'a'), (nosuchcol, 'b')")
          .status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(CountRows(), 0);
  EXPECT_EQ(db_.stats().batched_rows, 0u);
  EXPECT_EQ(db_.stats().rows_inserted, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end through the store: the shredder's SQL tuple writer.

/// Shreds the customer document in a fresh store with `batch` rows per
/// INSERT and writes it through Shredder::InsertTuplesSql; returns the
/// statistics delta of the write alone.
Stats SqlInsertDocumentDelta(int batch) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  engine::RelationalStore::Options options;
  options.insert_batch_size = batch;
  auto store = engine::RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  shred::Shredder* shredder = store.value()->shredder();
  auto tuples = shredder->ShredSubtree(*doc->root(), 0);
  EXPECT_TRUE(tuples.ok()) << tuples.status();
  Stats before = store.value()->stats();
  EXPECT_TRUE(shredder->InsertTuplesSql(*tuples).ok());
  return store.value()->stats().Delta(before);
}

TEST(PreparedStoreTest, SqlInsertBatchesAndSkipsReparse) {
  Stats delta = SqlInsertDocumentDelta(64);
  // 11 tuples over 4 tables: one multi-row INSERT per table with >1 row
  // (Customer 3 + Order 3 + OrderLine 4 = 10 batched rows).
  EXPECT_EQ(delta.rows_inserted, 11u);
  EXPECT_EQ(delta.batched_rows, 10u);
  EXPECT_EQ(delta.statements, 4u);
}

TEST(PreparedStoreTest, BatchSizeOneInsertMatchesPaperRegime) {
  Stats delta = SqlInsertDocumentDelta(1);
  EXPECT_EQ(delta.statements, 11u);  // one statement per tuple
  EXPECT_EQ(delta.sql_parses, 11u);  // literal SQL, parsed every time
  EXPECT_EQ(delta.batched_rows, 0u);
}

}  // namespace
}  // namespace xupd::rdb
