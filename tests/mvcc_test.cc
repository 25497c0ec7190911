// Epoch-snapshot MVCC tests: reader sessions pinned before a mutation keep
// seeing the old rows, readers after the commit see the new ones, explicit
// pins are repeatable across writer churn, and the background machinery
// (off-thread checkpoint, time-based group commit) preserves the durability
// contract. The reader/writer stress cases double as the TSan smoke target.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"
#include "test_util.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

/// A scratch data directory, removed (with its contents) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_mvcc_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p == nullptr ? "/tmp/xupd_mvcc_fallback" : p;
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

void Must(rdb::Database* db, const std::string& sql) {
  Status s = db->ExecuteQuery(sql).status();
  ASSERT_TRUE(s.ok()) << sql << ": " << s;
}

int64_t WriterCount(rdb::Database* db, const std::string& sql) {
  auto r = db->ExecuteQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

int64_t ReaderCount(rdb::ReaderSession* rs, const std::string& sql) {
  auto r = rs->ExecuteQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

// ---------------------------------------------------------------------------
// rdb layer: snapshot visibility

TEST(MvccTest, PinnedReaderSeesPreDeleteRows) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 10; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "DELETE FROM t WHERE id < 5");
  // The pinned reader still scans the pre-delete snapshot...
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 10);
  // ...while the writer already sees the new state.
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 5);
  (*rs)->Unpin();
  // A fresh statement pins the current epoch and sees the delete.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 5);
}

TEST(MvccTest, PinnedReaderSeesPreInsertState) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "INSERT INTO t VALUES (3)");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  (*rs)->Unpin();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 3);
}

TEST(MvccTest, PinnedReaderSeesPreUpdateValuesThroughVersionBuffer) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 100)");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "UPDATE t SET v = 200 WHERE id >= 4");
  // In-place updates copy the pre-image into the version buffer; the pinned
  // reader reconstructs the old values.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 800);
  EXPECT_EQ(WriterCount(&db, "SELECT SUM(v) FROM t"), 1200);
  (*rs)->Unpin();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 1200);
}

TEST(MvccTest, VersionBufferTrimsWhenPinnedReaderReleases) {
  // Epoch-aware GC (PR 9): pre-images parked for a pinned reader survive
  // exactly as long as the pin, and their reclamation is observable through
  // the mvcc.* telemetry.
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 100)");
  }
  std::atomic<int64_t>* version_rows = db.metrics().Gauge("mvcc.version_rows");
  std::atomic<uint64_t>* gc_rows = db.metrics().Counter("mvcc.version_gc_rows");
  std::atomic<int64_t>* lag = db.metrics().Gauge("epoch.lag");
  const uint64_t gc_before = gc_rows->load(std::memory_order_relaxed);

  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "UPDATE t SET v = 200 WHERE id >= 4");
  // The four pre-images are parked: the commit boundary saw the pin and
  // kept them, reporting them in the version-buffer gauge and as lag.
  EXPECT_GE(version_rows->load(std::memory_order_relaxed), 4);
  EXPECT_GT(lag->load(std::memory_order_relaxed), 0);
  EXPECT_EQ(gc_rows->load(std::memory_order_relaxed), gc_before);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 800);

  (*rs)->Unpin();
  // The next commit boundary sees no pin: min-pinned advances past the
  // retire epoch and the buffer is trimmed, proven by the counter.
  Must(&db, "INSERT INTO t VALUES (99, 0)");
  EXPECT_EQ(version_rows->load(std::memory_order_relaxed), 0);
  EXPECT_GE(gc_rows->load(std::memory_order_relaxed), gc_before + 4);
  EXPECT_EQ(lag->load(std::memory_order_relaxed), 0);
  // The reader now reconstructs nothing — it reads the live rows.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 1200);
}

TEST(MvccTest, UncommittedTransactionInvisibleToReaders) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "DELETE FROM t WHERE id = 1");
  // Epochs advance only at outermost commit boundaries, so a statement-pinned
  // reader cannot observe the open transaction's effects.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t WHERE id = 1"), 1);
  Must(&db, "COMMIT");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t WHERE id = 2"), 1);
}

TEST(MvccTest, RolledBackTransactionNeverVisibleToReaders) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "ROLLBACK");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 1);
}

TEST(MvccTest, ExplicitPinIsRepeatableAcrossWriterChurn) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  for (int i = 0; i < 4; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  uint64_t pin = (*rs)->PinSnapshot();
  EXPECT_GT(pin, 0u);
  EXPECT_TRUE((*rs)->pinned());
  int64_t first = ReaderCount(rs->get(), "SELECT COUNT(*) FROM t");
  for (int i = 0; i < 20; ++i) {
    Must(&db, "INSERT INTO t VALUES (100)");
    Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i % 4));
    // Repeatable reads: every query inside the pin sees the same snapshot.
    EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), first);
  }
  (*rs)->Unpin();
  EXPECT_FALSE((*rs)->pinned());
  EXPECT_NE(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), first);
}

TEST(MvccTest, ReaderSessionRejectsMutationsAndAnalyze) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_FALSE((*rs)->ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("DELETE FROM t").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("DROP TABLE t").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("CREATE TABLE u (id INTEGER)").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("EXPLAIN ANALYZE SELECT * FROM t").ok());
  // Plain EXPLAIN of a SELECT is allowed (no execution).
  EXPECT_TRUE((*rs)->ExecuteQuery("EXPLAIN SELECT * FROM t").ok());
}

TEST(MvccTest, ReaderPlanCacheTracksDdl) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  Must(&db, "DROP TABLE t");
  // The cached plan's table dependency is gone; the reader must not scan a
  // dangling Table*.
  EXPECT_FALSE((*rs)->ExecuteQuery("SELECT COUNT(*) FROM t").ok());
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  Must(&db, "INSERT INTO t VALUES (7, 8)");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 8);
}

TEST(MvccTest, ReaderStatementCacheIsABoundedLru) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  rdb::ReaderSession* session = rs->get();

  // ExecuteQuery parses on every call, like the writer's.
  uint64_t parses = session->stats().sql_parses;
  EXPECT_EQ(ReaderCount(session, "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(session, "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(session->stats().sql_parses, parses + 2);

  // ExecuteQueryBound keeps at most the writer's default capacity of texts:
  // one distinct literal text past it evicts the least recently used.
  auto text = [](size_t n) {
    return "SELECT COUNT(*) FROM t WHERE id = " + std::to_string(n);
  };
  const size_t capacity = rdb::StatementCache::kDefaultCapacity;
  for (size_t n = 0; n <= capacity; ++n) {
    ASSERT_TRUE(session->ExecuteQueryBound(text(n), {}).ok());
  }
  parses = session->stats().sql_parses;
  ASSERT_TRUE(session->ExecuteQueryBound(text(capacity), {}).ok());
  EXPECT_EQ(session->stats().sql_parses, parses);  // still cached
  ASSERT_TRUE(session->ExecuteQueryBound(text(0), {}).ok());
  EXPECT_EQ(session->stats().sql_parses, parses + 1);  // evicted: re-parsed
}

TEST(MvccTest, ReaderQueriesWithPredicatesJoinsAndParams) {
  rdb::Database db;
  Must(&db, "CREATE TABLE a (id INTEGER, bid INTEGER)");
  Must(&db, "CREATE TABLE b (id INTEGER, name VARCHAR)");
  Must(&db, "CREATE INDEX idx_b_id ON b (id)");
  Must(&db, "INSERT INTO b VALUES (1, 'x')");
  Must(&db, "INSERT INTO b VALUES (2, 'y')");
  Must(&db, "INSERT INTO a VALUES (10, 1)");
  Must(&db, "INSERT INTO a VALUES (11, 2)");
  Must(&db, "INSERT INTO a VALUES (12, 2)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  // Readers never probe an index: the join's inner step probes a hash
  // table built from one snapshot scan of b.
  EXPECT_EQ(ReaderCount(rs->get(),
                        "SELECT COUNT(*) FROM a, b "
                        "WHERE a.bid = b.id AND b.name = 'y'"),
            2);
  auto bound = (*rs)->ExecuteQueryBound(
      "SELECT COUNT(*) FROM a WHERE bid = ?", {rdb::Value::Int(2)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->rows[0][0].AsInt(), 2);
  // Cached-plan re-execution with different params stays consistent.
  bound = (*rs)->ExecuteQueryBound("SELECT COUNT(*) FROM a WHERE bid = ?",
                                   {rdb::Value::Int(1)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// engine layer: every delete/insert strategy preserves snapshot isolation

class MvccDeleteStrategyTest
    : public ::testing::TestWithParam<DeleteStrategy> {};

TEST_P(MvccDeleteStrategyTest, PinnedReaderSeesPreDeleteSubtrees) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = GetParam();
  options.insert_strategy = xupd::testing::PairedInsert(GetParam());
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());

  auto rs = (*store)->db()->OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  ASSERT_TRUE((*store)->DeleteWhere("Customer", "Name = 'John'").ok());
  // Pinned before the delete: the whole subtree is still visible.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM OrderLine"), 4);
  (*rs)->Unpin();
  // After the commit: the reader sees the post-delete state.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM OrderLine"), 1);
}

INSTANTIATE_TEST_SUITE_P(AllDeleteStrategies, MvccDeleteStrategyTest,
                         ::testing::Values(DeleteStrategy::kPerTupleTrigger,
                                           DeleteStrategy::kPerStatementTrigger,
                                           DeleteStrategy::kCascade,
                                           DeleteStrategy::kAsr));

class MvccInsertStrategyTest
    : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(MvccInsertStrategyTest, PinnedReaderSeesPreInsertSubtrees) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = xupd::testing::PairedDelete(GetParam());
  options.insert_strategy = GetParam();
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());

  auto rs = (*store)->db()->OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  ASSERT_TRUE((*store)
                  ->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                      (*store)->root_id())
                  .ok());
  // Pinned before the copy: old counts.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 3);
  (*rs)->Unpin();
  // After the commit: Mary's subtree is duplicated.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 4);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 4);
}

INSTANTIATE_TEST_SUITE_P(AllInsertStrategies, MvccInsertStrategyTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr));

/// The paper's §7.2 conventional path join, one step up from OrderLine.
constexpr char kPathJoin[] =
    "SELECT l1.id, l0.id FROM OrderLine l0, Order l1 "
    "WHERE l0.parentId = l1.id";

std::vector<std::string> JoinRows(const Result<rdb::ResultSet>& r) {
  std::vector<std::string> out;
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return out;
  for (const rdb::Row& row : r->rows) {
    out.push_back(row[0].ToString() + "|" + row[1].ToString());
  }
  return out;
}

class MvccStrategyPairTest
    : public ::testing::TestWithParam<
          std::pair<DeleteStrategy, InsertStrategy>> {};

TEST_P(MvccStrategyPairTest, PinnedReaderJoinMatchesTheWriterAtThePin) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = GetParam().first;
  options.insert_strategy = GetParam().second;
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());
  rdb::Database* db = (*store)->db();
  const std::vector<std::string> at_pin = JoinRows(db->ExecuteQuery(kPathJoin));
  ASSERT_FALSE(at_pin.empty());

  auto rs = db->OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  auto plan = (*rs)->ExecuteQuery(std::string("EXPLAIN ") + kPathJoin);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->ToString().find("HashProbe Order l1"), std::string::npos)
      << plan->ToString();
  (*rs)->PinSnapshot();
  // The pinned session joins on its own thread while the writer deletes a
  // subtree and copies another.
  std::vector<std::vector<std::string>> seen;
  std::thread reader([&] {
    for (int i = 0; i < 20; ++i) {
      seen.push_back(JoinRows((*rs)->ExecuteQuery(kPathJoin)));
    }
  });
  Status del = (*store)->DeleteWhere("Customer", "Name = 'John'");
  Status copy = (*store)->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                            (*store)->root_id());
  reader.join();
  ASSERT_TRUE(del.ok()) << del;
  ASSERT_TRUE(copy.ok()) << copy;
  for (const std::vector<std::string>& rows : seen) EXPECT_EQ(rows, at_pin);
  EXPECT_EQ(JoinRows((*rs)->ExecuteQuery(kPathJoin)), at_pin);
  (*rs)->Unpin();
  // After the commits: the writer's current result.
  const std::vector<std::string> now = JoinRows(db->ExecuteQuery(kPathJoin));
  EXPECT_NE(now, at_pin);
  EXPECT_EQ(JoinRows((*rs)->ExecuteQuery(kPathJoin)), now);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategyPairs, MvccStrategyPairTest,
    ::testing::ValuesIn(xupd::testing::ValidStrategyPairs()));

// ---------------------------------------------------------------------------
// background checkpoint

TEST(MvccTest, BackgroundCheckpointConcurrentWithCommits) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 50; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    ASSERT_TRUE(db.CheckpointBackground().ok());
    EXPECT_FALSE(db.CheckpointBackground().ok());  // one at a time
    // The writer keeps committing while the checkpointer serializes its
    // pinned snapshot.
    for (int i = 50; i < 80; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    ASSERT_TRUE(db.CheckpointWait().ok());
    EXPECT_FALSE(db.checkpoint_running());
    for (int i = 80; i < 90; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
  }
  // Recovery = snapshot (first 50 rows at the pinned epoch) + WAL suffix
  // (everything after the recorded offset): nothing lost, nothing doubled.
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_TRUE(db2.recovered());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 90);
  EXPECT_EQ(WriterCount(&db2, "SELECT SUM(id) FROM t"), 90 * 89 / 2);
}

TEST(MvccTest, FinishedBackgroundCheckpointHoldsBackNoReclamation) {
  // The checkpoint's epoch pin ends with its serialization, not at the
  // join: an unjoined, finished checkpoint must not park pre-images.
  TempDir dir;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
  }
  std::atomic<int64_t>* version_rows = db.metrics().Gauge("mvcc.version_rows");
  ASSERT_TRUE(db.CheckpointBackground().ok());
  // Each UPDATE commits a boundary; pre-images stay parked only while the
  // serialization still holds its pin.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    Must(&db, "UPDATE t SET v = v + 1");
    if (version_rows->load(std::memory_order_relaxed) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(version_rows->load(std::memory_order_relaxed), 0);
  EXPECT_TRUE(db.checkpoint_running());  // still unjoined
  ASSERT_TRUE(db.CheckpointWait().ok());
}

TEST(MvccTest, BackgroundCheckpointSnapshotExcludesLaterCommits) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    Must(&db, "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    Must(&db, "INSERT INTO t VALUES (2)");
    Must(&db, "DELETE FROM t WHERE id = 1");
    ASSERT_TRUE(db.CheckpointWait().ok());
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t WHERE id = 2"), 1);
}

TEST(MvccTest, BackgroundCheckpointReadsDeadSlotsWhileWriterChurns) {
  // The checkpointer copies tombstoned slots' cells off-thread while the
  // writer grows, updates and deletes in the same slab; recovery must still
  // reproduce every slot exactly, dead cells included.
  auto slots = [](const rdb::Database& db) {
    std::string out;
    const rdb::Table* t = db.FindTable("t");
    for (size_t rowid = 0; t != nullptr && rowid < t->capacity(); ++rowid) {
      out += t->is_live(rowid) ? "live " : "dead ";
      for (const rdb::Value& v : t->row_span(rowid)) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  };
  const std::string pad = " padded past the inline string size";
  TempDir dir;
  std::string expected;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    for (int i = 0; i < 120; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'n" +
                    std::to_string(i) + pad + "')");
    }
    Must(&db, "DELETE FROM t WHERE id < 40");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    for (int i = 120; i < 400; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'late')");
      if (i % 7 == 0) {
        Must(&db, "UPDATE t SET name = 'u' WHERE id = " +
                      std::to_string(i - 60));
      }
      if (i % 5 == 0) {
        Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i - 75));
      }
    }
    ASSERT_TRUE(db.CheckpointWait().ok());
    expected = slots(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(slots(db2), expected);
  EXPECT_NE(expected.find("dead 0|n0" + pad + "|"), std::string::npos);
}

// ---------------------------------------------------------------------------
// group commit: bounded loss under power loss

TEST(MvccTest, BatchedSyncLosesAtMostTheUnsyncedWindow) {
  TempDir dir;
  rdb::FaultVfs fault(rdb::Vfs::Default());
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kBatched;
    // A very long window keeps the flusher idle for the whole test, so
    // every post-checkpoint commit is acknowledged but unsynced.
    opts.group_commit_window_us = 60 * 1000 * 1000;
    opts.vfs = &fault;
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 10; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    // Checkpoint fsyncs everything committed so far.
    ASSERT_TRUE(db.Checkpoint().ok());
    // These commits are acknowledged under kBatched without an fsync.
    for (int i = 10; i < 15; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    fault.SimulatePowerLoss();
    // The dying process's close-path writes fail on the dead handles; the
    // destructor must still tear down cleanly.
  }
  rdb::Database db2;
  rdb::DurabilityOptions opts2;
  ASSERT_TRUE(db2.Open(dir.path(), opts2).ok());
  // Bounded loss: everything synced survives; only the unsynced window
  // (the 5 trailing acked units) may be gone — and nothing partial appears.
  int64_t n = WriterCount(&db2, "SELECT COUNT(*) FROM t");
  EXPECT_GE(n, 10);
  EXPECT_LE(n, 15);
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t WHERE id < 10"), 10);
  // The recovered prefix is a clean unit boundary: ids are contiguous.
  EXPECT_EQ(WriterCount(&db2, "SELECT MAX(id) FROM t"), n - 1);
  EXPECT_EQ(WriterCount(&db2, "SELECT SUM(id) FROM t"), n * (n - 1) / 2);
}

TEST(MvccTest, CommitSyncLosesNothingOnPowerLoss) {
  TempDir dir;
  rdb::FaultVfs fault(rdb::Vfs::Default());
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kCommit;
    opts.vfs = &fault;
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 15; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    fault.SimulatePowerLoss();
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  // kCommit: every acknowledged unit was fsynced before the ack.
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 15);
}

TEST(MvccTest, BatchedFlusherEventuallySyncsWithoutCheckpoints) {
  TempDir dir;
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kBatched;
    opts.group_commit_window_us = 500;  // aggressive window for the test
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 20; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    // Give the background flusher a few windows to drain the tail, then
    // exit without a checkpoint: recovery must replay from the synced WAL.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 20);
}

// ---------------------------------------------------------------------------
// concurrency stress (primary TSan target)

TEST(MvccStressTest, ConcurrentReadersSeeOnlyCommitBoundaries) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  // Invariant: the writer only ever commits rows in pairs, so every epoch
  // exposes an even row count and SUM(v) == 0 (each pair is +x and -x).
  constexpr int kWriterIters = 300;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &failures] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      while (!done.load(std::memory_order_acquire)) {
        auto count = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        if (!count.ok() || count->rows[0][0].AsInt() % 2 != 0) {
          ++failures;
          break;
        }
        auto sum = (*rs)->ExecuteQuery("SELECT SUM(v) FROM t");
        int64_t s = 0;
        if (sum.ok() && !sum->rows.empty() && !sum->rows[0][0].is_null()) {
          s = sum->rows[0][0].AsInt();
        }
        if (!sum.ok() || s != 0) {
          ++failures;
          break;
        }
        // Repeatable read inside one explicit pin.
        (*rs)->PinSnapshot();
        auto c1 = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        auto c2 = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        (*rs)->Unpin();
        if (!c1.ok() || !c2.ok() ||
            c1->rows[0][0].AsInt() != c2->rows[0][0].AsInt()) {
          ++failures;
          break;
        }
      }
    });
  }

  for (int i = 0; i < kWriterIters; ++i) {
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                  std::to_string(i + 1) + ")");
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                  std::to_string(-(i + 1)) + ")");
    Must(&db, "COMMIT");
    if (i % 3 == 2) {
      // Delete one full pair inside a transaction: still even at the commit.
      Must(&db, "BEGIN");
      Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i - 2));
      Must(&db, "COMMIT");
    }
    if (i % 50 == 25) {
      Must(&db, "UPDATE t SET v = -v WHERE id >= " + std::to_string(i - 10));
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(WriterCount(&db, "SELECT SUM(v) FROM t"), 0);
}

TEST(MvccStressTest, ConcurrentReadersWithBackgroundCheckpoint) {
  TempDir dir;
  rdb::Database db;
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kBatched;
  opts.group_commit_window_us = 1000;
  ASSERT_TRUE(db.Open(dir.path(), opts).ok());
  Must(&db, "CREATE TABLE t (id INTEGER)");

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &done, &failures] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      int64_t prev = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto count = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        if (!count.ok()) {
          ++failures;
          break;
        }
        int64_t n = count->rows[0][0].AsInt();
        // Insert-only workload: counts are monotone across statements.
        if (n < prev) {
          ++failures;
          break;
        }
        prev = n;
      }
    });
  }

  Status bg = Status::OK();
  for (int i = 0; i < 200 && bg.ok(); ++i) {
    Status s =
        db.ExecuteQuery("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .status();
    if (!s.ok()) bg = s;
    if (i == 60 || i == 140) {
      // The first checkpoint may still be serializing; wait it out before
      // launching the next (only one runs at a time).
      bg = db.CheckpointWait();
      if (bg.ok()) bg = db.CheckpointBackground();
    }
  }
  Status wait = db.CheckpointWait();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(bg.ok()) << bg;
  EXPECT_TRUE(wait.ok()) << wait;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 200);
}

}  // namespace
}  // namespace xupd
