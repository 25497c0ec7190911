// Durability subsystem tests (rdb/wal.h, rdb/snapshot.h): WAL unit
// semantics (commit / rollback / savepoints / autocommit), snapshot
// checkpoints and WAL truncation, DDL replay, corrupt-file handling
// (torn tails, bad CRC frames, version mismatches, stale epochs), and the
// engine-level crash-recovery property: for a failure injected at EVERY
// statement boundary of every delete/insert/copy strategy, reopening the
// surviving files reproduces exactly the last committed pre-op or post-op
// state — element tables, hash indexes, tombstones, next-id and the ASR.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/wal.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

// ---------------------------------------------------------------------------
// Helpers

/// A scratch data directory, removed (with its contents) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_recovery_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p == nullptr ? "/tmp/xupd_recovery_fallback" : p;
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Renders the full durable state of a database — every durable table's
/// schema, every row slot (with liveness), index definitions, and the
/// next-id counter — as one comparable string.
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

// ---------------------------------------------------------------------------
// rdb layer: WAL unit semantics

class RdbRecoveryTest : public ::testing::Test {
 protected:
  void Must(rdb::Database* db, const std::string& sql) {
    Status s = db->ExecuteQuery(sql).status();
    ASSERT_TRUE(s.ok()) << sql << ": " << s;
  }
  void Setup(rdb::Database* db) {
    ASSERT_TRUE(db->Open(dir_.path()).ok());
    Must(db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    Must(db, "CREATE INDEX idx_t_id ON t (id)");
  }
  int64_t Count(rdb::Database* db, const std::string& where = "") {
    auto r = db->ExecuteQuery("SELECT COUNT(*) FROM t" +
                              (where.empty() ? "" : " WHERE " + where));
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  TempDir dir_;
};

TEST_F(RdbRecoveryTest, FreshDirectoryOpensEmptyAndReopensRecovered) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    EXPECT_FALSE(db.recovered());
    EXPECT_TRUE(db.durability_open());
    Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    EXPECT_GT(db.stats().wal_appends, 0u);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_TRUE(db2.recovered());
  EXPECT_GT(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(Count(&db2), 2);
}

TEST_F(RdbRecoveryTest, OnlyCommittedTransactionsSurvive) {
  std::string committed;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'committed')");
    Must(&db, "COMMIT");
    committed = DumpDurableState(db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (2, 'open')");
    // Destroyed with the transaction still open: its redo is pending, never
    // written — crash or clean close, an uncommitted scope must not persist.
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2), 1);
  EXPECT_EQ(DumpDurableState(db2), committed);
}

TEST_F(RdbRecoveryTest, RolledBackWorkWritesNoRedo) {
  {
    rdb::Database db;
    Setup(&db);
    uint64_t appends_before = db.stats().wal_appends;
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'x')");
    Must(&db, "UPDATE t SET name = 'y' WHERE id = 1");
    Must(&db, "ROLLBACK");
    EXPECT_EQ(db.stats().wal_appends, appends_before);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2), 0);
}

TEST_F(RdbRecoveryTest, SecondOpenOnALiveDirectoryIsRejected) {
  rdb::Database db;
  Setup(&db);
  // Two writers on one WAL would truncate each other's committed frames;
  // the directory flock turns that into a clean "in use" error.
  rdb::Database intruder;
  Status s = intruder.Open(dir_.path());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("in use"), std::string::npos) << s;
  // The first database keeps working; the lock dies with it.
  Must(&db, "INSERT INTO t VALUES (1, 'still-mine')");
}

TEST_F(RdbRecoveryTest, SavepointRollbackTruncatesRedoInLockstep) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'keep')");
    Must(&db, "SAVEPOINT sp");
    Must(&db, "INSERT INTO t VALUES (2, 'drop')");
    Must(&db, "DELETE FROM t WHERE id = 1");
    Must(&db, "ROLLBACK TO sp");
    Must(&db, "RELEASE sp");  // ROLLBACK TO keeps the savepoint open
    Must(&db, "INSERT INTO t VALUES (3, 'keep2')");
    Must(&db, "COMMIT");
    ASSERT_FALSE(db.in_transaction());
    EXPECT_EQ(Count(&db), 2);
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2, "id = 1"), 1);
  EXPECT_EQ(Count(&db2, "id = 2"), 0);
  EXPECT_EQ(Count(&db2, "id = 3"), 1);
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, TombstonesAndNextIdReplayExactly) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
    Must(&db, "DELETE FROM t WHERE id = 2");
    Must(&db, "UPDATE t SET name = 'A' WHERE id = 1");
    db.set_next_id(777);
    Must(&db, "INSERT INTO t VALUES (4, 'd')");  // commits carry next_id
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(db2.next_id(), 777);
  EXPECT_EQ(DumpDurableState(db2), expected);
  // The tombstoned slot must hold its position: a post-recovery insert gets
  // the next fresh rowid, exactly as it would have pre-crash.
  rdb::Table* t = db2.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->capacity(), 4u);
  EXPECT_EQ(t->live_count(), 3u);
}

TEST_F(RdbRecoveryTest, DdlAndTriggersReplay) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "CREATE TABLE child (id INTEGER, parentId INTEGER)");
    Must(&db,
         "CREATE TRIGGER trg_t AFTER DELETE ON t FOR EACH ROW BEGIN "
         "DELETE FROM child WHERE parentId = OLD.id; END");
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    Must(&db, "INSERT INTO child VALUES (10, 1), (11, 2)");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  // The recovered trigger must actually fire.
  Must(&db2, "DELETE FROM t WHERE id = 1");
  auto r = db2.ExecuteQuery("SELECT COUNT(*) FROM child");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(RdbRecoveryTest, CheckpointTruncatesWalAndRecoversFromSnapshot) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    for (int i = 0; i < 50; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'x')");
    }
    uint64_t wal_size_before = ReadFile(dir_.path() + "/wal.xupd").size();
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.stats().checkpoints, 1u);
    EXPECT_LT(ReadFile(dir_.path() + "/wal.xupd").size(), wal_size_before);
    Must(&db, "INSERT INTO t VALUES (100, 'post-checkpoint')");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  // Only the post-checkpoint records replay; the 50 pre-checkpoint inserts
  // come from the snapshot.
  EXPECT_LT(db2.stats().recovery_replayed, 10u);
  EXPECT_GT(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(Count(&db2), 51);
}

TEST_F(RdbRecoveryTest, CheckpointInsideTransactionIsRejected) {
  rdb::Database db;
  Setup(&db);
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (1, 'open')");
  Status s = db.Checkpoint();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Must(&db, "COMMIT");
  EXPECT_TRUE(db.Checkpoint().ok());
}

TEST_F(RdbRecoveryTest, BackgroundCheckpointKeepsDeadSlotCells) {
  // Both checkpoints write one slab image: a slot tombstoned before the
  // capture recovers with the cells it held, not NULLs.
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    for (int i = 0; i < 20; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'row" +
                    std::to_string(i) + "')");
    }
    Must(&db, "UPDATE t SET name = 'updated' WHERE id = 4");
    Must(&db, "DELETE FROM t WHERE id = 3");
    Must(&db, "UPDATE t SET name = 'doomed' WHERE id = 7");
    Must(&db, "DELETE FROM t WHERE id = 7 OR id = 12");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    ASSERT_TRUE(db.CheckpointWait().ok());
    expected = DumpDurableState(db);
    EXPECT_NE(expected.find("dead 3|row3|"), std::string::npos) << expected;
    EXPECT_NE(expected.find("dead 7|doomed|"), std::string::npos) << expected;
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, CheckpointNeedsNoReaderSlot) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    Must(&db, "DELETE FROM t WHERE id = 1");
    std::vector<std::unique_ptr<rdb::ReaderSession>> readers;
    for (int i = 0; i < rdb::EpochManager::kMaxReaders; ++i) {
      auto session = db.OpenReaderSession();
      ASSERT_TRUE(session.ok()) << session.status();
      readers.push_back(std::move(session).value());
    }
    ASSERT_FALSE(db.OpenReaderSession().ok());
    // The synchronous checkpoint runs on the writer thread and pins
    // nothing; the background one needs a slot and cannot get one.
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.CheckpointBackground().code(), StatusCode::kUnavailable);
    EXPECT_FALSE(db.checkpoint_running());
    Must(&db, "INSERT INTO t VALUES (3, 'c')");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  EXPECT_EQ(Count(&db2), 2);
}

TEST_F(RdbRecoveryTest, AutocommitStatementsPersistWithoutExplicitTxn) {
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a')");
    Must(&db, "UPDATE t SET name = 'z' WHERE id = 1");
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  auto r = db2.ExecuteQuery("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "z");
}

TEST_F(RdbRecoveryTest, FailedAutocommitStatementLeavesNoTraceAfterReopen) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db,
         "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (4611686018427387904, 'c'), "
         "(3, 'd')");
    expected = DumpDurableState(db);
    // Overflows at the third row, after two rows were rewritten.
    Status s = db.ExecuteQuery("UPDATE t SET id = id * 2").status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_EQ(DumpDurableState(db), expected);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, DirectScratchTablesAreEphemeral) {
  {
    rdb::Database db;
    Setup(&db);
    auto scratch = db.CreateTableDirect(
        rdb::TableSchema("scratch", {{"id", rdb::ColumnType::kInteger}}));
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE(db.InsertDirect(scratch.value(), {rdb::Value::Int(1)}).ok());
    Must(&db, "INSERT INTO t VALUES (1, 'real')");
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(db2.FindTable("scratch"), nullptr);
  EXPECT_EQ(Count(&db2), 1);
}

TEST_F(RdbRecoveryTest, SqlDdlOnAScratchTableIsRejectedSoTheWalReplays) {
  {
    rdb::Database db;
    Setup(&db);
    auto scratch = db.CreateTableDirect(
        rdb::TableSchema("scratch", {{"id", rdb::ColumnType::kInteger}}));
    ASSERT_TRUE(scratch.ok());
    // Logged as text, these would name a table the replay never creates.
    for (const char* ddl : {"CREATE INDEX si ON scratch (id)",
                            "DROP TABLE scratch"}) {
      EXPECT_EQ(db.ExecuteQuery(ddl).status().code(),
                StatusCode::kInvalidArgument)
          << ddl;
    }
    // An index made through the direct API is out of SQL's reach too,
    // named with or without its table.
    rdb::Table* table = db.FindTable("scratch");
    ASSERT_NE(table, nullptr);
    ASSERT_TRUE(table->CreateIndex("direct_si", 0).ok());
    for (const char* ddl :
         {"DROP INDEX direct_si ON scratch", "DROP INDEX direct_si"}) {
      EXPECT_EQ(db.ExecuteQuery(ddl).status().code(),
                StatusCode::kInvalidArgument)
          << ddl;
    }
    Must(&db, "INSERT INTO t VALUES (1, 'committed')");
  }
  rdb::Database db2;
  Status opened = db2.Open(dir_.path());
  ASSERT_TRUE(opened.ok()) << opened;
  EXPECT_EQ(Count(&db2, "name = 'committed'"), 1);
  EXPECT_EQ(db2.FindTable("scratch"), nullptr);
}

TEST_F(RdbRecoveryTest, TriggerOnAScratchTableIsRejectedSoTheSnapshotLoads) {
  {
    rdb::Database db;
    Setup(&db);
    ASSERT_TRUE(db.CreateTableDirect(rdb::TableSchema(
                                         "scratch",
                                         {{"id", rdb::ColumnType::kInteger}}))
                    .ok());
    EXPECT_EQ(db.ExecuteQuery("CREATE TRIGGER st AFTER DELETE ON scratch FOR "
                              "EACH ROW BEGIN DELETE FROM t WHERE id = "
                              "OLD.id; END")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    Must(&db, "INSERT INTO t VALUES (1, 'committed')");
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  rdb::Database db2;
  Status opened = db2.Open(dir_.path());
  ASSERT_TRUE(opened.ok()) << opened;
  EXPECT_EQ(Count(&db2, "name = 'committed'"), 1);
}

// ---------------------------------------------------------------------------
// Corrupt-file handling

class WalCorruptionTest : public RdbRecoveryTest {
 protected:
  /// Builds a WAL of committed units (two DDL units + `units` single-insert
  /// units) and returns the state dump after EVERY unit boundary, index 0 =
  /// the empty database — truncating the log anywhere must land on one of
  /// these.
  std::vector<std::string> BuildUnits(int units) {
    std::vector<std::string> states;
    rdb::Database db;
    (void)db.Open(dir_.path());
    states.push_back(DumpDurableState(db));
    (void)db.ExecuteQuery("CREATE TABLE t (id INTEGER, name VARCHAR)");
    states.push_back(DumpDurableState(db));
    (void)db.ExecuteQuery("CREATE INDEX idx_t_id ON t (id)");
    states.push_back(DumpDurableState(db));
    for (int i = 0; i < units; ++i) {
      (void)db.ExecuteQuery("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 'u')");
      states.push_back(DumpDurableState(db));
    }
    return states;
  }

  /// Rewrites the payload of the `nth` (0-based) insert frame in the WAL
  /// with `mutate` and recomputes the frame's CRC, so the frame still passes
  /// the CRC check and only its decoding can reject it.
  void RewriteInsertFrame(int nth,
                          const std::function<void(std::string*)>& mutate) {
    const std::string path = dir_.path() + "/wal.xupd";
    std::string wal = ReadFile(path);
    size_t pos = 20;  // header: magic | u32 version | u64 epoch
    while (pos + 8 <= wal.size()) {
      rdb::binio::Reader header(wal.data() + pos, 8);
      const uint32_t len = header.U32();
      std::string payload = wal.substr(pos + 8, len);
      if (payload[0] == 1 && nth-- == 0) {  // kind 1 = insert
        mutate(&payload);
        std::string frame;
        rdb::binio::PutU32(&frame, len);
        rdb::binio::PutU32(&frame,
                           rdb::binio::Crc32(payload.data(), payload.size()));
        wal.replace(pos, 8 + len, frame + payload);
        WriteFile(path, wal);
        return;
      }
      pos += 8 + len;
    }
    FAIL() << "the WAL has too few insert frames";
  }
};

TEST_F(WalCorruptionTest, TruncatedTailRecoversACommittedPrefix) {
  std::vector<std::string> states = BuildUnits(8);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_GT(wal.size(), 64u);
  // Chop the WAL at every 7th byte: recovery must always land on exactly
  // one of the committed states — never an error, never a torn mixture.
  for (size_t cut = 0; cut <= wal.size(); cut += 7) {
    WriteFile(dir_.path() + "/wal.xupd", wal.substr(0, cut));
    rdb::Database db;
    Status s = db.Open(dir_.path());
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s;
    std::string got = DumpDurableState(db);
    bool is_prefix_state = false;
    for (const std::string& state : states) {
      if (got == state) {
        is_prefix_state = true;
        break;
      }
    }
    EXPECT_TRUE(is_prefix_state) << "cut at " << cut
                                 << " produced a non-prefix state:\n" << got;
    // The writer truncated the torn tail; put the full log back for the
    // next cut.
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, BadCrcFrameEndsTheLogAtTheLastGoodCommit) {
  std::vector<std::string> states = BuildUnits(8);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  // Flip one byte somewhere in the middle of the frame stream.
  std::string corrupted = wal;
  size_t at = 20 + (wal.size() - 20) / 2;
  corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
  WriteFile(dir_.path() + "/wal.xupd", corrupted);
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path()).ok());
  std::string got = DumpDurableState(db);
  bool is_prefix_state = false;
  size_t which = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    if (got == states[i]) {
      is_prefix_state = true;
      which = i;
      break;
    }
  }
  EXPECT_TRUE(is_prefix_state) << "corruption produced a non-prefix state";
  EXPECT_LT(which, states.size() - 1);  // the tail after the flip is gone
}

TEST_F(WalCorruptionTest, WalBitFlipSweepRecoversAPrefixOrFailsCleanly) {
  // Exhaustive corruption sweep: flip one byte at EVERY offset of the WAL.
  // Whatever the flip hits — magic, version, epoch, frame length, CRC,
  // payload — recovery must either land on a committed prefix state (with
  // the integrity scrub passing) or fail with a clean, described error.
  // Garbage states and crashes are the only unacceptable outcomes.
  std::vector<std::string> states = BuildUnits(4);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_GT(wal.size(), 20u);
  for (size_t at = 0; at < wal.size(); ++at) {
    std::string corrupted = wal;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    WriteFile(dir_.path() + "/wal.xupd", corrupted);
    rdb::Database db;
    Status s = db.Open(dir_.path());
    if (s.ok()) {
      std::string got = DumpDurableState(db);
      bool is_prefix_state = false;
      for (const std::string& state : states) {
        if (got == state) {
          is_prefix_state = true;
          break;
        }
      }
      EXPECT_TRUE(is_prefix_state)
          << "flip at byte " << at << " produced a non-prefix state";
      std::vector<std::string> v = db.VerifyIntegrity();
      EXPECT_TRUE(v.empty()) << "flip at byte " << at << ": " << v[0];
    } else {
      EXPECT_FALSE(s.message().empty()) << "flip at byte " << at;
    }
    // The writer truncated the torn tail; put the full log back.
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, SnapshotBitFlipSweepNeverRecoversGarbage) {
  BuildUnits(2);
  std::string at_checkpoint;
  std::string final_state;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    at_checkpoint = DumpDurableState(db);
    ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (100, 'post')").ok());
    final_state = DumpDurableState(db);
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_FALSE(snap.empty());
  for (size_t at = 0; at < snap.size(); ++at) {
    std::string corrupted = snap;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    WriteFile(dir_.path() + "/snapshot.xupd", corrupted);
    rdb::Database db;
    Status s = db.Open(dir_.path());
    if (s.ok()) {
      // A flip the CRC does not cover (e.g. the epoch field) may demote the
      // WAL to stale; the only legal outcomes are the exact checkpoint or
      // final states — never a mixture.
      std::string got = DumpDurableState(db);
      EXPECT_TRUE(got == final_state || got == at_checkpoint)
          << "flip at byte " << at << " produced a garbage state";
    } else {
      EXPECT_FALSE(s.message().empty()) << "flip at byte " << at;
    }
    WriteFile(dir_.path() + "/snapshot.xupd", snap);
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, UnknownKindFrameIsFlaggedByTheScrubAndEndsReplay) {
  std::string after_first;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a')");
    after_first = DumpDurableState(db);
    Must(&db, "INSERT INTO t VALUES (2, 'b')");
    Must(&db, "INSERT INTO t VALUES (3, 'c')");
    ASSERT_TRUE(db.VerifyIntegrity().empty());
    // The second insert's frame becomes an unknown record kind with a valid
    // CRC. Recovery ends the log there, so the scrub must report the
    // committed units past it as lost.
    RewriteInsertFrame(1, [](std::string* payload) { (*payload)[0] = 0x7F; });
    std::vector<std::string> v = db.VerifyIntegrity();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("lost committed data"), std::string::npos) << v[0];
  }
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db), after_first);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST_F(WalCorruptionTest, UndefinedTableIdIsFlaggedByTheScrubAndFailsRecovery) {
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a')");
    Must(&db, "INSERT INTO t VALUES (2, 'b')");
    Must(&db, "INSERT INTO t VALUES (3, 'c')");
    // The second insert names table id 0x7F7F, which no table-def frame
    // defines (the u16 id follows the kind byte).
    RewriteInsertFrame(1, [](std::string* payload) {
      (*payload)[1] = 0x7F;
      (*payload)[2] = 0x7F;
    });
    std::vector<std::string> v = db.VerifyIntegrity();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("undefined table id 32639"), std::string::npos)
        << v[0];
  }
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("undefined table id 32639"), std::string::npos)
      << s;
  EXPECT_TRUE(db.TableNames().empty());  // no half-recovered catalog.
}

TEST_F(WalCorruptionTest, ScrubFlagsAWalEndingBeforeTheSnapshotOffset) {
  BuildUnits(2);
  const std::string path = dir_.path() + "/wal.xupd";
  const uint64_t size = ReadFile(path).size();
  rdb::Vfs* vfs = rdb::Vfs::Default();
  // A background checkpoint's snapshot folds in the WAL up to its
  // wal_offset. Recovery rejects a log whose committed prefix ends before
  // that offset, and so must the scrub.
  EXPECT_TRUE(rdb::VerifyWalFile(vfs, path, 1, size).empty());
  std::vector<std::string> v = rdb::VerifyWalFile(vfs, path, 1, size + 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("snapshot's recorded offset"), std::string::npos)
      << v[0];
}

TEST_F(WalCorruptionTest, WalVersionMismatchIsACleanError) {
  BuildUnits(2);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  wal[8] = 99;  // format version field (u32 LE after the 8-byte magic)
  WriteFile(dir_.path() + "/wal.xupd", wal);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version mismatch"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, SnapshotVersionMismatchIsACleanError) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  ASSERT_FALSE(snap.empty());
  snap[8] = 99;  // format version field
  WriteFile(dir_.path() + "/snapshot.xupd", snap);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version mismatch"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, CorruptSnapshotFailsItsCrcCheckCleanly) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0xFF);
  WriteFile(dir_.path() + "/snapshot.xupd", snap);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, StaleEpochWalIsIgnoredAfterCheckpoint) {
  std::string expected;
  std::string old_wal;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.ExecuteQuery("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.ExecuteQuery("INSERT INTO t VALUES (1)").ok());
    old_wal = ReadFile(dir_.path() + "/wal.xupd");  // epoch 1
    ASSERT_TRUE(db.Checkpoint().ok());              // snapshot epoch 2
    expected = DumpDurableState(db);
  }
  // Simulate a crash between the snapshot rename and the WAL reset: the
  // old epoch-1 WAL is still on disk. Its records are all contained in the
  // snapshot; replaying them would double-apply.
  WriteFile(dir_.path() + "/wal.xupd", old_wal);
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path()).ok());
  EXPECT_EQ(db.stats().recovery_replayed, 0u);
  EXPECT_EQ(DumpDurableState(db), expected);
}

// ---------------------------------------------------------------------------
// WAL byte format: every record kind, pended through WalWriter, against an
// image assembled by hand from the format documented in rdb/wal.h.

/// Little-endian append of the low `bytes` bytes of `v`.
void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

/// u32 length + bytes.
void PutStr(std::string* out, const std::string& s) {
  PutLe(out, s.size(), 4);
  *out += s;
}

/// u32 payload length | u32 CRC32(payload) | payload.
void PutFrame(std::string* out, const std::string& payload) {
  PutLe(out, payload.size(), 4);
  PutLe(out, rdb::binio::Crc32(payload.data(), payload.size()), 4);
  *out += payload;
}

/// The bytewise CRC-32 (reflected polynomial 0xEDB88320), bit by bit: the
/// reference the table-driven binio::Crc32 must equal.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n, uint32_t prev) {
  uint32_t c = prev ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(WalFormatTest, Crc32MatchesTheBytewiseReference) {
  EXPECT_EQ(rdb::binio::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(rdb::binio::Crc32(nullptr, 0), 0u);
  unsigned char buf[96];
  uint32_t x = 12345;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 16);
  }
  // Every length 0-64 at every start 0-7 (unaligned loads), alone and
  // chained after a prefix through `prev`.
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      SCOPED_TRACE("start " + std::to_string(start) + " len " +
                   std::to_string(len));
      const unsigned char* p = buf + start;
      EXPECT_EQ(rdb::binio::Crc32(p, len), ReferenceCrc32(p, len, 0));
      for (size_t cut : {size_t{0}, len / 3, len}) {
        const uint32_t head = rdb::binio::Crc32(p, cut);
        EXPECT_EQ(rdb::binio::Crc32(p + cut, len - cut, head),
                  ReferenceCrc32(p, len, 0));
      }
    }
  }
}

TEST(WalFormatTest, EveryRecordKindEncodesToTheDocumentedBytes) {
  TempDir dir;
  const std::string path = dir.path() + "/wal.xupd";
  const std::string s14 = "fourteen bytes";
  const std::string s200(200, 'l');
  const std::string s130(130, 'u');
  const std::string ddl = "CREATE TABLE u (x INTEGER)";

  rdb::Table table(rdb::TableSchema(
      "items", {{"a", rdb::ColumnType::kInteger},
                {"b", rdb::ColumnType::kInteger},
                {"c", rdb::ColumnType::kVarchar},
                {"d", rdb::ColumnType::kVarchar}}));
  ASSERT_TRUE(table
                  .Insert({rdb::Value::Null(), rdb::Value::Int(-7),
                           rdb::Value::Str(s14), rdb::Value::Str(s200)})
                  .ok());
  rdb::DurabilityOptions options;
  options.sync_mode = rdb::SyncMode::kNone;
  rdb::Stats stats;
  {
    auto opened = rdb::WalWriter::Open(rdb::Vfs::Default(), path, 9, 0,
                                       options, &stats);
    ASSERT_TRUE(opened.ok()) << opened.status();
    rdb::WalWriter& wal = *opened.value();
    wal.PendInsert(table, 0);
    wal.PendDelete(table, 0);
    wal.PendUpdate(table, 0, 1, rdb::Value::Int(123456789));
    wal.PendUpdate(table, 0, 0, rdb::Value::Null());
    wal.PendUpdate(table, 0, 2, rdb::Value::Str("short"));
    wal.PendUpdate(table, 0, 3, rdb::Value::Str(s130));
    wal.PendDdl(ddl);
    ASSERT_TRUE(wal.CommitPending(42).ok());
    ASSERT_TRUE(wal.Close().ok());
  }

  // Header: "XUPDWAL1" | u32 version 2 | u64 epoch.
  std::string want = "XUPDWAL1";
  PutLe(&want, 2, 4);
  PutLe(&want, 9, 8);
  // Value tags: 0 = NULL, 1 = int (i64), 2 = string (u32 len + bytes).
  std::string p;
  // Table-def (kind 6): u16 id | str name, before the first use of the name.
  PutLe(&p, 6, 1);
  PutLe(&p, 0, 2);
  PutStr(&p, "items");
  PutFrame(&want, p);
  // Insert (kind 1): u16 table id | u64 row id | u32 count | values.
  p.clear();
  PutLe(&p, 1, 1);
  PutLe(&p, 0, 2);
  PutLe(&p, 0, 8);
  PutLe(&p, 4, 4);
  PutLe(&p, 0, 1);
  PutLe(&p, 1, 1);
  PutLe(&p, static_cast<uint64_t>(int64_t{-7}), 8);
  PutLe(&p, 2, 1);
  PutStr(&p, s14);
  PutLe(&p, 2, 1);
  PutStr(&p, s200);
  PutFrame(&want, p);
  // Delete (kind 2): u16 table id | u64 row id.
  p.clear();
  PutLe(&p, 2, 1);
  PutLe(&p, 0, 2);
  PutLe(&p, 0, 8);
  PutFrame(&want, p);
  // Update (kind 3): u16 table id | u64 row id | u32 column | value.
  auto update = [&](uint32_t column, const std::string& value) {
    std::string u;
    PutLe(&u, 3, 1);
    PutLe(&u, 0, 2);
    PutLe(&u, 0, 8);
    PutLe(&u, column, 4);
    u += value;
    PutFrame(&want, u);
  };
  std::string v;
  PutLe(&v, 1, 1);
  PutLe(&v, 123456789, 8);
  update(1, v);
  update(0, std::string(1, '\0'));
  v.assign(1, '\2');
  PutStr(&v, "short");
  update(2, v);
  v.assign(1, '\2');
  PutStr(&v, s130);
  update(3, v);
  // DDL (kind 4): str sql.
  p.clear();
  PutLe(&p, 4, 1);
  PutStr(&p, ddl);
  PutFrame(&want, p);
  // Commit (kind 5): i64 next id.
  p.clear();
  PutLe(&p, 5, 1);
  PutLe(&p, 42, 8);
  PutFrame(&want, p);

  EXPECT_EQ(ReadFile(path), want);
  EXPECT_EQ(stats.wal_appends, 9u);
  EXPECT_EQ(stats.wal_bytes, want.size() - 20);
}

// A fail-stopped writer refuses the unit and drops it: the next unit
// boundary starts empty instead of failing again on the same redo, and a
// rollback to a mark taken before the drop copes with the shorter buffer.
TEST(WalFailStopTest, CommitOnABrokenWriterDropsThePendingUnit) {
  TempDir dir;
  const std::string path = dir.path() + "/wal.xupd";
  rdb::Table table(rdb::TableSchema(
      "items", {{"a", rdb::ColumnType::kInteger},
                {"s", rdb::ColumnType::kVarchar}}));
  ASSERT_TRUE(
      table.Insert({rdb::Value::Int(1), rdb::Value::Str(std::string(40, 'x'))})
          .ok());
  rdb::DurabilityOptions options;
  options.sync_mode = rdb::SyncMode::kNone;
  rdb::Stats stats;
  rdb::MemoryAccountant mem;
  auto opened =
      rdb::WalWriter::Open(rdb::Vfs::Default(), path, 3, 0, options, &stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  rdb::WalWriter& wal = *opened.value();
  wal.set_accountant(&mem);
  const size_t header_bytes = ReadFile(path).size();

  const rdb::WalWriter::Mark before = wal.mark();
  wal.PendInsert(table, 0);  // table-def + insert
  const rdb::WalWriter::Mark after_insert = wal.mark();
  wal.PendDelete(table, 0);
  ASSERT_FALSE(wal.pending_empty());
  EXPECT_GT(mem.used(rdb::MemoryAccountant::kWalPending), 0u);

  wal.MarkBroken("injected for the test");
  Status s = wal.CommitPending(7);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("fail-stopped"), std::string::npos) << s;
  EXPECT_TRUE(wal.pending_empty());
  EXPECT_EQ(wal.mark().records, 0u);
  EXPECT_EQ(mem.used(rdb::MemoryAccountant::kWalPending), 0u);

  // Marks from before the drop point past the buffer now: no-ops.
  wal.TruncatePending(after_insert);
  EXPECT_TRUE(wal.pending_empty());
  wal.TruncatePending(before);
  EXPECT_TRUE(wal.pending_empty());
  EXPECT_EQ(wal.mark().records, 0u);

  // The dropped unit's table-def id went with it: the next record defines
  // the table again. That unit is refused and dropped too.
  wal.PendDelete(table, 0);
  EXPECT_EQ(wal.mark().records, 2u);
  EXPECT_FALSE(wal.CommitPending(8).ok());
  EXPECT_TRUE(wal.pending_empty());
  // An empty boundary succeeds: nothing is pending.
  EXPECT_TRUE(wal.CommitPending(9).ok());

  EXPECT_EQ(stats.wal_appends, 0u);
  EXPECT_EQ(ReadFile(path).size(), header_bytes);
}

// ---------------------------------------------------------------------------
// Engine layer: reopen-identical across strategies, and the crash-injection
// acceptance property.

workload::GeneratedDoc MakeDoc() {
  workload::SyntheticSpec spec;
  spec.scaling_factor = 6;
  spec.depth = 3;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).value();
}

std::unique_ptr<RelationalStore> MakeDurableStore(
    const workload::GeneratedDoc& gen, const std::string& dir,
    DeleteStrategy del, InsertStrategy ins, bool load) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kNone;  // tests survive process exit
  auto store = RelationalStore::Create(gen.dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  if (load && !store.value()->recovered()) {
    Status s = store.value()->Load(*gen.doc);
    EXPECT_TRUE(s.ok()) << s;
  }
  return std::move(store).value();
}

std::string SerializeStore(RelationalStore* store) {
  auto doc = store->Reconstruct();
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? xml::Serialize(**doc) : std::string();
}

using EngineOp = std::function<Status(RelationalStore*)>;

struct StrategyOp {
  const char* name;
  DeleteStrategy del = DeleteStrategy::kPerTupleTrigger;
  InsertStrategy ins = InsertStrategy::kTable;
  EngineOp op;
};

std::vector<StrategyOp> AllStrategyOps() {
  std::vector<StrategyOp> ops;
  const DeleteStrategy dels[] = {
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kCascade, DeleteStrategy::kAsr};
  for (DeleteStrategy d : dels) {
    ops.push_back({"bulk-delete", d, testing::PairedInsert(d),
                   [](RelationalStore* s) {
                     return s->DeleteWhere("n2", "v2 > 500000");
                   }});
  }
  ops.push_back({"delete-by-ids", DeleteStrategy::kPerTupleTrigger,
                 InsertStrategy::kTable, [](RelationalStore* s) -> Status {
                   auto ids = s->SelectIds("n2", "v2 <= 500000");
                   if (!ids.ok()) return ids.status();
                   return s->DeleteByIds("n2", *ids);
                 }});
  const InsertStrategy inss[] = {InsertStrategy::kTuple,
                                 InsertStrategy::kTable, InsertStrategy::kAsr};
  for (InsertStrategy i : inss) {
    ops.push_back({"bulk-copy",
                   testing::PairedDelete(i, DeleteStrategy::kCascade), i,
                   [](RelationalStore* s) {
                     return s->CopySubtreesWhere("n2", "v2 < 300000",
                                                 s->root_id());
                   }});
  }
  return ops;
}

TEST(EngineRecoveryTest, ReopenedStoreIsIdenticalAcrossAllStrategies) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const StrategyOp& sop : AllStrategyOps()) {
    SCOPED_TRACE(std::string(sop.name) + " del=" + ToString(sop.del) +
                 " ins=" + ToString(sop.ins));
    TempDir dir;
    std::string expected_state;
    std::string expected_xml;
    {
      auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
      ASSERT_NE(store, nullptr);
      ASSERT_FALSE(store->recovered());
      Status s = sop.op(store.get());
      ASSERT_TRUE(s.ok()) << s;
      expected_state = DumpDurableState(*store->db());
      expected_xml = SerializeStore(store.get());
    }
    auto reopened = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
    ASSERT_NE(reopened, nullptr);
    ASSERT_TRUE(reopened->recovered());
    // Element tables, hash indexes, tombstones, next-id, the ASR and the
    // trigger-maintained child tables all come back bit-for-bit.
    EXPECT_EQ(DumpDurableState(*reopened->db()), expected_state);
    EXPECT_EQ(SerializeStore(reopened.get()), expected_xml);
    // Both scrub layers must find a recovered store indistinguishable from
    // a freshly built one.
    std::vector<std::string> iv = reopened->db()->VerifyIntegrity();
    EXPECT_TRUE(iv.empty()) << iv[0];
    std::vector<std::string> sv = reopened->VerifyStore();
    EXPECT_TRUE(sv.empty()) << sv[0];
  }
}

TEST(EngineRecoveryTest, ConstructedInsertAndXQueryUpdateSurviveReopen) {
  auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
  auto doc = testing::MustParse(testing::kCustomerXml);
  TempDir dir;
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = true;
  options.data_dir = dir.path();
  options.sync_mode = rdb::SyncMode::kBatched;
  std::string expected_state;
  std::string expected_xml;
  {
    auto store = RelationalStore::Create(dtd, options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store.value()->Load(*doc).ok());
    Status xq = store.value()->ExecuteXQueryUpdate(R"(
      FOR $o IN document("custdb.xml")//Order[Status="ready"]
      UPDATE $o { INSERT <Status>suspended</Status> })");
    ASSERT_TRUE(xq.ok()) << xq;
    expected_state = DumpDurableState(*store.value()->db());
    expected_xml = SerializeStore(store.value().get());
  }
  auto reopened = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened.value()->recovered());
  EXPECT_EQ(DumpDurableState(*reopened.value()->db()), expected_state);
  EXPECT_EQ(SerializeStore(reopened.value().get()), expected_xml);
}

/// Counts the statements one clean run of `op` issues (including trigger
/// bodies), so the injection loop can hit every boundary.
int64_t CountStatements(const workload::GeneratedDoc& gen,
                        const StrategyOp& sop) {
  TempDir dir;
  auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
  EXPECT_NE(store, nullptr);
  rdb::Stats before = store->stats();
  Status s = sop.op(store.get());
  EXPECT_TRUE(s.ok()) << s;
  rdb::Stats d = store->stats().Delta(before);
  return static_cast<int64_t>(d.statements + d.trigger_statements);
}

TEST(EngineRecoveryTest, CrashInjectionAtEveryStatementBoundary) {
  // The acceptance property: for a failure at EVERY statement boundary of
  // every strategy, reopening the surviving files reproduces exactly the
  // last committed state — the pre-op snapshot when the operation aborted,
  // the post-op state once it ran to completion.
  workload::GeneratedDoc gen = MakeDoc();
  for (const StrategyOp& sop : AllStrategyOps()) {
    SCOPED_TRACE(std::string(sop.name) + " del=" + ToString(sop.del) +
                 " ins=" + ToString(sop.ins));
    int64_t statements = CountStatements(gen, sop);
    ASSERT_GT(statements, 0);
    for (int64_t k = 0; k <= statements; ++k) {
      TempDir dir;
      std::string pre_op;
      std::string post_op;
      bool completed = false;
      {
        auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
        ASSERT_NE(store, nullptr);
        pre_op = DumpDurableState(*store->db());
        store->db()->InjectFailureAfterStatements(k);
        Status s = sop.op(store.get());
        store->db()->InjectFailureAfterStatements(-1);
        completed = s.ok();
        if (completed) post_op = DumpDurableState(*store->db());
        // The store object dies here; anything uncommitted dies with it.
      }
      auto reopened =
          MakeDurableStore(gen, dir.path(), sop.del, sop.ins, false);
      ASSERT_NE(reopened, nullptr);
      ASSERT_TRUE(reopened->recovered());
      std::string recovered = DumpDurableState(*reopened->db());
      if (completed) {
        EXPECT_EQ(recovered, post_op) << "boundary " << k << " (completed)";
      } else {
        EXPECT_EQ(recovered, pre_op) << "boundary " << k << " (aborted)";
      }
    }
  }
}

TEST(EngineRecoveryTest, IncompleteStoreCreationIsReportedNotRecovered) {
  // Durable store creation commits each schema DDL as its own WAL unit; a
  // crash mid-setup leaves a partial catalog. Simulate one: a directory
  // whose WAL holds only the root table's CREATE (no element tables, no
  // triggers, no setup marker). Reopen must refuse cleanly instead of
  // presenting the fragment as a recovered store.
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(
        db.ExecuteQuery("CREATE TABLE doc (id INTEGER, parentId INTEGER)")
            .ok());
  }
  RelationalStore::Options options;
  options.durability = true;
  options.data_dir = dir.path();
  auto reopened = RelationalStore::Create(gen.dtd, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("incomplete"),
            std::string::npos)
      << reopened.status();
}

TEST(EngineRecoveryTest, CheckpointThenMutateThenRecover) {
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  std::string expected;
  {
    auto store = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                  InsertStrategy::kAsr, true);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->DeleteWhere("n3", "v3 < 500000").ok());
    expected = DumpDurableState(*store->db());
  }
  auto reopened = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                   InsertStrategy::kAsr, false);
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->recovered());
  EXPECT_EQ(DumpDurableState(*reopened->db()), expected);
  EXPECT_TRUE(reopened->db()->VerifyIntegrity().empty());
  EXPECT_TRUE(reopened->VerifyStore().empty());
  // The `marked` index came back from the snapshot, so the restored ASR's
  // marked rows are probed, not scanned.
  auto plan = reopened->db()->ExecuteQuery(
      "EXPLAIN SELECT id_n1 FROM asr WHERE marked = 1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text;
  for (const rdb::Row& row : plan->rows) {
    text += row[0].AsString();
    text += '\n';
  }
  EXPECT_NE(text.find("IndexProbe asr via idx_asr_marked"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Indexes on demand: the engine's CREATE INDEX between operations is logged
// and snapshotted like the schema's, and a crash anywhere in the operation
// that triggers it recovers a committed state.

/// The n1 v1 values, in id order.
std::vector<std::string> V1Values(RelationalStore* store) {
  auto rows = store->db()->ExecuteQuery("SELECT id, v1 FROM n1 ORDER BY id");
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> out;
  if (rows.ok()) {
    for (const rdb::Row& row : rows->rows) out.emplace_back(row[1].ToString());
  }
  return out;
}

bool HasV1Index(RelationalStore* store) {
  return store->db()->FindTable("n1")->FindIndexByName("idx_n1_v1") != nullptr;
}

/// Value-filtered operations whose `i`-th run targets the i-th n1: a §6.1
/// delete by value, and an XQuery update binding the n1 by value (the
/// translator probes n1's parentId with an IN subquery).
using ValueOp = std::function<Status(RelationalStore*, const std::string&)>;
std::vector<std::pair<const char*, ValueOp>> ValueOps() {
  return {
      {"delete-where",
       [](RelationalStore* s, const std::string& v1) {
         return s->DeleteWhere("n1", "v1 = '" + v1 + "'");
       }},
      {"xquery",
       [](RelationalStore* s, const std::string& v1) {
         return s->ExecuteXQueryUpdate(
             "FOR $d IN document(\"x\"), $p IN $d/n1[v1 = \"" + v1 +
             "\"], $t IN $p/n2 UPDATE $p { DELETE $t }");
       }},
  };
}

TEST(EngineRecoveryTest, OnDemandIndexSurvivesReopenAndCheckpoint) {
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  std::string expected;
  {
    auto store = MakeDurableStore(gen, dir.path(),
                                  DeleteStrategy::kPerTupleTrigger,
                                  InsertStrategy::kTable, true);
    ASSERT_NE(store, nullptr);
    for (const std::string& v1 : V1Values(store.get())) {
      if (HasV1Index(store.get())) break;
      ASSERT_TRUE(store->DeleteWhere("n1", "v1 = '" + v1 + "'").ok());
    }
    ASSERT_TRUE(HasV1Index(store.get()));
    expected = DumpDurableState(*store->db());
  }
  for (bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "from the snapshot" : "from the WAL");
    auto reopened = MakeDurableStore(gen, dir.path(),
                                     DeleteStrategy::kPerTupleTrigger,
                                     InsertStrategy::kTable, false);
    ASSERT_NE(reopened, nullptr);
    ASSERT_TRUE(reopened->recovered());
    EXPECT_TRUE(HasV1Index(reopened.get()));
    EXPECT_EQ(DumpDurableState(*reopened->db()), expected);
    EXPECT_TRUE(reopened->db()->VerifyIntegrity().empty());
    if (!checkpoint) ASSERT_TRUE(reopened->Checkpoint().ok());
  }
}

TEST(EngineRecoveryTest, CrashInjectionAcrossAnOnDemandIndexBuild) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const auto& [name, op] : ValueOps()) {
    SCOPED_TRACE(name);
    // One clean run finds the operation after which the engine builds the
    // index, and the statements it issues, the CREATE INDEX included.
    std::vector<std::string> values;
    size_t builder = 0;
    int64_t statements = 0;
    {
      TempDir dir;
      auto store = MakeDurableStore(gen, dir.path(),
                                    DeleteStrategy::kPerTupleTrigger,
                                    InsertStrategy::kTable, true);
      ASSERT_NE(store, nullptr);
      values = V1Values(store.get());
      for (; builder < values.size(); ++builder) {
        const rdb::Stats before = store->stats();
        ASSERT_TRUE(op(store.get(), values[builder]).ok());
        const rdb::Stats d = store->stats().Delta(before);
        statements = static_cast<int64_t>(d.statements + d.trigger_statements);
        if (HasV1Index(store.get())) break;
      }
      ASSERT_LT(builder, values.size()) << "no index was built";
      ASSERT_GT(builder, 0u);
    }
    bool build_failed = false;
    for (int64_t k = 0; k <= statements; ++k) {
      TempDir dir;
      std::string pre_op;
      std::string post_op;
      bool completed = false;
      {
        auto store = MakeDurableStore(gen, dir.path(),
                                      DeleteStrategy::kPerTupleTrigger,
                                      InsertStrategy::kTable, true);
        ASSERT_NE(store, nullptr);
        for (size_t i = 0; i < builder; ++i) {
          ASSERT_TRUE(op(store.get(), values[i]).ok());
        }
        ASSERT_FALSE(HasV1Index(store.get()));
        pre_op = DumpDurableState(*store->db());
        store->db()->InjectFailureAfterStatements(k);
        Status s = op(store.get(), values[builder]);
        store->db()->InjectFailureAfterStatements(-1);
        completed = s.ok();
        if (completed) {
          post_op = DumpDurableState(*store->db());
          // A failed build leaves the operation's own result standing.
          if (!HasV1Index(store.get())) build_failed = true;
        }
      }
      auto reopened = MakeDurableStore(gen, dir.path(),
                                       DeleteStrategy::kPerTupleTrigger,
                                       InsertStrategy::kTable, false);
      ASSERT_NE(reopened, nullptr);
      ASSERT_TRUE(reopened->recovered());
      std::string recovered = DumpDurableState(*reopened->db());
      if (completed) {
        EXPECT_EQ(recovered, post_op) << "boundary " << k << " (completed)";
      } else {
        EXPECT_EQ(recovered, pre_op) << "boundary " << k << " (aborted)";
      }
      std::vector<std::string> iv = reopened->db()->VerifyIntegrity();
      EXPECT_TRUE(iv.empty()) << "boundary " << k << ": " << iv[0];
    }
    EXPECT_TRUE(build_failed) << "no boundary hit the CREATE INDEX";
  }
}

// ---------------------------------------------------------------------------
// Strategy options are persisted in the durable state (the xupd_meta
// table) and verified on reopen: a mismatched reopen is a clean error.

TEST(OptionsPersistenceTest, MismatchedReopenIsCleanError) {
  TempDir dir;
  auto gen = MakeDoc();
  {
    auto store = MakeDurableStore(gen, dir.path(),
                                  DeleteStrategy::kPerTupleTrigger,
                                  InsertStrategy::kTable, true);
    ASSERT_NE(store, nullptr);
  }
  // Different delete strategy: must refuse, naming the field.
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kCascade;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = true;
  options.data_dir = dir.path();
  options.sync_mode = rdb::SyncMode::kNone;
  auto mismatched = RelationalStore::Create(gen.dtd, options);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().ToString().find("delete_strategy"),
            std::string::npos)
      << mismatched.status();

  // The original options still reopen fine.
  auto reopened = MakeDurableStore(gen, dir.path(),
                                   DeleteStrategy::kPerTupleTrigger,
                                   InsertStrategy::kTable, false);
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovered());
}

}  // namespace
}  // namespace xupd
