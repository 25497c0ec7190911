// Pins the engine's event counts on one fixed workload: the fig. 6
// document at sf 100 is loaded, then one bulk copy (CopySubtreesWhere) and
// one bulk delete (DeleteWhere) run, under every delete and every insert
// strategy, in memory and on a kCommit WAL store. The expected Stats delta
// and SHOW TABLE STATS rows are fixed values: a change to how a counter is
// stored or bumped must neither drop nor double a count.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "engine/store.h"
#include "rdb/database.h"
#include "workload/synthetic.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

/// A scratch data directory, removed (with its contents) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_counters_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p == nullptr ? "/tmp/xupd_counters_fallback" : p;
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

const workload::GeneratedDoc& Fig6Doc() {
  static const workload::GeneratedDoc* doc = [] {
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = 8;
    spec.fanout = 1;
    auto gen = workload::GenerateFixedSynthetic(spec, /*seed=*/42);
    EXPECT_TRUE(gen.ok()) << gen.status();
    return new workload::GeneratedDoc(std::move(gen).value());
  }();
  return *doc;
}

std::unique_ptr<RelationalStore> MakeStore(DeleteStrategy del,
                                           InsertStrategy ins,
                                           const std::string& dir,
                                           rdb::SyncMode mode) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  if (!dir.empty()) {
    options.durability = true;
    options.data_dir = dir;
    options.sync_mode = mode;
  }
  auto store = RelationalStore::Create(Fig6Doc().dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  return std::move(store).value();
}

/// The workload whose counts are pinned.
void RunWorkload(RelationalStore* store) {
  ASSERT_TRUE(store->Load(*Fig6Doc().doc).ok());
  Status copy = store->CopySubtreesWhere("n1", "v1 < 300000", store->root_id());
  ASSERT_TRUE(copy.ok()) << copy;
  Status del = store->DeleteWhere("n1", "v1 > 500000");
  ASSERT_TRUE(del.ok()) << del;
}

/// The nonzero SHOW TABLE STATS rows, one line per table or index:
/// "table.n1 scans=2 rows_read=226 ...".
std::string TableStats(rdb::Database* db) {
  auto rows = db->ExecuteQuery("SHOW TABLE STATS");
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return "";
  std::string out;
  std::string object;
  for (const rdb::Row& row : rows->rows) {
    if (row[1].AsInt() == 0) continue;
    const std::string stat(row[0].AsString());
    const size_t dot = stat.rfind('.');
    if (stat.compare(0, dot, object) != 0) {
      object = stat.substr(0, dot);
      out += (out.empty() ? "" : "\n") + object;
    }
    out += " " + stat.substr(dot + 1) + "=" + std::to_string(row[1].AsInt());
  }
  return out + "\n";
}

struct PinnedCase {
  const char* name;
  DeleteStrategy del;
  InsertStrategy ins;
  const char* memory_stats;  ///< Stats delta of the in-memory store.
  const char* commit_stats;  ///< Stats delta of the kCommit WAL store.
  const char* table_stats;   ///< SHOW TABLE STATS of either store.
};

class CounterTotalsTest : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(CounterTotalsTest, WorkloadCountsMatchPinnedValues) {
  const PinnedCase& c = GetParam();
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "kCommit store" : "in-memory store");
    TempDir dir;
    auto store = MakeStore(c.del, c.ins, durable ? dir.path() : "",
                           rdb::SyncMode::kCommit);
    ASSERT_NE(store, nullptr);
    const rdb::Stats before = store->stats();
    RunWorkload(store.get());
    EXPECT_EQ(store->stats().Delta(before).ToString(),
              durable ? c.commit_stats : c.memory_stats);
    EXPECT_EQ(TableStats(store->db()), c.table_stats);
  }
}

// Recorded from the engine before its counters became plain integers; the
// two ASR cases from the (asr, asr) pair before mixed pairs were rejected;
// rows_read again once DELETE/UPDATE index probes counted the rows they
// examine, as SELECT probes do.
// clang-format off
const PinnedCase kPinnedCases[] = {
    {"PerTuple", DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable,
     "stmts=26 parses=26 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=364 trig_stmts=371 trig_fires=371 scanned=850 probes=579 "
     "ins=1217 del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 "
     "undo=658 wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 "
     "replayed=0 scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=26 parses=26 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=364 trig_stmts=371 trig_fires=371 scanned=850 probes=579 "
     "ins=1217 del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 "
     "undo=658 wal_appends=1471 wal_bytes=116853 wal_fsyncs=3 checkpoints=0 "
     "replayed=0 scrubs=0 heals=0 slow=0 analyzed=0",
     "table.doc rows_inserted=1 live_rows=1\n"
     "table.n1 scans=2 rows_read=252 rows_inserted=126 rows_deleted=53 rows_updated=26 live_rows=73\n"
     "index.n1.idx_n1_id probes=26 hits=26\n"
     "table.n2 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_pid probes=79 hits=79\n"
     "table.n3 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_pid probes=79 hits=79\n"
     "table.n4 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_pid probes=79 hits=79\n"
     "table.n5 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_pid probes=79 hits=79\n"
     "table.n6 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_pid probes=79 hits=79\n"
     "table.n7 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_pid probes=79 hits=79\n"
     "table.n8 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_pid probes=79 hits=79\n"
     "table.tmp_n1 scans=4 rows_read=104 rows_inserted=26\n"
     "table.tmp_n2 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n3 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n4 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n5 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n6 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n7 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n8 scans=2 rows_read=52 rows_inserted=26\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
    {"PerStatement", DeleteStrategy::kPerStatementTrigger, InsertStrategy::kTable,
     "stmts=26 parses=26 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=0 trig_stmts=7 trig_fires=7 scanned=2243 probes=208 ins=1217 "
     "del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 undo=658 "
     "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=26 parses=26 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=0 trig_stmts=7 trig_fires=7 scanned=2243 probes=208 ins=1217 "
     "del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 undo=658 "
     "wal_appends=1471 wal_bytes=116853 wal_fsyncs=3 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "table.doc rows_inserted=1 live_rows=1\n"
     "table.n1 scans=3 rows_read=325 rows_inserted=126 rows_deleted=53 rows_updated=26 live_rows=73\n"
     "index.n1.idx_n1_id probes=26 hits=26\n"
     "table.n2 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_pid probes=26 hits=26\n"
     "table.n3 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_pid probes=26 hits=26\n"
     "table.n4 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_pid probes=26 hits=26\n"
     "table.n5 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_pid probes=26 hits=26\n"
     "table.n6 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_pid probes=26 hits=26\n"
     "table.n7 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_pid probes=26 hits=26\n"
     "table.n8 scans=1 rows_read=152 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_pid probes=26 hits=26\n"
     "table.tmp_n1 scans=4 rows_read=104 rows_inserted=26\n"
     "table.tmp_n2 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n3 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n4 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n5 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n6 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n7 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n8 scans=2 rows_read=52 rows_inserted=26\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
    {"Cascade", DeleteStrategy::kCascade, InsertStrategy::kTable,
     "stmts=33 parses=33 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=2243 probes=208 ins=1217 "
     "del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 undo=658 "
     "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=33 parses=33 prep_hits=0 prep_miss=0 batched=0 plans=33 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=2243 probes=208 ins=1217 "
     "del=424 upd=26 txn_begin=2 txn_commit=2 txn_rollback=0 undo=658 "
     "wal_appends=1471 wal_bytes=116853 wal_fsyncs=3 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "table.doc rows_inserted=1 live_rows=1\n"
     "table.n1 scans=3 rows_read=325 rows_inserted=126 rows_deleted=53 rows_updated=26 live_rows=73\n"
     "index.n1.idx_n1_id probes=26 hits=26\n"
     "table.n2 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_pid probes=26 hits=26\n"
     "table.n3 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_pid probes=26 hits=26\n"
     "table.n4 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_pid probes=26 hits=26\n"
     "table.n5 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_pid probes=26 hits=26\n"
     "table.n6 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_pid probes=26 hits=26\n"
     "table.n7 scans=2 rows_read=225 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_pid probes=26 hits=26\n"
     "table.n8 scans=1 rows_read=152 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_pid probes=26 hits=26\n"
     "table.tmp_n1 scans=4 rows_read=104 rows_inserted=26\n"
     "table.tmp_n2 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n3 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n4 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n5 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n6 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n7 scans=3 rows_read=78 rows_inserted=26\n"
     "table.tmp_n8 scans=2 rows_read=52 rows_inserted=26\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
    {"AsrDelete", DeleteStrategy::kAsr, InsertStrategy::kAsr,
     "stmts=26 parses=26 prep_hits=0 prep_miss=1 batched=0 plans=26 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=352 probes=708 ins=1135 "
     "del=477 upd=131 txn_begin=2 txn_commit=2 txn_rollback=0 undo=842 "
     "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=26 parses=26 prep_hits=0 prep_miss=1 batched=0 plans=26 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=352 probes=708 ins=1135 "
     "del=477 upd=131 txn_begin=2 txn_commit=2 txn_rollback=0 undo=842 "
     "wal_appends=1756 wal_bytes=135476 wal_fsyncs=3 checkpoints=0 "
     "replayed=0 scrubs=0 heals=0 slow=0 analyzed=0",
     "table.asr rows_read=921 rows_inserted=126 rows_deleted=53 rows_updated=105 live_rows=73\n"
     "index.asr.idx_asr_n1 probes=79 hits=79\n"
     "index.asr.idx_asr_marked probes=22 hits=22\n"
     "table.doc rows_read=1 rows_inserted=1 live_rows=1\n"
     "index.doc.idx_doc_id probes=1 hits=1\n"
     "table.n1 scans=3 rows_read=477 rows_inserted=126 rows_deleted=53 rows_updated=26 live_rows=73\n"
     "index.n1.idx_n1_id probes=52 hits=52\n"
     "index.n1.idx_n1_pid probes=1 hits=1\n"
     "table.n2 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_id probes=79 hits=79\n"
     "table.n3 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_id probes=79 hits=79\n"
     "table.n4 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_id probes=79 hits=79\n"
     "table.n5 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_id probes=79 hits=79\n"
     "table.n6 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_id probes=79 hits=79\n"
     "table.n7 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_id probes=79 hits=79\n"
     "table.n8 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_id probes=79 hits=79\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
    {"TupleCopy", DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTuple,
     "stmts=10 parses=10 prep_hits=0 prep_miss=8 batched=208 plans=17 "
     "plan_hits=364 trig_stmts=371 trig_fires=371 scanned=616 probes=553 "
     "ins=1009 del=424 upd=0 txn_begin=2 txn_commit=2 txn_rollback=0 undo=632 "
     "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=10 parses=10 prep_hits=0 prep_miss=8 batched=208 plans=17 "
     "plan_hits=364 trig_stmts=371 trig_fires=371 scanned=616 probes=553 "
     "ins=1009 del=424 upd=0 txn_begin=2 txn_commit=2 txn_rollback=0 undo=632 "
     "wal_appends=1445 wal_bytes=116021 wal_fsyncs=3 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "table.doc rows_inserted=1 live_rows=1\n"
     "table.n1 scans=2 rows_read=226 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "table.n2 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_pid probes=79 hits=79\n"
     "table.n3 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_pid probes=79 hits=79\n"
     "table.n4 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_pid probes=79 hits=79\n"
     "table.n5 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_pid probes=79 hits=79\n"
     "table.n6 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_pid probes=79 hits=79\n"
     "table.n7 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_pid probes=79 hits=79\n"
     "table.n8 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_pid probes=79 hits=79\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
    {"AsrCopy", DeleteStrategy::kAsr, InsertStrategy::kAsr,
     "stmts=26 parses=26 prep_hits=0 prep_miss=1 batched=0 plans=26 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=352 probes=708 ins=1135 "
     "del=477 upd=131 txn_begin=2 txn_commit=2 txn_rollback=0 undo=842 "
     "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
     "scrubs=0 heals=0 slow=0 analyzed=0",
     "stmts=26 parses=26 prep_hits=0 prep_miss=1 batched=0 plans=26 "
     "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=352 probes=708 ins=1135 "
     "del=477 upd=131 txn_begin=2 txn_commit=2 txn_rollback=0 undo=842 "
     "wal_appends=1756 wal_bytes=135476 wal_fsyncs=3 checkpoints=0 "
     "replayed=0 scrubs=0 heals=0 slow=0 analyzed=0",
     "table.asr rows_read=921 rows_inserted=126 rows_deleted=53 rows_updated=105 live_rows=73\n"
     "index.asr.idx_asr_n1 probes=79 hits=79\n"
     "index.asr.idx_asr_marked probes=22 hits=22\n"
     "table.doc rows_read=1 rows_inserted=1 live_rows=1\n"
     "index.doc.idx_doc_id probes=1 hits=1\n"
     "table.n1 scans=3 rows_read=477 rows_inserted=126 rows_deleted=53 rows_updated=26 live_rows=73\n"
     "index.n1.idx_n1_id probes=52 hits=52\n"
     "index.n1.idx_n1_pid probes=1 hits=1\n"
     "table.n2 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n2.idx_n2_id probes=79 hits=79\n"
     "table.n3 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n3.idx_n3_id probes=79 hits=79\n"
     "table.n4 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n4.idx_n4_id probes=79 hits=79\n"
     "table.n5 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n5.idx_n5_id probes=79 hits=79\n"
     "table.n6 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n6.idx_n6_id probes=79 hits=79\n"
     "table.n7 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n7.idx_n7_id probes=79 hits=79\n"
     "table.n8 rows_read=79 rows_inserted=126 rows_deleted=53 live_rows=73\n"
     "index.n8.idx_n8_id probes=79 hits=79\n"
     "table.xupd_meta rows_inserted=2 live_rows=2\n"
     "table.xupd_setup rows_inserted=1 live_rows=1\n"},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(
    Strategies, CounterTotalsTest, ::testing::ValuesIn(kPinnedCases),
    [](const auto& info) { return std::string(info.param.name); });

/// Every successful WAL fsync counts once in Stats::wal_fsyncs and once in
/// the wal.fsync histogram, whether the writer syncs inline (kCommit) or
/// the group-commit flusher does (kBatched).
class WalFsyncCountTest : public ::testing::TestWithParam<rdb::SyncMode> {};

TEST_P(WalFsyncCountTest, StatsCountEqualsHistogramCount) {
  TempDir dir;
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger,
                         InsertStrategy::kTable, dir.path(), GetParam());
  ASSERT_NE(store, nullptr);
  rdb::Database* db = store->db();
  const Histogram* fsync = db->metrics().FindHistogram("wal.fsync");
  ASSERT_NE(fsync, nullptr);
  const uint64_t stats0 = db->stats().wal_fsyncs;
  const uint64_t hist0 = fsync->count();
  RunWorkload(store.get());
  // The writer is idle now; once the flusher has synced what it wrote,
  // neither count moves again.
  uint64_t seen = fsync->count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now = fsync->count();
    if (now == seen && now > hist0) break;
    seen = now;
  }
  const uint64_t synced = fsync->count() - hist0;
  EXPECT_GT(synced, 0u);
  EXPECT_EQ(db->stats().wal_fsyncs - stats0, synced);
}

INSTANTIATE_TEST_SUITE_P(SyncModes, WalFsyncCountTest,
                         ::testing::Values(rdb::SyncMode::kCommit,
                                           rdb::SyncMode::kBatched),
                         [](const auto& info) {
                           return info.param == rdb::SyncMode::kCommit
                                      ? std::string("Commit")
                                      : std::string("Batched");
                         });

}  // namespace
}  // namespace xupd
