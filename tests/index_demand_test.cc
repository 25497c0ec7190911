// Indexes on demand (engine/store.h): between operations, the engine indexes
// a column once writer statements filtering it with `col = <value>` have
// examined a few table sizes of its rows through scans or IN probes. Covers
// the §7.2 / Table 2 path query on a DBLP-like document (plans, results and
// the threshold), the fig. 6 copy/delete loop that must build nothing, a
// caller's open transaction, and a build racing three snapshot reader
// sessions (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace xupd::engine {
namespace {

/// An ASR store (the strategies §7.2's path queries run under) over a small
/// DBLP-like document.
std::unique_ptr<RelationalStore> MakeDblpStore() {
  workload::DblpSpec spec;
  spec.conferences = 12;
  auto gen = workload::GenerateDblp(spec, /*seed=*/7);
  EXPECT_TRUE(gen.ok()) << gen.status();
  if (!gen.ok()) return nullptr;
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store = RelationalStore::Create(gen->dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  Status s = store.value()->Load(*gen->doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

const rdb::Table* AuthorTable(RelationalStore* store) {
  return store->db()->FindTable(store->mapping().ForElement("author")->table);
}

std::string ValueIndexName(RelationalStore* store) {
  return "idx_" + store->mapping().ForElement("author")->table + "_value";
}

/// The first `n` author values in document order.
std::vector<std::string> AuthorValues(RelationalStore* store, size_t n) {
  auto rows = store->db()->ExecuteQuery(
      "SELECT id, value FROM " + AuthorTable(store)->schema().name() +
      " ORDER BY id");
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> out;
  for (size_t i = 0; rows.ok() && i < n && i < rows->rows.size(); ++i) {
    out.emplace_back(rows->rows[i][1].AsString());
  }
  return out;
}

Result<std::vector<int64_t>> ConferencesOf(RelationalStore* store,
                                           const std::string& author) {
  return store->PathQueryAsr("conference", "author",
                             "l.value = '" + author + "'");
}

TEST(IndexDemandTest, ValuePathQueriesIndexTheLeafValueOnce) {
  auto store = MakeDblpStore();
  ASSERT_NE(store, nullptr);
  const rdb::Table* author = AuthorTable(store.get());
  const std::string index = ValueIndexName(store.get());
  std::vector<std::string> values =
      AuthorValues(store.get(), RelationalStore::kIndexAfterScans + 3);
  ASSERT_EQ(values.size(), RelationalStore::kIndexAfterScans + 3);

  // Each query scans every author row; the build follows the query that
  // takes the count past kIndexAfterScans table sizes, and not before.
  std::vector<std::vector<int64_t>> before_index;
  for (size_t q = 0; q < values.size(); ++q) {
    EXPECT_EQ(author->FindIndexByName(index) != nullptr,
              q > RelationalStore::kIndexAfterScans)
        << "before query " << q;
    auto found = ConferencesOf(store.get(), values[q]);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_FALSE(found->empty()) << values[q];
    before_index.push_back(*found);
  }
  ASSERT_NE(author->FindIndexByName(index), nullptr);
  EXPECT_EQ(author->index_demand(author->schema().ColumnIndex("value")), 0u);

  // Value filters now probe the index, and the path queries return the
  // same conferences without scanning a row.
  auto plan = store->db()->ExecuteQuery("EXPLAIN SELECT id FROM " +
                                        author->schema().name() +
                                        " WHERE value = '" + values[0] + "'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string text(plan->rows.back()[0].AsString());
  EXPECT_NE(text.find("via " + index + " (value = '" + values[0] + "')"),
            std::string::npos)
      << text;
  const rdb::Stats stats_before = store->stats();
  for (size_t q = 0; q < values.size(); ++q) {
    auto found = ConferencesOf(store.get(), values[q]);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_EQ(*found, before_index[q]) << values[q];
  }
  const rdb::Stats delta = store->stats().Delta(stats_before);
  EXPECT_EQ(delta.rows_scanned, 0u);
  // Nothing further to build: one index, no new demand.
  EXPECT_EQ(author->indexes().size(), 3u);  // id, parentId, value
}

/// Every index of every table, by name.
std::vector<std::string> IndexNames(RelationalStore* store) {
  std::vector<std::string> out;
  for (const std::string& name : store->db()->TableNames()) {
    for (const auto& index : store->db()->FindTable(name)->indexes()) {
      out.push_back(index->name());
    }
  }
  return out;
}

TEST(IndexDemandTest, Fig6CopyDeleteLoopBuildsNoIndex) {
  // The bulk copy/delete cycle of fig. 6 and 10 filters on ids and parent
  // ids only, under every strategy pair: it must never pay for a build.
  workload::SyntheticSpec spec;
  spec.scaling_factor = 20;
  spec.depth = 4;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, /*seed=*/3);
  ASSERT_TRUE(gen.ok()) << gen.status();
  for (const auto& [del, ins] : testing::ValidStrategyPairs()) {
    SCOPED_TRACE(std::string(ToString(del)) + "/" + ToString(ins));
    RelationalStore::Options options;
    options.delete_strategy = del;
    options.insert_strategy = ins;
    auto store = RelationalStore::Create(gen->dtd, options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->Load(*gen->doc).ok());
    const std::vector<std::string> schema_indexes = IndexNames(store->get());
    // Copy every n1 subtree, then delete the copies: fresh ids lie above
    // every id allocated before the copy.
    for (int cycle = 0; cycle < 6; ++cycle) {
      const int64_t copies_from = (*store)->db()->next_id();
      ASSERT_TRUE(
          (*store)->CopySubtreesWhere("n1", "", (*store)->root_id()).ok());
      ASSERT_TRUE((*store)
                      ->DeleteWhere("n1", "id >= " + std::to_string(copies_from))
                      .ok());
    }
    ASSERT_TRUE((*store)->DeleteWhere("n1", "").ok());
    EXPECT_EQ(IndexNames(store->get()), schema_indexes);
  }
}

TEST(IndexDemandTest, NoBuildInsideACallersTransaction) {
  auto store = MakeDblpStore();
  ASSERT_NE(store, nullptr);
  const rdb::Table* author = AuthorTable(store.get());
  const std::string index = ValueIndexName(store.get());
  std::vector<std::string> values =
      AuthorValues(store.get(), 2 * RelationalStore::kIndexAfterScans);
  ASSERT_TRUE(store->db()->Begin().ok());
  for (const std::string& v : values) {
    ASSERT_TRUE(ConferencesOf(store.get(), v).ok());
  }
  EXPECT_EQ(author->FindIndexByName(index), nullptr);
  ASSERT_TRUE(store->db()->Commit().ok());
  // The count survives the transaction: the next op outside one builds.
  ASSERT_TRUE(ConferencesOf(store.get(), values[0]).ok());
  EXPECT_NE(author->FindIndexByName(index), nullptr);
}

TEST(IndexDemandTest, BuildBesideThreeReaderSessionsLeavesTheirResults) {
  // Three snapshot readers scan the author table while the writer's path
  // queries build the value index under them (the catalog lock's exclusive
  // side). No row changes, so every reader result stays the same.
  auto store = MakeDblpStore();
  ASSERT_NE(store, nullptr);
  const rdb::Table* author = AuthorTable(store.get());
  const std::string table = author->schema().name();
  std::vector<std::string> values =
      AuthorValues(store.get(), 2 * RelationalStore::kIndexAfterScans);
  const std::string count_sql =
      "SELECT COUNT(*) FROM " + table + " WHERE value = '" + values[1] + "'";
  auto expected = store->db()->ExecuteQuery(count_sql);
  ASSERT_TRUE(expected.ok()) << expected.status();
  const int64_t want = expected->rows[0][0].AsInt();
  ASSERT_GT(want, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::unique_ptr<rdb::ReaderSession>> sessions;
  for (int r = 0; r < 3; ++r) {
    auto session = store->db()->OpenReaderSession();
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(std::move(session).value());
  }
  std::vector<std::thread> readers;
  for (auto& session : sessions) {
    readers.emplace_back([&, s = session.get()] {
      while (!stop.load(std::memory_order_acquire)) {
        auto rs = s->ExecuteQueryBound(count_sql, {});
        if (!rs.ok()) {
          failures.fetch_add(1);
        } else if (rs->rows[0][0].AsInt() != want) {
          mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  // The readers are scanning before the build and after it. No ASSERT
  // while they run: an early return would leave the threads joinable.
  while (reads.load() < 3) std::this_thread::yield();
  for (const std::string& v : values) {
    EXPECT_TRUE(ConferencesOf(store.get(), v).ok());
  }
  const int reads_at_build = reads.load();
  while (reads.load() < reads_at_build + 3) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_NE(author->FindIndexByName(ValueIndexName(store.get())), nullptr);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace xupd::engine
