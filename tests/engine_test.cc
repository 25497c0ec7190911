// Tests for the RelationalStore: §6.1 delete strategies, §6.2 insert
// strategies, ASR maintenance, path queries, and the XQuery translator.
// The central property: every strategy leaves the store reconstructing to
// the same document a native-tree execution produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/store.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"
#include "xquery/executor.h"

namespace xupd::engine {
namespace {

std::unique_ptr<RelationalStore> MakeStore(DeleteStrategy del,
                                           InsertStrategy ins) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  auto store = RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  Status s = store.value()->Load(*doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

int64_t Count(RelationalStore* store, const std::string& table) {
  auto r = store->db()->ExecuteQuery("SELECT COUNT(*) FROM " + table);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

// ---------------------------------------------------------------------------
// Delete strategies: all four remove the full subtree.

class DeleteStrategyTest : public ::testing::TestWithParam<DeleteStrategy> {};

TEST_P(DeleteStrategyTest, DeleteJohnsRemovesSubtrees) {
  auto store = MakeStore(GetParam(), xupd::testing::PairedInsert(GetParam()));
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 1);
  EXPECT_EQ(Count(store.get(), "Order"), 1);     // Mary's order remains
  EXPECT_EQ(Count(store.get(), "OrderLine"), 1);
}

TEST_P(DeleteStrategyTest, BulkDeleteLeavesOnlyRoot) {
  auto store = MakeStore(GetParam(), xupd::testing::PairedInsert(GetParam()));
  ASSERT_TRUE(store->DeleteWhere("Customer", "").ok());
  EXPECT_EQ(Count(store.get(), "CustDB"), 1);
  EXPECT_EQ(Count(store.get(), "Customer"), 0);
  EXPECT_EQ(Count(store.get(), "Order"), 0);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 0);
}

TEST_P(DeleteStrategyTest, RandomDeleteByIds) {
  auto store = MakeStore(GetParam(), xupd::testing::PairedInsert(GetParam()));
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  ASSERT_TRUE(store->DeleteByIds("Customer", *ids).ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 2);
  EXPECT_EQ(Count(store.get(), "Order"), 2);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 3);
}

TEST_P(DeleteStrategyTest, ReconstructionMatchesNativeExecution) {
  auto store = MakeStore(GetParam(), xupd::testing::PairedInsert(GetParam()));
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  // Native execution of the same update.
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  xquery::NativeExecutor native(doc.get());
  ASSERT_TRUE(native
                  .ExecuteString(R"(
    FOR $d IN document("custdb.xml"),
        $c IN $d/Customer[Name="John"]
    UPDATE $d { DELETE $c })")
                  .ok());
  EXPECT_TRUE(xml::DeepEqualUnordered(*doc->root(), *rebuilt.value()->root()));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DeleteStrategyTest,
                         ::testing::Values(DeleteStrategy::kPerTupleTrigger,
                                           DeleteStrategy::kPerStatementTrigger,
                                           DeleteStrategy::kCascade,
                                           DeleteStrategy::kAsr),
                         [](const auto& info) {
                           return std::string(ToString(info.param)) == "per-tuple"
                                      ? "PerTuple"
                                  : ToString(info.param) == std::string("per-stm")
                                      ? "PerStatement"
                                  : ToString(info.param) == std::string("cascade")
                                      ? "Cascade"
                                      : "Asr";
                         });

// ---------------------------------------------------------------------------
// Statement-count shapes (§6.1/§7.3).

TEST(DeleteShapeTest, TriggerDeleteIssuesOneStatement) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  uint64_t before = store->stats().statements;
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_EQ(store->stats().statements - before, 1u);
}

TEST(DeleteShapeTest, CascadeIssuesOnePerLevel) {
  auto store = MakeStore(DeleteStrategy::kCascade, InsertStrategy::kTable);
  uint64_t before = store->stats().statements;
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  // Customer + Order sweep + OrderLine sweep (+ a possible extra stopped
  // level): at least 3, more than the single trigger statement.
  EXPECT_GE(store->stats().statements - before, 3u);
}

TEST(DeleteShapeTest, PerTupleTriggerProbesPerDeletedRow) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Row triggers fired for 2 customers + 2 orders.
  EXPECT_EQ(delta.trigger_firings, 4u);
  EXPECT_GT(delta.index_probes, 0u);
}

TEST(DeleteShapeTest, PerStatementTriggerScansChildRelations) {
  auto store = MakeStore(DeleteStrategy::kPerStatementTrigger,
                         InsertStrategy::kTable);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Orphan sweeps scan entire child relations.
  EXPECT_GT(delta.rows_scanned, 0u);
  EXPECT_GE(delta.trigger_firings, 2u);
}

TEST(DeleteShapeTest, DeleteByIdsReusesOnePreparedPlan) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  auto ids = store->SelectIds("Customer", "");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 3u);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteByIds("Customer", *ids).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // One DELETE statement per id (the §7.3 random workload shape), but a
  // single parse: the handle is prepared once and reused directly.
  EXPECT_EQ(delta.statements, 3u);
  EXPECT_EQ(delta.prepared_misses, 1u);
  EXPECT_EQ(delta.prepared_hits, 0u);
  EXPECT_EQ(delta.sql_parses, 1u);
  EXPECT_EQ(Count(store.get(), "Customer"), 0);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 0);
}

// ---------------------------------------------------------------------------
// Insert strategies.

class InsertStrategyTest : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(InsertStrategyTest, CopySubtreeDuplicatesData) {
  auto store = MakeStore(xupd::testing::PairedDelete(GetParam()), GetParam());
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 4);
  EXPECT_EQ(Count(store.get(), "Order"), 4);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 5);
  // The copy got fresh ids and the same content.
  auto marys = store->db()->ExecuteQuery(
      "SELECT id FROM Customer WHERE Name = 'Mary' ORDER BY id");
  ASSERT_TRUE(marys.ok());
  ASSERT_EQ(marys->rows.size(), 2u);
  EXPECT_NE(marys->rows[0][0].AsInt(), marys->rows[1][0].AsInt());
}

TEST_P(InsertStrategyTest, CopyReconstructsEquivalentDocument) {
  auto store = MakeStore(xupd::testing::PairedDelete(GetParam()), GetParam());
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  // Native: copy Mary under the root.
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  xquery::NativeExecutor native(doc.get());
  ASSERT_TRUE(native
                  .ExecuteString(R"(
    FOR $d IN document("custdb.xml"),
        $src IN $d/Customer[Name="Mary"]
    UPDATE $d { INSERT $src })")
                  .ok());
  EXPECT_TRUE(xml::DeepEqualUnordered(*doc->root(), *rebuilt.value()->root()))
      << xml::Serialize(*doc->root()) << "----\n"
      << xml::Serialize(*rebuilt.value()->root());
}

TEST_P(InsertStrategyTest, IdsRemainUniqueAfterManyCopies) {
  auto store = MakeStore(xupd::testing::PairedDelete(GetParam()), GetParam());
  for (int i = 0; i < 3; ++i) {
    auto ids = store->SelectIds("Customer", "");
    ASSERT_TRUE(ids.ok());
    ASSERT_TRUE(
        store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  }
  auto all = store->db()->ExecuteQuery("SELECT COUNT(*) FROM Customer");
  ASSERT_TRUE(all.ok());
  // Uniqueness: grouping by id would need GROUP BY; instead compare COUNT
  // against the number of distinct ids via MIN/MAX sanity plus per-id probe.
  auto ids = store->SelectIds("Customer", "");
  ASSERT_TRUE(ids.ok());
  std::set<int64_t> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), ids->size());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, InsertStrategyTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr),
                         [](const auto& info) {
                           return ToString(info.param) == std::string("tuple")
                                      ? "Tuple"
                                  : ToString(info.param) == std::string("table")
                                      ? "Table"
                                      : "Asr";
                         });

std::unique_ptr<RelationalStore> MakeStoreWithBatch(DeleteStrategy del,
                                                    InsertStrategy ins,
                                                    int batch_size) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.insert_batch_size = batch_size;
  auto store = RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  Status s = store.value()->Load(*doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

TEST(InsertShapeTest, TupleInsertBatchSizeOneIssuesOneStatementPerTuple) {
  // insert_batch_size = 1 restores the paper's §6.2.1 regime exactly: one
  // literal INSERT statement per tuple, parsed every time.
  auto store = MakeStoreWithBatch(DeleteStrategy::kPerTupleTrigger,
                                  InsertStrategy::kTuple, 1);
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Mary's subtree: 1 customer + 1 order + 1 line = 3 INSERTs + 1 query.
  EXPECT_EQ(delta.statements, 4u);
  EXPECT_EQ(delta.sql_parses, 4u);  // every statement parses
  EXPECT_EQ(delta.prepared_hits, 0u);
  EXPECT_EQ(delta.prepared_misses, 0u);
  EXPECT_EQ(store->stats().batched_rows, 0u);
}

TEST(InsertShapeTest, TupleInsertBatchesMultiRowInsertsPerTable) {
  // Default batching: tuples of the same table ride in one multi-row INSERT,
  // so the statement count depends on the number of tables, not tuples.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTuple);
  auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
  ASSERT_TRUE(john.ok());
  rdb::Stats before = store->stats();
  // Seattle John's subtree: 1 customer + 2 orders + 3 lines = 6 tuples.
  ASSERT_TRUE(store->CopySubtree("Customer", john->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // 1 outer-union query + 3 per-table INSERTs (Customer, Order, OrderLine).
  EXPECT_EQ(delta.statements, 4u);
  EXPECT_EQ(delta.rows_inserted, 6u);
  // Order (2 rows) and OrderLine (3 rows) went in as multi-row statements.
  EXPECT_EQ(delta.batched_rows, 5u);
}

TEST(InsertShapeTest, RepeatedTupleCopiesReuseThePreparedPlan) {
  // Default batching: a second copy of the same subtree issues the same
  // batched INSERT shapes, so every insert is a cache hit.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTuple);
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  EXPECT_EQ(delta.prepared_misses, 0u);
  EXPECT_GE(delta.prepared_hits, 3u);
}

TEST(InsertShapeTest, TupleCopyStoresTheSameRowsAtEveryBatchSize) {
  // Batch size changes how the copied tuples are grouped into statements,
  // never which rows land or in what order within a table.
  std::vector<std::vector<std::string>> dumps;
  for (int batch : {1, 64}) {
    auto store = MakeStoreWithBatch(DeleteStrategy::kPerTupleTrigger,
                                    InsertStrategy::kTuple, batch);
    auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
    ASSERT_TRUE(john.ok());
    ASSERT_TRUE(
        store->CopySubtree("Customer", john->front(), store->root_id()).ok());
    std::vector<std::string> rows;
    for (const shred::TableMapping& t : store->mapping().tables()) {
      auto r = store->db()->ExecuteQuery("SELECT * FROM " + t.table);
      ASSERT_TRUE(r.ok()) << r.status();
      for (const rdb::Row& row : r->rows) {
        std::string line = t.table + ":";
        for (const rdb::Value& v : row) line += " " + v.ToSqlLiteral();
        rows.push_back(std::move(line));
      }
    }
    dumps.push_back(std::move(rows));
  }
  EXPECT_EQ(dumps[0].size(), 11u + 6u);  // the document + the copied subtree
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(InsertShapeTest, TableInsertStatementsIndependentOfTupleCount) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
  auto mary = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(john.ok());
  ASSERT_TRUE(mary.ok());
  uint64_t b1 = store->stats().statements;
  ASSERT_TRUE(store->CopySubtree("Customer", john->front(), store->root_id()).ok());
  uint64_t big = store->stats().statements - b1;  // 6-tuple subtree
  uint64_t b2 = store->stats().statements;
  ASSERT_TRUE(store->CopySubtree("Customer", mary->front(), store->root_id()).ok());
  uint64_t small = store->stats().statements - b2;  // 3-tuple subtree
  EXPECT_EQ(big, small);  // statement count depends on #tables only
}

// ---------------------------------------------------------------------------
// ASR behavior.

TEST(AsrTest, CreateRejectsMixedPairsAndValidPairsStayConsistent) {
  // Only the ASR delete and the ASR copy maintain the ASR, so a store keeps
  // one exactly when both strategies are kAsr, and Create refuses the 5
  // pairs that put a kAsr strategy beside a non-ASR one. It refuses before
  // it opens the data directory.
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  const std::string unopened =
      (std::filesystem::temp_directory_path() / "xupd_mixed_pair_never_opened")
          .string();
  int rejected = 0;
  int accepted = 0;
  for (DeleteStrategy del :
       {DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
        DeleteStrategy::kCascade, DeleteStrategy::kAsr}) {
    for (InsertStrategy ins :
         {InsertStrategy::kTuple, InsertStrategy::kTable, InsertStrategy::kAsr}) {
      SCOPED_TRACE(std::string(ToString(del)) + "/" + ToString(ins));
      RelationalStore::Options options;
      options.delete_strategy = del;
      options.insert_strategy = ins;
      if ((del == DeleteStrategy::kAsr) != (ins == InsertStrategy::kAsr)) {
        ++rejected;
        options.durability = true;
        options.data_dir = unopened;
        auto store = RelationalStore::Create(dtd, options);
        ASSERT_FALSE(store.ok());
        EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
        const std::string message = store.status().ToString();
        EXPECT_NE(message.find(std::string("delete strategy '") +
                               ToString(del) + "'"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find(std::string("insert strategy '") +
                               ToString(ins) + "'"),
                  std::string::npos)
            << message;
        EXPECT_FALSE(std::filesystem::exists(unopened));
        continue;
      }
      ++accepted;
      auto store_or = RelationalStore::Create(dtd, options);
      ASSERT_TRUE(store_or.ok()) << store_or.status();
      auto store = std::move(store_or).value();
      ASSERT_TRUE(
          store->Load(*xupd::testing::MustParse(xupd::testing::kCustomerXml))
              .ok());
      EXPECT_EQ(store->asr() != nullptr, del == DeleteStrategy::kAsr);
      // Customer 2, the Seattle John: 2 Orders and 3 OrderLines.
      auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
      ASSERT_TRUE(john.ok() && john->size() == 1u);
      ASSERT_TRUE(
          store->CopySubtree("Customer", john->front(), store->root_id()).ok());
      EXPECT_EQ(store->VerifyStore(), std::vector<std::string>{});
      ASSERT_TRUE(store->DeleteWhere("Customer", "").ok());
      EXPECT_EQ(store->VerifyStore(), std::vector<std::string>{});
      EXPECT_EQ(Count(store.get(), "Order"), 0);
      EXPECT_EQ(Count(store.get(), "OrderLine"), 0);
    }
  }
  EXPECT_EQ(rejected, 5);
  EXPECT_EQ(accepted, 7);
}

TEST(AsrTest, AsrRowCountEqualsLeafPathCount) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok());
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store.value()->Load(*doc).ok());
  // Leaf-most instances: 4 order lines + customer 4 (no orders) = 5 paths.
  EXPECT_EQ(Count(store.value().get(), "asr"), 5);
}

TEST(AsrTest, AsrMaintainedAcrossDeleteAndInsert) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  // Copy Mary (adds 1 path), then delete both Marys (removes 2 paths).
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  EXPECT_EQ(Count(store.get(), "asr"), 6);
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'Mary'").ok());
  EXPECT_EQ(Count(store.get(), "asr"), 4);
  // All remaining rows unmarked.
  auto marked = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM asr WHERE marked = 1");
  ASSERT_TRUE(marked.ok());
  EXPECT_EQ(marked->rows[0][0].AsInt(), 0);
}

TEST(AsrTest, BulkDeleteRepairsLeftCompleteness) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  ASSERT_TRUE(store->DeleteWhere("Customer", "").ok());
  // Only the root remains; the ASR must hold its left-complete row.
  EXPECT_EQ(Count(store.get(), "asr"), 1);
  auto row = store->db()->ExecuteQuery("SELECT id_CustDB FROM asr");
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->rows.size(), 1u);
  EXPECT_EQ(row->rows[0][0].AsInt(), store->root_id());
}

TEST(AsrTest, ConstructedInsertWritesLeftCompletePaths) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("custdb.xml")/Customer[Name="Mary"]
    UPDATE $c {
      INSERT <Order><Date>2001-02-03</Date>
               <OrderLine><ItemName>nut</ItemName><Qty>5</Qty></OrderLine>
               <OrderLine><ItemName>bolt</ItemName><Qty>6</Qty></OrderLine>
             </Order>
    })");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(Count(store.get(), "Order"), 4);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 6);
  EXPECT_TRUE(store->VerifyStore().empty());

  // The ASR must hold exactly the paths a fresh load of the same document
  // builds: the new order adds one path per order line.
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto fresh_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(fresh_or.ok());
  auto fresh = std::move(fresh_or).value();
  ASSERT_TRUE(fresh->Load(*rebuilt.value()).ok());
  EXPECT_EQ(Count(fresh.get(), "asr"), 7);
  EXPECT_EQ(Count(store.get(), "asr"), Count(fresh.get(), "asr"));
}

// The ASR delete's left-completeness repair: only a target's parent that
// loses its last child gets a row ending at its level, and one that still
// holds its own terminal row gets none. The expected counts equal those of
// a repair that scans the whole parent table for tuples without a path.

int64_t AsrRowsEndingAt(RelationalStore* store, const std::string& table,
                        const std::string& child_table, int64_t id) {
  auto r = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM asr WHERE id_" + table + " = " +
      std::to_string(id) + " AND id_" + child_table + " IS NULL");
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

/// The Seattle John's first order: the one holding the wrench line.
int64_t WrenchOrderId(RelationalStore* store) {
  auto order = store->db()->ExecuteQuery(
      "SELECT parentId FROM OrderLine WHERE ItemName = 'wrench'");
  EXPECT_TRUE(order.ok() && order->rows.size() == 1u);
  return order.ok() && order->rows.size() == 1u ? order->rows[0][0].AsInt()
                                                : -1;
}

TEST(AsrTest, DeletingOneOfSeveralChildrenAddsNoRepairRow) {
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  int64_t order_id = WrenchOrderId(store.get());
  ASSERT_TRUE(store->DeleteWhere("OrderLine", "ItemName = 'wrench'").ok());
  EXPECT_EQ(Count(store.get(), "asr"), 4);
  EXPECT_EQ(AsrRowsEndingAt(store.get(), "Order", "OrderLine", order_id), 0);
  std::vector<std::string> v = store->VerifyStore();
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(AsrTest, DeletingEveryChildLeavesOneRowEndingAtTheParent) {
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  int64_t order_id = WrenchOrderId(store.get());
  ASSERT_TRUE(store->DeleteWhere("OrderLine",
                                 "parentId = " + std::to_string(order_id))
                  .ok());
  EXPECT_EQ(Count(store.get(), "OrderLine"), 2);
  EXPECT_EQ(Count(store.get(), "asr"), 4);
  EXPECT_EQ(AsrRowsEndingAt(store.get(), "Order", "OrderLine", order_id), 1);
  std::vector<std::string> v = store->VerifyStore();
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(AsrTest, RepairKeepsAParentsOwnTerminalRow) {
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  auto customer = store->SelectIds("Customer", "Address_City = 'Portland'");
  ASSERT_TRUE(customer.ok() && customer->size() == 1u);
  int64_t customer_id = customer->front();
  EXPECT_EQ(AsrRowsEndingAt(store.get(), "Customer", "Order", customer_id), 1);

  // The constructed order's path joins the customer's own terminal row.
  auto content = xupd::testing::MustParse(
      "<Order><Date>2001-02-03</Date>"
      "<OrderLine><ItemName>nut</ItemName><Qty>5</Qty></OrderLine></Order>");
  ASSERT_TRUE(store->InsertConstructed(*content->root(), customer_id).ok());
  EXPECT_EQ(Count(store.get(), "asr"), 6);
  auto order = store->SelectIds("Order", "parentId = " +
                                             std::to_string(customer_id));
  ASSERT_TRUE(order.ok() && order->size() == 1u);

  ASSERT_TRUE(store->DeleteByIds("Order", *order).ok());
  EXPECT_EQ(Count(store.get(), "asr"), 5);
  EXPECT_EQ(AsrRowsEndingAt(store.get(), "Customer", "Order", customer_id), 1);
  std::vector<std::string> v = store->VerifyStore();
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(AsrTest, MarkedRowsArePlannedAsAnIndexProbe) {
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  auto plan = store->db()->ExecuteQuery(
      "EXPLAIN SELECT id_Customer FROM asr WHERE marked = 1");
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
// String sharing: a copied row holds its source row's heap string blocks.

// Every text value is longer than the 14-byte inline limit and unique, so a
// string's content names its source row.
constexpr char kLongTextXml[] = R"(<CustDB>
  <Customer>
    <Name>Mary Long-Named Customer</Name>
    <Address>
      <City>Fresno in the long valley</City><State>California, USA</State>
    </Address>
    <Order>
      <Date>2000-07-04T09:00:00Z</Date>
      <Status>ready to be shipped</Status>
      <OrderLine>
        <ItemName>a claw hammer of some length</ItemName>
        <Qty>one single hammer</Qty>
      </OrderLine>
      <OrderLine>
        <ItemName>a box of long wood screws</ItemName>
        <Qty>two boxes of screws</Qty>
      </OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>Another Long-Named Customer</Name>
    <Address>
      <City>Portland on the river</City><State>Oregon, United States</State>
    </Address>
  </Customer>
</CustDB>)";

// Live heap-string blocks of the element tables, keyed by content.
std::map<std::string, std::vector<const rdb::StrRep*>> HeapBlocks(
    RelationalStore* store) {
  std::map<std::string, std::vector<const rdb::StrRep*>> blocks;
  for (const shred::TableMapping& tm : store->mapping().tables()) {
    const rdb::Table* t = store->db()->FindTable(tm.table);
    for (size_t r = 0; r < t->capacity(); ++r) {
      if (!t->is_live(r)) continue;
      for (size_t c = 0; c < t->arity(); ++c) {
        const rdb::Value& v = t->row(r)[c];
        if (v.rep() == nullptr) continue;
        blocks[std::string(v.AsString())].push_back(v.rep());
      }
    }
  }
  return blocks;
}

class CopySharesStringsTest
    : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(CopySharesStringsTest, CopiedRowsShareTheirSourceBlocks) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = xupd::testing::PairedDelete(GetParam());
  options.insert_strategy = GetParam();
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  auto store = std::move(store_or).value();
  ASSERT_TRUE(store->Load(*xupd::testing::MustParse(kLongTextXml)).ok());
  const auto before = HeapBlocks(store.get());
  ASSERT_EQ(before.size(), 12u);
  for (const auto& [text, reps] : before) ASSERT_EQ(reps.size(), 1u) << text;

  auto mary = store->SelectIds("Customer", "Name = 'Mary Long-Named Customer'");
  ASSERT_TRUE(mary.ok() && mary->size() == 1u);
  Status s = store->CopySubtree("Customer", mary->front(), store->root_id());
  ASSERT_TRUE(s.ok()) << s;

  // Mary's 9 strings now sit in two rows each, on one block per string.
  const auto after = HeapBlocks(store.get());
  ASSERT_EQ(after.size(), before.size());
  size_t copied = 0;
  for (const auto& [text, reps] : after) {
    const rdb::StrRep* source = before.at(text).front();
    for (const rdb::StrRep* rep : reps) EXPECT_EQ(rep, source) << text;
    copied += reps.size() - 1;
  }
  EXPECT_EQ(copied, 9u);
}

INSTANTIATE_TEST_SUITE_P(AllInsertStrategies, CopySharesStringsTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// ---------------------------------------------------------------------------
// Path queries (§5.3 / §7.2).

TEST(PathQueryTest, JoinsAndAsrAgree) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  auto via_joins =
      store->PathQueryJoins("Customer", "OrderLine", "l0.ItemName = 'tire'");
  auto via_asr =
      store->PathQueryAsr("Customer", "OrderLine", "l.ItemName = 'tire'");
  ASSERT_TRUE(via_joins.ok()) << via_joins.status();
  ASSERT_TRUE(via_asr.ok()) << via_asr.status();
  EXPECT_EQ(*via_joins, *via_asr);
  EXPECT_EQ(via_joins->size(), 1u);  // only Seattle John ordered tires
}

TEST(PathQueryTest, EmptyLeafPredicateSelectsEveryPath) {
  // An empty leaf predicate means "every leaf", as in SelectIds: both plans
  // return exactly the customers that have at least one order line.
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  auto all = store->SelectIds("Customer", "");
  const std::string order = store->mapping().ForElement("Order")->table;
  const std::string line = store->mapping().ForElement("OrderLine")->table;
  auto with_lines = store->SelectIds(
      "Customer", "id IN (SELECT parentId FROM " + order +
                      " WHERE id IN (SELECT parentId FROM " + line + "))");
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_TRUE(with_lines.ok()) << with_lines.status();
  ASSERT_EQ(all->size(), 3u);
  ASSERT_EQ(with_lines->size(), 2u);  // Portland John has no order
  for (int64_t id : *with_lines) {
    EXPECT_NE(std::find(all->begin(), all->end(), id), all->end());
  }
  auto via_joins = store->PathQueryJoins("Customer", "OrderLine", "");
  auto via_asr = store->PathQueryAsr("Customer", "OrderLine", "");
  ASSERT_TRUE(via_joins.ok()) << via_joins.status();
  ASSERT_TRUE(via_asr.ok()) << via_asr.status();
  EXPECT_EQ(*via_joins, *with_lines);
  EXPECT_EQ(*via_asr, *with_lines);
}

// ---------------------------------------------------------------------------
// XQuery translation (§6, Examples 8/9).

TEST(TranslatorTest, Example9DeleteJohns) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $d IN document("custdb.xml"),
        $c IN $d/Customer[Name="John"]
    UPDATE $d { DELETE $c })");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(Count(store.get(), "Customer"), 1);
  EXPECT_EQ(Count(store.get(), "Order"), 1);
}

TEST(TranslatorTest, Example8SuspendTireOrders) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $o IN document("custdb.xml")//Order[Status="ready" and
                                            OrderLine/ItemName="tire"]
    UPDATE $o {
      INSERT <Status>suspended</Status>,
      FOR $i IN $o/OrderLine[ItemName="tire"]
      UPDATE $i {
        INSERT <comment>recalled</comment>
      }
    })");
  ASSERT_TRUE(s.ok()) << s;
  // John's ready tire order is suspended; Mary's ready hammer order is not.
  auto suspended = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM Order WHERE Status = 'suspended'");
  ASSERT_TRUE(suspended.ok());
  EXPECT_EQ(suspended->rows[0][0].AsInt(), 1);
  // Only the tire line of that order was commented.
  auto commented = store->db()->ExecuteQuery(
      "SELECT ItemName FROM OrderLine WHERE comment = 'recalled'");
  ASSERT_TRUE(commented.ok());
  ASSERT_EQ(commented->rows.size(), 1u);
  EXPECT_EQ(commented->rows[0][0].AsString(), "tire");
}

TEST(TranslatorTest, Example8BindingsComputedBeforeUpdates) {
  // The §6 hazard: the outer INSERT flips Status to 'suspended'; if the
  // nested binding ran *after* it, the nested predicate would still match
  // (it does not depend on Status) — instead check the reverse hazard: a
  // nested predicate on Status must bind before the outer update changes it.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $o IN document("custdb.xml")//Order[Status="ready"]
    UPDATE $o {
      INSERT <Status>suspended</Status>,
      FOR $i IN $o/OrderLine[ItemName="tire"]
      UPDATE $i { INSERT <comment>recalled</comment> }
    })");
  ASSERT_TRUE(s.ok()) << s;
  auto commented = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM OrderLine WHERE comment = 'recalled'");
  ASSERT_TRUE(commented.ok());
  EXPECT_EQ(commented->rows[0][0].AsInt(), 1);
}

TEST(TranslatorTest, Example10CopyCaliforniansAcrossStores) {
  // Copying into a different document with the same DTD is equivalent to a
  // same-document copy (§7.4 fn. 2): copy CA customers under the root.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $d IN document("custDB.xml"),
        $source IN $d/Customer[Address/State="CA"]
    UPDATE $d { INSERT $source })");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(Count(store.get(), "Customer"), 4);
  auto cas = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM Customer WHERE Address_State = 'CA'");
  ASSERT_TRUE(cas.ok());
  EXPECT_EQ(cas->rows[0][0].AsInt(), 2);
}

TEST(TranslatorTest, InlinedDeleteSetsColumnsNull) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("custdb.xml")/Customer[Name="Mary"],
        $a IN $c/Address
    UPDATE $c { DELETE $a })");
  ASSERT_TRUE(s.ok()) << s;
  auto r = store->db()->ExecuteQuery(
      "SELECT Address_City, Address_present FROM Customer WHERE Name = 'Mary'");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[0][1].is_null());
}

TEST(TranslatorTest, UnsupportedFormsReportCleanly) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  // Positional insert is meaningless without document order (§5.1).
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("x")/Customer[Name="Mary"],
        $n IN $c/Name
    UPDATE $c { INSERT <Name>Zed</Name> BEFORE $n })");
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

/// One SHOW TABLE STATS value, e.g. "table.n1.rows_read".
int64_t TableStat(RelationalStore* store, const std::string& name) {
  auto rows = store->db()->ExecuteQuery("SHOW TABLE STATS");
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return -1;
  for (const rdb::Row& row : rows->rows) {
    if (row[0].AsString() == name) return row[1].AsInt();
  }
  return 0;
}

TEST(TranslatorTest, PathBindingIssuesNoSqlAndReadsEachOperandOnce) {
  // $x/s2 is inlined in n2, so the target $x and the operand $s select the
  // same n2 tuples: one read serves both (and $x's emptiness check), and
  // the $d/n1/n2 path itself issues no statement. The read probes idx_n2_v2,
  // and its residual `parentId IN (SELECT id FROM n1 ...)` probes idx_n1_id
  // once for the one candidate: one n1 row read, not every n1 row under $d
  // (a second read of the operand would make it two).
  auto gen = workload::GenerateRandomizedSynthetic({100, 4, 4}, 3);
  ASSERT_TRUE(gen.ok()) << gen.status();
  auto created = RelationalStore::Create(gen->dtd, RelationalStore::Options{});
  ASSERT_TRUE(created.ok()) << created.status();
  RelationalStore* store = created->get();
  ASSERT_TRUE(store->Load(*gen->doc).ok());
  ASSERT_TRUE(
      store->db()->ExecuteQuery("CREATE INDEX idx_n2_v2 ON n2 (v2)").ok());
  auto v2 = store->db()->ExecuteQuery("SELECT v2 FROM n2 WHERE id = " +
                                      std::to_string(store->root_id() + 2));
  ASSERT_TRUE(v2.ok() && v2->rows.size() == 1) << v2.status();
  const std::string value(v2->rows[0][0].AsString());

  const int64_t n1_read = TableStat(store, "table.n1.rows_read");
  const rdb::Stats before = store->stats();
  Status s = store->ExecuteXQueryUpdate(
      "FOR $d IN document(\"x\"), $x IN $d/n1/n2[v2 = \"" + value +
      "\"], $s IN $x/s2 UPDATE $x { DELETE $s }");
  ASSERT_TRUE(s.ok()) << s;
  // SELECT the n2 ids, stage them in xupd_idlist, UPDATE n2 SET s2 = NULL.
  EXPECT_EQ(store->stats().Delta(before).ToString(),
            "stmts=3 parses=3 prep_hits=0 prep_miss=2 batched=0 plans=3 "
            "plan_hits=0 trig_stmts=0 trig_fires=0 scanned=2 probes=3 ins=1 "
            "del=0 upd=1 txn_begin=1 txn_commit=1 txn_rollback=0 undo=1 "
            "wal_appends=0 wal_bytes=0 wal_fsyncs=0 checkpoints=0 replayed=0 "
            "scrubs=0 heals=0 slow=0 analyzed=0");
  EXPECT_EQ(TableStat(store, "table.n1.rows_read") - n1_read, 1);
  auto left = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM n2 WHERE v2 = '" + value + "' AND s2 IS NOT NULL");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows[0][0].AsInt(), 0);
}

}  // namespace
}  // namespace xupd::engine
