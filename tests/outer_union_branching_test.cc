// Outer-union + strategies over a *branching* table hierarchy (DBLP shape:
// publication has two child tables, author and cite) — the linear-chain
// tests in shred_test.cc do not cover sibling table regions.
#include <gtest/gtest.h>

#include "engine/store.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"

namespace xupd::shred {
namespace {

class BranchingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gen = workload::GenerateDblp(MakeSpec(), /*seed=*/99);
    ASSERT_TRUE(gen.ok());
    gen_ = std::make_unique<workload::GeneratedDoc>(std::move(gen).value());
  }

  static workload::DblpSpec MakeSpec() {
    workload::DblpSpec spec;
    spec.conferences = 6;
    return spec;
  }

  std::unique_ptr<engine::RelationalStore> MakeStore(
      engine::DeleteStrategy del, engine::InsertStrategy ins) {
    engine::RelationalStore::Options options;
    options.delete_strategy = del;
    options.insert_strategy = ins;
    auto store = engine::RelationalStore::Create(gen_->dtd, options);
    EXPECT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(store.value()->Load(*gen_->doc).ok());
    return std::move(store).value();
  }

  std::unique_ptr<workload::GeneratedDoc> gen_;
};

TEST_F(BranchingTest, RoundTripThroughOuterUnion) {
  auto store = MakeStore(engine::DeleteStrategy::kPerTupleTrigger,
                         engine::InsertStrategy::kTable);
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(
      xml::DeepEqualUnordered(*gen_->doc->root(), *rebuilt.value()->root()));
}

TEST_F(BranchingTest, OuterUnionRegionQueryOnMidLevel) {
  auto store = MakeStore(engine::DeleteStrategy::kPerTupleTrigger,
                         engine::InsertStrategy::kTable);
  // Publications of one year, with authors and cites attached.
  auto result = store->OuterUnion("publication", "year = '1995'");
  ASSERT_TRUE(result.ok()) << result.status();
  OuterUnionQuery query = BuildOuterUnion(
      store->mapping(), store->mapping().ForElement("publication"),
      "year = '1995'");
  auto roots = ReconstructFromOuterUnion(store->mapping(), query.layout,
                                         *result);
  ASSERT_TRUE(roots.ok()) << roots.status();
  ASSERT_FALSE(roots->empty());
  for (const auto& pub : *roots) {
    EXPECT_EQ(pub->name(), "publication");
    EXPECT_EQ(pub->FindChildElement("year")->TextContent(), "1995");
  }
}

using ComboParam = std::pair<engine::DeleteStrategy, engine::InsertStrategy>;

class BranchingComboTest
    : public BranchingTest,
      public ::testing::WithParamInterface<ComboParam> {
 protected:
  void SetUp() override { BranchingTest::SetUp(); }
};

TEST_P(BranchingComboTest, DeleteAndCopyOnBushyData) {
  auto [del, ins] = GetParam();
  auto store = MakeStore(del, ins);
  // Delete year-2000 publications (mid-level target with two child tables).
  ASSERT_TRUE(store->DeleteWhere("publication", "year = '2000'").ok());
  auto year2000 = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM publication WHERE year = '2000'");
  ASSERT_TRUE(year2000.ok());
  EXPECT_EQ(year2000->rows[0][0].AsInt(), 0);
  // No orphaned authors/cites.
  auto orphans = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM author WHERE parentId NOT IN "
      "(SELECT id FROM publication)");
  ASSERT_TRUE(orphans.ok());
  EXPECT_EQ(orphans->rows[0][0].AsInt(), 0);

  // Copy one conference; tuple counts double for its region.
  auto ids = store->SelectIds("conference", "");
  ASSERT_TRUE(ids.ok());
  auto before = store->db()->ExecuteQuery("SELECT COUNT(*) FROM author");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      store->CopySubtree("conference", ids->front(), store->root_id()).ok());
  auto confs = store->SelectIds("conference", "");
  ASSERT_TRUE(confs.ok());
  EXPECT_EQ(confs->size(), ids->size() + 1);
  // The copy has authors too.
  auto after = store->db()->ExecuteQuery("SELECT COUNT(*) FROM author");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->rows[0][0].AsInt(), before->rows[0][0].AsInt());

  // Still reconstructs.
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
}

INSTANTIATE_TEST_SUITE_P(Combos, BranchingComboTest,
                         ::testing::ValuesIn(testing::ValidStrategyPairs()));

TEST_F(BranchingTest, CopiesAgreeAcrossInsertStrategies) {
  std::string canon;
  for (auto ins : {engine::InsertStrategy::kTuple, engine::InsertStrategy::kTable,
                   engine::InsertStrategy::kAsr}) {
    auto store =
        MakeStore(testing::PairedDelete(ins, engine::DeleteStrategy::kCascade),
                  ins);
    auto ids = store->SelectIds("conference", "");
    ASSERT_TRUE(ids.ok());
    ASSERT_TRUE(
        store->CopySubtree("conference", ids->back(), store->root_id()).ok());
    auto rebuilt = store->Reconstruct();
    ASSERT_TRUE(rebuilt.ok());
    // Canonical unordered form: strip ids by comparing canonical text of the
    // reconstructed tree (ids are not stored in the XML itself).
    std::string text = xml::Canonical(*rebuilt.value());
    if (canon.empty()) {
      canon = text;
    } else {
      EXPECT_EQ(canon.size(), text.size())
          << "insert strategy " << engine::ToString(ins) << " diverged";
    }
  }
}

}  // namespace
}  // namespace xupd::shred
