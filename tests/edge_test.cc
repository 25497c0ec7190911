// Tests for the Edge mapping (§5.1 alternative): DTD-less loading, ordered
// round trips, and the fragmentation contrast with Shared Inlining.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "rdb/database.h"
#include "shred/edge.h"
#include "shred/mapping.h"
#include "shred/shredder.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"

namespace xupd::shred {
namespace {

TEST(EdgeTest, RoundTripPreservesDocumentOrder) {
  // The Edge mapping keeps ordinals, so the ORDERED comparison must hold —
  // stronger than the inlined mapping's unordered guarantee.
  auto doc = xupd::testing::ParseBioDocument();
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*doc).ok());
  auto rebuilt = store.Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(xml::DeepEqual(*doc->root(), *rebuilt.value()->root()))
      << xml::Serialize(*rebuilt.value());
}

TEST(EdgeTest, WorksWithoutAnyDtd) {
  // Irregular document no DTD could describe tightly.
  auto doc = xupd::testing::MustParse(
      "<mix>text<a x=\"1\"/>more<b><c/>tail</b></mix>");
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*doc).ok());
  auto rebuilt = store.Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(xml::DeepEqual(*doc->root(), *rebuilt.value()->root()));
}

TEST(EdgeTest, EdgeCountMatchesObjectCount) {
  auto doc = xupd::testing::MustParse("<r><a x=\"1\">t</a><b/></r>");
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*doc).ok());
  // Edges: r, a, x(attr), t(text), b = 5.
  EXPECT_EQ(store.EdgeCount(), 5u);
}

TEST(EdgeTest, RefListsKeepEntryOrder) {
  auto doc = xupd::testing::ParseBioDocument();
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*doc).ok());
  auto rebuilt = store.Reconstruct();
  ASSERT_TRUE(rebuilt.ok());
  const xml::RefList* managers =
      rebuilt.value()->FindById("lalab")->FindRefList("managers");
  ASSERT_NE(managers, nullptr);
  EXPECT_EQ(managers->targets, (std::vector<std::string>{"smith1", "jones1"}));
}

TEST(EdgeTest, FindElementsByText) {
  auto doc = xupd::testing::ParseBioDocument();
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*doc).ok());
  auto ids = store.FindElementsByText("name", "PMBL");
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids->size(), 1u);
  auto none = store.FindElementsByText("name", "No Such Lab");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(EdgeTest, FragmentationVsInlining) {
  // The paper's criticism quantified: the same document produces far more
  // edge tuples than inlined tuples, and a content lookup needs a self-join
  // instead of a single-table predicate.
  auto gen = workload::GenerateFixedSynthetic({20, 3, 2}, 17);
  ASSERT_TRUE(gen.ok());

  rdb::Database edge_db;
  EdgeStore edges(&edge_db);
  ASSERT_TRUE(edges.CreateSchema().ok());
  ASSERT_TRUE(edges.Load(*gen->doc).ok());

  rdb::Database inline_db;
  auto mapping = Mapping::SharedInlining(gen->dtd);
  ASSERT_TRUE(mapping.ok());
  Shredder shredder(&mapping.value(), &inline_db);
  ASSERT_TRUE(shredder.CreateSchema().ok());
  ASSERT_TRUE(shredder.LoadDocument(*gen->doc).ok());

  size_t inlined_tuples = 0;
  for (const auto& name : inline_db.TableNames()) {
    inlined_tuples += inline_db.FindTable(name)->live_count();
  }
  // Every element + attribute + text is an edge: >3x the inlined tuples
  // for this shape (each nk has s/v children with text).
  EXPECT_GT(edges.EdgeCount(), 3 * inlined_tuples);
}

TEST(EdgeTest, LargeDocumentRoundTrip) {
  auto gen = workload::GenerateRandomizedSynthetic({25, 4, 3}, 23);
  ASSERT_TRUE(gen.ok());
  rdb::Database db;
  EdgeStore store(&db);
  ASSERT_TRUE(store.CreateSchema().ok());
  ASSERT_TRUE(store.Load(*gen->doc).ok());
  auto rebuilt = store.Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(xml::DeepEqual(*gen->doc->root(), *rebuilt.value()->root()));
}

}  // namespace
}  // namespace xupd::shred
