// Property-based tests (parameterized over seeds):
//  1. shred -> outer-union reconstruct round-trips randomized documents;
//  2. the same XQuery update script executed natively and against the
//     relational store under EVERY (delete x insert) strategy combination
//     yields the same document;
//  3. statements whose paths compose several steps, nest a FOR or filter
//     with WHERE agree with native execution under every combination too;
//  4. random primitive-operation sequences keep the native tree
//     serializable/reparsable (structural integrity fuzz).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/store.h"
#include "test_util.h"
#include "update/ops.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/eval.h"
#include "xpath/parser.h"
#include "xquery/executor.h"

namespace xupd {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededTest, ShredReconstructRoundTrip) {
  workload::SyntheticSpec spec{15, 4, 3};
  auto gen = workload::GenerateRandomizedSynthetic(spec, GetParam());
  ASSERT_TRUE(gen.ok());
  engine::RelationalStore::Options options;
  auto store = engine::RelationalStore::Create(gen->dtd, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Load(*gen->doc).ok());
  auto rebuilt = store.value()->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(xml::DeepEqualUnordered(*gen->doc->root(),
                                      *rebuilt.value()->root()));
}

TEST_P(SeededTest, AllStrategyCombosAgreeWithNativeExecution) {
  workload::SyntheticSpec spec{10, 3, 3};
  auto gen = workload::GenerateRandomizedSynthetic(spec, GetParam());
  ASSERT_TRUE(gen.ok());

  // The update script: a multi-level delete, a subtree copy, and an inlined
  // delete. String comparisons are lexicographic on both sides.
  const char* kScript[] = {
      R"(FOR $d IN document("x"), $t IN $d//n2[v2 >= "800000"]
         UPDATE $d { DELETE $t })",
      R"(FOR $d IN document("x"), $src IN $d/n1[v1 < "400000"]
         UPDATE $d { INSERT $src })",
      R"(FOR $x IN document("x")//n1[v1 >= "900000"], $s IN $x/s1
         UPDATE $x { DELETE $s })",
  };

  // Native execution.
  auto native_doc = gen->doc->Clone();
  xquery::NativeExecutor native(native_doc.get());
  for (const char* q : kScript) {
    ASSERT_TRUE(native.ExecuteString(q).ok()) << q;
  }

  // Every strategy pair the store accepts.
  for (auto [del, ins] : testing::ValidStrategyPairs()) {
    engine::RelationalStore::Options options;
    options.delete_strategy = del;
    options.insert_strategy = ins;
    auto store = engine::RelationalStore::Create(gen->dtd, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Load(*gen->doc).ok());
    for (const char* q : kScript) {
      Status s = store.value()->ExecuteXQueryUpdate(q);
      ASSERT_TRUE(s.ok()) << engine::ToString(del) << "/"
                          << engine::ToString(ins) << ": " << s << "\n"
                          << q;
    }
    auto rebuilt = store.value()->Reconstruct();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_TRUE(xml::DeepEqualUnordered(*native_doc->root(),
                                        *rebuilt.value()->root()))
        << "strategies " << engine::ToString(del) << "/"
        << engine::ToString(ins) << " diverged from native execution";
  }
}

TEST_P(SeededTest, ComposedPathsAndWhereAgreeWithNativeExecution) {
  workload::SyntheticSpec spec{10, 3, 3};
  auto gen = workload::GenerateRandomizedSynthetic(spec, GetParam());
  ASSERT_TRUE(gen.ok());

  // Each statement runs alone on a fresh document: paths that compose
  // several steps, a nested FOR, and WHERE under tuple semantics (a WHERE
  // on $p narrows the $t bound below it; a WHERE that keeps no $p tuple
  // keeps no tuple at all).
  const char* kStatements[] = {
      R"(FOR $d IN document("x"), $t IN $d/n1/n2[v2 >= "500000"]
         UPDATE $d { DELETE $t })",
      R"(FOR $d IN document("x"), $s IN $d/n1[v1 < "500000"]/n2,
             $p IN $d/n1[v1 >= "800000"]
         UPDATE $p { INSERT $s })",
      R"(FOR $d IN document("x"), $p IN $d/n1[v1 >= "300000"],
             $t IN $p//n3[v3 < "600000"]
         UPDATE $p { DELETE $t })",
      R"(FOR $d IN document("x"), $p IN $d/n1[v1 < "700000"]
         UPDATE $p { FOR $t IN $p/n2[v2 >= "400000"], $s IN $t/s2
                     UPDATE $t { DELETE $s } })",
      R"(FOR $d IN document("x"), $p IN $d/n1, $t IN $p/n2
         WHERE $p/v1 >= "500000"
         UPDATE $d { DELETE $t })",
      R"(FOR $d IN document("x"), $p IN $d/n1, $q IN $d/n1/n2
         WHERE $p/v1 = "nomatch"
         UPDATE $d { DELETE $q })",
  };

  for (const char* q : kStatements) {
    auto native_doc = gen->doc->Clone();
    xquery::NativeExecutor native(native_doc.get());
    ASSERT_TRUE(native.ExecuteString(q).ok()) << q;
    for (auto [del, ins] : testing::ValidStrategyPairs()) {
      engine::RelationalStore::Options options;
      options.delete_strategy = del;
      options.insert_strategy = ins;
      auto store = engine::RelationalStore::Create(gen->dtd, options);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Load(*gen->doc).ok());
      Status s = store.value()->ExecuteXQueryUpdate(q);
      ASSERT_TRUE(s.ok()) << engine::ToString(del) << "/"
                          << engine::ToString(ins) << ": " << s << "\n"
                          << q;
      auto rebuilt = store.value()->Reconstruct();
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_TRUE(xml::DeepEqualUnordered(*native_doc->root(),
                                          *rebuilt.value()->root()))
          << "strategies " << engine::ToString(del) << "/"
          << engine::ToString(ins) << " diverged from native execution\n"
          << q;
    }
  }
}

TEST_P(SeededTest, RandomPrimitiveOpsKeepTreeWellFormed) {
  auto doc = testing::ParseBioDocument();
  // The fuzz inserts references under these names; declare them so the
  // round-trip reparse classifies them as IDREFs again.
  doc->DeclareRefAttribute("r0");
  doc->DeclareRefAttribute("r1");
  Rng rng(GetParam());
  update::UpdateExecutor exec(doc.get(), update::ExecutionModel::kOrdered);
  xpath::Evaluator eval(doc.get());

  auto all_elements = [&]() {
    auto parsed = xpath::ParsePathString("document(\"b\")//*");
    auto result = eval.Eval(parsed.value(), {}, xpath::XmlObject::Null());
    return result.ok() ? std::move(result).value()
                       : std::vector<xpath::XmlObject>{};
  };

  int applied = 0;
  for (int step = 0; step < 60; ++step) {
    auto elements = all_elements();
    if (elements.empty()) break;
    xpath::XmlObject target = elements[rng.Uniform(elements.size())];
    switch (rng.Uniform(5)) {
      case 0: {  // insert attribute (may collide: both outcomes legal)
        Status s = exec.Insert(
            target, update::Content::MakeAttribute(
                        "a" + std::to_string(rng.Uniform(4)), "v"));
        applied += s.ok() ? 1 : 0;
        break;
      }
      case 1: {  // insert element
        auto child = std::make_unique<xml::Element>(
            "x" + std::to_string(rng.Uniform(3)));
        child->AppendText(rng.RandomString(5));
        Status s = exec.Insert(target,
                               update::Content::MakeElement(std::move(child)));
        applied += s.ok() ? 1 : 0;
        break;
      }
      case 2: {  // insert reference
        Status s = exec.Insert(target, update::Content::MakeReference(
                                           "r" + std::to_string(rng.Uniform(2)),
                                           "baselab"));
        applied += s.ok() ? 1 : 0;
        break;
      }
      case 3: {  // rename
        if (exec.IsDeleted(target)) break;
        Status s = exec.Rename(target, "ren" + std::to_string(rng.Uniform(4)));
        applied += s.ok() ? 1 : 0;
        break;
      }
      case 4: {  // delete (skip the root)
        if (target.element == doc->root() || exec.IsDeleted(target)) break;
        Status s = exec.Delete(target);
        applied += s.ok() ? 1 : 0;
        break;
      }
    }
  }
  EXPECT_GT(applied, 10);

  // Whatever happened, the tree serializes and reparses identically. The
  // compact form is the faithful one: pretty-printing inserts indentation
  // into mixed content (elements holding both text and element children).
  xml::SerializeOptions compact;
  compact.pretty = false;
  std::string text = xml::Serialize(*doc, compact);
  xml::ParseOptions options;
  for (const std::string& r : doc->ref_attributes()) {
    options.ref_attributes.insert(r);
  }
  auto reparsed = xml::ParseXml(text, options);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  EXPECT_TRUE(xml::DeepEqual(*doc->root(), *reparsed->document->root()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace xupd
