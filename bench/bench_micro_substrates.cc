// Microbenchmarks (google-benchmark) for the substrates: SQL parsing, index
// probes, scans, XML parsing, XPath evaluation, shredding.
#include <benchmark/benchmark.h>

#include "rdb/database.h"
#include "rdb/sql_parser.h"
#include "shred/shredder.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

using namespace xupd;

static void BM_SqlParseInsert(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = rdb::sql::ParseSql(
        "INSERT INTO Customer VALUES (42, 7, 'John', 'Seattle', 'WA')");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseInsert);

static void BM_SqlParseOuterUnion(benchmark::State& state) {
  const char* sql = R"(
    WITH Q1 (C1, C2, C3) AS (SELECT id, parentId, Name FROM Customer
                             WHERE Name = 'John'),
         Q2 (C1, C2, C3) AS (SELECT q.C1, O.id, O.Status FROM Q1 q, Ord O
                             WHERE O.parentId = q.C1)
    (SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2) ORDER BY C1, C2)";
  for (auto _ : state) {
    auto stmt = rdb::sql::ParseSql(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseOuterUnion);

static void BM_IndexProbe(benchmark::State& state) {
  rdb::Database db;
  (void)db.ExecuteQuery("CREATE TABLE t (id INTEGER, v VARCHAR)");
  (void)db.ExecuteQuery("CREATE INDEX t_id ON t (id)");
  rdb::Table* t = db.FindTable("t");
  for (int i = 0; i < 100000; ++i) {
    (void)db.InsertDirect(t, {rdb::Value::Int(i), rdb::Value::Str("x")});
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.ExecuteQuery("SELECT v FROM t WHERE id = " +
                             std::to_string(i++ % 100000));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexProbe);

static void BM_FullScanCount(benchmark::State& state) {
  rdb::Database db;
  (void)db.ExecuteQuery("CREATE TABLE t (id INTEGER, v VARCHAR)");
  rdb::Table* t = db.FindTable("t");
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    (void)db.InsertDirect(t, {rdb::Value::Int(i), rdb::Value::Str("x")});
  }
  for (auto _ : state) {
    auto r = db.ExecuteQuery("SELECT COUNT(*) FROM t WHERE v = 'x'");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullScanCount)->Arg(1000)->Arg(10000)->Arg(100000);

static void BM_XmlParseBioDoc(benchmark::State& state) {
  workload::SyntheticSpec spec{10, 4, 2};
  auto gen = workload::GenerateFixedSynthetic(spec, 1);
  std::string text = xml::Serialize(*gen->doc);
  for (auto _ : state) {
    auto doc = xml::ParseXml(text);
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_XmlParseBioDoc);

static void BM_XPathDescendantScan(benchmark::State& state) {
  workload::SyntheticSpec spec{100, 5, 2};
  auto gen = workload::GenerateFixedSynthetic(spec, 1);
  auto path = xpath::ParsePathString("document(\"d\")//n5");
  xpath::Evaluator eval(gen->doc.get());
  for (auto _ : state) {
    auto r = eval.Eval(path.value(), {}, xpath::XmlObject::Null());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_XPathDescendantScan);

static void BM_ShredDocument(benchmark::State& state) {
  workload::SyntheticSpec spec{100, 5, 2};
  auto gen = workload::GenerateFixedSynthetic(spec, 1);
  auto mapping = shred::Mapping::SharedInlining(gen->dtd);
  for (auto _ : state) {
    rdb::Database db;
    shred::Shredder shredder(&mapping.value(), &db);
    (void)shredder.CreateSchema();
    auto tuples = shredder.LoadDocument(*gen->doc);
    benchmark::DoNotOptimize(tuples);
  }
}
BENCHMARK(BM_ShredDocument);

BENCHMARK_MAIN();
