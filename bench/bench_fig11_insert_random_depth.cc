// Figure 11: insert performance, random workload (replicate 10 random
// subtrees), fixed sf=100 fanout=4, depth 1..6. Expected shape: the tuple
// method wins while copied subtrees are small, the table method overtakes as
// depth (hence copied data) grows.
#include <cstdio>
#include <cstdlib>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;
using engine::InsertStrategy;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  int max_depth = argc > 2 ? std::atoi(argv[2]) : 6;
  bench::PrintHeader(
      "Figure 11: insert (subtree copy), random workload (10 subtrees), "
      "sf=100 fanout=4",
      "depth");
  const InsertStrategy methods[] = {InsertStrategy::kTuple,
                                    InsertStrategy::kTable,
                                    InsertStrategy::kAsr};
  for (int depth = 1; depth <= max_depth; ++depth) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = depth;
    spec.fanout = 4;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    std::vector<int64_t> picked;
    {
      auto scratch = bench::FreshStore(*gen, DeleteStrategy::kCascade,
                                       InsertStrategy::kTable);
      auto ids = scratch->SelectIds("n1", "");
      if (!ids.ok()) return 1;
      picked = bench::PickRandomIds(*ids, 10, 7);
    }
    for (InsertStrategy method : methods) {
      double t = MeasureOnFreshStores(
          *gen, bench::PartnerOf(method), method,
          [&picked](engine::RelationalStore* store) {
            for (int64_t id : picked) {
              Status s = store->CopySubtree("n1", id, store->root_id());
              if (!s.ok()) std::abort();
            }
          },
          {runs});
      bench::PrintPoint(ToString(method), depth, t);
    }
  }

  // insert_batch_size sweep (ROADMAP open item): random workload flavor —
  // 10 separate subtree copies per run, tuple strategy, one JSON row per
  // setting.
  {
    int depth = max_depth < 4 ? max_depth : 4;
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = depth;
    spec.fanout = 4;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    std::vector<int64_t> picked;
    {
      auto scratch = bench::FreshStore(*gen, DeleteStrategy::kCascade,
                                       InsertStrategy::kTuple);
      auto ids = scratch->SelectIds("n1", "");
      if (!ids.ok()) return 1;
      picked = bench::PickRandomIds(*ids, 10, 7);
    }
    for (int batch : {1, 16, 64, 256}) {
      engine::RelationalStore::Options options;
      options.delete_strategy = DeleteStrategy::kCascade;
      options.insert_strategy = InsertStrategy::kTuple;
      options.insert_batch_size = batch;
      bench::MeasuredRuns t = bench::MeasureOnFreshStores(
          *gen, options,
          [&picked](engine::RelationalStore* store) {
            for (int64_t id : picked) {
              Status s = store->CopySubtree("n1", id, store->root_id());
              if (!s.ok()) std::abort();
            }
          },
          {runs});
      std::printf(
          "{\"bench\":\"fig11_insert_random_depth\",\"sweep\":"
          "\"insert_batch_size\",\"batch\":%d,\"depth\":%d,\"sf\":100,"
          "\"seconds\":%.6f,\"run_p50_us\":%.1f,\"run_p99_us\":%.1f,%s\n",
          batch, depth, t.avg_seconds, t.run_ns.Percentile(50) / 1e3,
          t.run_ns.Percentile(99) / 1e3, bench::JsonTail().c_str());
    }
  }
  return 0;
}
