// Figure 10: insert performance, bulk workload (replicate every root
// subtree), fixed sf=100 fanout=4, depth 1..6. Series: tuple, table, asr.
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
      "Figure 10: insert (subtree copy), bulk workload, sf=100 fanout=4",
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
    for (InsertStrategy method : methods) {
      // Bulk workload: ONE insert operation replicating every root subtree
      // (the set-oriented strategies batch their statements across all
      // subtrees, which is what the paper's bulk numbers measure).
      double t = MeasureOnFreshStores(
          *gen, bench::PartnerOf(method), method,
          [](engine::RelationalStore* store) {
            Status s = store->CopySubtreesWhere("n1", "", store->root_id());
            if (!s.ok()) {
              std::fprintf(stderr, "copy failed: %s\n", s.ToString().c_str());
              std::abort();
            }
          },
          {runs});
      bench::PrintPoint(ToString(method), depth, t);
    }
  }

  // insert_batch_size sweep (ROADMAP open item): the tuple strategy is the
  // batching-sensitive path; sweep it at a representative depth and emit one
  // JSON row per setting so the default can be picked from data.
  {
    int depth = max_depth < 4 ? max_depth : 4;
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = depth;
    spec.fanout = 4;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    for (int batch : {1, 16, 64, 256}) {
      engine::RelationalStore::Options options;
      options.delete_strategy = DeleteStrategy::kCascade;
      options.insert_strategy = InsertStrategy::kTuple;
      options.insert_batch_size = batch;
      bench::MeasuredRuns t = bench::MeasureOnFreshStores(
          *gen, options,
          [](engine::RelationalStore* store) {
            Status s = store->CopySubtreesWhere("n1", "", store->root_id());
            if (!s.ok()) std::abort();
          },
          {runs});
      std::printf(
          "{\"bench\":\"fig10_insert_bulk_depth\",\"sweep\":"
          "\"insert_batch_size\",\"batch\":%d,\"depth\":%d,\"sf\":100,"
          "\"seconds\":%.6f,\"run_p50_us\":%.1f,\"run_p99_us\":%.1f,%s\n",
          batch, depth, t.avg_seconds, t.run_ns.Percentile(50) / 1e3,
          t.run_ns.Percentile(99) / 1e3, bench::JsonTail().c_str());
    }
  }
  return 0;
}
