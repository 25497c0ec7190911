// Ablation: the per-statement trigger's orphan sweep scans the entire child
// relation, so its cost grows with document size even when the delete
// touches a constant number of tuples — the mechanism behind Figure 7's
// rising per-stm curve (vs the flat per-tuple curve).
//
// The ASR rows (kAsr delete and insert) copy and delete one n1 subtree. The
// marked paths are found through the `marked` index and the
// left-completeness repair probes only the targets' parent, so their
// `rows_scanned` stays 0 at every sf. Each row is also printed as JSON.
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "harness.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  std::printf("# Ablation: rows scanned per single-subtree update vs sf\n");
  std::printf("%-12s %-8s %8s %14s %14s\n", "method", "op", "sf",
              "rows_scanned", "index_probes");
  for (int sf : {100, 200, 400, 800}) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = sf;
    spec.depth = 8;
    spec.fanout = 1;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    // Runs `op` on the first n1 of a fresh store per run and prints the
    // last run's counts.
    auto row = [&](DeleteStrategy del, InsertStrategy ins, const char* method,
                   const char* op_name,
                   const std::function<Status(RelationalStore*, int64_t)>& op) {
      uint64_t scanned = 0, probes = 0;
      for (int r = 0; r < runs; ++r) {
        auto store = bench::FreshStore(*gen, del, ins);
        auto ids = store->SelectIds("n1", "");
        if (!ids.ok()) std::abort();
        rdb::Stats before = store->stats();
        Status s = op(store.get(), ids->front());
        if (!s.ok()) std::abort();
        rdb::Stats delta = store->stats().Delta(before);
        scanned = delta.rows_scanned;
        probes = delta.index_probes;
      }
      std::printf("%-12s %-8s %8d %14llu %14llu\n", method, op_name, sf,
                  static_cast<unsigned long long>(scanned),
                  static_cast<unsigned long long>(probes));
      std::printf(
          "{\"bench\":\"ablation_orphan_scan\",\"method\":\"%s\","
          "\"op\":\"%s\",\"sf\":%d,\"rows_scanned\":%llu,"
          "\"index_probes\":%llu}\n",
          method, op_name, sf, static_cast<unsigned long long>(scanned),
          static_cast<unsigned long long>(probes));
    };
    auto del = [](RelationalStore* s, int64_t id) {
      return s->DeleteByIds("n1", {id});
    };
    auto copy = [](RelationalStore* s, int64_t id) {
      return s->CopySubtree("n1", id, s->root_id());
    };
    for (DeleteStrategy method : {DeleteStrategy::kPerTupleTrigger,
                                  DeleteStrategy::kPerStatementTrigger}) {
      row(method, InsertStrategy::kTable, ToString(method), "delete", del);
    }
    row(DeleteStrategy::kAsr, InsertStrategy::kAsr, "asr", "copy", copy);
    row(DeleteStrategy::kAsr, InsertStrategy::kAsr, "asr", "delete", del);
  }
  return 0;
}
