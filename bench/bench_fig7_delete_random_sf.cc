// Figure 7: delete performance, random workload (10 random subtrees, one
// SQL operation per subtree), fixed fanout=1 depth=8, sf 100..800.
// Expected shape: per-tuple is flat in sf; per-stm grows with document size
// (orphan sweeps scan whole child relations).
#include <cstdio>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;
using engine::InsertStrategy;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  bench::PrintHeader(
      "Figure 7: delete, random workload (10 subtrees), fanout=1 depth=8",
      "sf");
  const DeleteStrategy methods[] = {
      DeleteStrategy::kAsr, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kCascade};
  for (int sf : {100, 200, 400, 800}) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = sf;
    spec.depth = 8;
    spec.fanout = 1;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    // Loads are deterministic, so target ids are stable across fresh stores;
    // pick them once, untimed.
    std::vector<int64_t> picked;
    {
      auto scratch = bench::FreshStore(*gen, DeleteStrategy::kCascade,
                                       InsertStrategy::kTable);
      auto ids = scratch->SelectIds("n1", "");
      if (!ids.ok()) return 1;
      picked = bench::PickRandomIds(*ids, 10, /*seed=*/7);
    }
    for (DeleteStrategy method : methods) {
      double t = MeasureOnFreshStores(
          *gen, method, bench::PartnerOf(method),
          [&picked](engine::RelationalStore* store) {
            Status s = store->DeleteByIds("n1", picked);
            if (!s.ok()) {
              std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
              std::abort();
            }
          },
          {runs});
      bench::PrintPoint(ToString(method), sf, t);
    }
  }
  return 0;
}
