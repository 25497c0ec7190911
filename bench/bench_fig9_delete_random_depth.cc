// Figure 9: delete performance, random workload (10 random subtrees),
// fixed sf=100 fanout=4, depth 1..6.
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
      "Figure 9: delete, random workload (10 subtrees), sf=100 fanout=4",
      "depth");
  const DeleteStrategy methods[] = {
      DeleteStrategy::kAsr, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kCascade};
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
    for (DeleteStrategy method : methods) {
      double t = MeasureOnFreshStores(
          *gen, method, bench::PartnerOf(method),
          [&picked](engine::RelationalStore* store) {
            Status s = store->DeleteByIds("n1", picked);
            if (!s.ok()) std::abort();
          },
          {runs});
      bench::PrintPoint(ToString(method), depth, t);
    }
  }
  return 0;
}
