// Figure 8: delete performance, bulk workload, fixed sf=100 fanout=4,
// depth 1..6 (the document grows exponentially in depth; the paper plots a
// log y axis). Pass a max depth as argv[2] to trim runtime.
#include <cstdio>
#include <cstdlib>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  int max_depth = argc > 2 ? std::atoi(argv[2]) : 6;
  bench::PrintHeader(
      "Figure 8: delete, bulk workload, sf=100 fanout=4 (time vs depth)",
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
    for (DeleteStrategy method : methods) {
      double t = MeasureOnFreshStores(
          *gen, method, bench::PartnerOf(method),
          [](engine::RelationalStore* store) {
            Status s = store->DeleteWhere("n1", "");
            if (!s.ok()) std::abort();
          },
          {runs});
      bench::PrintPoint(ToString(method), depth, t);
    }
  }
  return 0;
}
