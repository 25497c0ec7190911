// §7.3 (randomized synthetic check): the delete-method ranking carries over
// to documents with randomized structure — per-tuple wins the random
// workload and sits slightly below per-stm on the bulk workload.
#include <cstdio>
#include <cstdlib>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;
using engine::InsertStrategy;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  workload::SyntheticSpec spec;
  spec.scaling_factor = 200;
  spec.depth = 5;   // maximum depth; actual ~ U[2,5]
  spec.fanout = 4;  // maximum fanout; actual ~ U[1,4]
  auto gen = workload::GenerateRandomizedSynthetic(spec, 42);
  if (!gen.ok()) return 1;
  std::printf("# Randomized synthetic documents (%zu tuples), delete methods\n",
              gen->tuple_count);
  std::printf("%-10s %-12s %12s\n", "workload", "method", "time_sec");
  const DeleteStrategy methods[] = {
      DeleteStrategy::kAsr, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kCascade};
  for (DeleteStrategy method : methods) {
    double t = MeasureOnFreshStores(
        *gen, method, bench::PartnerOf(method),
        [](engine::RelationalStore* store) {
          Status s = store->DeleteWhere("n1", "");
          if (!s.ok()) std::abort();
        },
        {runs});
    std::printf("%-10s %-12s %12.6f\n", "bulk", ToString(method), t);
  }
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
    std::printf("%-10s %-12s %12.6f\n", "random", ToString(method), t);
  }
  return 0;
}
