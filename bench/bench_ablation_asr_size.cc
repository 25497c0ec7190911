// Ablation: ASR growth with fanout. §7.2 reason 2 for the ASR's poor
// showing: "with larger fanouts, the ASR relation quickly becomes very
// large, since it contains a tuple for each full path in the XML tree."
#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "harness.h"

using namespace xupd;

int main() {
  std::printf("# Ablation: ASR size and build cost vs fanout (sf=100, d=5)\n");
  std::printf("%-7s %12s %12s %14s\n", "fanout", "data_rows", "asr_rows",
              "build_sec");
  for (int fanout : {1, 2, 4, 8}) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = 5;
    spec.fanout = fanout;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    engine::RelationalStore::Options options;
    options.delete_strategy = engine::DeleteStrategy::kAsr;
    options.insert_strategy = engine::InsertStrategy::kAsr;
    Stopwatch sw;
    auto store_or = engine::RelationalStore::Create(gen->dtd, options);
    if (!store_or.ok()) return 1;
    auto store = std::move(store_or).value();
    if (!store->Load(*gen->doc).ok()) return 1;
    double build = sw.ElapsedSeconds();
    std::printf("%-7d %12zu %12zu %14.6f\n", fanout, gen->tuple_count,
                store->db()->FindTable("asr")->live_count(), build);
  }
  return 0;
}
