// Figure 6: delete performance, bulk workload, fixed fanout=1 depth=8,
// scaling factor 100..800. A bulk delete removes every root subtree (one
// operation); series: asr, per-stm trigger, per-tuple trigger (cascade is
// reported too — the paper omits it as ~per-stm). Each JSON row also
// carries the trigger firings (Stats delta) and the trigger-cascade time
// (db.trigger_ns delta) of the delete, medians over the counted runs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  bench::PrintHeader(
      "Figure 6: delete, bulk workload, fanout=1 depth=8 (time vs sf)", "sf");
  const DeleteStrategy methods[] = {
      DeleteStrategy::kAsr, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kCascade};
  for (int sf : {100, 200, 400, 800}) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = sf;
    spec.depth = 8;
    spec.fanout = 1;
    auto gen = workload::GenerateFixedSynthetic(spec, /*seed=*/42);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    for (DeleteStrategy method : methods) {
      // One entry per run; the first (warm-up) run is dropped below, as
      // MeasureOnFreshStores drops its time.
      std::vector<uint64_t> firings;
      std::vector<uint64_t> trigger_ns;
      bench::MeasuredRuns t = MeasureOnFreshStores(
          *gen, method, bench::PartnerOf(method),
          [&](engine::RelationalStore* store) {
            rdb::Database* db = store->db();
            const std::atomic<uint64_t>* cascade_ns =
                db->metrics().Counter("db.trigger_ns");
            const rdb::Stats before = db->stats();
            const uint64_t ns0 = cascade_ns->load();
            Status s = store->DeleteWhere("n1", "");
            if (!s.ok()) {
              std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
              std::abort();
            }
            trigger_ns.push_back(cascade_ns->load() - ns0);
            firings.push_back(db->stats().Delta(before).trigger_firings);
          },
          {runs});
      auto counted_median = [](std::vector<uint64_t> v) -> uint64_t {
        if (v.size() < 2) return 0;
        v.erase(v.begin());
        std::sort(v.begin(), v.end());
        return v[(v.size() - 1) / 2];
      };
      bench::PrintPoint(ToString(method), sf, t);
      std::printf(
          "{\"bench\":\"fig6_delete_bulk_sf\",\"method\":\"%s\","
          "\"sf\":%d,\"seconds\":%.6f,\"run_p50_us\":%.1f,"
          "\"run_p99_us\":%.1f,\"trigger_firings\":%llu,"
          "\"trigger_ns\":%llu,%s\n",
          ToString(method), sf, t.avg_seconds, t.run_ns.Percentile(50) / 1e3,
          t.run_ns.Percentile(99) / 1e3,
          static_cast<unsigned long long>(counted_median(firings)),
          static_cast<unsigned long long>(counted_median(trigger_ns)),
          bench::JsonTail().c_str());
    }
  }
  return 0;
}
