// §7.2: effect of Access Support Relations on path-expression evaluation.
// Compares the conventional plan (a chain of parentId joins along the path)
// against the ASR plan (filtered leaf x ASR x start table — two joins) for
// path lengths 3..5 and fanouts 1 and 4.
//
// Expected shape (§7.2): with fanout 4 the ASR is large (one row per full
// path) and loses on short paths; with small fanout or long paths it wins.
//
// Besides the text table of averages (the paper's protocol), each
// (fanout, path_len, plan) point emits one JSON row with the min / median /
// max seconds of the counted runs and the rows each query scanned (a Stats
// delta, identical on every run).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

using namespace xupd;

namespace {

/// Wall seconds and rows scanned of the counted runs of one plan.
struct PlanRuns {
  std::vector<double> seconds;
  uint64_t rows_scanned = 0;  ///< summed over the counted runs.

  double avg() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total / static_cast<double>(seconds.size());
  }
};

/// Runs one path query, timing it and charging its rows scanned to `runs`
/// when the run is counted.
template <typename Query>
bool TimeQuery(engine::RelationalStore* store, Query query, bool counted,
               PlanRuns* runs, std::vector<int64_t>* ids) {
  rdb::Stats before = store->stats();
  Stopwatch sw;
  auto result = query();
  double seconds = sw.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return false;
  }
  if (counted) {
    runs->seconds.push_back(seconds);
    runs->rows_scanned += store->stats().Delta(before).rows_scanned;
  }
  *ids = std::move(result).value();
  return true;
}

void PrintJsonRow(int fanout, int path_len, const char* plan,
                  size_t asr_rows, PlanRuns runs) {
  std::vector<double>& s = runs.seconds;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  const double median = n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
  std::printf(
      "{\"bench\":\"sec72_asr_paths\",\"fanout\":%d,\"path_len\":%d,"
      "\"plan\":\"%s\",\"asr_rows\":%zu,\"runs\":%zu,\"min_sec\":%.6f,"
      "\"median_sec\":%.6f,\"max_sec\":%.6f,\"rows_scanned\":%llu,%s\n",
      fanout, path_len, plan, asr_rows, n, s.front(), median, s.back(),
      static_cast<unsigned long long>(runs.rows_scanned / n),
      bench::JsonTail().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // One discarded warm-up run, then at least one counted run.
  int runs = std::max(2, argc > 1 ? std::atoi(argv[1]) : 5);
  std::printf("# Section 7.2: path-expression evaluation, joins vs ASR\n");
  std::printf("%-7s %-9s %10s %12s %12s %10s\n", "fanout", "path_len",
              "asr_rows", "joins_sec", "asr_sec", "asr_wins");
  for (int fanout : {1, 4}) {
    workload::SyntheticSpec spec;
    spec.scaling_factor = 100;
    spec.depth = 6;
    spec.fanout = fanout;
    auto gen = workload::GenerateFixedSynthetic(spec, 42);
    if (!gen.ok()) return 1;
    engine::RelationalStore::Options options;
    options.delete_strategy = engine::DeleteStrategy::kAsr;
    options.insert_strategy = engine::InsertStrategy::kAsr;
    auto store_or = engine::RelationalStore::Create(gen->dtd, options);
    if (!store_or.ok()) return 1;
    auto store = std::move(store_or).value();
    if (!store->Load(*gen->doc).ok()) return 1;
    size_t asr_rows = store->db()->FindTable("asr")->live_count();

    for (int path_len : {3, 4, 5}) {
      // Path n1 -> n<path_len>; filter on the leaf's integer value column.
      std::string leaf = "n" + std::to_string(path_len);
      std::string joins_pred = "l0.v" + std::to_string(path_len) + " < '200000'";
      std::string asr_pred = "l.v" + std::to_string(path_len) + " < '200000'";
      PlanRuns joins, asr;
      for (int r = 0; r < runs; ++r) {
        auto by_joins = [&] {
          return store->PathQueryJoins("n1", leaf, joins_pred);
        };
        auto by_asr = [&] { return store->PathQueryAsr("n1", leaf, asr_pred); };
        std::vector<int64_t> a, b;
        if (!TimeQuery(store.get(), by_joins, r > 0, &joins, &a) ||
            !TimeQuery(store.get(), by_asr, r > 0, &asr, &b)) {
          return 1;
        }
        if (a != b) {
          std::fprintf(stderr, "plan results differ!\n");
          return 1;
        }
      }
      std::printf("%-7d %-9d %10zu %12.6f %12.6f %10s\n", fanout, path_len,
                  asr_rows, joins.avg(), asr.avg(),
                  asr.avg() < joins.avg() ? "yes" : "no");
      PrintJsonRow(fanout, path_len, "joins", asr_rows, joins);
      PrintJsonRow(fanout, path_len, "asr", asr_rows, asr);
    }
  }
  return 0;
}
