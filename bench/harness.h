// Shared benchmark harness following the paper's protocol (§7): each point
// is the average of the measured runs (5 by default) after a discarded
// first run; every run operates on a freshly loaded store (loading is not
// timed).
#ifndef XUPD_BENCH_HARNESS_H_
#define XUPD_BENCH_HARNESS_H_

#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/store.h"
#include "workload/synthetic.h"

namespace xupd::bench {

struct HarnessOptions {
  int runs = 5;  ///< measured runs, after one discarded warm-up run.
};

/// Percentile summary of an engine latency histogram (samples are
/// nanoseconds; reported in microseconds for bench JSON rows).
struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

inline LatencySummary Summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50_us = h.Percentile(50) / 1000.0;
  s.p95_us = h.Percentile(95) / 1000.0;
  s.p99_us = h.Percentile(99) / 1000.0;
  s.max_us = static_cast<double>(h.max()) / 1000.0;
  return s;
}

/// Per-point measurement: the paper-protocol average plus percentiles of
/// the counted runs' wall times (a Histogram over per-run ns), so JSON rows
/// can carry median/tail columns instead of a single noise-prone average.
/// Converts to double as the average — the paper-figure series stay as
/// before; new columns read the percentiles explicitly.
struct MeasuredRuns {
  double avg_seconds = 0;
  Histogram run_ns;  ///< one sample per counted run.
  operator double() const { return avg_seconds; }
  double median_seconds() const { return run_ns.Percentile(50) / 1e9; }
  double p99_seconds() const { return run_ns.Percentile(99) / 1e9; }
};

/// Peak resident set size of this process so far, in KiB (ru_maxrss is KiB
/// on Linux). Emitted into bench JSON rows so memory regressions of the
/// storage layer are as visible as time regressions.
inline long PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

/// Common trailing fields for bench JSON rows: the number of concurrently
/// executing worker threads the row measured (1 = the paper's single-
/// threaded protocol; concurrent-reader benches report their fan-out),
/// the Value footprint, and peak RSS. Returns the closing "}" too.
inline std::string JsonTail(int threads = 1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"threads\":%d,\"sizeof_value\":%zu,\"peak_rss_kb\":%ld}",
                threads, sizeof(rdb::Value), PeakRssKb());
  return buf;
}

/// The strategy a row pairs with the one it measures. A store keeps an ASR
/// only when both strategies are kAsr, so an ASR row pairs its strategy
/// with the other ASR one; a delete row otherwise copies with kTable and a
/// copy row deletes with kCascade. The measured op never runs the partner.
inline engine::InsertStrategy PartnerOf(engine::DeleteStrategy del) {
  return del == engine::DeleteStrategy::kAsr ? engine::InsertStrategy::kAsr
                                             : engine::InsertStrategy::kTable;
}
inline engine::DeleteStrategy PartnerOf(engine::InsertStrategy ins) {
  return ins == engine::InsertStrategy::kAsr ? engine::DeleteStrategy::kAsr
                                             : engine::DeleteStrategy::kCascade;
}

/// Builds a fresh store with explicit options over `gen` and loads it.
inline std::unique_ptr<engine::RelationalStore> FreshStore(
    const workload::GeneratedDoc& gen,
    const engine::RelationalStore::Options& options) {
  auto store = engine::RelationalStore::Create(gen.dtd, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 store.status().ToString().c_str());
    std::abort();
  }
  Status s = store.value()->Load(*gen.doc);
  if (!s.ok()) {
    std::fprintf(stderr, "store load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  return std::move(store).value();
}

/// Builds a fresh store of the given strategies over `gen` and loads it.
inline std::unique_ptr<engine::RelationalStore> FreshStore(
    const workload::GeneratedDoc& gen, engine::DeleteStrategy del,
    engine::InsertStrategy ins) {
  engine::RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  return FreshStore(gen, options);
}

/// Measures `op` on fresh stores built with explicit options: runs+1
/// executions, first discarded, returns the average seconds of the `runs`
/// measured ones plus a per-run latency histogram (see MeasuredRuns).
inline MeasuredRuns MeasureOnFreshStores(
    const workload::GeneratedDoc& gen,
    const engine::RelationalStore::Options& store_options,
    const std::function<void(engine::RelationalStore*)>& op,
    const HarnessOptions& options = {}) {
  MeasuredRuns out;
  double total = 0;
  int counted = 0;
  for (int r = 0; r <= options.runs; ++r) {
    auto store = FreshStore(gen, store_options);
    Stopwatch sw;
    op(store.get());
    double t = sw.ElapsedSeconds();
    if (r > 0) {
      total += t;
      ++counted;
      out.run_ns.Record(static_cast<uint64_t>(t * 1e9));
    }
  }
  out.avg_seconds = counted > 0 ? total / counted : 0.0;
  return out;
}

/// Measures `op` on fresh stores: runs+1 executions, first discarded,
/// returns the average seconds plus a per-run latency histogram.
inline MeasuredRuns MeasureOnFreshStores(
    const workload::GeneratedDoc& gen, engine::DeleteStrategy del,
    engine::InsertStrategy ins,
    const std::function<void(engine::RelationalStore*)>& op,
    const HarnessOptions& options = {}) {
  engine::RelationalStore::Options store_options;
  store_options.delete_strategy = del;
  store_options.insert_strategy = ins;
  return MeasureOnFreshStores(gen, store_options, op, options);
}

/// Prints one series point in a gnuplot-friendly layout.
inline void PrintHeader(const std::string& title, const std::string& x_name) {
  std::printf("# %s\n", title.c_str());
  std::printf("%-12s %8s %12s\n", "method", x_name.c_str(), "time_sec");
}

inline void PrintPoint(const std::string& method, long x, double seconds) {
  std::printf("%-12s %8ld %12.6f\n", method.c_str(), x, seconds);
}

/// Selects `n` deterministic "random" subtree ids from the given list.
inline std::vector<int64_t> PickRandomIds(const std::vector<int64_t>& ids,
                                          size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> pool = ids;
  std::vector<int64_t> out;
  while (out.size() < n && !pool.empty()) {
    size_t i = rng.Uniform(pool.size());
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(i));
  }
  return out;
}

}  // namespace xupd::bench

#endif  // XUPD_BENCH_HARNESS_H_
