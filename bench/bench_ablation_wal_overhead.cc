// Ablation: durability overhead. The WAL (rdb/wal.h) appends logical redo
// records for every committed unit of work on durable tables; this bench
// quantifies what that costs on the paper's fig. 6 bulk-delete workload,
// per delete strategy, in four modes plus a recovery measurement:
//
//   memory      Options::durability off — the baseline in-memory regime
//   wal-nosync  WAL appends, never fsyncs (OS flushes eventually)
//   wal-batch   WAL appends, group commit (fsync every 32 commit units)
//   wal-fsync   WAL appends, fsync at every commit unit
//   recovered   the op runs on a store REOPENED from disk (snapshot + WAL
//               replay); the row also carries the recovery time itself
//
// One JSON row per (strategy, mode) with wal_appends / wal_bytes /
// wal_fsyncs / recovery_replayed. The acceptance bar is wal-nosync overhead
// <= ~15% over memory on the bulk-delete workload; with durability off the
// fig. 6/10 numbers must be unchanged within run noise (the hooks reduce to
// one pointer test per row mutation).
#include <dirent.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <functional>
#include <string>

#include "harness.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::RelationalStore;

namespace {

void RemoveDirRecursive(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::remove((path + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

/// A scratch data directory per durable store, wiped between runs so every
/// store starts fresh instead of recovering its predecessor.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/xupd_walbench_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    if (p == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    path_ = p;
  }
  ~ScratchDir() { RemoveDirRecursive(path_); }
  void Wipe() {
    RemoveDirRecursive(path_);
    ::mkdir(path_.c_str(), 0755);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct ModeSpec {
  const char* name;
  bool durability = false;
  rdb::SyncMode sync = rdb::SyncMode::kNone;
  bool recovered = false;  ///< reopen from disk before running the op.
};

struct ModeResult {
  double seconds = 0;
  double recovery_seconds = 0;
  rdb::Stats stats;
  uint64_t replayed = 0;
  /// Per-run op wall times (ns) — the JSON row's run_p50_us comes from here
  /// instead of the noise-prone single average.
  Histogram run_ns;
  /// wal.commit_unit samples merged across every counted run's store (the
  /// load's commit units are included — same sync mode, more samples).
  Histogram commit_ns;
};

using Op = std::function<Status(RelationalStore*)>;

std::unique_ptr<RelationalStore> BuildStore(
    const workload::GeneratedDoc& gen, RelationalStore::Options options,
    const ModeSpec& mode, ScratchDir* dir, double* recovery_seconds,
    uint64_t* replayed) {
  options.durability = mode.durability;
  options.sync_mode = mode.sync;
  if (mode.durability) {
    dir->Wipe();
    options.data_dir = dir->path();
  }
  auto store = bench::FreshStore(gen, options);
  if (!mode.recovered) return store;
  // Drop the freshly loaded store and reopen from its files: the op then
  // runs against recovered state (snapshot-less, pure WAL replay).
  store.reset();
  Stopwatch sw;
  auto reopened = RelationalStore::Create(gen.dtd, options);
  *recovery_seconds = sw.ElapsedSeconds();
  if (!reopened.ok() || !reopened.value()->recovered()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    std::abort();
  }
  *replayed = reopened.value()->stats().recovery_replayed;
  return std::move(reopened).value();
}

template <size_t N>
std::array<ModeResult, N> MeasureInterleaved(
    const workload::GeneratedDoc& gen, RelationalStore::Options options,
    const Op& op, int runs, const std::array<ModeSpec, N>& modes) {
  std::array<ModeResult, N> out{};
  ScratchDir dir;
  int counted = 0;
  for (int r = 0; r < runs; ++r) {
    for (size_t m = 0; m < N; ++m) {
      double recovery_seconds = 0;
      uint64_t replayed = 0;
      auto store = BuildStore(gen, options, modes[m], &dir,
                              &recovery_seconds, &replayed);
      rdb::Stats before = store->stats();
      Stopwatch sw;
      Status s = op(store.get());
      double t = sw.ElapsedSeconds();
      if (!s.ok()) {
        std::fprintf(stderr, "op failed (%s): %s\n", modes[m].name,
                     s.ToString().c_str());
        std::abort();
      }
      if (r > 0) {
        out[m].seconds += t;
        out[m].recovery_seconds += recovery_seconds;
        out[m].stats = store->stats().Delta(before);
        out[m].replayed = replayed;
        out[m].run_ns.Record(static_cast<uint64_t>(t * 1e9));
        const Histogram* commit =
            store->db()->metrics().FindHistogram("wal.commit_unit");
        if (commit != nullptr) out[m].commit_ns.Merge(*commit);
      }
    }
    if (r > 0) ++counted;
  }
  for (size_t m = 0; m < N; ++m) {
    if (counted > 0) {
      out[m].seconds /= counted;
      out[m].recovery_seconds /= counted;
    }
  }
  return out;
}

void Report(const char* strategy, const char* mode, const ModeResult& r,
            double overhead_pct) {
  std::printf("%-10s %-10s %10.6f sec  overhead=%+6.2f%%  recovery=%.6f\n",
              strategy, mode, r.seconds, overhead_pct, r.recovery_seconds);
  std::printf(
      "{\"bench\":\"ablation_wal_overhead\",\"strategy\":\"%s\","
      "\"mode\":\"%s\",\"seconds\":%.6f,\"overhead_pct\":%.2f,"
      "\"run_p50_us\":%.1f,\"commit_p50_us\":%.3f,\"commit_p99_us\":%.3f,"
      "\"commit_units\":%llu,"
      "\"recovery_seconds\":%.6f,\"wal_appends\":%llu,\"wal_bytes\":%llu,"
      "\"wal_fsyncs\":%llu,\"recovery_replayed\":%llu,"
      "\"wal_bytes_per_record\":%.1f,%s\n",
      strategy, mode, r.seconds, overhead_pct,
      r.run_ns.Percentile(50) / 1e3, r.commit_ns.Percentile(50) / 1e3,
      r.commit_ns.Percentile(99) / 1e3,
      static_cast<unsigned long long>(r.commit_ns.count()),
      r.recovery_seconds,
      static_cast<unsigned long long>(r.stats.wal_appends),
      static_cast<unsigned long long>(r.stats.wal_bytes),
      static_cast<unsigned long long>(r.stats.wal_fsyncs),
      static_cast<unsigned long long>(r.replayed),
      r.stats.wal_appends > 0
          ? static_cast<double>(r.stats.wal_bytes) /
                static_cast<double>(r.stats.wal_appends)
          : 0.0,
      bench::JsonTail().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  int sf = argc > 2 ? std::atoi(argv[2]) : 100;
  int depth = argc > 3 ? std::atoi(argv[3]) : 6;
  std::printf("# Ablation: WAL durability overhead (fig. 6 bulk delete, "
              "sf=%d depth=%d)\n", sf, depth);

  workload::SyntheticSpec spec;
  spec.scaling_factor = sf;
  spec.depth = depth;
  spec.fanout = 1;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  if (!gen.ok()) return 1;
  Op bulk_delete = [](RelationalStore* s) { return s->DeleteWhere("n1", ""); };

  const std::array<ModeSpec, 5> modes = {{
      {"memory", false, rdb::SyncMode::kNone, false},
      {"wal-nosync", true, rdb::SyncMode::kNone, false},
      {"wal-batch", true, rdb::SyncMode::kBatched, false},
      {"wal-fsync", true, rdb::SyncMode::kCommit, false},
      {"recovered", true, rdb::SyncMode::kNone, true},
  }};

  const DeleteStrategy methods[] = {
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kCascade, DeleteStrategy::kAsr};
  for (DeleteStrategy method : methods) {
    RelationalStore::Options options;
    options.delete_strategy = method;
    options.insert_strategy = bench::PartnerOf(method);
    auto results =
        MeasureInterleaved(*gen, options, bulk_delete, runs, modes);
    double base = results[0].seconds;
    for (size_t m = 0; m < modes.size(); ++m) {
      double overhead =
          base > 0 ? 100.0 * (results[m].seconds - base) / base : 0.0;
      Report(ToString(method), modes[m].name, results[m], overhead);
    }
    // scrub: the online integrity scrub (CHECK INTEGRITY + VerifyStore) over
    // the loaded durable store — what an inter-operation health check costs
    // relative to the bulk-delete op itself.
    {
      ScratchDir sdir;
      RelationalStore::Options so = options;
      so.durability = true;
      so.sync_mode = rdb::SyncMode::kNone;
      so.data_dir = sdir.path();
      auto store = bench::FreshStore(*gen, so);
      ModeResult r{};
      for (int i = 0; i < runs; ++i) {
        Stopwatch sw;
        size_t v = store->db()->VerifyIntegrity().size() +
                   store->VerifyStore().size();
        double t = sw.ElapsedSeconds();
        if (v != 0) {
          std::fprintf(stderr, "scrub found %zu violations\n", v);
          std::abort();
        }
        if (i > 0) r.run_ns.Record(static_cast<uint64_t>(t * 1e9));
      }
      // Histogram-backed median: one outlier run (page cache miss, CI
      // neighbor) no longer drags the reported scrub cost.
      r.seconds = r.run_ns.Percentile(50) / 1e9;
      const Histogram* commit =
          store->db()->metrics().FindHistogram("wal.commit_unit");
      if (commit != nullptr) r.commit_ns.Merge(*commit);
      double overhead =
          base > 0 ? 100.0 * (r.seconds - base) / base : 0.0;
      Report(ToString(method), "scrub", r, overhead);
    }
  }
  return 0;
}
