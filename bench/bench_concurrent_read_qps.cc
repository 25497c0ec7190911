// Concurrent-read throughput: epoch-snapshot reader sessions scanning a
// shared table while the single writer churns rows. Reports read QPS at
// 1/2/4/8/16 reader threads — the tentpole claim is that snapshot reads
// scale near-linearly because readers take no locks on the scan path — plus
// the commit-latency contrast between per-commit fsync (kCommit) and the
// time-based group-commit window (kBatched). Each QPS row also carries the
// MVCC telemetry the run produced (peak epoch lag, version-buffer
// rows/bytes, GC/reclaim counters), so regressions in epoch GC show up in
// the same archived JSON as throughput.
//
// Usage: bench_concurrent_read_qps [duration_ms] [threads]
//   duration_ms  per-point measurement window (default 300)
//   threads      run only this reader count (default: 1 2 4 8 16 sweep)
//
// Exits nonzero if any measured point records zero completed queries, so CI
// can use a short run as a liveness smoke test.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "rdb/database.h"
#include "rdb/wal.h"

using namespace xupd;

namespace {

void MustExec(rdb::Database* db, const std::string& sql) {
  Status s = db->ExecuteQuery(sql).status();
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", sql.c_str(), s.ToString().c_str());
    std::abort();
  }
}

/// Loads the read workload: `rows` rows across a skewed value column, the
/// same shape the fig. 6/10 element tables have (id + payload columns).
void LoadTable(rdb::Database* db, int rows) {
  MustExec(db, "CREATE TABLE r (id INTEGER, grp INTEGER, v INTEGER)");
  for (int i = 0; i < rows; ++i) {
    MustExec(db, "INSERT INTO r VALUES (" + std::to_string(i) + ", " +
                     std::to_string(i % 16) + ", " + std::to_string(i % 97) +
                     ")");
  }
}

struct Point {
  int threads = 0;
  uint64_t queries = 0;
  double seconds = 0;
  /// Peak epoch.lag sampled at the writer's commit boundaries: how far the
  /// slowest pinned reader trailed the published epoch during the window.
  int64_t epoch_lag_max = 0;
  double qps() const { return seconds > 0 ? queries / seconds : 0; }
};

/// One measurement: `threads` reader sessions issue scan-aggregate queries
/// for `duration_ms` while the writer churns insert/delete pairs.
Point MeasureReaders(rdb::Database* db, int threads, int duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([db, t, &stop, &total] {
      auto rs = db->OpenReaderSession();
      if (!rs.ok()) {
        std::fprintf(stderr, "reader open: %s\n",
                     rs.status().ToString().c_str());
        return;
      }
      const std::string q1 = "SELECT COUNT(*) FROM r WHERE v < 50";
      const std::string q2 =
          "SELECT SUM(v) FROM r WHERE grp = " + std::to_string(t % 16);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto a = (*rs)->ExecuteQuery(q1);
        auto b = (*rs)->ExecuteQuery(q2);
        if (!a.ok() || !b.ok()) {
          std::fprintf(stderr, "reader query failed: %s\n",
                       (!a.ok() ? a.status() : b.status()).ToString().c_str());
          break;
        }
        n += 2;
      }
      total.fetch_add(n, std::memory_order_relaxed);
    });
  }

  // Writer churn for the whole window, the fig. 6/10 replay mix in
  // miniature: delete + re-insert of one subtree row plus an in-place
  // update of another (the update parks a pre-image in the version buffer
  // whenever a reader pin can still reach the old value). Each commit
  // boundary samples the epoch-lag gauge the boundary just refreshed.
  std::atomic<int64_t>* lag = db->metrics().Gauge("epoch.lag");
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(duration_ms);
  int64_t lag_max = 0;
  int cursor = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    MustExec(db, "BEGIN");
    MustExec(db, "DELETE FROM r WHERE id = " + std::to_string(cursor % 4096));
    MustExec(db, "INSERT INTO r VALUES (" + std::to_string(cursor % 4096) +
                     ", " + std::to_string(cursor % 16) + ", " +
                     std::to_string(cursor % 97) + ")");
    MustExec(db, "UPDATE r SET v = " + std::to_string((cursor + 1) % 97) +
                     " WHERE id = " + std::to_string((cursor + 2048) % 4096));
    MustExec(db, "COMMIT");
    lag_max = std::max(lag_max, lag->load(std::memory_order_relaxed));
    ++cursor;
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  Point p;
  p.threads = threads;
  p.queries = total.load();
  p.epoch_lag_max = lag_max;
  p.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return p;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xupd_qps_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    path_ = p == nullptr ? "/tmp/xupd_qps_fallback" : p;
  }
  ~TempDir() {
    DIR* d = ::opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Commit latency under a durable WAL: per-commit fsync vs the background
/// group-commit window. Reports the wal.commit_unit percentiles.
void MeasureCommitLatency(rdb::SyncMode mode, const char* mode_name,
                          int commits) {
  TempDir dir;
  rdb::Database db;
  rdb::DurabilityOptions opts;
  opts.sync_mode = mode;
  Status s = db.Open(dir.path(), opts);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    std::abort();
  }
  MustExec(&db, "CREATE TABLE w (id INTEGER, v VARCHAR)");
  for (int i = 0; i < commits; ++i) {
    MustExec(&db, "INSERT INTO w VALUES (" + std::to_string(i) +
                      ", 'payload-" + std::to_string(i) + "')");
  }
  const Histogram* commit = db.metrics().FindHistogram("wal.commit_unit");
  const Histogram* fsync = db.metrics().FindHistogram("wal.fsync");
  bench::LatencySummary cs =
      commit != nullptr ? bench::Summarize(*commit) : bench::LatencySummary{};
  uint64_t fsyncs = fsync != nullptr ? fsync->count() : 0;
  std::printf("commit[%-7s] p50=%8.2fus p99=%8.2fus fsyncs=%llu\n", mode_name,
              cs.p50_us, cs.p99_us, static_cast<unsigned long long>(fsyncs));
  std::printf(
      "{\"bench\":\"concurrent_read_qps\",\"series\":\"commit_latency\","
      "\"sync_mode\":\"%s\",\"commits\":%d,\"commit_p50_us\":%.3f,"
      "\"commit_p99_us\":%.3f,\"fsyncs\":%llu,%s\n",
      mode_name, commits, cs.p50_us, cs.p99_us,
      static_cast<unsigned long long>(fsyncs), bench::JsonTail().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const int duration_ms = argc > 1 ? std::atoi(argv[1]) : 300;
  const int only_threads = argc > 2 ? std::atoi(argv[2]) : 0;

  rdb::Database db;
  LoadTable(&db, 4096);

  std::printf("# concurrent read QPS (%d ms per point, writer churning)\n",
              duration_ms);
  std::printf("%-8s %12s %12s\n", "threads", "queries", "qps");

  bool zero_point = false;
  double qps1 = 0;
  std::vector<int> sweep =
      only_threads > 0 ? std::vector<int>{only_threads}
                       : std::vector<int>{1, 2, 4, 8, 16};
  for (int threads : sweep) {
    Point p = MeasureReaders(&db, threads, duration_ms);
    if (p.queries == 0) zero_point = true;
    if (threads == 1) qps1 = p.qps();
    // MVCC telemetry at the point's end: the gauges hold the last commit
    // boundary's view, the counters accumulate across the whole process.
    const int64_t version_rows =
        db.metrics().Gauge("mvcc.version_rows")->load();
    const int64_t version_bytes =
        db.metrics().Gauge("mvcc.version_bytes")->load();
    const uint64_t gc_rows = db.metrics().Counter("mvcc.version_gc_rows")->load();
    const uint64_t reclaims =
        db.metrics().Counter("mvcc.slab_reclaims")->load();
    // No 1-thread point to divide by (a single-point run): null, not 0.
    char speedup[32] = "null";
    if (qps1 > 0) {
      std::snprintf(speedup, sizeof(speedup), "%.2f", p.qps() / qps1);
    }
    std::printf("%-8d %12llu %12.0f   lag_max=%lld\n", threads,
                static_cast<unsigned long long>(p.queries), p.qps(),
                static_cast<long long>(p.epoch_lag_max));
    std::printf(
        "{\"bench\":\"concurrent_read_qps\",\"series\":\"read_qps\","
        "\"writer\":\"churn\",\"duration_ms\":%d,\"queries\":%llu,"
        "\"qps\":%.0f,\"speedup_vs_1\":%s,\"epoch_lag_max\":%lld,"
        "\"version_rows\":%lld,\"version_bytes\":%lld,"
        "\"version_gc_rows\":%llu,\"slab_reclaims\":%llu,%s\n",
        duration_ms, static_cast<unsigned long long>(p.queries), p.qps(),
        speedup,
        static_cast<long long>(p.epoch_lag_max),
        static_cast<long long>(version_rows),
        static_cast<long long>(version_bytes),
        static_cast<unsigned long long>(gc_rows),
        static_cast<unsigned long long>(reclaims),
        bench::JsonTail(threads).c_str());
  }

  MeasureCommitLatency(rdb::SyncMode::kCommit, "commit", 2000);
  MeasureCommitLatency(rdb::SyncMode::kBatched, "batched", 2000);

  if (zero_point) {
    std::fprintf(stderr, "FAIL: a measured point completed zero queries\n");
    return 1;
  }
  return 0;
}
