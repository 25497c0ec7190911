// Repository benchmark for the XML-update engine: four workloads, every
// end-to-end metric printed by name with its unit, and per-layer
// attribution read from outside the engine with --trace.
//
// Usage:
//   bench_suite --workload <name|all> [--seed N] [--seconds S]
//               [--trace] [--smoke] [--out-dir DIR] [--data-dir DIR]
//
//   --workload  bulk-ingest-prune | dblp-asr-churn | xquery-durable |
//               snapshot-reads | all (each workload in its own process)
//   --seed      input seed (default 1); the same seed gives the same inputs
//   --seconds   measured time per run (default 10)
//   --trace     run an untraced and a traced phase of seconds/2 each and
//               print the per-layer metrics instead of the end-to-end ones;
//               also writes <out-dir>/<workload>.trace.json (Chrome format)
//   --smoke     about 1/50 of every size and of the run time
//   --out-dir   where trace files go (default benchsuite/out)
//   --data-dir  scratch space for durable stores (default .bench_build/data)
//
// Output: one "name value unit" line per metric, comment lines starting
// with '#', and as the last line one JSON object
//   {"correct":bool,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// The exit code is nonzero when any self-check failed.
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "suite/common.h"
#include "suite/layers.h"
#include "suite/workloads.h"

extern char** environ;

using namespace xupd;
using namespace xupd::suite;

namespace {

bool ParseArgs(int argc, char** argv, RunConfig* cfg, bool* seconds_given) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* v = value("--workload");
      if (v == nullptr) return false;
      cfg->workload = v;
    } else if (arg == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr) return false;
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = value("--seconds");
      if (v == nullptr) return false;
      cfg->seconds = std::strtod(v, nullptr);
      *seconds_given = true;
    } else if (arg == "--trace") {
      cfg->trace = true;
    } else if (arg == "--smoke") {
      cfg->smoke = true;
    } else if (arg == "--out-dir") {
      const char* v = value("--out-dir");
      if (v == nullptr) return false;
      cfg->out_dir = v;
    } else if (arg == "--data-dir") {
      const char* v = value("--data-dir");
      if (v == nullptr) return false;
      cfg->data_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (cfg->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  if (!(cfg->seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return true;
}

/// `--workload all`: each workload runs in its own process (this binary
/// again), one after another, so peak RSS and allocator state stay per
/// workload.
int RunAll(const RunConfig& cfg) {
  int worst = 0;
  for (const WorkloadDef& w : Workloads()) {
    std::vector<std::string> args = {
        "bench_suite", "--workload", w.name, "--seed", std::to_string(cfg.seed),
        "--seconds", FormatNumber(cfg.seconds), "--out-dir", cfg.out_dir,
        "--data-dir", cfg.data_dir};
    if (cfg.trace) args.push_back("--trace");
    if (cfg.smoke) args.push_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "cannot start workload %s\n", w.name);
      worst = 1;
      continue;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) {
      std::fprintf(stderr, "workload %s exited with %d\n", w.name, code);
      worst = 1;
    }
  }
  return worst;
}

/// Timings, a closed loop's update rate and setup_s are reported at
/// nominal host speed (see HostSpeed and Outcome::open_loop).
Report EndToEnd(const Outcome& o) {
  const double scale = o.host.Scale();
  Report r;
  r.Set("delete_p50_us", scale * o.deletes.Percentile(50) / 1e3, "us");
  r.Set("insert_p50_us", scale * o.inserts.Percentile(50) / 1e3, "us");
  r.Set("query_p50_us", scale * o.queries.Percentile(50) / 1e3, "us");
  r.Set("update_ops_per_s", o.UpdateRate(), "1/s");
  r.Set("setup_s", o.setup_host.Scale() * o.SetupSeconds(), "s");
  r.Set("slots_per_live_row", o.slots_per_live_row, "slots/row");
  r.Set("peak_rss_mb", o.peak_rss_mb, "MiB");
  return r;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Report PerLayer(const Outcome& traced, const Tracer& tr,
                const Outcome& untraced) {
  const ClassTotals up = tr.UpdateTotals();
  const ClassTotals& del = tr.totals(OpClass::kDelete);
  const ClassTotals& q = tr.totals(OpClass::kQuery);
  const double ops = static_cast<double>(up.calls);
  auto per = [&](Inst i) { return Ratio(static_cast<double>(up.delta[i]), ops); };
  auto d = [&](Inst i) { return static_cast<double>(up.delta[i]); };
  const double wall = static_cast<double>(up.wall_ns);
  const double written = d(kRowsInserted) + d(kRowsDeleted) + d(kRowsUpdated);

  Report r;
  // p99 latencies of the traced half: too noisy on a shared host for a
  // run-to-run bound (see README), so they are reported here.
  r.Set("delete_p99_us", traced.deletes.Percentile(99) / 1e3, "us");
  r.Set("insert_p99_us", traced.inserts.Percentile(99) / 1e3, "us");
  r.Set("query_p99_us", traced.queries.Percentile(99) / 1e3, "us");
  r.Set("shred.load_ms", traced.load_ns.Percentile(50) / 1e6, "ms");
  r.Set("shred.create_ms", traced.create_ns.Percentile(50) / 1e6, "ms");
  r.Set("engine.self_ns_per_op",
        Ratio(wall > d(kExecNs) ? wall - d(kExecNs) : 0, ops), "ns");
  r.Set("engine.sql_stmts_per_op", per(kStatements), "count");
  r.Set("asr.maint_ns_per_op", per(kAsrNs), "ns");
  r.Set("asr.maint_share_of_update_pct", 100 * Ratio(d(kAsrNs), wall), "%");
  r.Set("asr.query_rows_scanned_per_query",
        Ratio(static_cast<double>(q.delta[kRowsScanned]),
              static_cast<double>(q.calls)),
        "count");
  r.Set("rdb.parses_per_op", per(kParses), "count");
  r.Set("rdb.prepared_hit_ratio",
        Ratio(d(kPreparedHits), d(kPreparedHits) + d(kPreparedMisses)),
        "ratio");
  r.Set("rdb.plans_built_per_op", per(kPlansBuilt), "count");
  r.Set("rdb.plan_hit_ratio",
        Ratio(d(kPlanHits), d(kPlanHits) + d(kPlansBuilt)), "ratio");
  r.Set("rdb.exec_ns_per_op", per(kExecNs), "ns");
  r.Set("rdb.stmt_select_ns_per_op", per(kStmtSelectNs), "ns");
  r.Set("rdb.stmt_insert_ns_per_op", per(kStmtInsertNs), "ns");
  r.Set("rdb.stmt_delete_ns_per_op", per(kStmtDeleteNs), "ns");
  r.Set("rdb.stmt_update_ns_per_op", per(kStmtUpdateNs), "ns");
  r.Set("rdb.rows_scanned_per_op", per(kRowsScanned), "count");
  r.Set("rdb.index_probes_per_op", per(kIndexProbes), "count");
  r.Set("rdb.rows_written_per_op", Ratio(written, ops), "count");
  r.Set("rdb.scanned_per_written", Ratio(d(kRowsScanned), written), "ratio");
  r.Set("rdb.trigger_ns_per_op", per(kTriggerNs), "ns");
  r.Set("rdb.trigger_share_of_delete_pct",
        100 * Ratio(static_cast<double>(del.delta[kTriggerNs]),
                    static_cast<double>(del.wall_ns)),
        "%");
  r.Set("rdb.trigger_firings_per_op", per(kTriggerFirings), "count");
  r.Set("rdb.trigger_stmts_per_op", per(kTriggerStatements), "count");
  r.Set("rdb.undo_records_per_op", per(kUndoRecords), "count");
  r.Set("rdb.txn_p50_us", tr.hist("db.txn").Percentile(50) / 1e3, "us");
  r.Set("rdb.wal.commit_unit_ns_per_op", per(kWalCommitNs), "ns");
  r.Set("rdb.wal.records_per_op", per(kWalAppends), "count");
  r.Set("rdb.wal.bytes_per_record", Ratio(d(kWalBytes), d(kWalAppends)), "B");
  r.Set("rdb.checkpoint_ms_p50", tr.hist("db.checkpoint").Percentile(50) / 1e6,
        "ms");
  r.Set("rdb.snapshot.write_ms_p50",
        tr.hist("snapshot.write").Percentile(50) / 1e6, "ms");
  r.Set("rdb.recovery.replayed_records",
        traced.layer.Get("rdb.recovery.replayed_records"), "count");
  r.Set("rdb.snapshot.file_bytes", traced.layer.Get("rdb.snapshot.file_bytes"),
        "B");
  r.Set("rdb.epoch.lag_max", static_cast<double>(tr.gauge_max("epoch.lag")),
        "count");
  r.Set("rdb.mvcc.version_rows_max",
        static_cast<double>(tr.gauge_max("mvcc.version_rows")), "count");
  r.Set("rdb.mvcc.version_gc_rows",
        static_cast<double>(tr.counter("mvcc.version_gc_rows")), "count");
  r.Set("rdb.mvcc.slab_reclaims",
        static_cast<double>(tr.counter("mvcc.slab_reclaims")), "count");
  r.Set("rdb.catalog_lock.exclusive_wait_ns_per_op",
        per(kCatalogExclusiveWaitNs), "ns");
  r.Set("rdb.catalog_lock.shared_wait_p99_us",
        tr.hist("catalog_lock.shared_wait").Percentile(99) / 1e3, "us");
  r.Set("rdb.reader.rows_scanned_per_query",
        traced.layer.Get("rdb.reader.rows_scanned_per_query"), "count");
  r.Set("rdb.reader.index_probes_per_query",
        traced.layer.Get("rdb.reader.index_probes_per_query"), "count");
  r.Set("rdb.mem.total_peak_mb",
        static_cast<double>(tr.gauge_max("mem.total")) / (1024.0 * 1024.0),
        "MiB");
  r.Set("rdb.stmt.killed", d(kStmtKilled) + static_cast<double>(q.delta[kStmtKilled]),
        "count");
  r.Set("recovery_s", traced.layer.Get("recovery_s"), "s");
  r.Set("wal_bytes_per_op", traced.layer.Get("wal_bytes_per_op"), "B");
  r.Set("bench.generator_late_p99_us",
        traced.layer.Get("bench.generator_late_p99_us"), "us");
  r.Set("bench.host_kernel_us", traced.host.MedianNs() / 1e3, "us");
  const double untraced_ops = untraced.UpdateRate();
  r.Set("bench.trace_overhead_pct",
        100 * Ratio(untraced_ops - traced.UpdateRate(), untraced_ops), "%");
  return r;
}

void PrintSamples(const char* phase, const Outcome& o) {
  std::printf(
      "# %s samples: deletes=%zu inserts=%zu queries=%zu update_ops=%llu "
      "reads=%llu measured_s=%.3f store_builds=%zu\n"
      "# %s host speed: kernel median %.1f us (nominal %.1f), scale %.4f; "
      "set-up scale %.4f\n",
      phase, o.deletes.size(), o.inserts.size(), o.queries.size(),
      static_cast<unsigned long long>(o.update_ops),
      static_cast<unsigned long long>(o.reads), NsToSeconds(o.measured_ns),
      o.build_ns.size(), phase, o.host.MedianNs() / 1e3,
      HostSpeed::kNominalNs / 1e3, o.host.Scale(), o.setup_host.Scale());
}

int RunOne(const RunConfig& cfg) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : Workloads()) {
    if (cfg.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  std::printf("# workload %s seed=%llu seconds=%g trace=%d smoke=%d\n# why: %s\n",
              def->name, static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0, def->why);

  Report report;
  Checks checks;
  uint64_t attempted = 0, failed = 0;
  if (!cfg.trace) {
    Tracer off(false);
    const Outcome o = def->run(cfg, cfg.seconds, &off);
    PrintSamples("measured", o);
    report = EndToEnd(o);
    checks = o.checks;
    attempted = o.attempted;
    failed = o.failed;
  } else {
    Tracer off(false);
    const Outcome u = def->run(cfg, cfg.seconds / 2, &off);
    PrintSamples("untraced", u);
    Tracer on(true);
    const Outcome t = def->run(cfg, cfg.seconds / 2, &on);
    PrintSamples("traced", t);
    report = PerLayer(t, on, u);
    checks = u.checks;
    checks.Merge(t.checks);
    attempted = u.attempted + t.attempted;
    failed = u.failed + t.failed;
    on.PrintContainment(stdout);
    const std::string path = cfg.out_dir + "/" + def->name + ".trace.json";
    if (MakeDirs(cfg.out_dir) && on.WriteChromeTrace(path, def->name)) {
      std::printf("# trace: %s (%zu spans dropped)\n", path.c_str(),
                  on.spans_dropped());
    } else {
      checks.Expect(false, "cannot write " + path);
    }
  }

  for (const Report::Entry& e : report.entries()) {
    std::printf("%s %s %s\n", e.name.c_str(), FormatNumber(e.value).c_str(),
                e.unit.c_str());
  }
  std::printf("# failed_op_frac %s (%llu of %llu attempted)\n",
              FormatNumber(Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& f : checks.failures()) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", def->name, f.c_str());
  }
  JsonRow metrics;
  for (const Report::Entry& e : report.entries()) {
    metrics.Raw(e.name,
                JsonRow().Num("value", e.value).Str("unit", e.unit).Done());
  }
  std::printf("%s\n", JsonRow()
                          .Bool("correct", checks.ok())
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", metrics.Done())
                          .Done()
                          .c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap in the process instead of returning it to the kernel.
  // By default glibc unmaps large blocks and trims the heap top, so every
  // store build faults its pages in again; those faults were a third of a
  // million per 10 s on bulk-ingest-prune, and on a virtual machine their
  // cost swings with the host's load. ResetPeakRss still trims explicitly.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  RunConfig cfg;
  bool seconds_given = false;
  if (!ParseArgs(argc, argv, &cfg, &seconds_given)) return 2;
  if (cfg.smoke && !seconds_given) cfg.seconds = 0.2;
  if (cfg.workload == "all") return RunAll(cfg);
  return RunOne(cfg);
}
