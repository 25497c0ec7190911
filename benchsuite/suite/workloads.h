// The four benchmark workloads. Each one builds its inputs from the run
// seed, measures for the requested time, checks its own outputs, and fills
// an Outcome; bench_suite.cc turns Outcomes into the named metrics.
//
// Workloads that keep a long-lived store repeat a fixed pass of operations
// (same seed, fresh store each pass) and stop at the first pass boundary
// after the requested time: every pass does identical work, so counts such
// as slots per live row do not depend on how fast the machine is, and the
// run length only sets how many latency samples are pooled.
#ifndef XUPD_BENCHSUITE_SUITE_WORKLOADS_H_
#define XUPD_BENCHSUITE_SUITE_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "suite/common.h"
#include "suite/layers.h"
#include "workload/synthetic.h"

namespace xupd::suite {

/// What one measured phase of a workload produced.
struct Outcome {
  Samples deletes;  ///< one delete operation (store call or XQuery DELETE).
  Samples inserts;  ///< one subtree copy or content insert.
  Samples queries;  ///< one read.
  uint64_t update_ops = 0;  ///< completed update operations (any kind).
  uint64_t reads = 0;       ///< completed reads.
  uint64_t attempted = 0;   ///< operations attempted (updates + reads).
  uint64_t failed = 0;      ///< operations that returned an error.
  /// Wall time of the measured phase: the sum of its timing windows, so
  /// untimed self-checks, host-speed samples and the store rebuilds
  /// between passes are left out.
  uint64_t measured_ns = 0;
  /// Update operations per second of each timing window of the measured
  /// phase (a cycle, an iteration or a fixed chunk of statements). The
  /// reported rate is their median, so a slow stretch of the shared host
  /// shorter than half the run does not move it.
  std::vector<double> update_rates;
  /// In an open loop the arrival schedule, not the host, sets the update
  /// rate, so the rate is not scaled.
  bool open_loop = false;
  /// Sampled between timing windows (in an open loop, in the writer's idle
  /// gaps); scales operation timings and a closed loop's update rate.
  HostSpeed host;
  /// Sampled after every set-up round and pass rebuild; scales setup_s.
  HostSpeed setup_host;
  Samples generate_ns;  ///< every document generation (set-up rounds).
  Samples build_ns;     ///< every store build: Create + Load.
  Samples create_ns;    ///< every RelationalStore::Create.
  Samples load_ns;      ///< every RelationalStore::Load.
  double slots_per_live_row = 0;
  /// Peak RSS over the measured operations (see ResetPeakRss), MiB.
  double peak_rss_mb = 0;
  Checks checks;
  /// Workload-specific per-layer values (recovery_s, wal_bytes_per_op,
  /// reader and generator figures); absent ones report 0.
  Report layer;

  void RecordFailure(const Status& s, const std::string& what) {
    ++failed;
    checks.ExpectOk(s, what);
  }
  /// The host-speed kernels' memory is resident throughout and left out.
  void NotePeakRss() {
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb() - HostSpeed::ArenaMb());
  }
  void AddRateWindow(uint64_t ops, uint64_t ns) {
    if (ns > 0) {
      update_rates.push_back(static_cast<double>(ops) * 1e9 /
                             static_cast<double>(ns));
    }
  }
  /// Median update rate over the windows; a closed loop's at nominal host
  /// speed.
  double UpdateRate() const {
    return Median(update_rates) / (open_loop ? 1.0 : host.Scale());
  }
  void RecordBuild(const BuiltStore& b) {
    create_ns.Add(b.create_ns);
    load_ns.Add(b.load_ns);
    build_ns.Add(b.create_ns + b.load_ns);
  }
  /// Set-up time: median generation plus median store build. Medians over
  /// every build of the run (set-up rounds and pass rebuilds alike).
  double SetupSeconds() const {
    return (generate_ns.Percentile(50) + build_ns.Percentile(50)) / 1e9;
  }
};

/// A generated document and the store loaded from it.
struct Prepared {
  workload::GeneratedDoc doc;
  BuiltStore built;
};

/// Identical set-up rounds per run; set-up time is their median.
constexpr int kSetupRounds = 9;

/// The set-up protocol every workload shares: kSetupRounds identical rounds
/// of generate + Create + Load, each recorded in `out`; returns the last
/// round's document and store. `before_create` (optional) runs before each
/// Create, after the previous round's store is closed.
Result<Prepared> SetUp(
    const std::function<Result<workload::GeneratedDoc>()>& generate,
    const engine::RelationalStore::Options& options, Outcome* out,
    const std::function<void()>& before_create = nullptr);

/// Replaces `p`'s store with a fresh one over the same document (a pass
/// boundary): the old store is closed first, then `before_create` runs.
Status Rebuild(Prepared* p, const engine::RelationalStore::Options& options,
               Outcome* out,
               const std::function<void()>& before_create = nullptr);

using WorkloadFn = Outcome (*)(const RunConfig& cfg, double seconds,
                               Tracer* tracer);

struct WorkloadDef {
  const char* name;
  const char* why;
  WorkloadFn run;
};

Outcome RunBulkIngestPrune(const RunConfig& cfg, double seconds,
                           Tracer* tracer);
Outcome RunDblpAsrChurn(const RunConfig& cfg, double seconds, Tracer* tracer);
Outcome RunXQueryDurable(const RunConfig& cfg, double seconds, Tracer* tracer);
Outcome RunSnapshotReads(const RunConfig& cfg, double seconds, Tracer* tracer);

/// Every workload, in the order `--workload all` runs them.
const std::vector<WorkloadDef>& Workloads();

}  // namespace xupd::suite

#endif  // XUPD_BENCHSUITE_SUITE_WORKLOADS_H_
