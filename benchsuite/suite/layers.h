// Per-layer attribution read from outside the engine. A traced phase times
// every suite call into a public store/database function and diffs the
// instruments the engine already exposes (Database::metrics() counters and
// histogram sums, Database::stats()) around it; the deltas are summed per
// operation class, kept as one Chrome-trace span per call, and turned into
// the per-layer metrics. An untraced phase only times the call: no registry
// reads per operation.
#ifndef XUPD_BENCHSUITE_SUITE_LAYERS_H_
#define XUPD_BENCHSUITE_SUITE_LAYERS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "rdb/database.h"
#include "suite/common.h"

namespace xupd::suite {

/// Instruments one call can move. All are monotonic counters or histogram
/// sums, so the difference of two readings is exact.
enum Inst : int {
  kExecNs,                  ///< db.exec_ns: top-level statement wall time.
  kTriggerNs,               ///< db.trigger_ns: trigger cascades.
  kAsrNs,                   ///< engine.asr_ns: ASR maintenance.
  kStmtSelectNs,            ///< stmt.select histogram sum.
  kStmtInsertNs,            ///< stmt.insert histogram sum.
  kStmtDeleteNs,            ///< stmt.delete histogram sum.
  kStmtUpdateNs,            ///< stmt.update histogram sum.
  kStmtTxnNs,               ///< stmt.txn histogram sum.
  kWalCommitNs,             ///< wal.commit_unit histogram sum.
  kCatalogExclusiveWaitNs,  ///< catalog_lock.exclusive_wait histogram sum.
  kStmtKilled,  ///< stmt.cancelled + deadline_exceeded + resource_exhausted.
  kStatements,
  kParses,
  kPreparedHits,
  kPreparedMisses,
  kPlansBuilt,
  kPlanHits,
  kTriggerStatements,
  kTriggerFirings,
  kRowsScanned,
  kIndexProbes,
  kRowsInserted,
  kRowsDeleted,
  kRowsUpdated,
  kUndoRecords,
  kWalAppends,
  kWalBytes,
  kWalFsyncs,
  kNumInst
};

const char* InstName(int inst);

using Reading = std::array<uint64_t, kNumInst>;

/// Instrument pointers of one Database, resolved once.
class Instruments {
 public:
  explicit Instruments(rdb::Database* db);
  Reading Read() const;

 private:
  rdb::Database* db_;
  std::atomic<uint64_t>* exec_ns_;
  std::atomic<uint64_t>* trigger_ns_;
  std::atomic<uint64_t>* asr_ns_;
  std::atomic<uint64_t>* killed_[3];
  Histogram* stmt_[5];
  Histogram* wal_commit_;
  Histogram* catalog_exclusive_;
};

/// Operation classes of the workloads. Update ops are the first three.
enum class OpClass { kDelete, kInsert, kRewrite, kQuery, kMaintenance };
constexpr int kNumOpClasses = 5;
const char* OpClassName(OpClass c);

/// Sum over the calls of one class.
struct ClassTotals {
  uint64_t calls = 0;
  uint64_t wall_ns = 0;
  Reading delta{};

  void Add(const ClassTotals& other);
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Points the tracer at a store's Database (call after every rebuild).
  void Attach(rdb::Database* db);
  /// Folds the attached Database's lifetime histograms and MVCC counters
  /// into the phase totals; call before the store is destroyed.
  void Detach();

  /// Runs `fn` (returning Status) as one suite call named `name` (a string
  /// literal) and stores its wall time in `*wall_ns`.
  template <typename Fn>
  Status Call(OpClass cls, const char* name, uint64_t* wall_ns, Fn&& fn) {
    if (!enabled_) {
      const uint64_t t0 = NowNs();
      Status s = fn();
      *wall_ns = NowNs() - t0;
      return s;
    }
    const Reading before = instruments_->Read();
    const uint64_t t0 = NowNs();
    Status s = fn();
    const uint64_t t1 = NowNs();
    const Reading after = instruments_->Read();
    Record(cls, name, t0, t1 - t0, before, after);
    *wall_ns = t1 - t0;
    return s;
  }

  /// One reader-session query span (any thread): `rows_scanned` and
  /// `index_probes` are the session's stat deltas, `late_ns` how far
  /// behind schedule the query started.
  void ReaderSpan(int reader, uint64_t start_ns, uint64_t dur_ns,
                  uint64_t rows_scanned, uint64_t index_probes,
                  uint64_t late_ns);

  const ClassTotals& totals(OpClass c) const {
    return totals_[static_cast<int>(c)];
  }
  /// Delete + insert + rewrite.
  ClassTotals UpdateTotals() const;

  /// Store-lifetime histograms merged by Detach (empty when never seen).
  const Histogram& hist(const std::string& name) const;
  /// Counters summed by Detach.
  uint64_t counter(const std::string& name) const;
  /// Largest value of a gauge sampled after each traced call.
  int64_t gauge_max(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (one "X" event per call,
  /// instrument deltas as args). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& workload) const;
  size_t spans_dropped() const { return spans_dropped_; }

  /// Prints the containment tree (op wall = engine.self + rdb.exec, ...)
  /// per operation class.
  void PrintContainment(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    int tid;
    uint64_t start_ns;
    uint64_t dur_ns;
    std::vector<std::pair<int, uint64_t>> args;  ///< nonzero deltas.
    uint64_t late_ns;
  };
  static constexpr size_t kMaxSpans = 20000;

  void Record(OpClass cls, const char* name, uint64_t start_ns,
              uint64_t dur_ns, const Reading& before, const Reading& after);
  void AddSpan(Span span);

  bool enabled_;
  rdb::Database* db_ = nullptr;
  std::unique_ptr<Instruments> instruments_;
  std::atomic<int64_t>* gauge_ptrs_[3] = {};
  std::array<ClassTotals, kNumOpClasses> totals_{};
  std::map<std::string, Histogram> hists_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauge_max_;
  uint64_t origin_ns_ = NowNs();
  /// Reader threads add spans concurrently with the writer.
  mutable std::mutex spans_mu_;
  std::vector<Span> spans_;
  size_t spans_dropped_ = 0;
};

}  // namespace xupd::suite

#endif  // XUPD_BENCHSUITE_SUITE_LAYERS_H_
