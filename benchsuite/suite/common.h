// Shared pieces of the repository benchmark: run settings, exact latency
// samples, the metric report, self-checks, and store construction.
#ifndef XUPD_BENCHSUITE_SUITE_COMMON_H_
#define XUPD_BENCHSUITE_SUITE_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "engine/store.h"
#include "xml/document.h"
#include "xml/dtd.h"

namespace xupd::suite {

/// Settings of one benchmark invocation (see bench_suite.cc for the flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. Workloads that repeat a fixed pass of
  /// operations stop at the first pass boundary after this much time.
  double seconds = 10;
  bool trace = false;
  /// Roughly 1/50 of every size and pass length: a quick liveness run.
  bool smoke = false;
  std::string out_dir = "benchsuite/out";
  std::string data_dir = ".bench_build/data";
};

inline uint64_t NowNs() { return MonotonicNanos(); }
inline double NsToSeconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Raw samples (nanoseconds). Percentiles are exact order statistics with
/// linear interpolation between neighbours, not histogram buckets.
class Samples {
 public:
  void Add(uint64_t ns) { values_.push_back(ns); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Value at percentile `p` in [0, 100], in nanoseconds (0 when empty).
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> values_;
};

/// Median of a small vector of doubles (0 when empty).
double Median(std::vector<double> values);

/// How fast the shared host ran during a run. Sample() times a fixed
/// kernel of engine-independent work, about 1 ms, on memory of its own.
/// Workloads call it outside their timed operations. On a shared virtual
/// machine whole minutes run up to 1.6x slower, and the kernel slows with
/// them; timings and setup_s are reported at the kernel's nominal speed,
/// multiplied by Scale(). Operations that write rows all over memory slow
/// more than ones that mostly read, so each workload uses the kernel whose
/// slowdown matched its own operations' (see README).
class HostSpeed {
 public:
  enum class Kernel {
    /// 3,000 string keys hashed into a new hash map and a vector grown and
    /// sorted (allocation-heavy, branchy code like the engine's), then
    /// 10,000 random probes into a prebuilt 4 MiB chained hash table
    /// (dependent loads that miss the core's caches, like index probes).
    kHashProbe,
    /// 36,000 rounds of free-then-allocate of random live blocks on a
    /// private 33 MiB free-list heap (16-512 byte blocks): scattered
    /// dependent loads and stores, like building and tombstoning rows.
    kScatteredWrites,
  };

  /// A round figure near either kernel's median time on the 4-vCPU KVM
  /// guest the benchmark was built on.
  static constexpr double kNominalNs = 1e6;

  explicit HostSpeed(Kernel kernel = Kernel::kHashProbe) : kernel_(kernel) {}

  void Sample();
  /// Adds `other`'s samples, which must come from the same kernel.
  void Merge(const HostSpeed& other) { times_.Append(other.times_); }
  /// Median kernel time over the samples, ns (0 before the first).
  double MedianNs() const { return times_.Percentile(50); }
  /// kNominalNs / MedianNs(): below 1 when the host ran slow (1 before
  /// the first sample).
  double Scale() const;
  /// Resident size of the kernels' memory, MiB: 0 before the first sample
  /// of the process, then fixed per kernel used.
  static double ArenaMb();

 private:
  Kernel kernel_;
  Samples times_;
};

/// Peak resident set of this process since it started or since the last
/// ResetPeakRss(), MiB.
double PeakRssMb();
/// Returns freed heap to the system and restarts peak-RSS tracking (Linux
/// /proc/self/clear_refs), so a workload reports the peak of its measured
/// operations, not of its untimed self-checks or of heap kept from earlier
/// passes.
void ResetPeakRss();

/// Named metrics in insertion order. A name set twice keeps the last value.
class Report {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value set under `name`, or 0.
  double Get(const std::string& name) const;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Builds one JSON object incrementally; values are written with every
/// significant digit.
class JsonRow {
 public:
  JsonRow& Str(const std::string& key, const std::string& value);
  JsonRow& Num(const std::string& key, double value);
  JsonRow& Int(const std::string& key, uint64_t value);
  JsonRow& Bool(const std::string& key, bool value);
  /// `json` must already be a serialized JSON value.
  JsonRow& Raw(const std::string& key, const std::string& json);
  std::string Done() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

/// `v` with every significant digit ("null" when not finite).
std::string FormatNumber(double v);

/// Collects self-check failures; a run with any failure exits nonzero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  void ExpectOk(const Status& s, const std::string& what);
  /// `violations` from VerifyStore / VerifyIntegrity: clean means empty.
  void ExpectClean(const std::vector<std::string>& violations,
                   const std::string& what);
  void Merge(const Checks& other);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// A created-and-loaded store plus how long each step took.
struct BuiltStore {
  std::unique_ptr<engine::RelationalStore> store;
  uint64_t create_ns = 0;
  uint64_t load_ns = 0;
};

Result<BuiltStore> BuildStore(const xml::Dtd& dtd, const xml::Document& doc,
                              const engine::RelationalStore::Options& options);

/// Allocated slots per live row over the store's element tables (tombstones
/// are never reused, so churn raises this above 1).
double SlotsPerLiveRow(engine::RelationalStore* store);

/// "n<k>": the synthetic documents' level-k element.
std::string LevelElement(int k);

/// Live rows of one element table.
size_t LiveRows(engine::RelationalStore* store, const std::string& element);

/// Every durable table's capacity and live rows, rendered as text: equal
/// dumps mean equal durable state, tombstone positions included.
std::string DumpDurableState(rdb::Database* db);

/// Removes a directory tree (used only on the benchmark's own data dirs).
void RemoveTree(const std::string& path);
/// Creates `path` and its parents.
bool MakeDirs(const std::string& path);
/// Size of a file in bytes (0 when absent).
uint64_t FileBytes(const std::string& path);

}  // namespace xupd::suite

#endif  // XUPD_BENCHSUITE_SUITE_COMMON_H_
