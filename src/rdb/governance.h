// Resource governance primitives: cooperative cancellation and memory
// accounting.
//
// CancelToken is a thread-safe cancel flag: any thread may call Cancel()
// while a statement runs on the writer (or a reader session) thread; the
// executor polls the flag amortized every few operator pulls and unwinds
// with StatusCode::kCancelled, riding the normal transaction rollback.
//
// MemoryAccountant tracks the engine's dominant heap consumers per
// Database under two budgets:
//   - soft: new statements are shed (kResourceExhausted) while usage stays
//     above it, but in-flight work keeps running — backpressure, not abort;
//   - hard: in-flight statements fail at the next governance poll and roll
//     back — the invariant-preserving stop before the OS OOM-kills us.
// Charges are relaxed atomics and NEVER fail: low-level allocators (slab
// growth, undo chunks, WAL pending appends) stay infallible, and budget
// enforcement happens only at statement-level poll points where a clean
// Status can unwind through the txn machinery. A budget of 0 = unlimited.
// When metrics are attached every category mirrors into a mem.* gauge.
#ifndef XUPD_RDB_GOVERNANCE_H_
#define XUPD_RDB_GOVERNANCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace xupd::rdb {

/// A shared cancel flag. Copies share state; Cancel() from any thread is
/// observed by the running statement at its next governance poll.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { state_->store(true, std::memory_order_release); }
  void Reset() { state_->store(false, std::memory_order_release); }
  bool cancelled() const { return state_->load(std::memory_order_acquire); }

  /// The raw flag an ExecContext polls (stable for the token's lifetime).
  const std::atomic<bool>* flag() const { return state_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Per-Database memory accounting with soft/hard budgets (see file comment).
class MemoryAccountant {
 public:
  enum Category : int {
    kTableSlabs = 0,   ///< row-slab capacity bytes (charged at growth).
    kVersionBuffers,   ///< MVCC parked pre-images.
    kUndoLog,          ///< undo record chunks (in use and retained).
    kWalPending,       ///< WAL bytes staged but not yet committed.
    kQueryScratch,     ///< sort / CTE / result materialization.
    kIndexes,          ///< hash-index entry arrays and key tables.
    kNumCategories,
  };

  static const char* CategoryName(int c) {
    switch (c) {
      case kTableSlabs: return "mem.table_slabs";
      case kVersionBuffers: return "mem.version_buffers";
      case kUndoLog: return "mem.undo_log";
      case kWalPending: return "mem.wal_pending";
      case kQueryScratch: return "mem.query_scratch";
      case kIndexes: return "mem.indexes";
    }
    return "mem.unknown";
  }

  void Charge(Category c, size_t bytes) {
    if (bytes == 0) return;
    used_[c].fetch_add(bytes, std::memory_order_relaxed);
    total_.fetch_add(bytes, std::memory_order_relaxed);
    if (gauges_[c] != nullptr) {
      gauges_[c]->fetch_add(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
      total_gauge_->fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
    }
  }

  void Release(Category c, size_t bytes) {
    if (bytes == 0) return;
    used_[c].fetch_sub(bytes, std::memory_order_relaxed);
    total_.fetch_sub(bytes, std::memory_order_relaxed);
    if (gauges_[c] != nullptr) {
      gauges_[c]->fetch_sub(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
      total_gauge_->fetch_sub(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
    }
  }

  uint64_t used(Category c) const {
    return used_[c].load(std::memory_order_relaxed);
  }
  uint64_t total_used() const { return total_.load(std::memory_order_relaxed); }

  /// Budgets in bytes; 0 disables the limit.
  void set_soft_budget(uint64_t bytes) {
    soft_.store(bytes, std::memory_order_relaxed);
  }
  void set_hard_budget(uint64_t bytes) {
    hard_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t soft_budget() const { return soft_.load(std::memory_order_relaxed); }
  uint64_t hard_budget() const { return hard_.load(std::memory_order_relaxed); }

  /// Bounded WAL pending-buffer watermark (bytes staged for one commit
  /// unit); 0 disables. Checked at governance polls so an oversized unit
  /// fails cleanly (statement error -> scope rollback -> TruncatePending)
  /// instead of growing without bound.
  void set_wal_pending_limit(uint64_t bytes) {
    wal_pending_limit_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t wal_pending_limit() const {
    return wal_pending_limit_.load(std::memory_order_relaxed);
  }

  bool OverSoft() const {
    uint64_t soft = soft_budget();
    return soft != 0 && total_used() > soft;
  }
  bool OverHard() const {
    uint64_t hard = hard_budget();
    return hard != 0 && total_used() > hard;
  }

  /// kResourceExhausted when over the hard budget or the WAL pending
  /// watermark — the statement-poll enforcement point.
  Status CheckHard() const {
    if (OverHard()) {
      return Status::ResourceExhausted(
          "hard memory budget exceeded (" + std::to_string(total_used()) +
          " of " + std::to_string(hard_budget()) +
          " bytes in use); statement rolled back");
    }
    uint64_t limit = wal_pending_limit();
    if (limit != 0 && used(kWalPending) > limit) {
      return Status::ResourceExhausted(
          "WAL pending buffer exceeds its watermark (" +
          std::to_string(used(kWalPending)) + " of " + std::to_string(limit) +
          " bytes staged); commit unit failed cleanly and rolled back");
    }
    return Status::OK();
  }

  /// kResourceExhausted when over the soft budget — the admission-time
  /// check that sheds NEW statements while in-flight work drains.
  Status CheckAdmission() const {
    if (!OverSoft()) return Status::OK();
    return Status::ResourceExhausted(
        "soft memory budget exceeded (" + std::to_string(total_used()) +
        " of " + std::to_string(soft_budget()) +
        " bytes in use); shedding new statements until usage drops");
  }

  /// Resolves one mem.* gauge per category plus mem.total; charges mirror
  /// into them from then on (gauges start at the current usage). Pass null
  /// to detach — ~Database detaches before its members release their
  /// charges, since the registry dies before the charging members do.
  void AttachMetrics(MetricsRegistry* registry) {
    if (registry == nullptr) {
      total_gauge_ = nullptr;
      for (int c = 0; c < kNumCategories; ++c) gauges_[c] = nullptr;
      return;
    }
    total_gauge_ = registry->Gauge("mem.total");
    total_gauge_->store(static_cast<int64_t>(total_used()),
                        std::memory_order_relaxed);
    for (int c = 0; c < kNumCategories; ++c) {
      gauges_[c] = registry->Gauge(CategoryName(c));
      gauges_[c]->store(static_cast<int64_t>(used(static_cast<Category>(c))),
                        std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> used_[kNumCategories] = {};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> soft_{0};
  std::atomic<uint64_t> hard_{0};
  std::atomic<uint64_t> wal_pending_limit_{0};
  std::atomic<int64_t>* gauges_[kNumCategories] = {};
  std::atomic<int64_t>* total_gauge_ = nullptr;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_GOVERNANCE_H_
