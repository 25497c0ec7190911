// RAII observability spans for engine/store.cc operations (internal).
//
// The paper's figures attribute whole-operation cost (fig. 6/10: seconds per
// delete/insert strategy); the engine decomposes that further — how much of
// an operation was SQL statement execution, and how much of THAT was trigger
// cascade — by diffing the Database's db.exec_ns / db.trigger_ns registry
// counters across the span. Each finished span records an engine.<op>
// histogram sample plus one kEngineOp trace event.
#ifndef XUPD_ENGINE_ENGINE_SPAN_H_
#define XUPD_ENGINE_ENGINE_SPAN_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "rdb/database.h"

namespace xupd::engine {

/// Spans one public store operation. `op` must be a string literal: the
/// trace ring keeps the pointer (see TraceEvent::detail). `*hist` caches
/// the engine.<op> histogram: the op's first span looks it up, so the name
/// appears in the registry only once the op has run.
class EngineSpan {
 public:
  EngineSpan(rdb::Database* db, const char* op, Histogram** hist)
      : db_(db),
        op_(op),
        hist_(hist),
        t0_(MonotonicNanos()),
        exec0_(db->exec_ns()),
        trigger0_(db->trigger_ns()) {}
  EngineSpan(const EngineSpan&) = delete;
  EngineSpan& operator=(const EngineSpan&) = delete;
  ~EngineSpan() {
    const uint64_t dur = MonotonicNanos() - t0_;
    if (*hist_ == nullptr) {
      *hist_ = db_->metrics().GetHistogram(std::string("engine.") + op_);
    }
    (*hist_)->Record(dur);
    TraceEvent ev{TraceEvent::Kind::kEngineOp, t0_, dur,
                  db_->exec_ns() - exec0_, db_->trigger_ns() - trigger0_, op_};
    span_.Annotate(&ev);
    db_->events().Record(ev);
  }

 private:
  rdb::Database* db_;
  const char* op_;
  Histogram** hist_;
  /// The op is the causal parent of every statement it issues: opened in
  /// the member list before t0_, so the thread-local context already points
  /// at this span when the operation body runs.
  trace::SpanScope span_;
  uint64_t t0_;
  uint64_t exec0_;
  uint64_t trigger0_;
};

/// Accumulates a scope's wall time into a registry counter — used to charge
/// ASR maintenance (engine.asr_ns) inside whatever operation runs it.
class ScopedNsCounter {
 public:
  explicit ScopedNsCounter(std::atomic<uint64_t>* counter)
      : counter_(counter), t0_(MonotonicNanos()) {}
  ScopedNsCounter(const ScopedNsCounter&) = delete;
  ScopedNsCounter& operator=(const ScopedNsCounter&) = delete;
  ~ScopedNsCounter() { *counter_ += MonotonicNanos() - t0_; }

 private:
  std::atomic<uint64_t>* counter_;
  uint64_t t0_;
};

}  // namespace xupd::engine

#endif  // XUPD_ENGINE_ENGINE_SPAN_H_
