#include "suite/layers.h"

#include <cstdio>
#include <set>

namespace xupd::suite {

namespace {

constexpr const char* kStmtHists[5] = {"stmt.select", "stmt.insert",
                                       "stmt.delete", "stmt.update",
                                       "stmt.txn"};
constexpr const char* kKilledCounters[3] = {
    "stmt.cancelled", "stmt.deadline_exceeded", "stmt.resource_exhausted"};
/// Store-lifetime histograms folded in by Detach.
constexpr const char* kLifetimeHists[] = {"db.txn", "db.checkpoint",
                                          "snapshot.write",
                                          "catalog_lock.shared_wait"};
constexpr const char* kLifetimeCounters[] = {"mvcc.version_gc_rows",
                                             "mvcc.slab_reclaims"};
/// Gauges sampled after every traced call.
constexpr const char* kSampledGauges[3] = {"epoch.lag", "mvcc.version_rows",
                                           "mem.total"};

}  // namespace

const char* InstName(int inst) {
  static const char* const kNames[kNumInst] = {
      "exec_ns",          "trigger_ns",       "asr_ns",
      "stmt_select_ns",   "stmt_insert_ns",   "stmt_delete_ns",
      "stmt_update_ns",   "stmt_txn_ns",      "wal_commit_unit_ns",
      "catalog_excl_wait_ns", "stmt_killed",  "statements",
      "parses",           "prepared_hits",    "prepared_misses",
      "plans_built",      "plan_hits",        "trigger_statements",
      "trigger_firings",  "rows_scanned",     "index_probes",
      "rows_inserted",    "rows_deleted",     "rows_updated",
      "undo_records",     "wal_appends",      "wal_bytes",
      "wal_fsyncs"};
  return inst >= 0 && inst < kNumInst ? kNames[inst] : "?";
}

Instruments::Instruments(rdb::Database* db)
    : db_(db),
      exec_ns_(db->metrics().Counter("db.exec_ns")),
      trigger_ns_(db->metrics().Counter("db.trigger_ns")),
      asr_ns_(db->metrics().Counter("engine.asr_ns")),
      wal_commit_(db->metrics().GetHistogram("wal.commit_unit")),
      catalog_exclusive_(
          db->metrics().GetHistogram("catalog_lock.exclusive_wait")) {
  for (int i = 0; i < 3; ++i) {
    killed_[i] = db->metrics().Counter(kKilledCounters[i]);
  }
  for (int i = 0; i < 5; ++i) {
    stmt_[i] = db->metrics().GetHistogram(kStmtHists[i]);
  }
}

Reading Instruments::Read() const {
  Reading r{};
  r[kExecNs] = exec_ns_->load(std::memory_order_relaxed);
  r[kTriggerNs] = trigger_ns_->load(std::memory_order_relaxed);
  r[kAsrNs] = asr_ns_->load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) r[kStmtSelectNs + i] = stmt_[i]->sum();
  r[kWalCommitNs] = wal_commit_->sum();
  r[kCatalogExclusiveWaitNs] = catalog_exclusive_->sum();
  uint64_t killed = 0;
  for (const auto* c : killed_) killed += c->load(std::memory_order_relaxed);
  r[kStmtKilled] = killed;
  const rdb::Stats& s = db_->stats();
  r[kStatements] = s.statements;
  r[kParses] = s.sql_parses;
  r[kPreparedHits] = s.prepared_hits;
  r[kPreparedMisses] = s.prepared_misses;
  r[kPlansBuilt] = s.plans_built;
  r[kPlanHits] = s.plan_cache_hits;
  r[kTriggerStatements] = s.trigger_statements;
  r[kTriggerFirings] = s.trigger_firings;
  r[kRowsScanned] = s.rows_scanned;
  r[kIndexProbes] = s.index_probes;
  r[kRowsInserted] = s.rows_inserted;
  r[kRowsDeleted] = s.rows_deleted;
  r[kRowsUpdated] = s.rows_updated;
  r[kUndoRecords] = s.undo_records;
  r[kWalAppends] = s.wal_appends;
  r[kWalBytes] = s.wal_bytes;
  r[kWalFsyncs] = s.wal_fsyncs;
  return r;
}

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kDelete: return "delete";
    case OpClass::kInsert: return "insert";
    case OpClass::kRewrite: return "rewrite";
    case OpClass::kQuery: return "query";
    case OpClass::kMaintenance: return "maintenance";
  }
  return "?";
}

void ClassTotals::Add(const ClassTotals& other) {
  calls += other.calls;
  wall_ns += other.wall_ns;
  for (int i = 0; i < kNumInst; ++i) delta[i] += other.delta[i];
}

void Tracer::Attach(rdb::Database* db) {
  if (!enabled_) return;
  db_ = db;
  instruments_ = std::make_unique<Instruments>(db);
  for (int i = 0; i < 3; ++i) {
    gauge_ptrs_[i] = db->metrics().Gauge(kSampledGauges[i]);
  }
}

void Tracer::Detach() {
  if (!enabled_ || db_ == nullptr) return;
  for (const char* name : kLifetimeHists) {
    const Histogram* h = db_->metrics().FindHistogram(name);
    if (h != nullptr) hists_[name].Merge(*h);
  }
  for (const char* name : kLifetimeCounters) {
    counters_[name] += db_->metrics().Counter(name)->load();
  }
  instruments_.reset();
  for (auto*& g : gauge_ptrs_) g = nullptr;
  db_ = nullptr;
}

void Tracer::Record(OpClass cls, const char* name, uint64_t start_ns,
                    uint64_t dur_ns, const Reading& before,
                    const Reading& after) {
  ClassTotals& t = totals_[static_cast<int>(cls)];
  ++t.calls;
  t.wall_ns += dur_ns;
  Span span{name, 1, start_ns, dur_ns, {}, 0};
  for (int i = 0; i < kNumInst; ++i) {
    const uint64_t d = after[i] - before[i];
    t.delta[i] += d;
    if (d != 0) span.args.emplace_back(i, d);
  }
  for (int i = 0; i < 3; ++i) {
    const int64_t v = gauge_ptrs_[i]->load(std::memory_order_relaxed);
    int64_t& m = gauge_max_[kSampledGauges[i]];
    if (v > m) m = v;
  }
  AddSpan(std::move(span));
}

void Tracer::ReaderSpan(int reader, uint64_t start_ns, uint64_t dur_ns,
                        uint64_t rows_scanned, uint64_t index_probes,
                        uint64_t late_ns) {
  if (!enabled_) return;
  Span span{"reader_query", 2 + reader, start_ns, dur_ns, {}, late_ns};
  if (rows_scanned != 0) span.args.emplace_back(kRowsScanned, rows_scanned);
  if (index_probes != 0) span.args.emplace_back(kIndexProbes, index_probes);
  AddSpan(std::move(span));
}

void Tracer::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(spans_mu_);
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

ClassTotals Tracer::UpdateTotals() const {
  ClassTotals sum;
  sum.Add(totals(OpClass::kDelete));
  sum.Add(totals(OpClass::kInsert));
  sum.Add(totals(OpClass::kRewrite));
  return sum;
}

const Histogram& Tracer::hist(const std::string& name) const {
  static const Histogram kEmpty;
  auto it = hists_.find(name);
  return it == hists_.end() ? kEmpty : it->second;
}

uint64_t Tracer::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t Tracer::gauge_max(const std::string& name) const {
  auto it = gauge_max_.find(name);
  return it == gauge_max_.end() ? 0 : it->second;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(spans_mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\n",
               JsonRow()
                   .Str("workload", workload)
                   .Int("spans_dropped", spans_dropped_)
                   .Done()
                   .c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  std::set<int> tids;
  for (const Span& s : spans_) tids.insert(s.tid);
  bool first = true;
  for (int tid : tids) {
    const std::string name =
        tid == 1 ? "writer" : "reader-" + std::to_string(tid - 2);
    std::fprintf(f, "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                    "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, name.c_str());
    first = false;
  }
  for (const Span& s : spans_) {
    JsonRow args;
    for (const auto& [inst, value] : s.args) args.Int(InstName(inst), value);
    if (s.late_ns != 0) args.Int("late_ns", s.late_ns);
    std::fprintf(f, "%s%s", first ? "" : ",\n",
                 JsonRow()
                     .Str("name", s.name)
                     .Str("ph", "X")
                     .Int("pid", 1)
                     .Int("tid", static_cast<uint64_t>(s.tid))
                     .Num("ts", static_cast<double>(s.start_ns - origin_ns_) /
                                    1000.0)
                     .Num("dur", static_cast<double>(s.dur_ns) / 1000.0)
                     .Raw("args", args.Done())
                     .Done()
                     .c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Tracer::PrintContainment(std::FILE* out) const {
  std::fprintf(out,
               "# containment, ns per call (%% of op wall): op wall = "
               "engine.self + rdb.exec, and rdb.exec (top-level statements) "
               "contains rdb.trigger. WAL units and ASR maintenance overlap "
               "both: an autocommit statement writes its unit inside "
               "rdb.exec, an engine operation's outermost commit inside "
               "engine.self.\n");
  for (int c = 0; c < kNumOpClasses; ++c) {
    const ClassTotals& t = totals_[c];
    if (t.calls == 0) continue;
    const uint64_t exec = t.delta[kExecNs];
    auto row = [&](const char* label, uint64_t ns) {
      std::fprintf(out, "#   %-28s %12.0f  %5.1f%%\n", label,
                   static_cast<double>(ns) / static_cast<double>(t.calls),
                   t.wall_ns == 0 ? 0.0
                                  : 100.0 * static_cast<double>(ns) /
                                        static_cast<double>(t.wall_ns));
    };
    std::fprintf(out, "# %s: %llu calls\n", OpClassName(static_cast<OpClass>(c)),
                 static_cast<unsigned long long>(t.calls));
    row("op wall", t.wall_ns);
    row("|- engine.self", t.wall_ns > exec ? t.wall_ns - exec : 0);
    row("`- rdb.exec", exec);
    row("     `- rdb.trigger", t.delta[kTriggerNs]);
    row("rdb.wal.commit_unit (overlaps)", t.delta[kWalCommitNs]);
    row("asr.maint (overlaps)", t.delta[kAsrNs]);
  }
}

}  // namespace xupd::suite
