// Observability smoke tool for CI: run the fig. 6-shaped workload, then
// prove the observability surfaces carry real numbers — EXPLAIN ANALYZE
// reports per-operator actuals that match the plain query, a reader
// session plans the §7.2 path join's inner step as a hash probe and returns
// the writer's rows, SHOW METRICS
// reports nonzero statement timings, the slow-statement log captures at
// threshold 0, and the event ring holds statement spans. Exits nonzero on
// any missing or zero timing field, so a silently-broken instrumentation
// path fails the build instead of shipping dead dashboards.
//
//   $ ./observability_smoke            default (in-memory) checks
//   $ ./observability_smoke trace DIR  concurrency/trace checks: runs the
//                                      fig. 6 workload durable under DIR
//                                      with the batched group-commit
//                                      flusher and a background checkpoint,
//                                      then validates the exported Chrome
//                                      trace (matched ts/dur on every span,
//                                      fsync spans on the flusher track,
//                                      checkpoint spans on the background
//                                      track, flow arrows that resolve) and
//                                      the new concurrency telemetry
//                                      (SHOW TABLE STATS, epoch/version
//                                      gauges).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "workload/synthetic.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  } else {
    std::printf("ok: %s\n", what);
  }
}

/// Finds `key` in SHOW METRICS rows and returns its value (-1 = missing).
int64_t MetricValue(const rdb::ResultSet& metrics, const std::string& key) {
  for (const rdb::Row& row : metrics.rows) {
    if (row[0].ToString() == key) return row[1].AsInt();
  }
  return -1;
}

/// Every number following `marker` in `s` (used to pair flow arrow ids).
std::vector<uint64_t> ExtractIds(const std::string& s,
                                 const std::string& marker) {
  std::vector<uint64_t> out;
  size_t pos = 0;
  while ((pos = s.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    out.push_back(std::strtoull(s.c_str() + pos, nullptr, 10));
  }
  return out;
}

const TraceEvent* FindSpan(const std::vector<TraceEvent>& events,
                           uint64_t span_id) {
  for (const TraceEvent& e : events) {
    if (e.span_id == span_id) return &e;
  }
  return nullptr;
}

/// Concurrency/trace mode (`observability_smoke trace DIR`): the fig. 6
/// workload durable under DIR with kBatched group commit, MVCC churn
/// against a pinned reader, and a background checkpoint — then validates
/// the exported Chrome trace and the concurrency telemetry.
int RunTraceMode(const std::string& dir) {
  workload::SyntheticSpec spec;
  spec.scaling_factor = 20;
  spec.depth = 4;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  if (!gen.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 gen.status().ToString().c_str());
    return 2;
  }

  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerStatementTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kBatched;
  auto store = RelationalStore::Create(gen->dtd, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 store.status().ToString().c_str());
    return 2;
  }
  rdb::Database* db = store.value()->db();
  Status loaded = store.value()->Load(*gen->doc);
  if (!loaded.ok()) {
    std::fprintf(stderr, "store load failed: %s\n", loaded.ToString().c_str());
    return 2;
  }
  const uint32_t main_tid = trace::CurrentTid();

  // --- MVCC churn against a pinned reader ----------------------------------
  if (!db->ExecuteQuery("CREATE TABLE obs_kv (id INT, v INT)").ok()) return 2;
  for (int i = 0; i < 32; ++i) {
    if (!db->ExecuteQuery("INSERT INTO obs_kv VALUES (" + std::to_string(i) +
                          ", 0)")
             .ok()) {
      return 2;
    }
  }
  auto session = db->OpenReaderSession();
  if (!session.ok()) return 2;
  session.value()->PinSnapshot();
  for (int r = 0; r < 4; ++r) {
    if (!db->ExecuteQuery("UPDATE obs_kv SET v = v + 1").ok()) return 2;
  }
  // Reader statements take the catalog lock shared; the pinned scan also
  // proves the version buffer reconstructs the pre-update values.
  auto pinned_sum = session.value()->ExecuteQuery("SELECT SUM(v) FROM obs_kv");
  if (!pinned_sum.ok()) return 2;
  Check(pinned_sum->rows[0][0].AsInt() == 0,
        "pinned reader reconstructs pre-update values");
  auto pinned_metrics = db->ExecuteQuery("SHOW METRICS");
  if (!pinned_metrics.ok()) return 2;
  Check(MetricValue(*pinned_metrics, "epoch.published") > 0,
        "epoch.published gauge is nonzero");
  Check(MetricValue(*pinned_metrics, "epoch.lag") > 0,
        "epoch.lag is nonzero while a pinned reader trails the writer");
  Check(MetricValue(*pinned_metrics, "mvcc.version_rows") > 0,
        "pre-update images are parked while the pin can reach them");
  Check(MetricValue(*pinned_metrics, "readers.sessions") == 1,
        "readers.sessions gauges the open session");
  // Release the pin: the next boundaries trim the version buffer.
  session.value()->Unpin();
  for (int r = 0; r < 2; ++r) {
    if (!db->ExecuteQuery("UPDATE obs_kv SET v = v + 1").ok()) return 2;
  }
  auto unpinned_metrics = db->ExecuteQuery("SHOW METRICS");
  if (!unpinned_metrics.ok()) return 2;
  Check(MetricValue(*unpinned_metrics, "mvcc.version_gc_rows") > 0,
        "version-buffer GC fired once the pin released");
  Check(MetricValue(*unpinned_metrics, "catalog_lock.shared_wait.count") > 0,
        "catalog-lock shared wait histogram records acquisitions");

  // --- cross-thread spans --------------------------------------------------
  // The group-commit flusher fsyncs the batched tail within a window or
  // two; its kFsync span lands on the flusher tid with the last commit
  // unit's span as causal parent.
  bool flusher_fsync = false;
  for (int i = 0; i < 400 && !flusher_fsync; ++i) {
    for (const TraceEvent& e : db->events().Events()) {
      if (e.kind == TraceEvent::Kind::kFsync && e.tid != main_tid) {
        flusher_fsync = true;
        break;
      }
    }
    if (!flusher_fsync) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  Check(flusher_fsync, "group-commit fsync span recorded on the flusher "
                       "thread");

  Status cp = db->CheckpointBackground();
  Check(cp.ok(), "background checkpoint schedules");
  Status cpw = db->CheckpointWait();
  Check(cpw.ok(), "background checkpoint completes");

  // fig. 6 bulk delete (per-statement triggers cascade to the children).
  Status deleted = store.value()->DeleteWhere("n1", "");
  if (!deleted.ok()) {
    std::fprintf(stderr, "delete failed: %s\n", deleted.ToString().c_str());
    return 2;
  }

  // --- SHOW TABLE STATS ----------------------------------------------------
  auto table_stats = db->ExecuteQuery("SHOW TABLE STATS");
  Check(table_stats.ok(), "SHOW TABLE STATS executes");
  if (table_stats.ok()) {
    Check(MetricValue(*table_stats, "table.obs_kv.scans") > 0,
          "per-table scan count is nonzero");
    Check(MetricValue(*table_stats, "table.obs_kv.rows_updated") > 0,
          "per-table rows_updated is nonzero");
    Check(MetricValue(*table_stats, "table.n1.rows_deleted") > 0,
          "the fig. 6 delete shows in per-table rows_deleted");
    Check(MetricValue(*table_stats, "table.n1.rows_inserted") > 0,
          "the fig. 6 load shows in per-table rows_inserted");
  }

  // --- Chrome trace export -------------------------------------------------
  const std::string trace_json = db->events().DumpChromeTrace();
  const std::vector<TraceEvent> events = db->events().Events();
  Check(trace_json.find("\"traceEvents\":[") == 0 ||
            trace_json.find("{\"traceEvents\":[") == 0,
        "trace export is a traceEvents document");
  Check(trace_json.find("\"wal-flusher\"") != std::string::npos,
        "the flusher track is named");
  Check(trace_json.find("\"checkpoint\"") != std::string::npos,
        "the checkpoint track is named");

  // Every ring span appears as an X slice with exactly its ts/dur.
  bool all_match = !events.empty();
  char want[96];
  for (const TraceEvent& e : events) {
    std::snprintf(want, sizeof want, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.duration_ns) / 1e3);
    if (trace_json.find(want) == std::string::npos) {
      all_match = false;
      break;
    }
  }
  Check(all_match, "every span exports with matched ts/dur");

  // The background checkpoint's snapshot-write span sits on the bg track
  // with the writer-side schedule span as parent.
  bool bg_checkpoint = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kCheckpoint || e.a != 1) continue;
    const TraceEvent* parent = FindSpan(events, e.parent_span_id);
    bg_checkpoint = e.tid != main_tid && parent != nullptr &&
                    parent->kind == TraceEvent::Kind::kCheckpoint &&
                    parent->a == 2 && parent->tid == main_tid;
  }
  Check(bg_checkpoint,
        "background snapshot write span links to the writer's schedule span");

  // Flow arrows pair up and resolve to cross-thread edges in the ring.
  std::vector<uint64_t> starts =
      ExtractIds(trace_json, "\"ph\":\"s\",\"id\":");
  std::vector<uint64_t> finishes =
      ExtractIds(trace_json, "\"bp\":\"e\",\"id\":");
  Check(!starts.empty(), "trace carries flow arrows");
  std::sort(starts.begin(), starts.end());
  std::sort(finishes.begin(), finishes.end());
  Check(starts == finishes, "every flow start has a matching finish");
  bool flows_resolve = !starts.empty();
  for (uint64_t id : starts) {
    const TraceEvent* child = FindSpan(events, id);
    const TraceEvent* parent =
        child != nullptr ? FindSpan(events, child->parent_span_id) : nullptr;
    if (child == nullptr || parent == nullptr || parent->tid == child->tid) {
      flows_resolve = false;
      break;
    }
  }
  Check(flows_resolve, "every flow arrow resolves to a cross-thread edge");

  // SQL surface for the same export.
  auto show_trace = db->ExecuteQuery("SHOW TRACE");
  Check(show_trace.ok() && show_trace->rows.size() == 1 &&
            show_trace->rows[0][0].ToString().find("traceEvents") !=
                std::string::npos,
        "SHOW TRACE returns the Chrome trace document");

  if (g_failures > 0) {
    std::fprintf(stderr, "%d trace check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("observability trace smoke passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "trace") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: observability_smoke trace <fresh-dir>\n");
      return 2;
    }
    return RunTraceMode(argv[2]);
  }
  workload::SyntheticSpec spec;
  spec.scaling_factor = 20;
  spec.depth = 4;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  if (!gen.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 gen.status().ToString().c_str());
    return 2;
  }

  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerStatementTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  auto store = RelationalStore::Create(gen->dtd, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 store.status().ToString().c_str());
    return 2;
  }
  rdb::Database* db = store.value()->db();
  db->set_slow_statement_threshold_us(0);  // capture everything
  Status loaded = store.value()->Load(*gen->doc);
  if (!loaded.ok()) {
    std::fprintf(stderr, "store load failed: %s\n", loaded.ToString().c_str());
    return 2;
  }

  // --- EXPLAIN ANALYZE over the fig. 6 join shape --------------------------
  const std::string join =
      "SELECT n2.id FROM n1, n2 WHERE n2.parentId = n1.id";
  auto plain = db->ExecuteQuery(join);
  if (!plain.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 plain.status().ToString().c_str());
    return 2;
  }
  auto analyzed = db->ExecuteQuery("EXPLAIN ANALYZE " + join);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "EXPLAIN ANALYZE failed: %s\n",
                 analyzed.status().ToString().c_str());
    return 2;
  }
  std::string plan_text;
  for (const rdb::Row& row : analyzed->rows) {
    plan_text += row[0].ToString();
    plan_text += '\n';
  }
  std::printf("%s", plan_text.c_str());
  Check(plan_text.find("actual rows=") != std::string::npos,
        "EXPLAIN ANALYZE reports per-operator actual rows");
  Check(plan_text.find("time_us=") != std::string::npos,
        "EXPLAIN ANALYZE reports per-operator times");
  const std::string exec_line =
      "Execution: rows=" + std::to_string(plain->rows.size());
  Check(plan_text.find(exec_line) != std::string::npos,
        "EXPLAIN ANALYZE row count matches the plain query");
  Check(plan_text.find("time_us=0.000") == std::string::npos,
        "no operator reports a zero time");

  // --- the §7.2 path join through a reader session -------------------------
  // Readers never probe an index: the inner n1 step must plan as a hash
  // probe, and the snapshot rows must equal the writer's (index-probed).
  const std::string path_join =
      "SELECT l1.id, l0.id FROM n2 l0, n1 l1 WHERE l0.parentId = l1.id";
  auto reader = db->OpenReaderSession();
  if (!reader.ok()) {
    std::fprintf(stderr, "reader session failed: %s\n",
                 reader.status().ToString().c_str());
    return 2;
  }
  auto reader_plan = (*reader)->ExecuteQuery("EXPLAIN " + path_join);
  const std::string reader_plan_text =
      reader_plan.ok() ? reader_plan->ToString() : "";
  std::printf("%s", reader_plan_text.c_str());
  Check(reader_plan_text.find("HashProbe n1 l1 (l1.id = l0.parentId)") !=
            std::string::npos,
        "the reader plans the inner n1 step as a hash probe");
  auto writer_rows = db->ExecuteQuery(path_join);
  auto reader_rows = (*reader)->ExecuteQuery(path_join);
  Check(writer_rows.ok() && reader_rows.ok() && !writer_rows->rows.empty() &&
            writer_rows->ToString(SIZE_MAX) == reader_rows->ToString(SIZE_MAX),
        "the reader's join rows equal the writer's, in order");
  reader->reset();

  // --- fig. 6 bulk delete + SHOW METRICS -----------------------------------
  Status deleted = store.value()->DeleteWhere("n1", "");
  if (!deleted.ok()) {
    std::fprintf(stderr, "delete failed: %s\n", deleted.ToString().c_str());
    return 2;
  }
  auto metrics = db->ExecuteQuery("SHOW METRICS");
  if (!metrics.ok()) {
    std::fprintf(stderr, "SHOW METRICS failed: %s\n",
                 metrics.status().ToString().c_str());
    return 2;
  }
  Check(MetricValue(*metrics, "stats.statements") > 0,
        "SHOW METRICS carries the stats counters");
  Check(MetricValue(*metrics, "stmt.delete.count") >= 1,
        "DELETE statements recorded a latency sample");
  Check(MetricValue(*metrics, "stmt.delete.p50_ns") > 0,
        "DELETE latency p50 is nonzero");
  Check(MetricValue(*metrics, "stmt.select.p99_ns") > 0,
        "SELECT latency p99 is nonzero");
  Check(MetricValue(*metrics, "db.exec_ns") > 0,
        "cumulative execution time counter is nonzero");
  Check(MetricValue(*metrics, "engine.delete_where.count") >= 1,
        "the engine operation recorded its span");
  Check(MetricValue(*metrics, "engine.delete_where.p50_ns") > 0,
        "the engine span time is nonzero");

  // --- slow log + event ring ----------------------------------------------
  auto slow = db->ExecuteQuery("SHOW SLOW");
  Check(slow.ok() && !slow->rows.empty(),
        "SHOW SLOW captured statements at threshold 0");
  auto events = db->ExecuteQuery("SHOW EVENTS");
  Check(events.ok() && !events->rows.empty(), "SHOW EVENTS returns spans");
  if (events.ok() && !events->rows.empty()) {
    const std::string first = events->rows[0][0].ToString();
    Check(first.find("\"kind\"") != std::string::npos &&
              first.find("\"duration_ns\"") != std::string::npos,
          "events serialize as JSON spans");
  }
  auto health = db->ExecuteQuery("SHOW HEALTH");
  Check(health.ok() && !health->rows.empty(), "SHOW HEALTH returns rows");

  if (g_failures > 0) {
    std::fprintf(stderr, "%d observability check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("observability smoke passed\n");
  return 0;
}
