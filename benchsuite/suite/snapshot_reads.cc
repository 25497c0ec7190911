// snapshot-reads: concurrent epoch-snapshot readers beside one writer on a
// memory store — the only workload where MVCC and the catalog lock show.
//
// Three ReaderSession threads each run the §7.2 conventional path plan as
// SQL (n1 join n2 with an n2.v2 range) open-loop; reader sessions plan
// without index probes, so the join is a scan join, and the rate is one the
// engine sustains with room to spare. One writer runs open-loop too:
// inlined s2 rewrites (which park pre-images for pinned readers), copies of
// a leaf n4 under a random n3 (the table insert strategy stages through
// direct-API DDL and so takes the exclusive catalog lock), and deletes of
// n4 leaves. The joined tables never change shape, so reader cost does not
// drift. Each arrival gap is drawn uniformly from [0.5, 1.5] times the
// mean (seeded): readers and the writer do not phase-lock, and without
// Poisson bursts the tails measure the engine rather than queueing on the
// generator's own bursts. Open-loop latencies are timed from the moment
// each op was due.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/rng.h"
#include "suite/workloads.h"
#include "workload/synthetic.h"

namespace xupd::suite {

namespace {

constexpr int kScalingFactor = 100;  // depth 4, fanout 4: 8,501 tuples.
constexpr int kReaders = 3;
/// Queries per second per reader. A copy's staging DDL waits for the
/// reader statements in flight, so copy latency has a fast mode and a
/// waiting one. At 200 q/s the jump between them lay at the 60th to 70th
/// percentile, and insert_p50_us moved from 90 to 220 us between runs; at
/// 100 q/s it lies at the 70th to 90th.
constexpr double kReaderRate = 100;
constexpr double kWriterRate = 400;  // writer operations per second.
/// Writer mix in percent: s2 rewrites, n4 copies, n4 deletes.
constexpr int kRewritePct = 60;
constexpr int kCopyPct = 20;
/// Distinct v2 values a reader's range spans (about 10% of n2).
constexpr size_t kRangeWidth = 40;
/// How early a thread waiting for its next operation stops sleeping and
/// starts spinning (see WaitUntil).
constexpr std::chrono::microseconds kSpinLead{1000};
/// The writer times the host-speed kernel after every kHostSampleEvery-th
/// operation when its next one is due at least kHostSampleSlack later, so
/// the kernel (about 1 ms) never delays an operation. Samples taken
/// before and after the phase instead, with the readers idle, did not
/// follow the host's speed during the phase.
constexpr size_t kHostSampleEvery = 20;
constexpr std::chrono::milliseconds kHostSampleSlack{3};

enum class WriterKind { kRewrite, kCopy, kDelete };

struct WriterOp {
  double due_s;  ///< arrival time from the phase start.
  WriterKind kind;
  std::string text;  ///< rewrite: the XQuery statement.
  int64_t a = 0;     ///< copy: source n4; delete: victim n4.
  int64_t b = 0;     ///< copy: destination n3.
};

struct ReaderQuery {
  double due_s = 0;  ///< arrival time from the phase start.
  std::string lo, hi;
  size_t expected_rows = 0;
};

using Clock = std::chrono::steady_clock;

Clock::time_point DueAt(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
}

/// Next arrival at mean `rate` per second, gap uniform in [0.5, 1.5] mean.
double NextArrival(double now_s, double rate, Rng* rng) {
  return now_s + (0.5 + rng->NextDouble()) / rate;
}

/// Waits until `due`: sleeps until kSpinLead before it, then spins. On a
/// shared virtual machine a sleeping thread's vCPU halts, and the host can
/// take a millisecond to run it again; that delay would count as the
/// engine's latency of every operation due after a sleep.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinLead);
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();  // yields the core's pipeline to a sibling
#endif
  }
}

uint64_t Since(Clock::time_point from, Clock::time_point to) {
  return to > from ? static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             to - from)
                             .count())
                   : 0;
}

Result<size_t> CountStar(rdb::ReaderSession* session, const std::string& table) {
  auto rs = session->ExecuteQuery("SELECT COUNT(*) FROM " + table);
  if (!rs.ok()) return rs.status();
  return static_cast<size_t>(rs->rows[0][0].AsInt());
}

/// Joins every thread it holds when it goes out of scope, so an early exit
/// from the writer loop never destroys a joinable thread.
class JoinAll {
 public:
  explicit JoinAll(std::vector<std::thread>* threads) : threads_(threads) {}
  JoinAll(const JoinAll&) = delete;
  JoinAll& operator=(const JoinAll&) = delete;
  ~JoinAll() { Join(); }
  void Join() {
    for (std::thread& t : *threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread>* threads_;
};

/// What one reader thread measured.
struct ReaderResult {
  Samples latency;
  Samples late;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t rows_scanned = 0;
  uint64_t index_probes = 0;
  Checks checks;
};

void RunReader(int reader, rdb::Database* db, const std::string& sql,
               const std::string& n1_table, size_t n1_rows,
               const std::vector<ReaderQuery>& queries, Clock::time_point t0,
               Tracer* tracer, ReaderResult* out) {
  auto session_or = db->OpenReaderSession();
  if (!session_or.ok()) {
    out->checks.ExpectOk(session_or.status(), "open reader session");
    out->failed = out->attempted = queries.size();
    return;
  }
  rdb::ReaderSession* session = session_or.value().get();
  auto canary = CountStar(session, n1_table);
  out->checks.Expect(canary.ok() && *canary == n1_rows,
                     "reader canary at session start");
  for (size_t q = 0; q < queries.size(); ++q) {
    const Clock::time_point due = DueAt(t0, queries[q].due_s);
    WaitUntil(due);
    const uint64_t scanned0 = session->stats().rows_scanned;
    const uint64_t probes0 = session->stats().index_probes;
    const Clock::time_point start = Clock::now();
    ++out->attempted;
    auto rs = session->ExecuteQueryBound(
        sql, {rdb::Value::Str(queries[q].lo), rdb::Value::Str(queries[q].hi)});
    const Clock::time_point done = Clock::now();
    out->late.Add(Since(due, start));
    if (!rs.ok()) {
      ++out->failed;
      out->checks.ExpectOk(rs.status(), "reader query");
      continue;
    }
    ++out->completed;
    out->latency.Add(Since(due, done));
    out->checks.Expect(rs->rows.size() == queries[q].expected_rows,
                       "reader query returned " + std::to_string(rs->rows.size()) +
                           " rows, expected " +
                           std::to_string(queries[q].expected_rows));
    if (tracer->enabled()) {
      tracer->ReaderSpan(reader, NowNs() - Since(start, done), Since(start, done),
                         session->stats().rows_scanned - scanned0,
                         session->stats().index_probes - probes0,
                         Since(due, start));
    }
  }
  canary = CountStar(session, n1_table);
  out->checks.Expect(canary.ok() && *canary == n1_rows,
                     "reader canary at session end");
  out->rows_scanned = session->stats().rows_scanned;
  out->index_probes = session->stats().index_probes;
}

}  // namespace

Outcome RunSnapshotReads(const RunConfig& cfg, double seconds, Tracer* tracer) {
  Outcome out;
  out.open_loop = true;  // the writer's rate is the offered one
  workload::SyntheticSpec spec;
  spec.scaling_factor = cfg.smoke ? 2 : kScalingFactor;
  spec.depth = 4;
  spec.fanout = 4;
  const engine::RelationalStore::Options options;

  auto prepared = SetUp(
      [&] { return workload::GenerateFixedSynthetic(spec, cfg.seed); },
      options, &out);
  if (!prepared.ok()) {
    out.checks.ExpectOk(prepared.status(), "setup");
    return out;
  }
  engine::RelationalStore* store = prepared->built.store.get();
  rdb::Database* db = store->db();
  const std::string n1_table = store->mapping().ForElement("n1")->table;
  const std::string n2_table = store->mapping().ForElement("n2")->table;

  // Inputs: reader ranges over the (never changing) n2.v2 values, and the
  // writer's operation list over the original n3/n4 rows.
  auto v2_rows = db->ExecuteQuery("SELECT v2 FROM " + n2_table);
  auto n3_ids = store->SelectIds("n3", "");
  auto n4_ids = store->SelectIds("n4", "");
  if (!v2_rows.ok() || !n3_ids.ok() || !n4_ids.ok() || n3_ids->empty()) {
    out.checks.Expect(false, "cannot read the loaded document's ids");
    return out;
  }
  std::vector<std::string> v2s;
  for (const rdb::Row& row : v2_rows->rows) v2s.emplace_back(row[0].AsString());
  std::vector<std::string> distinct = v2s;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  Rng rng(cfg.seed * 0x94d049bb133111ebULL + 5);
  std::vector<std::vector<ReaderQuery>> reader_queries(kReaders);
  for (auto& queries : reader_queries) {
    for (double due = NextArrival(0, kReaderRate, &rng); due < seconds;
         due = NextArrival(due, kReaderRate, &rng)) {
      const size_t at = rng.Uniform(distinct.size());
      ReaderQuery rq;
      rq.due_s = due;
      rq.lo = distinct[at];
      rq.hi = at + kRangeWidth < distinct.size() ? distinct[at + kRangeWidth]
                                                 : std::string("a");
      for (const std::string& v : v2s) {
        rq.expected_rows += (v >= rq.lo && v < rq.hi) ? 1 : 0;
      }
      queries.push_back(std::move(rq));
    }
  }
  std::vector<WriterOp> writer_ops;
  std::vector<int64_t> live_n4 = *n4_ids;
  size_t copies = 0, deletes = 0;
  for (double due = NextArrival(0, kWriterRate, &rng); due < seconds;
       due = NextArrival(due, kWriterRate, &rng)) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < kRewritePct || live_n4.size() < 2) {
      writer_ops.push_back(
          {due, WriterKind::kRewrite,
           "FOR $d IN document(\"x\"), $x IN $d/n1/n2[v2 = \"" +
               v2s[rng.Uniform(v2s.size())] +
               "\"], $s IN $x/s2 UPDATE $x { REPLACE $s WITH <s2>" +
               rng.RandomString(12) + "</s2> }"});
    } else if (roll < kRewritePct + kCopyPct) {
      writer_ops.push_back({due, WriterKind::kCopy, "", live_n4[rng.Uniform(live_n4.size())],
                            (*n3_ids)[rng.Uniform(n3_ids->size())]});
      ++copies;
    } else {
      const size_t at = rng.Uniform(live_n4.size());
      writer_ops.push_back({due, WriterKind::kDelete, "", live_n4[at], 0});
      live_n4.erase(live_n4.begin() + static_cast<ptrdiff_t>(at));
      ++deletes;
    }
  }

  const std::string reader_sql = "SELECT l1.id FROM " + n2_table + " l0, " +
                                 n1_table +
                                 " l1 WHERE l0.v2 >= ? AND l0.v2 < ? AND "
                                 "l0.parentId = l1.id";
  const size_t n1_rows = LiveRows(store, "n1");
  tracer->Attach(db);
  std::vector<ReaderResult> results(kReaders);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  ResetPeakRss();
  const uint64_t phase_start = NowNs();
  std::vector<std::thread> readers;
  JoinAll join_readers(&readers);
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(RunReader, r, db, std::cref(reader_sql),
                         std::cref(n1_table), n1_rows,
                         std::cref(reader_queries[static_cast<size_t>(r)]), t0,
                         tracer, &results[static_cast<size_t>(r)]);
  }

  Samples late;
  for (size_t i = 0; i < writer_ops.size(); ++i) {
    const WriterOp& op = writer_ops[i];
    const Clock::time_point due = DueAt(t0, op.due_s);
    WaitUntil(due);
    late.Add(Since(due, Clock::now()));
    uint64_t ns = 0;
    ++out.attempted;
    Status s;
    switch (op.kind) {
      case WriterKind::kRewrite:
        s = tracer->Call(OpClass::kRewrite, "xquery_update", &ns,
                         [&] { return store->ExecuteXQueryUpdate(op.text); });
        break;
      case WriterKind::kCopy:
        s = tracer->Call(OpClass::kInsert, "copy_subtree", &ns,
                         [&] { return store->CopySubtree("n4", op.a, op.b); });
        break;
      case WriterKind::kDelete:
        s = tracer->Call(OpClass::kDelete, "delete_by_ids", &ns,
                         [&] { return store->DeleteByIds("n4", {op.a}); });
        break;
    }
    const uint64_t from_due = Since(due, Clock::now());
    if (!s.ok()) {
      out.RecordFailure(s, "writer op");
      continue;
    }
    ++out.update_ops;
    if (op.kind == WriterKind::kCopy) out.inserts.Add(from_due);
    if (op.kind == WriterKind::kDelete) out.deletes.Add(from_due);
    if (i % kHostSampleEvery == 0 && i + 1 < writer_ops.size() &&
        DueAt(t0, writer_ops[i + 1].due_s) - Clock::now() >= kHostSampleSlack) {
      out.host.Sample();
    }
  }
  join_readers.Join();
  out.measured_ns = NowNs() - phase_start;
  // Open loop: the rate is the offered one unless the writer falls behind,
  // so the whole phase is one window.
  out.AddRateWindow(out.update_ops, out.measured_ns);
  out.NotePeakRss();

  uint64_t reader_scanned = 0, reader_probes = 0;
  for (ReaderResult& r : results) {
    out.queries.Append(r.latency);
    late.Append(r.late);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.reads += r.completed;
    reader_scanned += r.rows_scanned;
    reader_probes += r.index_probes;
    out.checks.Merge(r.checks);
  }
  const double reads = static_cast<double>(std::max<uint64_t>(out.reads, 1));
  out.layer.Set("rdb.reader.rows_scanned_per_query",
                static_cast<double>(reader_scanned) / reads, "count");
  out.layer.Set("rdb.reader.index_probes_per_query",
                static_cast<double>(reader_probes) / reads, "count");
  out.layer.Set("bench.generator_late_p99_us", late.Percentile(99) / 1000.0,
                "us");

  const size_t per_level[] = {1, 4, 16, 64};
  for (int k = 1; k <= 3; ++k) {
    out.checks.Expect(
        LiveRows(store, LevelElement(k)) ==
            static_cast<size_t>(spec.scaling_factor) * per_level[k - 1],
        LevelElement(k) + " row count changed");
  }
  out.checks.Expect(LiveRows(store, "n4") ==
                        n4_ids->size() + copies - deletes,
                    "n4 row count does not match copies and deletes");
  out.checks.ExpectClean(store->VerifyStore(), "VerifyStore");
  out.checks.ExpectClean(db->VerifyIntegrity(), "VerifyIntegrity");
  out.slots_per_live_row = SlotsPerLiveRow(store);
  tracer->Detach();
  return out;
}

}  // namespace xupd::suite
