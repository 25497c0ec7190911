// bulk-ingest-prune: the paper's fig. 6/10 bulk protocol as a loop. Each
// cycle builds a fresh store (per-tuple-trigger delete, table insert,
// memory) over a fixed synthetic document, copies every n1 subtree under the
// root in one strategy pass, and deletes every n1 subtree in one statement.
// The trigger cascade and the shredder do the work; ASR, WAL, MVCC and the
// XQuery translator sit idle. The row-count check after each copy is the
// workload's read; the one after each delete is an untimed check.
#include <string>

#include "suite/workloads.h"
#include "workload/synthetic.h"

namespace xupd::suite {

namespace {

constexpr int kDepth = 8;
/// Full-scale document: sf=800, depth 8, fanout 1 (6,401 tuples).
constexpr int kScalingFactor = 800;
/// Cycles whose copy and delete are also scrubbed (VerifyStore +
/// VerifyIntegrity, untimed): the first and every kScrubEvery-th.
constexpr uint64_t kScrubEvery = 64;

/// SELECT COUNT(*) over the root and every n<k> table; `counts[k]` is the
/// live row count of level k (k = 0 is the root).
Status CountRows(engine::RelationalStore* store, std::vector<int64_t>* counts) {
  counts->assign(kDepth + 1, -1);
  for (int k = 0; k <= kDepth; ++k) {
    const std::string element = k == 0 ? std::string("doc") : LevelElement(k);
    const shred::TableMapping* tm = store->mapping().ForElement(element);
    if (tm == nullptr) return Status::Internal("no table for " + element);
    auto rs = store->db()->ExecuteQuery("SELECT COUNT(*) FROM " + tm->table);
    if (!rs.ok()) return rs.status();
    (*counts)[static_cast<size_t>(k)] = rs->rows[0][0].AsInt();
  }
  return Status::OK();
}

void ExpectCounts(const std::vector<int64_t>& counts, int64_t per_level,
                  const std::string& when, Checks* checks) {
  checks->Expect(counts.size() == kDepth + 1 && counts[0] == 1,
                 when + ": root row missing");
  for (size_t k = 1; k < counts.size(); ++k) {
    if (counts[k] != per_level) {
      checks->Expect(false, when + ": " + LevelElement(static_cast<int>(k)) + " holds " +
                                std::to_string(counts[k]) + " rows, expected " +
                                std::to_string(per_level));
      return;
    }
  }
}

}  // namespace

Outcome RunBulkIngestPrune(const RunConfig& cfg, double seconds,
                           Tracer* tracer) {
  Outcome out;
  // The copy and the delete write rows all over a fresh store; the
  // hash-probe kernel slowed only about two thirds as much as they did.
  out.host = out.setup_host = HostSpeed(HostSpeed::Kernel::kScatteredWrites);
  workload::SyntheticSpec spec;
  spec.scaling_factor = cfg.smoke ? kScalingFactor / 50 : kScalingFactor;
  spec.depth = kDepth;
  spec.fanout = 1;
  const engine::RelationalStore::Options options;

  auto prepared = SetUp(
      [&] { return workload::GenerateFixedSynthetic(spec, cfg.seed); },
      options, &out);
  if (!prepared.ok()) {
    out.checks.ExpectOk(prepared.status(), "setup");
    return out;
  }
  prepared->built.store.reset();  // every cycle builds its own store
  const workload::GeneratedDoc& gen = prepared->doc;

  const int64_t per_level = spec.scaling_factor;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  ResetPeakRss();
  std::vector<int64_t> counts;
  for (uint64_t cycle = 0;; ++cycle) {
    const uint64_t cycle_start = NowNs();
    const uint64_t ops_before = out.update_ops;
    uint64_t cycle_untimed_ns = 0;
    auto built = BuildStore(gen.dtd, *gen.doc, options);
    if (!built.ok()) {
      out.checks.ExpectOk(built.status(), "cycle store build");
      break;
    }
    out.RecordBuild(*built);
    engine::RelationalStore* store = built->store.get();
    tracer->Attach(store->db());
    const bool scrub = cycle % kScrubEvery == 0;

    uint64_t ns = 0;
    ++out.attempted;
    Status s = tracer->Call(OpClass::kInsert, "copy_subtrees_where", &ns, [&] {
      return store->CopySubtreesWhere("n1", "", store->root_id());
    });
    if (!s.ok()) {
      out.RecordFailure(s, "copy");
    } else {
      ++out.update_ops;
      out.inserts.Add(ns);
    }

    ++out.attempted;
    s = tracer->Call(OpClass::kQuery, "count_rows", &ns,
                     [&] { return CountRows(store, &counts); });
    if (!s.ok()) {
      out.RecordFailure(s, "count after copy");
    } else {
      ++out.reads;
      out.queries.Add(ns);
      ExpectCounts(counts, 2 * per_level, "after copy", &out.checks);
    }
    if (scrub) {
      const uint64_t t0 = NowNs();
      out.checks.ExpectClean(store->VerifyStore(), "VerifyStore after copy");
      out.checks.ExpectClean(store->db()->VerifyIntegrity(),
                             "VerifyIntegrity after copy");
      cycle_untimed_ns += NowNs() - t0;
    }

    ++out.attempted;
    s = tracer->Call(OpClass::kDelete, "delete_where", &ns,
                     [&] { return store->DeleteWhere("n1", ""); });
    if (!s.ok()) {
      out.RecordFailure(s, "delete");
    } else {
      ++out.update_ops;
      out.deletes.Add(ns);
    }

    {
      // Untimed: a count over tombstones only would pool a second,
      // cheaper read with the timed one, and a median of a 50/50 mix of
      // two costs sits in the gap between them.
      const uint64_t t0 = NowNs();
      s = CountRows(store, &counts);
      out.checks.ExpectOk(s, "count after delete");
      if (s.ok()) ExpectCounts(counts, 0, "after delete", &out.checks);
      cycle_untimed_ns += NowNs() - t0;
    }
    if (scrub) {
      const uint64_t t0 = NowNs();
      out.checks.ExpectClean(store->VerifyStore(), "VerifyStore after delete");
      out.checks.ExpectClean(store->db()->VerifyIntegrity(),
                             "VerifyIntegrity after delete");
      cycle_untimed_ns += NowNs() - t0;
    }
    const uint64_t cycle_ns = NowNs() - cycle_start - cycle_untimed_ns;
    out.AddRateWindow(out.update_ops - ops_before, cycle_ns);
    out.measured_ns += cycle_ns;
    out.host.Sample();
    out.slots_per_live_row = SlotsPerLiveRow(store);
    tracer->Detach();
    if (!out.checks.ok() || NowNs() >= deadline) break;
  }
  // Every cycle builds a store, and nearly all of setup_s's builds are these,
  // so the samples taken between cycles scale set-up as well. The nine
  // set-up samples alone left the median setup_s of two sets of ten runs up
  // to 0.23 apart; with the cycles' samples, 0.08.
  out.setup_host.Merge(out.host);
  out.NotePeakRss();
  return out;
}

}  // namespace xupd::suite
