// dblp-asr-churn: the Table 2 DBLP-like document on one long-lived memory
// store with the ASR delete and ASR insert strategies. Each iteration copies
// a random live conference under the root, deletes another one with
// DeleteByIds, and runs ASR-served path lookups for random authors. ASR
// maintenance on writes sits beside ASR-served reads, so a gain for one
// that costs the other shows up. Every lookup's result size is checked
// against the number of live conferences (originals and copies) that list
// the author.
//
// VerifyIntegrity's index cross-check costs O(rows x equal keys) per index,
// and the ASR's root column holds one value in every row, so on a
// full-size store it runs for many seconds (49 s at 400 conferences). Every
// pass is scrubbed with VerifyStore; VerifyIntegrity runs on a 1/10-size
// replica of the same pass, after the measured phase.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "suite/workloads.h"
#include "workload/synthetic.h"

namespace xupd::suite {

namespace {

/// Half the Table 2 bench's default of 400 conferences (about 24k
/// tuples), so a 20 s run pools about 1,000 copies and deletes: at 400 the
/// p99s moved by 0.23-0.29 (quartile distance over median) across seeds.
constexpr int kConferences = 200;
/// Copy+delete iterations per pass. Deletes take original conferences
/// only, so a pass must stay below kConferences.
constexpr int kPassIterations = 100;
constexpr int kQueriesPerIteration = 4;
constexpr int kAuthors = 5000;  // the generator's author-<k> name space.
constexpr int kReplicaDivisor = 10;

/// For each author-<k>, the original conferences (by document position)
/// that list it.
std::vector<std::vector<size_t>> AuthorIndex(const xml::Document& doc) {
  std::vector<std::vector<size_t>> index(kAuthors);
  size_t c = 0;
  for (const auto& conf : doc.root()->children()) {
    if (!conf->is_element()) continue;
    std::set<int> authors;
    for (const auto& pub : static_cast<const xml::Element*>(conf.get())->children()) {
      if (!pub->is_element()) continue;
      for (const auto& f : static_cast<const xml::Element*>(pub.get())->children()) {
        if (!f->is_element()) continue;
        const auto* field = static_cast<const xml::Element*>(f.get());
        if (field->name() != "author") continue;
        authors.insert(std::atoi(field->TextContent().c_str() + 7));  // "author-"
      }
    }
    for (int a : authors) {
      if (a >= 0 && a < kAuthors) index[static_cast<size_t>(a)].push_back(c);
    }
    ++c;
  }
  return index;
}

engine::RelationalStore::Options StoreOptions() {
  engine::RelationalStore::Options options;
  options.delete_strategy = engine::DeleteStrategy::kAsr;
  options.insert_strategy = engine::InsertStrategy::kAsr;
  return options;
}

/// One pass of `iterations` copy/delete/lookup iterations on a freshly
/// loaded store; samples, counts, the iterations' wall time and check
/// failures go to `out`.
void ChurnPass(engine::RelationalStore* store, uint64_t seed, int iterations,
               const std::vector<std::vector<size_t>>& author_index,
               Tracer* tracer, Outcome* out) {
  // Original conferences: id and document position (cname "conf-<c>").
  auto rows = store->db()->ExecuteQuery(
      "SELECT id, cname FROM " +
      store->mapping().ForElement("conference")->table + " ORDER BY id");
  if (!rows.ok()) {
    out->checks.ExpectOk(rows.status(), "conference ids");
    return;
  }
  std::vector<int64_t> originals;
  std::map<int64_t, size_t> position;
  for (const rdb::Row& row : rows->rows) {
    originals.push_back(row[0].AsInt());
    position[row[0].AsInt()] = static_cast<size_t>(
        std::atoi(std::string(row[1].AsString()).c_str() + 5));
  }
  const size_t live_conferences = originals.size();
  // Live conferences per document position (a copy counts for its source).
  std::vector<int> live_by_position(live_conferences, 1);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);  // identical every pass

  for (int it = 0; it < iterations && originals.size() >= 2; ++it) {
    const uint64_t iteration_start = NowNs();
    const uint64_t ops_before = out->update_ops;
    const size_t src_at = rng.Uniform(originals.size());
    size_t victim_at = rng.Uniform(originals.size() - 1);
    if (victim_at >= src_at) ++victim_at;
    const int64_t src = originals[src_at];
    const int64_t victim = originals[victim_at];

    uint64_t ns = 0;
    ++out->attempted;
    Status s = tracer->Call(OpClass::kInsert, "copy_subtree", &ns, [&] {
      return store->CopySubtree("conference", src, store->root_id());
    });
    if (!s.ok()) {
      out->RecordFailure(s, "copy conference");
    } else {
      ++out->update_ops;
      out->inserts.Add(ns);
      ++live_by_position[position[src]];
    }

    ++out->attempted;
    s = tracer->Call(OpClass::kDelete, "delete_by_ids", &ns, [&] {
      return store->DeleteByIds("conference", {victim});
    });
    if (!s.ok()) {
      out->RecordFailure(s, "delete conference");
    } else {
      ++out->update_ops;
      out->deletes.Add(ns);
      --live_by_position[position[victim]];
    }
    originals.erase(originals.begin() + static_cast<ptrdiff_t>(victim_at));

    for (int q = 0; q < kQueriesPerIteration; ++q) {
      const size_t k = rng.Uniform(kAuthors);
      const std::string author = "author-" + std::to_string(k);
      std::vector<int64_t> found;
      ++out->attempted;
      s = tracer->Call(OpClass::kQuery, "path_query_asr", &ns, [&]() -> Status {
        auto r = store->PathQueryAsr("conference", "author",
                                     "l.value = '" + author + "'");
        if (!r.ok()) return r.status();
        found = std::move(r).value();
        return Status::OK();
      });
      if (!s.ok()) {
        out->RecordFailure(s, "path query");
        continue;
      }
      ++out->reads;
      out->queries.Add(ns);
      size_t expected = 0;
      for (size_t c : author_index[k]) {
        expected += static_cast<size_t>(live_by_position[c]);
      }
      out->checks.Expect(found.size() == expected,
                         "path query for " + author + " returned " +
                             std::to_string(found.size()) +
                             " conferences, expected " +
                             std::to_string(expected));
    }
    const uint64_t iteration_ns = NowNs() - iteration_start;
    out->AddRateWindow(out->update_ops - ops_before, iteration_ns);
    out->measured_ns += iteration_ns;
    out->host.Sample();
  }
  out->checks.Expect(LiveRows(store, "conference") == live_conferences,
                     "conference count drifted from " +
                         std::to_string(live_conferences));
}

}  // namespace

Outcome RunDblpAsrChurn(const RunConfig& cfg, double seconds, Tracer* tracer) {
  Outcome out;
  workload::DblpSpec spec;
  spec.conferences = cfg.smoke ? kConferences / 50 : kConferences;
  const int pass_iterations = cfg.smoke ? 3 : kPassIterations;
  const engine::RelationalStore::Options options = StoreOptions();

  auto prepared = SetUp([&] { return workload::GenerateDblp(spec, cfg.seed); },
                        options, &out);
  if (!prepared.ok()) {
    out.checks.ExpectOk(prepared.status(), "setup");
    return out;
  }

  const std::vector<std::vector<size_t>> author_index = AuthorIndex(*prepared->doc.doc);
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int pass = 0;; ++pass) {
    if (pass > 0) {
      Status rebuilt = Rebuild(&*prepared, options, &out);
      if (!rebuilt.ok()) {
        out.checks.ExpectOk(rebuilt, "pass store build");
        break;
      }
    }
    engine::RelationalStore* store = prepared->built.store.get();
    tracer->Attach(store->db());
    ResetPeakRss();
    ChurnPass(store, cfg.seed, pass_iterations, author_index, tracer, &out);
    out.NotePeakRss();
    out.checks.ExpectClean(store->VerifyStore(), "VerifyStore");
    out.slots_per_live_row = SlotsPerLiveRow(store);
    tracer->Detach();
    if (!out.checks.ok() || NowNs() >= deadline) break;
  }
  prepared->built.store.reset();

  // Integrity scrub on a 1/10-size replica of the pass (untimed).
  workload::DblpSpec small = spec;
  small.conferences = std::max(spec.conferences / kReplicaDivisor, 4);
  auto replica_doc = workload::GenerateDblp(small, cfg.seed);
  if (!replica_doc.ok()) {
    out.checks.ExpectOk(replica_doc.status(), "replica generate");
    return out;
  }
  auto replica = BuildStore(replica_doc->dtd, *replica_doc->doc, options);
  if (!replica.ok()) {
    out.checks.ExpectOk(replica.status(), "replica store build");
    return out;
  }
  Tracer untraced(false);
  Outcome scratch;
  ChurnPass(replica->store.get(), cfg.seed,
            std::max(pass_iterations / kReplicaDivisor, 2),
            AuthorIndex(*replica_doc->doc), &untraced, &scratch);
  scratch.checks.ExpectClean(replica->store->VerifyStore(),
                             "VerifyStore (replica)");
  scratch.checks.ExpectClean(replica->store->db()->VerifyIntegrity(),
                             "VerifyIntegrity (replica)");
  out.checks.Merge(scratch.checks);
  return out;
}

}  // namespace xupd::suite
