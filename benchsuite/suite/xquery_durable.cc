// xquery-durable: XQuery update statements against a durable store on disk
// (every commit unit appended to the WAL, which is never fsynced; default
// strategies, a background checkpoint every 5,000 statements). The XQuery
// translator, SQL parse/plan and the WAL dominate here; this is the only
// workload that writes a WAL, snapshots, and recovers.
//
// The statement list is generated once from the seed by simulating the
// document's n1/n2 levels:
//  * 80% are subtree statements over an n2[v2] range picked around a live
//    row's value under one n1 (named by its v1): DELETE $t, or INSERT $t
//    copying that range under another n1. Copies land under a different
//    parent, so a later range delete there removes exactly the copies and
//    the document stays stationary; a copy of a whole n1 could never be
//    told apart from its source by any predicate. Delete-vs-insert is
//    steered toward the initial number of elements under n2, so rows
//    copied and rows deleted balance even though subtree sizes vary.
//  * 20% delete, overwrite or restore the inlined s2 of the n2 rows with
//    one v2 value.
// After every fourth update a range read (RelationalStore::SelectIds on n2)
// checks the simulated row count. Every pass's reconstructed document must
// equal a native-tree replay (xquery::NativeExecutor) of the same list, and
// the store reopened after the last pass must equal the store before close.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "suite/workloads.h"
#include "workload/synthetic.h"
#include "xquery/executor.h"

namespace xupd::suite {

namespace {

constexpr int kScalingFactor = 500;
constexpr int kMaxDepth = 6;
constexpr int kMaxFanout = 4;
/// The randomized document's size varies by about 17% across seeds, which
/// would swamp run-to-run comparisons; the workload uses the first derived
/// seed whose document lands within 2% of the expected size (the shape
/// stays random).
constexpr size_t kTargetTuples = 25600;
constexpr double kSizeTolerance = 0.02;
/// Update statements per pass; a range read follows every kReadEvery-th.
constexpr int kPassStatements = 10000;
constexpr int kReadEvery = 4;
/// Statement-list entries (updates and reads) per throughput window: a
/// window closes at the same list positions in every pass.
constexpr size_t kRateWindowStatements = 125;
/// Background checkpoints at statements kFirstCheckpoint + k *
/// kCheckpointEvery, so recovery after a pass replays a real WAL suffix.
constexpr int kFirstCheckpoint = 2500;
constexpr int kCheckpointEvery = 5000;
constexpr int kReopens = 5;

enum class StmtKind {
  kSubtreeDelete,
  kSubtreeInsert,
  kS2Delete,
  kS2Replace,
  kS2Restore,
  kRangeRead,
};

struct Stmt {
  StmtKind kind;
  std::string text;  ///< XQuery text, or the SQL predicate of a read.
  size_t expected_rows = 0;  ///< reads only.
};

/// The n1/n2 levels of the document as the statements change them: enough
/// to pick ranges around live values and to know what each statement hits.
/// n1 rows are never copied or deleted, so an n1 is named by its v1 (every
/// operation applies to all n1 sharing that v1, as the XQuery binding does).
class DocumentModel {
 public:
  explicit DocumentModel(const xml::Element& root) {
    for (const auto& child : root.children()) {
      if (!child->is_element()) continue;
      const auto* n1 = static_cast<const xml::Element*>(child.get());
      if (n1->name() != "n1") continue;
      N1 entry;
      entry.v1 = TextOf(*n1, "v1");
      for (const auto& grand : n1->children()) {
        if (!grand->is_element()) continue;
        const auto* n2 = static_cast<const xml::Element*>(grand.get());
        if (n2->name() != "n2") continue;
        entry.n2s.push_back({TextOf(*n2, "v2"),
                             n2->FindChildElement("s2") != nullptr,
                             CountElements(*n2)});
        live_elements_ += entry.n2s.back().elements;
      }
      n1s_.push_back(std::move(entry));
    }
    initial_elements_ = live_elements_;
  }

  /// Elements in the live n2 subtrees (their rows in the store).
  size_t live_elements() const { return live_elements_; }
  size_t initial_elements() const { return initial_elements_; }

  /// v1 of a random n1 that has at least one n2 ("" when none has).
  std::string RandomParentWithChildren(Rng* rng) const {
    for (int tries = 0; tries < 64; ++tries) {
      const N1& e = n1s_[rng->Uniform(n1s_.size())];
      if (!e.n2s.empty()) return e.v1;
    }
    return "";
  }
  std::string RandomParent(Rng* rng) const {
    return n1s_[rng->Uniform(n1s_.size())].v1;
  }

  /// [lo, hi) over the v2 values under `v1`, starting at a random one and
  /// covering `distinct` distinct values ("a" sorts after every decimal
  /// string).
  std::pair<std::string, std::string> ChildRange(const std::string& v1,
                                                 Rng* rng, int distinct) const {
    std::vector<std::string> values;
    for (const N1& e : n1s_) {
      if (e.v1 != v1) continue;
      for (const N2& n2 : e.n2s) values.push_back(n2.v2);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    const size_t at = rng->Uniform(values.size());
    const size_t end = at + static_cast<size_t>(distinct);
    return {values[at], end < values.size() ? values[end] : std::string("a")};
  }

  void DeleteChildren(const std::string& v1, const std::string& lo,
                      const std::string& hi) {
    for (N1& e : n1s_) {
      if (e.v1 != v1) continue;
      std::erase_if(e.n2s, [&](const N2& n2) {
        if (!InRange(n2.v2, lo, hi)) return false;
        live_elements_ -= n2.elements;
        return true;
      });
    }
  }

  void CopyChildren(const std::string& from_v1, const std::string& lo,
                    const std::string& hi, const std::string& to_v1) {
    std::vector<N2> copies;
    size_t copied_elements = 0;
    for (const N1& e : n1s_) {
      if (e.v1 != from_v1) continue;
      for (const N2& n2 : e.n2s) {
        if (!InRange(n2.v2, lo, hi)) continue;
        copies.push_back(n2);
        copied_elements += n2.elements;
      }
    }
    for (N1& e : n1s_) {
      if (e.v1 != to_v1) continue;
      e.n2s.insert(e.n2s.end(), copies.begin(), copies.end());
      live_elements_ += copied_elements;
    }
  }

  /// n2 rows (any parent) with v2 in [lo, hi).
  size_t CountN2InRange(const std::string& lo, const std::string& hi) const {
    size_t n = 0;
    for (const N1& e : n1s_) {
      for (const N2& n2 : e.n2s) n += InRange(n2.v2, lo, hi) ? 1 : 0;
    }
    return n;
  }

  /// v2 of a random n2 under a random n1 ("" when that n1 has none).
  std::string RandomV2(Rng* rng) const {
    const N1& e = n1s_[rng->Uniform(n1s_.size())];
    if (e.n2s.empty()) return "";
    return e.n2s[rng->Uniform(e.n2s.size())].v2;
  }

  /// How many n2 rows with this v2 carry / lack an s2.
  std::pair<size_t, size_t> S2State(const std::string& v2) const {
    size_t with = 0, without = 0;
    for (const N1& e : n1s_) {
      for (const N2& n2 : e.n2s) {
        if (n2.v2 != v2) continue;
        (n2.s2 ? with : without) += 1;
      }
    }
    return {with, without};
  }

  void SetS2(const std::string& v2, bool present) {
    for (N1& e : n1s_) {
      for (N2& n2 : e.n2s) {
        if (n2.v2 == v2) n2.s2 = present;
      }
    }
  }

 private:
  struct N2 {
    std::string v2;
    bool s2 = true;
    size_t elements = 1;  ///< in the subtree, this n2 included.
  };
  struct N1 {
    std::string v1;
    std::vector<N2> n2s;
  };

  static bool InRange(const std::string& v, const std::string& lo,
                      const std::string& hi) {
    return v >= lo && v < hi;
  }
  static size_t CountElements(const xml::Element& e) {
    size_t n = 1;
    for (const auto& child : e.children()) {
      if (child->is_element()) {
        n += CountElements(*static_cast<const xml::Element*>(child.get()));
      }
    }
    return n;
  }
  static std::string TextOf(const xml::Element& e, const char* child) {
    const xml::Element* c = e.FindChildElement(child);
    return c == nullptr ? std::string() : c->TextContent();
  }

  std::vector<N1> n1s_;
  size_t live_elements_ = 0;
  size_t initial_elements_ = 0;
};

std::string N1Step(const std::string& v1) {
  return "$d/n1[v1 = \"" + v1 + "\"]";
}

std::string N2Range(const std::string& lo, const std::string& hi) {
  return "n2[v2 >= \"" + lo + "\" and v2 < \"" + hi + "\"]";
}

/// The pass's statement list; identical for every pass of a run.
std::vector<Stmt> GenerateStatements(const xml::Document& doc, uint64_t seed,
                                     int updates) {
  DocumentModel model(*doc.root());
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 29);
  std::vector<Stmt> out;
  out.reserve(static_cast<size_t>(updates + updates / kReadEvery));
  const std::string head = "FOR $d IN document(\"x\"), ";
  for (int i = 0; i < updates; ++i) {
    bool subtree = rng.Uniform(5) < 4;
    const std::string from = model.RandomParentWithChildren(&rng);
    if (subtree && !from.empty()) {
      const double excess = (static_cast<double>(model.live_elements()) -
                             static_cast<double>(model.initial_elements())) /
                            static_cast<double>(model.initial_elements());
      const double p_delete = std::clamp(0.5 + 4.0 * excess, 0.1, 0.9);
      if (rng.NextDouble() < p_delete) {
        auto [lo, hi] = model.ChildRange(from, &rng, 1 + static_cast<int>(rng.Uniform(2)));
        out.push_back({StmtKind::kSubtreeDelete,
                       head + "$p IN " + N1Step(from) + ", $t IN $p/" +
                           N2Range(lo, hi) + " UPDATE $p { DELETE $t }"});
        model.DeleteChildren(from, lo, hi);
      } else {
        std::string to = model.RandomParent(&rng);
        while (to == from) to = model.RandomParent(&rng);
        auto [lo, hi] = model.ChildRange(from, &rng, 1);
        out.push_back({StmtKind::kSubtreeInsert,
                       head + "$t IN " + N1Step(from) + "/" + N2Range(lo, hi) +
                           ", $p IN " + N1Step(to) + " UPDATE $p { INSERT $t }"});
        model.CopyChildren(from, lo, hi, to);
      }
    } else {
      // Inlined s2 of every n2 with one v2 value. The native tree appends
      // on INSERT and skips absent s2 on REPLACE, while the relational
      // translation overwrites a column, so the statement kind follows the
      // rows' current state to keep both sides meaning the same thing.
      std::string v2;
      for (int tries = 0; tries < 8 && v2.empty(); ++tries) v2 = model.RandomV2(&rng);
      if (v2.empty()) continue;
      const auto [with, without] = model.S2State(v2);
      const std::string n2 = head + "$x IN $d/n1/n2[v2 = \"" + v2 + "\"]";
      const std::string text = rng.RandomString(12);
      if (with > 0 && without > 0) {
        out.push_back({StmtKind::kS2Delete, n2 + ", $s IN $x/s2 UPDATE $x { DELETE $s }"});
        model.SetS2(v2, false);
      } else if (without > 0) {
        out.push_back({StmtKind::kS2Restore,
                       n2 + " UPDATE $x { INSERT <s2>" + text + "</s2> }"});
        model.SetS2(v2, true);
      } else if (rng.Uniform(2) == 0) {
        out.push_back({StmtKind::kS2Delete, n2 + ", $s IN $x/s2 UPDATE $x { DELETE $s }"});
        model.SetS2(v2, false);
      } else {
        out.push_back({StmtKind::kS2Replace,
                       n2 + ", $s IN $x/s2 UPDATE $x { REPLACE $s WITH <s2>" + text +
                           "</s2> }"});
      }
    }
    if ((i + 1) % kReadEvery == 0) {
      const std::string v2 = model.RandomV2(&rng);
      if (v2.empty()) continue;
      // From that value up to (not including) one a few thousand above it.
      const std::string hi = v2 + "5";
      out.push_back({StmtKind::kRangeRead, "v2 >= '" + v2 + "' AND v2 < '" + hi + "'",
                     model.CountN2InRange(v2, hi)});
    }
  }
  return out;
}

OpClass ClassOf(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSubtreeDelete:
    case StmtKind::kS2Delete:
      return OpClass::kDelete;
    case StmtKind::kSubtreeInsert:
      return OpClass::kInsert;
    case StmtKind::kS2Replace:
    case StmtKind::kS2Restore:
      return OpClass::kRewrite;
    case StmtKind::kRangeRead:
      return OpClass::kQuery;
  }
  return OpClass::kRewrite;
}

}  // namespace

Outcome RunXQueryDurable(const RunConfig& cfg, double seconds, Tracer* tracer) {
  Outcome out;
  workload::SyntheticSpec spec;
  spec.scaling_factor = cfg.smoke ? kScalingFactor / 50 : kScalingFactor;
  spec.depth = kMaxDepth;
  spec.fanout = kMaxFanout;
  const int pass_statements = cfg.smoke ? kPassStatements / 50 : kPassStatements;
  const std::string root_dir =
      cfg.data_dir + "/xquery-durable-" + std::to_string(::getpid());
  const std::string store_dir = root_dir + "/store";
  if (!MakeDirs(root_dir)) {
    out.checks.Expect(false, "cannot create data directory " + root_dir);
    return out;
  }
  engine::RelationalStore::Options options;
  options.durability = true;
  options.data_dir = store_dir;
  // No fsync: the group-commit flusher holds the WAL lock while it fsyncs,
  // so under kBatched every commit that lands during an fsync waits for the
  // disk. Beside another process writing to the same disk, that halved the
  // update rate and raised delete_p50_us by a quarter; without the fsync,
  // neither moved by more than a tenth.
  options.sync_mode = rdb::SyncMode::kNone;

  // Untimed: find the document seed (see kTargetTuples).
  const size_t target = cfg.smoke ? kTargetTuples / 50 : kTargetTuples;
  uint64_t doc_seed = cfg.seed;
  for (int tries = 0; tries < 1000; ++tries, doc_seed += 0x10000) {
    auto probe = workload::GenerateRandomizedSynthetic(spec, doc_seed);
    if (!probe.ok()) break;
    const double off = std::abs(static_cast<double>(probe->tuple_count) -
                                static_cast<double>(target)) /
                       static_cast<double>(target);
    if (off <= kSizeTolerance) break;
  }
  const auto fresh_dir = [&] { RemoveTree(store_dir); };
  auto prepared = SetUp(
      [&] { return workload::GenerateRandomizedSynthetic(spec, doc_seed); },
      options, &out, fresh_dir);
  if (!prepared.ok()) {
    out.checks.ExpectOk(prepared.status(), "setup");
    RemoveTree(root_dir);
    return out;
  }
  const workload::GeneratedDoc& gen = prepared->doc;
  const std::vector<Stmt> stmts =
      GenerateStatements(*gen.doc, cfg.seed, pass_statements);

  // The oracle: the same statement list replayed on the native tree (untimed,
  // before the passes, so every pass runs with it resident).
  std::unique_ptr<xml::Document> native_doc = gen.doc->Clone();
  {
    xquery::NativeExecutor native(native_doc.get());
    for (const Stmt& st : stmts) {
      if (st.kind == StmtKind::kRangeRead) continue;
      out.checks.ExpectOk(native.ExecuteString(st.text), "native replay");
    }
  }

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::string state_before_close;
  double wal_bytes_per_op = 0;
  for (int pass = 0;; ++pass) {
    if (pass > 0) {
      Status rebuilt = Rebuild(&*prepared, options, &out, fresh_dir);
      if (!rebuilt.ok()) {
        out.checks.ExpectOk(rebuilt, "pass store build");
        break;
      }
    }
    engine::RelationalStore* store = prepared->built.store.get();
    rdb::Database* db = store->db();
    tracer->Attach(db);
    const uint64_t wal_bytes0 = db->stats().wal_bytes;

    ResetPeakRss();
    uint64_t pass_updates = 0;
    int updates_issued = 0;
    uint64_t window_start = NowNs();
    uint64_t window_updates = 0;
    const auto close_window = [&] {
      const uint64_t window_ns = NowNs() - window_start;
      out.AddRateWindow(pass_updates - window_updates, window_ns);
      out.measured_ns += window_ns;
      out.host.Sample();
      window_start = NowNs();
      window_updates = pass_updates;
    };
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (i > 0 && i % kRateWindowStatements == 0) close_window();
      const Stmt& st = stmts[i];
      uint64_t ns = 0;
      ++out.attempted;
      if (st.kind == StmtKind::kRangeRead) {
        size_t rows = 0;
        Status s = tracer->Call(OpClass::kQuery, "select_ids", &ns, [&]() -> Status {
          auto r = store->SelectIds("n2", st.text);
          if (!r.ok()) return r.status();
          rows = r->size();
          return Status::OK();
        });
        if (!s.ok()) {
          out.RecordFailure(s, "range read");
          continue;
        }
        ++out.reads;
        out.queries.Add(ns);
        out.checks.Expect(rows == st.expected_rows,
                          "range read [" + st.text + "] returned " +
                              std::to_string(rows) + " rows, expected " +
                              std::to_string(st.expected_rows));
        continue;
      }
      Status s = tracer->Call(ClassOf(st.kind), "xquery_update", &ns,
                              [&] { return store->ExecuteXQueryUpdate(st.text); });
      ++updates_issued;
      if (!s.ok()) {
        out.RecordFailure(s, "xquery: " + st.text);
      } else {
        ++out.update_ops;
        ++pass_updates;
        if (ClassOf(st.kind) == OpClass::kDelete) out.deletes.Add(ns);
        if (ClassOf(st.kind) == OpClass::kInsert) out.inserts.Add(ns);
      }
      if (updates_issued >= kFirstCheckpoint &&
          (updates_issued - kFirstCheckpoint) % kCheckpointEvery == 0) {
        s = tracer->Call(OpClass::kMaintenance, "checkpoint_background", &ns,
                         [&]() -> Status {
                           XUPD_RETURN_IF_ERROR(db->CheckpointWait());
                           return db->CheckpointBackground();
                         });
        out.checks.ExpectOk(s, "background checkpoint");
      }
    }
    close_window();
    Status waited = db->CheckpointWait();
    out.checks.ExpectOk(waited, "checkpoint wait");
    out.NotePeakRss();
    if (pass_updates > 0) {
      wal_bytes_per_op = static_cast<double>(db->stats().wal_bytes - wal_bytes0) /
                         static_cast<double>(pass_updates);
    }

    // Untimed checks: scrubs, then the native-tree oracle.
    out.checks.ExpectClean(store->VerifyStore(), "VerifyStore");
    out.checks.ExpectClean(db->VerifyIntegrity(), "VerifyIntegrity");
    auto rebuilt = store->Reconstruct();
    out.checks.Expect(rebuilt.ok() && xml::DeepEqualUnordered(
                                          *native_doc->root(),
                                          *rebuilt.value()->root()),
                      "reconstructed document differs from the native replay");
    out.slots_per_live_row = SlotsPerLiveRow(store);
    tracer->Detach();
    if (!out.checks.ok() || NowNs() >= deadline) break;
  }
  if (prepared->built.store != nullptr) {
    state_before_close = DumpDurableState(prepared->built.store->db());
  }
  prepared->built.store.reset();  // close the durable store

  // Recovery: reopen the closed store several times; each must come back
  // equal to the state before close.
  std::vector<double> recovery_s;
  std::vector<double> replayed;
  for (int i = 0; i < kReopens && out.checks.ok(); ++i) {
    const uint64_t t0 = NowNs();
    auto reopened = engine::RelationalStore::Create(gen.dtd, options);
    const uint64_t t1 = NowNs();
    if (!reopened.ok()) {
      out.checks.ExpectOk(reopened.status(), "reopen");
      break;
    }
    recovery_s.push_back(NsToSeconds(t1 - t0));
    replayed.push_back(
        static_cast<double>(reopened.value()->stats().recovery_replayed));
    out.checks.Expect(reopened.value()->recovered(), "reopen did not recover");
    out.checks.Expect(DumpDurableState(reopened.value()->db()) == state_before_close,
                      "reopened store differs from the store before close");
  }
  out.layer.Set("recovery_s", Median(recovery_s), "s");
  out.layer.Set("wal_bytes_per_op", wal_bytes_per_op, "B");
  out.layer.Set("rdb.recovery.replayed_records", Median(replayed), "count");
  out.layer.Set("rdb.snapshot.file_bytes",
                static_cast<double>(FileBytes(store_dir + "/snapshot.xupd")),
                "B");
  RemoveTree(root_dir);
  return out;
}

}  // namespace xupd::suite
