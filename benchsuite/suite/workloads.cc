#include "suite/workloads.h"

namespace xupd::suite {

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"bulk-ingest-prune",
       "fig. 6/10 bulk protocol on fresh stores: trigger cascade and shredder",
       RunBulkIngestPrune},
      {"dblp-asr-churn",
       "ASR maintenance on copy/delete beside ASR-served path lookups",
       RunDblpAsrChurn},
      {"xquery-durable",
       "XQuery translator, parse/plan and WAL on a durable store",
       RunXQueryDurable},
      {"snapshot-reads",
       "open-loop snapshot readers beside a writer: MVCC and catalog lock",
       RunSnapshotReads},
  };
  return kWorkloads;
}

Result<Prepared> SetUp(
    const std::function<Result<workload::GeneratedDoc>()>& generate,
    const engine::RelationalStore::Options& options, Outcome* out,
    const std::function<void()>& before_create) {
  Prepared p;
  for (int round = 0; round < kSetupRounds; ++round) {
    p.built.store.reset();  // close the previous round's store
    const uint64_t t0 = NowNs();
    auto gen = generate();
    if (!gen.ok()) return gen.status();
    out->generate_ns.Add(NowNs() - t0);
    p.doc = std::move(gen).value();
    if (before_create) before_create();
    auto built = BuildStore(p.doc.dtd, *p.doc.doc, options);
    if (!built.ok()) return built.status();
    out->RecordBuild(*built);
    p.built = std::move(built).value();
    out->setup_host.Sample();
  }
  return p;
}

Status Rebuild(Prepared* p, const engine::RelationalStore::Options& options,
               Outcome* out, const std::function<void()>& before_create) {
  p->built.store.reset();
  if (before_create) before_create();
  auto built = BuildStore(p->doc.dtd, *p->doc.doc, options);
  if (!built.ok()) return built.status();
  out->RecordBuild(*built);
  p->built = std::move(built).value();
  out->setup_host.Sample();
  return Status::OK();
}

}  // namespace xupd::suite
