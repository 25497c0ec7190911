// Ablation: transaction overhead. The engine wraps every XML update
// operation in a transaction (undo logging + commit bookkeeping) so a
// mid-operation failure cannot strand a half-updated store. This bench
// quantifies what that costs on the paper's fig. 6 bulk-delete workload and
// the fig. 10 bulk-copy workload, per strategy, in three modes:
//
//   autocommit   Options::transactional = false — the raw regime; every SQL
//                statement lands individually, no undo log
//   txn          default — one txn per operation, committed
//   rollback     one txn per operation, a failure injected halfway through,
//                the whole operation undone (rollback-heavy regime)
//
// One JSON row per (op, strategy, mode); txn rows carry overhead_pct vs the
// matching autocommit row. The acceptance bar is per-op txn overhead <= 15%
// over autocommit on the bulk-delete workload.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "harness.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

namespace {

struct ModeResult {
  double seconds = 0;  ///< median of counted runs (histogram-backed).
  rdb::Stats stats;
  Histogram run_ns;  ///< one sample per counted run.
};

using Op = std::function<Status(RelationalStore*)>;

/// Statement executions (incl. trigger bodies) one clean run performs —
/// the rollback mode injects its failure at half this count.
int64_t CountStatements(const workload::GeneratedDoc& gen,
                        const RelationalStore::Options& options, const Op& op) {
  auto store = bench::FreshStore(gen, options);
  rdb::Stats before = store->stats();
  Status s = op(store.get());
  if (!s.ok()) {
    std::fprintf(stderr, "probe run failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  rdb::Stats d = store->stats().Delta(before);
  return static_cast<int64_t>(d.statements + d.trigger_statements);
}

struct ModeSpec {
  const char* name;
  bool transactional = true;
  int64_t fail_after = -1;  ///< -1 = run to completion.
};

/// Measures all modes interleaved: each run executes every mode back to
/// back on its own fresh store, so run-to-run drift (allocator state, CPU
/// frequency) hits every mode equally instead of biasing whole blocks.
template <size_t N>
std::array<ModeResult, N> MeasureInterleaved(
    const workload::GeneratedDoc& gen, RelationalStore::Options options,
    const Op& op, int runs, const std::array<ModeSpec, N>& modes) {
  std::array<ModeResult, N> out{};
  for (int r = 0; r < runs; ++r) {
    for (size_t m = 0; m < N; ++m) {
      options.transactional = modes[m].transactional;
      auto store = bench::FreshStore(gen, options);
      rdb::Stats before = store->stats();
      if (modes[m].fail_after >= 0) {
        store->db()->InjectFailureAfterStatements(modes[m].fail_after);
      }
      Stopwatch sw;
      Status s = op(store.get());
      double t = sw.ElapsedSeconds();
      store->db()->InjectFailureAfterStatements(-1);
      if (modes[m].fail_after >= 0 ? s.ok() : !s.ok()) {
        std::fprintf(stderr, "unexpected op outcome: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
      if (r > 0) {
        out[m].run_ns.Record(static_cast<uint64_t>(t * 1e9));
        out[m].stats = store->stats().Delta(before);
      }
    }
  }
  // Histogram-backed medians: one outlier run no longer skews the mode
  // comparison the overhead_pct gate rides on.
  for (size_t m = 0; m < N; ++m) {
    out[m].seconds = out[m].run_ns.Percentile(50) / 1e9;
  }
  return out;
}

void Report(const char* op_name, const char* strategy, const char* mode,
            const ModeResult& r, double overhead_pct) {
  std::printf("%-7s %-10s %-10s %10.6f sec  overhead=%+6.2f%%\n", op_name,
              strategy, mode, r.seconds, overhead_pct);
  std::printf(
      "{\"bench\":\"ablation_txn_overhead\",\"op\":\"%s\",\"strategy\":\"%s\","
      "\"mode\":\"%s\",\"seconds\":%.6f,\"overhead_pct\":%.2f,"
      "\"run_p50_us\":%.1f,\"run_p99_us\":%.1f,"
      "\"statements\":%llu,\"trigger_statements\":%llu,"
      "\"txn_begins\":%llu,\"txn_commits\":%llu,\"txn_rollbacks\":%llu,"
      "\"undo_records\":%llu,%s\n",
      op_name, strategy, mode, r.seconds, overhead_pct,
      r.run_ns.Percentile(50) / 1e3, r.run_ns.Percentile(99) / 1e3,
      static_cast<unsigned long long>(r.stats.statements),
      static_cast<unsigned long long>(r.stats.trigger_statements),
      static_cast<unsigned long long>(r.stats.txn_begins),
      static_cast<unsigned long long>(r.stats.txn_commits),
      static_cast<unsigned long long>(r.stats.txn_rollbacks),
      static_cast<unsigned long long>(r.stats.undo_records),
      bench::JsonTail().c_str());
}

void RunModes(const workload::GeneratedDoc& gen, const char* op_name,
              const char* strategy, RelationalStore::Options options,
              const Op& op, int runs) {
  options.transactional = true;
  int64_t fail_after = CountStatements(gen, options, op) / 2;
  std::array<ModeSpec, 3> modes = {{{"autocommit", false, -1},
                                    {"txn", true, -1},
                                    {"rollback", true, fail_after}}};
  auto results = MeasureInterleaved(gen, options, op, runs, modes);
  double base = results[0].seconds;
  for (size_t m = 0; m < modes.size(); ++m) {
    double overhead =
        base > 0 ? 100.0 * (results[m].seconds - base) / base : 0.0;
    Report(op_name, strategy, modes[m].name, results[m], overhead);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  int sf = argc > 2 ? std::atoi(argv[2]) : 100;
  int depth = argc > 3 ? std::atoi(argv[3]) : 6;
  std::printf("# Ablation: per-operation txn overhead (sf=%d depth=%d)\n", sf,
              depth);

  // Fig. 6 regime: bulk delete of every root subtree (fanout 1 keeps the
  // document a set of chains, the paper's delete-bench shape).
  workload::SyntheticSpec del_spec;
  del_spec.scaling_factor = sf;
  del_spec.depth = depth;
  del_spec.fanout = 1;
  auto del_gen = workload::GenerateFixedSynthetic(del_spec, 42);
  if (!del_gen.ok()) return 1;
  Op bulk_delete = [](RelationalStore* s) { return s->DeleteWhere("n1", ""); };
  const DeleteStrategy del_methods[] = {
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kCascade, DeleteStrategy::kAsr};
  for (DeleteStrategy method : del_methods) {
    RelationalStore::Options options;
    options.delete_strategy = method;
    options.insert_strategy = bench::PartnerOf(method);
    RunModes(*del_gen, "delete", ToString(method), options, bulk_delete, runs);
  }

  // Fig. 10 regime: bulk copy of every root subtree (fanout 4 gives real
  // subtrees to replicate).
  workload::SyntheticSpec ins_spec;
  ins_spec.scaling_factor = sf;
  ins_spec.depth = depth > 4 ? 4 : depth;
  ins_spec.fanout = 4;
  auto ins_gen = workload::GenerateFixedSynthetic(ins_spec, 42);
  if (!ins_gen.ok()) return 1;
  Op bulk_copy = [](RelationalStore* s) {
    return s->CopySubtreesWhere("n1", "", s->root_id());
  };
  const InsertStrategy ins_methods[] = {InsertStrategy::kTuple,
                                        InsertStrategy::kTable,
                                        InsertStrategy::kAsr};
  for (InsertStrategy method : ins_methods) {
    RelationalStore::Options options;
    options.delete_strategy = bench::PartnerOf(method);
    options.insert_strategy = method;
    RunModes(*ins_gen, "insert", ToString(method), options, bulk_copy, runs);
  }
  return 0;
}
