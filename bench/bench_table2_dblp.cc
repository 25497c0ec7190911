// Table 2: experiments on the DBLP-like document. Deletes all publications
// of year 2000 under each delete method, and copies 10 random conference
// subtrees under each insert method. The real DBLP snapshot (40MB, >400k
// tuples) is simulated by a generator with the same bushy, shallow shape;
// argv[2] scales the number of conferences.
#include <cstdio>
#include <cstdlib>

#include "harness.h"

using namespace xupd;
using bench::MeasureOnFreshStores;
using engine::DeleteStrategy;
using engine::InsertStrategy;

namespace {

void RunRegime(const workload::GeneratedDoc& gen, int runs,
               double statement_latency_us) {
  std::printf("## statement_latency = %.0f us%s\n", statement_latency_us,
              statement_latency_us > 0
                  ? " (simulated JDBC/DB2 per-statement cost; see DESIGN.md)"
                  : " (raw in-process engine)");
  std::printf("%-10s %-12s %12s\n", "operation", "method", "time_sec");

  const DeleteStrategy del_methods[] = {
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kCascade, DeleteStrategy::kAsr};
  for (DeleteStrategy method : del_methods) {
    double t = MeasureOnFreshStores(
        gen, method, bench::PartnerOf(method),
        [statement_latency_us](engine::RelationalStore* store) {
          store->db()->set_statement_latency_us(statement_latency_us);
          Status s = store->DeleteWhere("publication", "year = '2000'");
          if (!s.ok()) {
            std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
            std::abort();
          }
        },
        {runs});
    std::printf("%-10s %-12s %12.6f\n", "delete", ToString(method), t);
  }

  std::vector<int64_t> picked;
  {
    auto scratch = bench::FreshStore(gen, DeleteStrategy::kCascade,
                                     InsertStrategy::kTable);
    auto ids = scratch->SelectIds("conference", "");
    if (!ids.ok()) std::abort();
    picked = bench::PickRandomIds(*ids, 10, 7);
  }
  const InsertStrategy ins_methods[] = {
      InsertStrategy::kAsr, InsertStrategy::kTable, InsertStrategy::kTuple};
  for (InsertStrategy method : ins_methods) {
    double t = MeasureOnFreshStores(
        gen, bench::PartnerOf(method), method,
        [&picked, statement_latency_us](engine::RelationalStore* store) {
          store->db()->set_statement_latency_us(statement_latency_us);
          for (int64_t id : picked) {
            Status s = store->CopySubtree("conference", id, store->root_id());
            if (!s.ok()) std::abort();
          }
        },
        {runs});
    std::printf("%-10s %-12s %12.6f\n", "insert", ToString(method), t);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  int conferences = argc > 2 ? std::atoi(argv[2]) : 400;
  workload::DblpSpec spec;
  spec.conferences = conferences;
  auto gen = workload::GenerateDblp(spec, 42);
  if (!gen.ok()) {
    std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
    return 1;
  }
  std::printf("# Table 2: DBLP-like data (%zu tuples)\n", gen->tuple_count);
  RunRegime(*gen, runs, 0);
  RunRegime(*gen, runs, 500);
  return 0;
}
