// Recovery smoke tool for CI: run a deterministic mixed update workload
// against a durable store, get SIGKILLed mid-stream, reopen, and prove the
// recovered store equals the last committed state.
//
//   recovery_smoke write <dir> [max_ops]   run the workload (checkpointing
//                                          every 25 ops) until killed or
//                                          max_ops committed
//   recovery_smoke write-enospc <dir> [max_ops]
//                                          same workload, but a FaultVfs
//                                          injects ENOSPC into the second
//                                          checkpoint's snapshot write; the
//                                          checkpoint must fail cleanly
//                                          (retryable, no read-only
//                                          degradation), both scrub layers
//                                          must pass, and the run completes
//                                          after the fault clears
//   recovery_smoke verify <dir>            recover, read how many ops
//                                          committed, replay that many ops
//                                          on a fresh in-memory store, and
//                                          compare every durable table +
//                                          the next-id counter
//
// The trick that makes verification exact: each op commits in ONE
// transaction together with a bump of the ops counter row in the durable
// `smoke_meta` table. Recovery therefore lands on "exactly ops 1..n
// applied" for some n — never a torn op — and the verifier can rebuild the
// expected state by replaying the same deterministic op sequence.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "engine/store.h"
#include "rdb/vfs.h"
#include "workload/synthetic.h"
#include "xml/parser.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

namespace {

constexpr uint64_t kSeed = 42;

workload::GeneratedDoc MakeDoc() {
  workload::SyntheticSpec spec;
  spec.scaling_factor = 10;
  spec.depth = 3;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, kSeed);
  if (!gen.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 gen.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(gen).value();
}

RelationalStore::Options StoreOptions(const std::string& dir) {
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = !dir.empty();
  options.data_dir = dir;
  // Group commit: a SIGKILL survives (the OS keeps written pages); only
  // power loss would need kCommit.
  options.sync_mode = rdb::SyncMode::kBatched;
  return options;
}

/// Op #i, deterministic given the committed prefix 1..i-1: cycle through a
/// subtree copy, a predicate delete, and a constructed insert. Ids are
/// selected with ORDER BY, so writer and verifier pick identical sets.
Status DoOp(RelationalStore* store, int64_t i) {
  switch (i % 3) {
    case 0:
      // id < 500 restricts sources to originally-loaded tuples (fresh ids
      // start above that), so copies are never re-copied and the store
      // grows linearly instead of exponentially.
      return store->CopySubtreesWhere(
          "n2",
          "id < 500 AND v2 < " + std::to_string(100000 + (i % 7) * 100000),
          store->root_id());
    case 1:
      return store->DeleteWhere(
          "n3", "v3 < " + std::to_string(200000 + (i % 5) * 150000));
    default: {
      auto frag = xml::ParseFragment(
          "<n2><s2>op" + std::to_string(i) + "</s2><v2>" +
              std::to_string(i * 1000 % 999983) + "</v2></n2>",
          xml::ParseOptions());
      if (!frag.ok()) return frag.status();
      return store->InsertConstructed(**frag, store->root_id());
    }
  }
}

Status SetupMeta(rdb::Database* db) {
  XUPD_RETURN_IF_ERROR(
      db->ExecuteQuery("CREATE TABLE smoke_meta (k VARCHAR, v INTEGER)")
          .status());
  return db->ExecuteQuery("INSERT INTO smoke_meta VALUES ('ops', 0)").status();
}

int64_t ReadOps(rdb::Database* db) {
  auto r = db->ExecuteQuery("SELECT v FROM smoke_meta WHERE k = 'ops'");
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].AsInt();
}

/// One committed unit: BEGIN; op #i (its entry-point txn nests as a
/// savepoint); ops counter := i; COMMIT.
Status CommitOp(RelationalStore* store, int64_t i) {
  rdb::Database* db = store->db();
  XUPD_RETURN_IF_ERROR(db->Begin());
  Status s = DoOp(store, i);
  if (s.ok()) {
    s = db->ExecuteQueryBound("UPDATE smoke_meta SET v = ? WHERE k = 'ops'",
                              {rdb::Value::Int(i)}).status();
  }
  if (!s.ok()) {
    (void)db->Rollback();
    return s;
  }
  return db->Commit();
}

std::string DumpDurableState(const rdb::Database& db) {
  std::string out = "next_id=" + std::to_string(db.next_id()) + "\n";
  for (const std::string& name : db.TableNames()) {
    const rdb::Table* t = db.FindTable(name);
    if (t == nullptr || !t->durable()) continue;
    out += "table " + t->schema().name() + "\n";
    for (size_t rowid = 0; rowid < t->capacity(); ++rowid) {
      out += t->is_live(rowid) ? "  live " : "  dead ";
      for (const rdb::Value& v : t->row_span(rowid)) out += v.ToString() + "|";
      out += "\n";
    }
  }
  return out;
}

int RunWriter(const std::string& dir, int64_t max_ops, bool enospc) {
  workload::GeneratedDoc gen = MakeDoc();
  rdb::FaultVfs fault(rdb::Vfs::Default());
  RelationalStore::Options options = StoreOptions(dir);
  if (enospc) options.vfs = &fault;
  auto store = RelationalStore::Create(gen.dtd, options);
  if (!store.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 store.status().ToString().c_str());
    return 2;
  }
  if (store.value()->recovered()) {
    std::fprintf(stderr, "writer requires an empty data dir\n");
    return 2;
  }
  Status s = store.value()->Load(*gen.doc);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 2;
  }
  s = SetupMeta(store.value()->db());
  if (!s.ok()) {
    std::fprintf(stderr, "meta setup failed: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("writer: loaded, running ops...\n");
  std::fflush(stdout);
  bool fault_hit = false;
  for (int64_t i = 1; max_ops <= 0 || i <= max_ops; ++i) {
    s = CommitOp(store.value().get(), i);
    if (!s.ok()) {
      std::fprintf(stderr, "op %lld failed: %s\n",
                   static_cast<long long>(i), s.ToString().c_str());
      return 2;
    }
    if (i % 25 == 0) {
      s = store.value()->Checkpoint();
      if (!s.ok()) {
        // In enospc mode exactly one checkpoint is expected to fail: the
        // one whose snapshot tmp write hit the injected fault. The failure
        // must be retryable — the previous snapshot + WAL are intact, so
        // no read-only degradation and a clean scrub on both layers.
        if (!enospc || fault_hit) {
          std::fprintf(stderr, "checkpoint failed: %s\n",
                       s.ToString().c_str());
          return 2;
        }
        fault_hit = true;
        std::printf("writer: checkpoint hit injected fault: %s\n",
                    s.ToString().c_str());
        rdb::Database* db = store.value()->db();
        if (db->read_only()) {
          std::fprintf(stderr,
                       "tmp-write failure must not degrade to read-only\n");
          return 2;
        }
        auto iv = db->VerifyIntegrity();
        if (!iv.empty()) {
          std::fprintf(stderr, "CHECK INTEGRITY after fault: %s\n",
                       iv[0].c_str());
          return 2;
        }
        auto sv = store.value()->VerifyStore();
        if (!sv.empty()) {
          std::fprintf(stderr, "VerifyStore after fault: %s\n",
                       sv[0].c_str());
          return 2;
        }
        fault.ClearFault();
        s = store.value()->Checkpoint();
        if (!s.ok()) {
          std::fprintf(stderr, "checkpoint retry failed: %s\n",
                       s.ToString().c_str());
          return 2;
        }
        std::printf("writer: scrub clean, checkpoint retry succeeded\n");
      } else if (enospc && !fault_hit && !fault.fired()) {
        // First checkpoint done: arm ENOSPC for the next snapshot write —
        // the second checkpoint fails deterministically mid-tmp-write.
        fault.ArmFault(rdb::FaultVfs::FaultKind::kEnospc, 1, "snapshot");
      }
    }
  }
  if (enospc && !fault_hit) {
    std::fprintf(stderr, "injected fault never fired\n");
    return 2;
  }
  std::printf("writer: completed %lld ops\n",
              static_cast<long long>(max_ops));
  return 0;
}

int RunVerifier(const std::string& dir) {
  workload::GeneratedDoc gen = MakeDoc();
  auto recovered = RelationalStore::Create(gen.dtd, StoreOptions(dir));
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  if (!recovered.value()->recovered()) {
    std::fprintf(stderr, "nothing recovered from '%s'\n", dir.c_str());
    return 1;
  }
  int64_t ops = ReadOps(recovered.value()->db());
  if (ops < 0) {
    std::fprintf(stderr, "ops counter missing after recovery\n");
    return 1;
  }
  std::printf("verify: recovered %lld committed ops (replayed %llu WAL "
              "records)\n",
              static_cast<long long>(ops),
              static_cast<unsigned long long>(
                  recovered.value()->stats().recovery_replayed));

  // Rebuild the expected state in memory by replaying the same ops.
  auto expected = RelationalStore::Create(gen.dtd, StoreOptions(""));
  if (!expected.ok()) return 1;
  Status s = expected.value()->Load(*gen.doc);
  if (!s.ok()) return 1;
  s = SetupMeta(expected.value()->db());
  if (!s.ok()) return 1;
  for (int64_t i = 1; i <= ops; ++i) {
    s = CommitOp(expected.value().get(), i);
    if (!s.ok()) {
      std::fprintf(stderr, "replaying op %lld failed: %s\n",
                   static_cast<long long>(i), s.ToString().c_str());
      return 1;
    }
  }

  std::string got = DumpDurableState(*recovered.value()->db());
  std::string want = DumpDurableState(*expected.value()->db());
  if (got != want) {
    std::fprintf(stderr,
                 "MISMATCH: recovered state differs from the committed "
                 "prefix\n--- recovered (%zu bytes)\n--- expected (%zu "
                 "bytes)\n",
                 got.size(), want.size());
    return 1;
  }
  std::printf("verify: OK — recovered state equals the committed prefix\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s write|write-enospc <dir> [max_ops] | "
                 "%s verify <dir>\n",
                 argv[0], argv[0]);
    return 2;
  }
  std::string mode = argv[1];
  std::string dir = argv[2];
  if (mode == "write" || mode == "write-enospc") {
    int64_t max_ops = argc > 3 ? std::atoll(argv[3]) : 0;
    return RunWriter(dir, max_ops, mode == "write-enospc");
  }
  if (mode == "verify") return RunVerifier(dir);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
