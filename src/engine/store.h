// RelationalStore: an XML repository over the relational engine — the
// system under evaluation in §6/§7. Wires together the Shared Inlining
// mapping, the shredder, the Sorted Outer Union, ASRs, and the paper's
// delete/insert translation strategies.
#ifndef XUPD_ENGINE_STORE_H_
#define XUPD_ENGINE_STORE_H_

#include <functional>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "asr/asr.h"
#include "common/result.h"
#include "rdb/database.h"
#include "shred/mapping.h"
#include "shred/outer_union.h"
#include "shred/shredder.h"
#include "xml/document.h"
#include "xml/dtd.h"

namespace xupd::engine {

/// §6.1 delete translation strategies.
enum class DeleteStrategy {
  kPerTupleTrigger,      ///< AFTER DELETE FOR EACH ROW triggers (6.1.1).
  kPerStatementTrigger,  ///< AFTER DELETE FOR EACH STATEMENT triggers (6.1.1).
  kCascade,              ///< application-level orphan sweeps (6.1.2).
  kAsr,                  ///< ASR marking scheme (6.1.3).
};

/// §6.2 insert (subtree copy) translation strategies.
enum class InsertStrategy {
  kTuple,  ///< outer-union read + one INSERT per tuple (6.2.1).
  kTable,  ///< temp tables + min/max id-offset remap en masse (6.2.2).
  kAsr,    ///< ASR marking + offset remap, no outer union (6.2.3).
};

const char* ToString(DeleteStrategy s);
const char* ToString(InsertStrategy s);

/// Indexes on demand: `Mapping::SchemaSql` indexes only `id` and
/// `parentId`. When a public query or update operation returns outside any
/// transaction, the store is writable and the operation did not fail an
/// update, the engine may add an index between operations. It indexes each
/// column of a durable table that writer statements filtered with
/// `col = <literal or ?>` but read through a scan, a hash build or an IN
/// probe, once the rows those statements examined pass kIndexAfterScans
/// times the table's live rows. It issues `CREATE INDEX idx_<table>_<col>`,
/// which is WAL-logged and snapshotted like the schema's own indexes, so a
/// reopened store keeps it. A failed build never fails the operation.
class RelationalStore {
 public:
  /// The on-demand index threshold, in table sizes of examined rows.
  static constexpr uint64_t kIndexAfterScans = 4;

  struct Options {
    /// The store keeps an ASR exactly when both strategies are kAsr: only
    /// the §6.1.3 delete and the §6.2.3 copy maintain it, so Create rejects
    /// a kAsr strategy paired with a non-ASR one.
    DeleteStrategy delete_strategy = DeleteStrategy::kPerTupleTrigger;
    InsertStrategy insert_strategy = InsertStrategy::kTable;
    /// Rows per multi-row INSERT on the SQL tuple writer
    /// (Shredder::InsertTuplesSql: tuple-strategy copies and
    /// constructed-content inserts). 1 restores the paper's
    /// one-statement-per-tuple regime exactly — literal SQL text, parsed per
    /// tuple (§6.2.1); larger values batch tuples of the same table into one
    /// prepared multi-row statement.
    int insert_batch_size = 64;
    /// Wrap every update entry point (DeleteWhere/DeleteByIds/CopySubtree*/
    /// InsertConstructed/ExecuteXQueryUpdate) in a transaction, so a
    /// mid-operation failure rolls element tables, hash indexes and the ASR
    /// back to the pre-operation state. Nested sub-updates become
    /// savepoints. false = the paper's raw autocommit regime (each SQL
    /// statement lands individually; a failure leaves partial effects),
    /// kept for the autocommit row of bench_ablation_txn_overhead.
    bool transactional = true;
    /// Durability (rdb/wal.h): when true the store's Database opens a WAL +
    /// snapshot pair under `data_dir` before creating any schema. If the
    /// directory already holds durable state, Create() RECOVERS it instead
    /// of re-creating the schema: element tables, hash indexes, the ASR,
    /// triggers, tombstones and the next-id counter come back exactly as
    /// last committed, and root_id() is re-derived from the stored root
    /// tuple. Reopen with the same strategy options the store was created
    /// with (recovered triggers must match the delete strategy).
    bool durability = false;
    std::string data_dir;
    /// WAL fsync policy (none / commit / batched group commit).
    rdb::SyncMode sync_mode = rdb::SyncMode::kCommit;
    /// Filesystem interface for all durable I/O; null means the real one
    /// (rdb::Vfs::Default()). Fault-injection tests interpose a FaultVfs.
    rdb::Vfs* vfs = nullptr;
  };

  /// Creates the store for a DTD: derives the mapping, creates the schema,
  /// and installs the triggers the delete strategy requires. A kAsr strategy
  /// beside a non-ASR one is InvalidArgument.
  static Result<std::unique_ptr<RelationalStore>> Create(const xml::Dtd& dtd,
                                                         const Options& options);

  /// Shreds and loads a document (must match the DTD root).
  Status Load(const xml::Document& doc);

  // --- §6.1: deletes -------------------------------------------------------

  /// Deletes every subtree of `element` whose root tuple satisfies the SQL
  /// predicate (empty = all), using the configured strategy.
  Status DeleteWhere(const std::string& element, const std::string& predicate);

  /// Random-workload flavor: one delete operation per id (the paper issues
  /// one SQL statement per deleted subtree, §7.3).
  Status DeleteByIds(const std::string& element,
                     const std::vector<int64_t>& ids);

  // --- §6.2: inserts -------------------------------------------------------

  /// Copies the subtree of `element` rooted at tuple `src_id` under the
  /// tuple `dest_parent_id` (copy semantics; fresh ids), using the
  /// configured strategy.
  Status CopySubtree(const std::string& element, int64_t src_id,
                     int64_t dest_parent_id);

  /// Bulk flavor: copies every subtree of `element` whose root tuple
  /// satisfies the SQL predicate (empty = all) in ONE strategy pass — the
  /// paper's bulk insert workload is a single operation over all subtrees,
  /// which is what lets the table method batch its statements (§7.4).
  Status CopySubtreesWhere(const std::string& element,
                           const std::string& predicate,
                           int64_t dest_parent_id);

  /// Inserts newly constructed content (an element subtree that maps to a
  /// table) under `dest_parent_id`: the shredded tuples go through
  /// Shredder::InsertTuplesSql and, with an ASR, their path rows through
  /// AsrManager::InsertPathRows.
  Status InsertConstructed(const xml::Element& content, int64_t dest_parent_id);

  // --- queries -------------------------------------------------------------

  /// ids of `element` tuples matching the predicate (empty = all).
  Result<std::vector<int64_t>> SelectIds(const std::string& element,
                                         const std::string& predicate);

  /// §7.2 path-expression evaluation, conventional plan: chain of
  /// parentId/id joins from the (filtered) leaf up to `start_element`. An
  /// empty `leaf_predicate` selects every leaf, as in SelectIds; so does
  /// PathQueryAsr's.
  Result<std::vector<int64_t>> PathQueryJoins(const std::string& start_element,
                                              const std::string& leaf_element,
                                              const std::string& leaf_predicate);

  /// §7.2 path-expression evaluation through the ASR: filter leaf, join ASR,
  /// join start table (two joins regardless of path length).
  Result<std::vector<int64_t>> PathQueryAsr(const std::string& start_element,
                                            const std::string& leaf_element,
                                            const std::string& leaf_predicate);

  /// Sorted Outer Union stream for the region rooted at `element` (§5.2).
  Result<rdb::ResultSet> OuterUnion(const std::string& element,
                                    const std::string& root_where);

  /// Reconstructs the whole stored document.
  Result<std::unique_ptr<xml::Document>> Reconstruct();

  /// Executes an XQuery update statement against the store (translated to
  /// SQL; see engine/translator.cc for the supported subset). The whole
  /// statement executes in one transaction: any error leaves the store
  /// exactly as it was (Options::transactional).
  Status ExecuteXQueryUpdate(std::string_view query);

  /// Durability: serializes the full store state to a fresh snapshot and
  /// truncates the WAL (Database::Checkpoint). Requires Options::durability.
  Status Checkpoint();

  /// True when Create() recovered existing durable state from
  /// Options::data_dir instead of building a fresh store.
  bool recovered() const { return db_.recovered(); }

  /// Engine-level integrity scrub (engine/verify.cc): every element tuple's
  /// parent chain reaches the stored root without cycles, and the ASR (when
  /// built) agrees with the element tables. Read-only; complements
  /// Database::VerifyIntegrity, which checks the relational layer below.
  std::vector<std::string> VerifyStore();

  /// Stages `ids` in the shared scratch table `xupd_idlist` (created lazily
  /// through the direct catalog API) and returns the predicate
  /// "id IN (SELECT id FROM xupd_idlist)". Unlike a literal
  /// "id IN (1, 2, ...)" list, the statement texts this produces are
  /// constant across calls, so the XQuery translator's ops reuse cached
  /// plans no matter which ids are bound.
  Result<std::string> IdListPredicate(const std::vector<int64_t>& ids);

  // --- accessors -----------------------------------------------------------

  rdb::Database* db() { return &db_; }
  /// The ASR manager, or null unless both strategies are kAsr.
  const asr::AsrManager* asr() const { return asr_.get(); }
  const shred::Mapping& mapping() const { return *mapping_; }
  const Options& options() const { return options_; }
  int64_t root_id() const { return root_id_; }
  rdb::Stats stats() const { return db_.stats(); }
  shred::Shredder* shredder() { return shredder_.get(); }

 private:
  RelationalStore() = default;

  /// Marks one public operation; when the outermost one ends (nested ops
  /// run inside it), IndexHotColumns runs, unless the op failed a write. An
  /// update that fails leaves the store exactly as it was, so it is not
  /// followed by a build.
  class OpScope {
   public:
    explicit OpScope(RelationalStore* store);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

    /// Passes an update's result through, noting whether it failed.
    Status Done(Status s) {
      ok_ = s.ok();
      return s;
    }

   private:
    RelationalStore* store_;
    bool ok_ = true;
  };
  /// The on-demand index decision (see the class comment): outside any
  /// transaction and not read-only, indexes each column whose
  /// Table::index_demand passes kIndexAfterScans x the live rows, and
  /// resets that counter.
  void IndexHotColumns();

  /// Runs `fn` inside a transaction scope (a savepoint when one is already
  /// open): Begin, fn, Commit — or Rollback when fn fails, propagating fn's
  /// error. With Options::transactional off it just runs fn.
  Status RunInTxn(const std::function<Status()>& fn);

  Status InstallTriggers();
  /// Writes the strategy Options into the durable xupd_meta table (store
  /// creation) / verifies the caller's Options against it (reopen) — a
  /// mismatched reopen is a clean error, not silent corruption.
  Status PersistOptions();
  Status VerifyStoredOptions();
  std::vector<std::pair<std::string, std::string>> StrategyFields() const;
  Status DeleteSubtreesImpl(const shred::TableMapping* tm,
                            const std::string& predicate);
  Status CascadeDelete(const shred::TableMapping* tm,
                       const std::string& predicate);
  Status AsrDelete(const shred::TableMapping* tm, const std::string& predicate);
  Status TupleInsert(const shred::TableMapping* tm,
                     const std::string& predicate, int64_t dest_parent_id);
  /// §6.2.2 through the tmp_<table> staging tables, which are empty again
  /// when it returns, whether or not the copy succeeded.
  Status TableInsert(const shred::TableMapping* tm,
                     const std::string& predicate, int64_t dest_parent_id);
  /// The named scratch table, emptied with Table::Clear. Created on first use
  /// through the direct catalog API as a non-durable table, so its writes
  /// never reach the undo log, the WAL or a snapshot.
  Result<rdb::Table*> ScratchTable(rdb::TableSchema schema);
  Status InsertConstructedImpl(const xml::Element& content,
                               int64_t dest_parent_id);
  Status AsrInsert(const shred::TableMapping* tm, const std::string& predicate,
                   int64_t dest_parent_id);
  /// (table, id) chain from the mapping root down to `id` itself — the
  /// prefix of the ASR rows through `id`. Walks parentId pointers with point
  /// queries.
  Result<asr::AsrManager::PathPrefix> PathTo(const shred::TableMapping* tm,
                                             int64_t id);
  std::atomic<uint64_t>* AsrNs();  ///< engine.asr_ns, looked up once.

  Options options_;
  std::unique_ptr<shred::Mapping> mapping_;
  rdb::Database db_;
  std::unique_ptr<shred::Shredder> shredder_;
  std::unique_ptr<asr::AsrManager> asr_;
  int64_t root_id_ = 0;
  /// engine.<op> histograms of the store's EngineSpans and the
  /// engine.asr_ns counter, each looked up in db_'s registry on first use.
  Histogram* load_hist_ = nullptr;
  Histogram* delete_where_hist_ = nullptr;
  Histogram* delete_by_ids_hist_ = nullptr;
  Histogram* copy_subtrees_hist_ = nullptr;
  Histogram* insert_constructed_hist_ = nullptr;
  Histogram* xquery_update_hist_ = nullptr;
  std::atomic<uint64_t>* asr_ns_ = nullptr;
  int op_depth_ = 0;  ///< open OpScopes.
  /// IndexHotColumns' durable tables, as of catalog version
  /// demand_tables_version_ (0 = never listed).
  std::vector<rdb::Table*> demand_tables_;
  uint64_t demand_tables_version_ = 0;
};

}  // namespace xupd::engine

#endif  // XUPD_ENGINE_STORE_H_
