// Access Support Relations (§5.3, after Kemper & Moerkotte [12]).
//
// One relation `asr` indexes every root-to-leaf path instance of the table
// hierarchy: one column `id_<table>` per mapped table (pre-order) plus a
// `marked` work column used by the ASR delete/insert marking scheme
// (§6.1.3/§6.2.3). Every column is hash-indexed, `marked` included, so the
// steps that select the marked paths probe them instead of scanning the
// ASR. `marked` is 0 outside an operation. Left-complete extension: NULLs
// appear only below the deepest existing element of a path.
#ifndef XUPD_ASR_ASR_H_
#define XUPD_ASR_ASR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdb/database.h"
#include "shred/mapping.h"
#include "shred/shredder.h"

namespace xupd::asr {

class AsrManager {
 public:
  AsrManager(const shred::Mapping* mapping, rdb::Database* db);

  static constexpr const char* kTableName = "asr";

  /// (table, id) pairs naming one element and its ancestors, root first.
  using PathPrefix = std::vector<std::pair<const shred::TableMapping*, int64_t>>;

  /// The ASR column holding ids of `t`'s tuples.
  static std::string IdColumn(const shred::TableMapping* t) {
    return "id_" + t->table;
  }

  /// CREATE TABLE asr(...) + an index on every id column and on `marked`.
  Status CreateSchema();

  /// Builds all path rows from a loaded document's tuples (bulk, direct API).
  Status BuildFromTuples(const std::vector<shred::ShreddedTuple>& tuples);

  /// Inserts the path rows through `tuples` (a ShredSubtree result) hanging
  /// below `prefix`, one prepared "INSERT INTO asr VALUES (?, ..., ?, 0)" per
  /// row. With no tuples it inserts the one row ending at the prefix's last
  /// element (the ASR delete's left-completeness repair).
  Status InsertPathRows(const PathPrefix& prefix,
                        const std::vector<shred::ShreddedTuple>& tuples);

  /// Number of ASR rows (live).
  size_t RowCount() const;

  const shred::Mapping* mapping() const { return mapping_; }

 private:
  const shred::Mapping* mapping_;
  rdb::Database* db_;
  std::string insert_row_sql_;  ///< the InsertPathRows statement text
};

}  // namespace xupd::asr

#endif  // XUPD_ASR_ASR_H_
