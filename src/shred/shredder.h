// Shredder: walks an XML document and produces relational tuples according
// to a Mapping. It owns the engine's two element-tuple writers: the document
// load, through the direct bulk API, and InsertTuplesSql, the one SQL writer
// behind constructed-content inserts and tuple-strategy copies (§6.2.1).
#ifndef XUPD_SHRED_SHREDDER_H_
#define XUPD_SHRED_SHREDDER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rdb/database.h"
#include "shred/mapping.h"
#include "xml/document.h"

namespace xupd::shred {

/// One shredded tuple, not yet inserted.
struct ShreddedTuple {
  const TableMapping* table = nullptr;
  int64_t id = 0;
  int64_t parent_id = 0;  ///< 0 = no parent (root).
  rdb::Row row;           ///< full row including id/parentId columns.
};

class Shredder {
 public:
  /// `sql_batch_size` caps the number of rows per multi-row INSERT issued by
  /// InsertTuplesSql (1 = one literal single-row INSERT per tuple, the
  /// paper's original per-statement regime).
  Shredder(const Mapping* mapping, rdb::Database* db, int sql_batch_size = 64)
      : mapping_(mapping), db_(db),
        sql_batch_size_(sql_batch_size < 1 ? 1 : sql_batch_size) {}

  /// Creates all tables and id/parentId indexes (always through SQL DDL).
  Status CreateSchema();

  /// Shreds a whole document and loads it through the direct bulk API.
  /// Returns the tuples in pre-order, root first; each row has been moved
  /// into its table, so only table, id and parent_id remain set.
  Result<std::vector<ShreddedTuple>> LoadDocument(const xml::Document& doc);

  /// Shreds the subtree rooted at `element` (which must map to a table),
  /// assigning fresh ids from the database id counter, with the subtree root
  /// attached to `parent_id`. Returns the tuples in pre-order, root first.
  /// Does not insert.
  Result<std::vector<ShreddedTuple>> ShredSubtree(const xml::Element& element,
                                                  int64_t parent_id);

  /// Inserts tuples through SQL. Tuples are grouped per table and issued as
  /// prepared multi-row INSERTs of at most sql_batch_size rows, with all
  /// values bound as parameters, so every batch of the same (table, batch
  /// size) shape reuses one parsed statement. With sql_batch_size 1 each
  /// tuple is one literal INSERT, parsed on every execution.
  Status InsertTuplesSql(const std::vector<ShreddedTuple>& tuples);

 private:
  Status FillFields(const xml::Element& element, const TableMapping* tm,
                    rdb::Row* row) const;
  /// Shreds `element`, which maps to `tm`, and the table-mapped elements
  /// below it.
  Status ShredElement(const xml::Element& element, const TableMapping* tm,
                      int64_t parent_id, std::vector<ShreddedTuple>* out);
  /// Shreds the table-mapped elements below `element` that have no
  /// table-mapped element between them and it, as children of `parent_id`.
  /// Inlined levels were captured by FillFields; table-mapped elements may
  /// sit below them, so the walk descends through inlined elements.
  Status ShredTablesBelow(const xml::Element& element, int64_t parent_id,
                          std::vector<ShreddedTuple>* out);

  const Mapping* mapping_;
  rdb::Database* db_;
  int sql_batch_size_ = 64;
};

}  // namespace xupd::shred

#endif  // XUPD_SHRED_SHREDDER_H_
