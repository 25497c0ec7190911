// Shared Inlining mapping (§5.1, after Shanmugasundaram et al. [14]): the
// DTD determines which elements get their own relation and which are inlined
// into an ancestor's relation.
//
// Rules implemented:
//  * the document root always maps to a table;
//  * an element maps to a table if it can occur more than once under some
//    parent (under * or +, or listed twice), if it appears under two or more
//    distinct parents (shared), or if it is recursive;
//  * all other elements are inlined into the nearest table ancestor: a
//    PCDATA-only child becomes a VARCHAR column; attributes become columns;
//    an inlined non-leaf element gets a presence-flag column (§6.1's
//    delete-ambiguity fix) and its children are inlined recursively.
//
// Every table has `id INTEGER` and `parentId INTEGER` columns linking child
// tuples to their parent element's tuple (§5.1).
#ifndef XUPD_SHRED_MAPPING_H_
#define XUPD_SHRED_MAPPING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/str_util.h"
#include "xml/dtd.h"

namespace xupd::shred {

/// One column of a table that stores inlined content.
struct InlinedField {
  enum class Kind {
    kPcdata,    ///< text content of the element at `path`.
    kAttribute, ///< attribute `attr` of the element at `path`.
    kPresence,  ///< 1 when the (non-leaf) element at `path` is present.
  };
  Kind kind = Kind::kPcdata;
  /// Element path below the table's element ("" steps = the element itself).
  std::vector<std::string> path;
  std::string attr;    ///< kAttribute only.
  bool is_ref = false; ///< attribute declared IDREF/IDREFS (space-joined).
  std::string column;  ///< SQL column name.
};

/// Mapping of one XML element type onto one relation.
struct TableMapping {
  std::string element;         ///< XML element name.
  std::string table;           ///< SQL table name (sanitized element name).
  std::string parent_element;  ///< "" for the root table.
  std::vector<InlinedField> fields;

  /// Column layout: 0 = id, 1 = parentId, 2.. = fields in order.
  static constexpr int kIdColumn = 0;
  static constexpr int kParentIdColumn = 1;
  int FieldColumn(size_t field_index) const {
    return 2 + static_cast<int>(field_index);
  }
  const InlinedField* FindFieldByColumn(const std::string& column) const {
    for (const InlinedField& f : fields) {
      if (EqualsIgnoreCase(f.column, column)) return &f;
    }
    return nullptr;
  }
};

class Mapping {
 public:
  /// Derives the Shared Inlining mapping from a DTD. Fails on DTDs with ANY
  /// content (unmappable without a schema).
  static Result<Mapping> SharedInlining(const xml::Dtd& dtd);

  const std::vector<TableMapping>& tables() const { return tables_; }
  const xml::Dtd& dtd() const { return dtd_; }

  const TableMapping* ForElement(std::string_view element) const;
  const TableMapping* root() const { return &tables_.front(); }

  /// Direct child tables of `element`'s table.
  std::vector<const TableMapping*> ChildTables(std::string_view element) const;

  /// All tables in the subtree rooted at `t` (pre-order, including t).
  std::vector<const TableMapping*> SubtreeTables(const TableMapping* t) const;

  /// Chain of tables from the root to `t` (inclusive).
  std::vector<const TableMapping*> PathFromRoot(const TableMapping* t) const;

  /// Maximum depth of the table hierarchy (root = 1).
  size_t Depth() const;

  /// CREATE TABLE + CREATE INDEX statements for the whole schema (indexes on
  /// id and parentId of every table).
  std::vector<std::string> SchemaSql() const;

  /// Finds the inlined field reached by following `path` of element names
  /// below `t`'s element (optionally ending in an attribute). Null if the
  /// path does not stay within the inlined region.
  const InlinedField* ResolveInlined(const TableMapping* t,
                                     const std::vector<std::string>& path,
                                     const std::string& attr) const;

 private:
  xml::Dtd dtd_;
  std::vector<TableMapping> tables_;
};

}  // namespace xupd::shred

#endif  // XUPD_SHRED_MAPPING_H_
