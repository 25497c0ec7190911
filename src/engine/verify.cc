// Engine-level integrity scrub (RelationalStore::VerifyStore).
//
// Checks the invariants the update strategies (§6) must preserve but the
// relational layer cannot see: every element tuple's parent chain resolves
// through the mapping hierarchy up to the root without cycles or orphans,
// and the ASR — when built — agrees with the element tables in both
// directions (every ASR id exists; every tuple appears on some path row)
// and holds each path row once.
// Read-only, so it runs in degraded (read-only) mode and right after an
// injected storage fault.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/store.h"

namespace xupd::engine {

namespace {

using shred::TableMapping;

// id -> parentId (kInt-or-null already validated) for one element table.
struct TableIds {
  std::unordered_map<int64_t, int64_t> parent_of;  ///< 0 = NULL parent.
};

}  // namespace

std::vector<std::string> RelationalStore::VerifyStore() {
  std::vector<std::string> violations;

  // Collect every element table's live (id, parentId) pairs.
  std::unordered_map<const TableMapping*, TableIds> ids;
  bool tables_missing = false;
  for (const TableMapping& tm : mapping_->tables()) {
    const rdb::Table* t = db_.FindTable(tm.table);
    if (t == nullptr) {
      violations.push_back("element table '" + tm.table + "' is missing");
      tables_missing = true;
      continue;
    }
    TableIds& entry = ids[&tm];
    for (size_t rowid = 0; rowid < t->capacity(); ++rowid) {
      if (!t->is_live(rowid)) continue;
      const rdb::Value& id = t->row(rowid)[TableMapping::kIdColumn];
      const rdb::Value& parent = t->row(rowid)[TableMapping::kParentIdColumn];
      if (id.is_null() || id.type() != rdb::ValueType::kInt) {
        violations.push_back("table '" + tm.table + "' row " +
                             std::to_string(rowid) + " has a non-integer id");
        continue;
      }
      int64_t parent_id = 0;
      if (!parent.is_null()) {
        if (parent.type() != rdb::ValueType::kInt) {
          violations.push_back("table '" + tm.table + "' id " +
                               std::to_string(id.AsInt()) +
                               " has a non-integer parentId");
          continue;
        }
        parent_id = parent.AsInt();
      }
      if (!entry.parent_of.emplace(id.AsInt(), parent_id).second) {
        violations.push_back("table '" + tm.table + "' holds duplicate id " +
                             std::to_string(id.AsInt()));
      }
    }
  }

  // Parent chains: every tuple walks up, tuple by tuple, to the root,
  // acyclically. The DTD mapping names each element's usual parent table,
  // but re-parenting inserts (CopySubtree* to an arbitrary destination) may
  // legally hang a subtree under any existing tuple — so parent ids resolve
  // against a global id map spanning every element table, and a tuple is an
  // orphan only when its parent id exists nowhere. Ids are minted by one
  // global counter, so an id seen in two tables is itself corruption.
  const TableMapping* root = mapping_->root();
  std::unordered_map<int64_t, std::pair<const TableMapping*, int64_t>> owner;
  for (auto& [tm, entry] : ids) {
    for (const auto& [id, parent_id] : entry.parent_of) {
      auto [it, inserted] = owner.emplace(id, std::make_pair(tm, parent_id));
      if (!inserted) {
        violations.push_back("id " + std::to_string(id) +
                             " appears in both table '" +
                             it->second.first->table + "' and table '" +
                             tm->table + "'");
      }
    }
  }
  if (!tables_missing) {
    for (const TableMapping& tm : mapping_->tables()) {
      auto table_ids = ids.find(&tm);
      if (table_ids == ids.end()) continue;
      for (const auto& [id, parent_id] : table_ids->second.parent_of) {
        const TableMapping* at = &tm;
        int64_t at_id = id;
        int64_t up = parent_id;
        size_t steps = 0;
        while (true) {
          if (up == 0) {
            if (at != root) {
              violations.push_back("table '" + at->table + "' id " +
                                   std::to_string(at_id) +
                                   " is a non-root tuple with NULL parentId");
            }
            break;
          }
          if (at == root) {
            violations.push_back("root-table tuple id " +
                                 std::to_string(at_id) +
                                 " has non-NULL parentId " +
                                 std::to_string(up));
            break;
          }
          if (++steps > owner.size()) {
            violations.push_back("parent chain of '" + tm.table + "' id " +
                                 std::to_string(id) +
                                 " does not terminate (cycle?)");
            break;
          }
          auto parent_row = owner.find(up);
          if (parent_row == owner.end()) {
            violations.push_back("table '" + at->table + "' id " +
                                 std::to_string(at_id) +
                                 " points at parentId " + std::to_string(up) +
                                 " absent from every element table "
                                 "(orphan subtree)");
            break;
          }
          at = parent_row->second.first;
          at_id = up;
          up = parent_row->second.second;
        }
      }
    }
  }

  // ASR: every non-null id on a path row exists in its element table, path
  // rows extend from the root (left-complete: a present child implies a
  // present, matching parent), no stale marks linger outside an operation,
  // no two rows hold the same ids (a repair that double-inserts), and every
  // element tuple appears on at least one path row.
  if (asr_ != nullptr) {
    const rdb::Table* asr_table = db_.FindTable(asr::AsrManager::kTableName);
    if (asr_table == nullptr) {
      violations.push_back("ASR table is missing");
      return violations;
    }
    const rdb::TableSchema& schema = asr_table->schema();
    int marked_col = schema.ColumnIndex("marked");
    std::unordered_map<const TableMapping*, std::unordered_set<int64_t>> seen;
    // Id columns (NULL as 0, which no tuple holds) -> first row holding them.
    std::map<std::vector<int64_t>, size_t> path_rows;
    std::vector<int64_t> path;
    for (size_t rowid = 0; rowid < asr_table->capacity(); ++rowid) {
      if (!asr_table->is_live(rowid)) continue;
      const rdb::Value* row = asr_table->row(rowid);
      path.clear();
      if (marked_col >= 0 && !row[marked_col].is_null() &&
          row[marked_col].AsInt() != 0) {
        violations.push_back("asr row " + std::to_string(rowid) +
                             " holds a stale mark outside any operation");
      }
      for (const TableMapping& tm : mapping_->tables()) {
        int col = schema.ColumnIndex(asr::AsrManager::IdColumn(&tm));
        if (col < 0) {
          violations.push_back("ASR lacks a column for table '" + tm.table +
                               "'");
          continue;
        }
        const rdb::Value& v = row[col];
        path.push_back(v.is_null() ? 0 : v.AsInt());
        if (v.is_null()) continue;
        int64_t id = v.AsInt();
        auto table_ids = ids.find(&tm);
        if (table_ids == ids.end() ||
            table_ids->second.parent_of.count(id) == 0) {
          violations.push_back("asr row " + std::to_string(rowid) +
                               " references id " + std::to_string(id) +
                               " absent from table '" + tm.table + "'");
          continue;
        }
        seen[&tm].insert(id);
        int64_t expect =
            &tm != root ? table_ids->second.parent_of.at(id) : 0;
        if (expect != 0) {
          // The parent column to check is the one for the table that owns
          // the parent id — usually the DTD parent, but re-parented
          // subtrees may hang under any element.
          auto own = owner.find(expect);
          const TableMapping* ptm =
              own != owner.end() ? own->second.first
                                 : mapping_->ForElement(tm.parent_element);
          int pcol = ptm != nullptr
                         ? schema.ColumnIndex(asr::AsrManager::IdColumn(ptm))
                         : -1;
          if (pcol < 0 || row[pcol].is_null() ||
              row[pcol].AsInt() != expect) {
            violations.push_back(
                "asr row " + std::to_string(rowid) + " lists id " +
                std::to_string(id) + " of table '" + tm.table +
                "' under the wrong ancestor (expected parentId " +
                std::to_string(expect) + ")");
          }
        }
      }
      auto [prior, inserted] = path_rows.emplace(path, rowid);
      if (!inserted) {
        violations.push_back("asr row " + std::to_string(rowid) +
                             " duplicates the path of asr row " +
                             std::to_string(prior->second));
      }
    }
    for (const TableMapping& tm : mapping_->tables()) {
      auto table_ids = ids.find(&tm);
      if (table_ids == ids.end()) continue;
      const auto& on_paths = seen[&tm];
      for (const auto& [id, parent_id] : table_ids->second.parent_of) {
        if (on_paths.count(id) == 0) {
          violations.push_back("table '" + tm.table + "' id " +
                               std::to_string(id) +
                               " appears on no ASR path row");
        }
      }
    }
  }
  return violations;
}

}  // namespace xupd::engine
