#include "shred/shredder.h"

#include <algorithm>

#include "common/str_util.h"

namespace xupd::shred {

using rdb::Value;

Status Shredder::CreateSchema() {
  for (const std::string& sql : mapping_->SchemaSql()) {
    XUPD_RETURN_IF_ERROR(db_->ExecuteQuery(sql).status());
  }
  return Status::OK();
}

namespace {

/// Finds the element at `path` below `e`; null when any step is missing.
const xml::Element* Navigate(const xml::Element& e,
                             const std::vector<std::string>& path) {
  const xml::Element* cur = &e;
  for (const std::string& step : path) {
    cur = cur->FindChildElement(step);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

/// A literal single-row INSERT for `tuple`, parsed on every execution.
std::string LiteralInsertSql(const ShreddedTuple& tuple) {
  std::string sql = "INSERT INTO " + tuple.table->table + " VALUES (";
  for (size_t i = 0; i < tuple.row.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += tuple.row[i].ToSqlLiteral();
  }
  sql += ")";
  return sql;
}

}  // namespace

Status Shredder::FillFields(const xml::Element& element, const TableMapping* tm,
                            rdb::Row* row) const {
  for (size_t i = 0; i < tm->fields.size(); ++i) {
    const InlinedField& f = tm->fields[i];
    const xml::Element* target = Navigate(element, f.path);
    Value v;  // NULL
    if (target != nullptr) {
      switch (f.kind) {
        case InlinedField::Kind::kPcdata:
          v = Value::Str(target->TextContent());
          break;
        case InlinedField::Kind::kAttribute: {
          if (f.is_ref) {
            if (const xml::RefList* r = target->FindRefList(f.attr)) {
              v = Value::Str(Join(r->targets, " "));
            }
          } else if (const xml::Attribute* a = target->FindAttribute(f.attr)) {
            v = Value::Str(a->value);
          }
          break;
        }
        case InlinedField::Kind::kPresence:
          v = Value::Str("1");
          break;
      }
    }
    (*row)[static_cast<size_t>(tm->FieldColumn(i))] = std::move(v);
  }
  return Status::OK();
}

Status Shredder::ShredElement(const xml::Element& element,
                              const TableMapping* tm, int64_t parent_id,
                              std::vector<ShreddedTuple>* out) {
  ShreddedTuple tuple;
  tuple.table = tm;
  tuple.id = db_->AllocateId();
  tuple.parent_id = parent_id;
  tuple.row.assign(2 + tm->fields.size(), Value::Null());
  tuple.row[TableMapping::kIdColumn] = Value::Int(tuple.id);
  tuple.row[TableMapping::kParentIdColumn] =
      parent_id == 0 ? Value::Null() : Value::Int(parent_id);
  XUPD_RETURN_IF_ERROR(FillFields(element, tm, &tuple.row));
  int64_t self_id = tuple.id;
  out->push_back(std::move(tuple));
  return ShredTablesBelow(element, self_id, out);
}

Status Shredder::ShredTablesBelow(const xml::Element& element,
                                  int64_t parent_id,
                                  std::vector<ShreddedTuple>* out) {
  for (const auto& child : element.children()) {
    if (!child->is_element()) continue;
    const auto* ce = static_cast<const xml::Element*>(child.get());
    const TableMapping* tm = mapping_->ForElement(ce->name());
    XUPD_RETURN_IF_ERROR(tm != nullptr
                             ? ShredElement(*ce, tm, parent_id, out)
                             : ShredTablesBelow(*ce, parent_id, out));
  }
  return Status::OK();
}

Result<std::vector<ShreddedTuple>> Shredder::ShredSubtree(
    const xml::Element& element, int64_t parent_id) {
  const TableMapping* tm = mapping_->ForElement(element.name());
  if (tm == nullptr) {
    return Status::InvalidArgument("element <" + element.name() +
                                   "> does not map to a table");
  }
  std::vector<ShreddedTuple> out;
  XUPD_RETURN_IF_ERROR(ShredElement(element, tm, parent_id, &out));
  return out;
}

Status Shredder::InsertTuplesSql(const std::vector<ShreddedTuple>& tuples) {
  if (sql_batch_size_ == 1) {
    // The paper's original regime on every path: one literal single-row
    // INSERT statement per tuple, parsed on every execution.
    for (const ShreddedTuple& t : tuples) {
      XUPD_RETURN_IF_ERROR(db_->ExecuteQuery(LiteralInsertSql(t)).status());
    }
    return Status::OK();
  }
  // Group per table, preserving first-seen table order and arrival order
  // within a table (parent ids are pre-assigned, so cross-table statement
  // order does not matter for correctness).
  std::vector<std::pair<const TableMapping*, std::vector<const ShreddedTuple*>>>
      groups;
  for (const ShreddedTuple& t : tuples) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == t.table; });
    if (it == groups.end()) {
      groups.push_back({t.table, {&t}});
    } else {
      it->second.push_back(&t);
    }
  }
  const size_t batch = static_cast<size_t>(sql_batch_size_);
  for (const auto& [tm, group] : groups) {
    const size_t cols = 2 + tm->fields.size();
    for (size_t start = 0; start < group.size(); start += batch) {
      size_t n = std::min(batch, group.size() - start);
      std::string sql = rdb::MultiRowInsertSql(tm->table, cols, n);
      std::vector<Value> params;
      params.reserve(cols * n);
      for (size_t i = 0; i < n; ++i) {
        const rdb::Row& row = group[start + i]->row;
        params.insert(params.end(), row.begin(), row.end());
      }
      XUPD_RETURN_IF_ERROR(db_->ExecuteQueryBound(sql, params).status());
    }
  }
  return Status::OK();
}

Result<std::vector<ShreddedTuple>> Shredder::LoadDocument(
    const xml::Document& doc) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  if (doc.root()->name() != mapping_->root()->element) {
    return Status::InvalidArgument("document root <" + doc.root()->name() +
                                   "> does not match mapping root <" +
                                   mapping_->root()->element + ">");
  }
  auto tuples = ShredSubtree(*doc.root(), 0);
  if (!tuples.ok()) return tuples.status();
  // Each mapping table's Table*, looked up at its first tuple.
  std::vector<rdb::Table*> tables(mapping_->tables().size(), nullptr);
  for (ShreddedTuple& t : *tuples) {
    rdb::Table*& table =
        tables[static_cast<size_t>(t.table - mapping_->tables().data())];
    if (table == nullptr) table = db_->FindTable(t.table->table);
    if (table == nullptr) {
      return Status::Internal("table '" + t.table->table + "' missing");
    }
    XUPD_RETURN_IF_ERROR(db_->InsertDirect(table, std::move(t.row)));
  }
  return tuples;
}

}  // namespace xupd::shred
