#include "shred/edge.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/str_util.h"

namespace xupd::shred {

using rdb::Value;

Status EdgeStore::CreateSchema() {
  XUPD_RETURN_IF_ERROR(db_->ExecuteQuery(
      std::string("CREATE TABLE ") + kTableName +
      " (source INTEGER, ordinal INTEGER, kind VARCHAR, name VARCHAR, "
      "value VARCHAR, target INTEGER)").status());
  XUPD_RETURN_IF_ERROR(
      db_->ExecuteQuery(std::string("CREATE INDEX idx_edge_source ON ") +
                        kTableName + " (source)")
          .status());
  XUPD_RETURN_IF_ERROR(
      db_->ExecuteQuery(std::string("CREATE INDEX idx_edge_target ON ") +
                        kTableName + " (target)")
          .status());
  return Status::OK();
}

Status EdgeStore::LoadElement(const xml::Element& element, int64_t parent_id,
                              int64_t ordinal, int64_t* out_id) {
  rdb::Table* table = db_->FindTable(kTableName);
  if (table == nullptr) {
    return Status::Internal("edge table missing; call CreateSchema first");
  }
  int64_t id = db_->AllocateId();
  *out_id = id;
  // The element edge itself.
  XUPD_RETURN_IF_ERROR(db_->InsertDirect(
      table, {parent_id == 0 ? Value::Null() : Value::Int(parent_id),
              Value::Int(ordinal), Value::Str("elem"),
              Value::Str(element.name()), Value::Null(), Value::Int(id)}));
  int64_t pos = 0;
  for (const xml::Attribute& a : element.attributes()) {
    XUPD_RETURN_IF_ERROR(db_->InsertDirect(
        table, {Value::Int(id), Value::Int(pos++), Value::Str("attr"),
                Value::Str(a.name), Value::Str(a.value), Value::Null()}));
  }
  for (const xml::RefList& r : element.ref_lists()) {
    for (const std::string& target : r.targets) {
      XUPD_RETURN_IF_ERROR(db_->InsertDirect(
          table, {Value::Int(id), Value::Int(pos++), Value::Str("ref"),
                  Value::Str(r.name), Value::Str(target), Value::Null()}));
    }
  }
  for (const auto& child : element.children()) {
    if (child->is_text()) {
      XUPD_RETURN_IF_ERROR(db_->InsertDirect(
          table,
          {Value::Int(id), Value::Int(pos++), Value::Str("text"),
           Value::Null(),
           Value::Str(static_cast<const xml::Text*>(child.get())->value()),
           Value::Null()}));
    } else {
      int64_t child_id = 0;
      XUPD_RETURN_IF_ERROR(
          LoadElement(*static_cast<const xml::Element*>(child.get()), id,
                      pos++, &child_id));
    }
  }
  return Status::OK();
}

Result<int64_t> EdgeStore::Load(const xml::Document& doc) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  int64_t root_id = 0;
  XUPD_RETURN_IF_ERROR(LoadElement(*doc.root(), 0, 0, &root_id));
  return root_id;
}

Result<std::unique_ptr<xml::Document>> EdgeStore::Reconstruct() {
  auto rows = db_->ExecuteQuery(
      std::string("SELECT source, ordinal, kind, name, value, target FROM ") +
      kTableName);
  if (!rows.ok()) return rows.status();

  struct EdgeRow {
    int64_t source = 0;
    int64_t ordinal = 0;
    std::string kind, name, value;
    int64_t target = 0;
  };
  // Group child edges by source element id.
  std::map<int64_t, std::vector<EdgeRow>> children;
  EdgeRow root_edge;
  bool have_root = false;
  for (const rdb::Row& row : rows->rows) {
    EdgeRow e;
    e.source = row[0].is_null() ? 0 : row[0].AsInt();
    e.ordinal = row[1].AsInt();
    e.kind = row[2].ToString();
    e.name = row[3].is_null() ? "" : row[3].ToString();
    e.value = row[4].is_null() ? "" : row[4].ToString();
    e.target = row[5].is_null() ? 0 : row[5].AsInt();
    if (e.source == 0 && e.kind == "elem") {
      root_edge = e;
      have_root = true;
    } else {
      children[e.source].push_back(std::move(e));
    }
  }
  if (!have_root) return Status::NotFound("no root edge");
  for (auto& [id, list] : children) {
    std::sort(list.begin(), list.end(),
              [](const EdgeRow& a, const EdgeRow& b) {
                return a.ordinal < b.ordinal;
              });
  }

  std::set<std::string> ref_names;
  std::function<Result<std::unique_ptr<xml::Element>>(const EdgeRow&)> build =
      [&](const EdgeRow& edge) -> Result<std::unique_ptr<xml::Element>> {
    auto elem = std::make_unique<xml::Element>(edge.name);
    auto it = children.find(edge.target);
    if (it != children.end()) {
      for (const EdgeRow& child : it->second) {
        if (child.kind == "attr") {
          elem->SetAttribute(child.name, child.value);
        } else if (child.kind == "ref") {
          elem->AppendRef(child.name, child.value);
          ref_names.insert(child.name);
        } else if (child.kind == "text") {
          elem->AppendText(child.value);
        } else if (child.kind == "elem") {
          auto sub = build(child);
          if (!sub.ok()) return sub.status();
          elem->AppendChild(std::move(sub).value());
        } else {
          return Status::Internal("unknown edge kind '" + child.kind + "'");
        }
      }
    }
    return elem;
  };
  auto root = build(root_edge);
  if (!root.ok()) return root.status();
  auto doc = std::make_unique<xml::Document>(std::move(root).value());
  for (const std::string& name : ref_names) {
    doc->DeclareRefAttribute(name);
  }
  return doc;
}

size_t EdgeStore::EdgeCount() const {
  const rdb::Table* t = db_->FindTable(kTableName);
  return t == nullptr ? 0 : t->live_count();
}

Result<std::vector<int64_t>> EdgeStore::FindElementsByText(
    const std::string& name, const std::string& value) {
  // Two instances of the edge relation: one for the element edge, one for
  // its text edge — the join fragmentation the paper criticizes.
  auto rows = db_->ExecuteQuery(
      std::string("SELECT e.target FROM ") + kTableName + " e, " + kTableName +
      " t WHERE e.kind = 'elem' AND e.name = " + SqlQuote(name) +
      " AND t.kind = 'text' AND t.source = e.target AND t.value = " +
      SqlQuote(value));
  if (!rows.ok()) return rows.status();
  std::vector<int64_t> out;
  for (const rdb::Row& row : rows->rows) out.push_back(row[0].AsInt());
  return out;
}

}  // namespace xupd::shred
