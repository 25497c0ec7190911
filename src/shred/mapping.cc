#include "shred/mapping.h"

#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "common/str_util.h"

namespace xupd::shred {

using xml::AttrDecl;
using xml::AttrType;
using xml::ChildOccurrence;
using xml::ContentType;
using xml::Dtd;
using xml::ElementDecl;

namespace {

std::string SanitizeIdentifier(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "t_" + out;
  }
  return out;
}

std::string ColumnNameFor(const std::vector<std::string>& path,
                          const std::string& suffix) {
  std::string out;
  for (const std::string& p : path) {
    if (!out.empty()) out += "_";
    out += SanitizeIdentifier(p);
  }
  if (!suffix.empty()) {
    if (!out.empty()) out += "_";
    out += SanitizeIdentifier(suffix);
  }
  return out;
}

// Detects elements reachable from themselves through the DTD graph.
bool IsRecursive(const Dtd& dtd, const std::string& start) {
  std::set<std::string> visited;
  std::vector<std::string> stack{start};
  while (!stack.empty()) {
    std::string cur = stack.back();
    stack.pop_back();
    for (const ChildOccurrence& c : dtd.ChildElements(cur)) {
      if (c.name == start) return true;
      if (visited.insert(c.name).second) stack.push_back(c.name);
    }
  }
  return false;
}

}  // namespace

Result<Mapping> Mapping::SharedInlining(const Dtd& dtd) {
  Mapping mapping;
  mapping.dtd_ = dtd;

  // Count distinct parents and repeated occurrences per element.
  std::map<std::string, std::set<std::string>> parents;
  std::set<std::string> repeated;
  for (const ElementDecl& decl : dtd.elements()) {
    if (decl.type == ContentType::kAny) {
      return Status::InvalidArgument("element <" + decl.name +
                                     "> has ANY content; not mappable");
    }
    for (const ChildOccurrence& c : dtd.ChildElements(decl.name)) {
      parents[c.name].insert(decl.name);
      if (c.repeated) repeated.insert(c.name);
    }
  }

  std::string root = dtd.RootName();
  std::set<std::string> table_elements{root};
  for (const ElementDecl& decl : dtd.elements()) {
    if (decl.name == root) continue;
    if (repeated.count(decl.name) > 0 || parents[decl.name].size() > 1 ||
        IsRecursive(dtd, decl.name)) {
      table_elements.insert(decl.name);
    }
  }

  // Build the table list by walking from the root so parent_element is the
  // nearest table ancestor.
  std::set<std::string> emitted;
  // Recursive lambda: builds the TableMapping for `element` whose nearest
  // table ancestor is `parent_table_element`.
  std::function<Status(const std::string&, const std::string&)> build =
      [&](const std::string& element,
          const std::string& parent_table_element) -> Status {
    if (!emitted.insert(element).second) {
      // Shared elements reachable from several parents get one table; the
      // first discovery wins for parent_element (used only for diagnostics;
      // tuples carry real parent ids).
      return Status::OK();
    }
    TableMapping tm;
    tm.element = element;
    tm.table = SanitizeIdentifier(element);
    tm.parent_element = parent_table_element;

    std::set<std::string> used_columns{"id", "parentid"};
    auto add_field = [&](InlinedField f) {
      std::string base = AsciiToLower(f.column);
      std::string column = f.column;
      int suffix = 2;
      while (used_columns.count(AsciiToLower(column)) > 0) {
        column = f.column + "_" + std::to_string(suffix++);
      }
      used_columns.insert(AsciiToLower(column));
      f.column = column;
      tm.fields.push_back(std::move(f));
      (void)base;
    };

    std::vector<std::string> pending_tables;  // child table elements

    // Recursive inlining walk.
    std::function<void(const std::string&, const std::vector<std::string>&)>
        inline_element = [&](const std::string& name,
                             const std::vector<std::string>& path) {
          // Attributes of `name` become columns.
          for (const AttrDecl* a : dtd.AttributesOf(name)) {
            InlinedField f;
            f.kind = InlinedField::Kind::kAttribute;
            f.path = path;
            f.attr = a->name;
            f.is_ref =
                a->type == AttrType::kIdref || a->type == AttrType::kIdrefs;
            f.column = ColumnNameFor(path, a->name);
            add_field(std::move(f));
          }
          const ElementDecl* decl = dtd.FindElement(name);
          if (decl == nullptr) return;
          if (decl->type == ContentType::kPcdataOnly ||
              decl->type == ContentType::kMixed) {
            InlinedField f;
            f.kind = InlinedField::Kind::kPcdata;
            f.path = path;
            f.column = path.empty() ? "value" : ColumnNameFor(path, "");
            add_field(std::move(f));
          }
          for (const ChildOccurrence& c : dtd.ChildElements(name)) {
            if (table_elements.count(c.name) > 0) {
              if (path.empty()) {
                pending_tables.push_back(c.name);
              } else {
                // A table element nested under an inlined one: its parent
                // tuples are the enclosing table's tuples.
                pending_tables.push_back(c.name);
              }
              continue;
            }
            std::vector<std::string> child_path = path;
            child_path.push_back(c.name);
            const ElementDecl* child_decl = dtd.FindElement(c.name);
            bool leaf = child_decl == nullptr ||
                        child_decl->type == ContentType::kPcdataOnly ||
                        child_decl->type == ContentType::kEmpty;
            if (!leaf) {
              // Presence flag disambiguates "deleted" vs "empty" (§6.1).
              InlinedField f;
              f.kind = InlinedField::Kind::kPresence;
              f.path = child_path;
              f.column = ColumnNameFor(child_path, "present");
              add_field(std::move(f));
            }
            inline_element(c.name, child_path);
          }
        };

    inline_element(element, {});
    mapping.tables_.push_back(std::move(tm));
    for (const std::string& child : pending_tables) {
      XUPD_RETURN_IF_ERROR(build(child, element));
    }
    return Status::OK();
  };

  XUPD_RETURN_IF_ERROR(build(root, ""));
  if (mapping.tables_.empty()) {
    return Status::InvalidArgument("DTD yielded no tables");
  }
  return mapping;
}

const TableMapping* Mapping::ForElement(std::string_view element) const {
  for (const TableMapping& t : tables_) {
    if (t.element == element) return &t;
  }
  return nullptr;
}

std::vector<const TableMapping*> Mapping::ChildTables(
    std::string_view element) const {
  std::vector<const TableMapping*> out;
  for (const TableMapping& t : tables_) {
    if (t.parent_element == element) out.push_back(&t);
  }
  return out;
}

std::vector<const TableMapping*> Mapping::SubtreeTables(
    const TableMapping* t) const {
  std::vector<const TableMapping*> out{t};
  for (size_t i = 0; i < out.size(); ++i) {
    for (const TableMapping* child : ChildTables(out[i]->element)) {
      out.push_back(child);
    }
  }
  return out;
}

std::vector<const TableMapping*> Mapping::PathFromRoot(
    const TableMapping* t) const {
  std::vector<const TableMapping*> out;
  const TableMapping* cur = t;
  while (cur != nullptr) {
    out.insert(out.begin(), cur);
    if (cur->parent_element.empty()) break;
    cur = ForElement(cur->parent_element);
  }
  return out;
}

size_t Mapping::Depth() const {
  size_t depth = 0;
  for (const TableMapping& t : tables_) {
    depth = std::max(depth, PathFromRoot(&t).size());
  }
  return depth;
}

std::vector<std::string> Mapping::SchemaSql() const {
  std::vector<std::string> out;
  for (const TableMapping& t : tables_) {
    std::string sql = "CREATE TABLE " + t.table + " (id INTEGER, parentId INTEGER";
    for (const InlinedField& f : t.fields) {
      sql += ", " + f.column + " VARCHAR";
    }
    sql += ")";
    out.push_back(std::move(sql));
    out.push_back("CREATE INDEX idx_" + t.table + "_id ON " + t.table + " (id)");
    out.push_back("CREATE INDEX idx_" + t.table + "_pid ON " + t.table +
                  " (parentId)");
  }
  return out;
}

const InlinedField* Mapping::ResolveInlined(
    const TableMapping* t, const std::vector<std::string>& path,
    const std::string& attr) const {
  for (const InlinedField& f : t->fields) {
    if (f.path != path) continue;
    if (!attr.empty()) {
      if (f.kind == InlinedField::Kind::kAttribute && f.attr == attr) return &f;
    } else {
      if (f.kind == InlinedField::Kind::kPcdata) return &f;
    }
  }
  return nullptr;
}

}  // namespace xupd::shred
