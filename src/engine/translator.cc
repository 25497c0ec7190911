// XQuery-update → SQL translation (§6).
//
// Supported statement shape (covers the paper's Examples 8-10 and the
// benchmark workloads):
//
//   FOR $a IN document(...)/<path to a table-mapped element>[preds],
//       $b IN $a/<path>, ...
//   [WHERE preds]
//   UPDATE $t { DELETE $c | INSERT content [s] | REPLACE $c WITH content |
//               FOR $n IN $t/<path>[preds] [WHERE ...] UPDATE $n { ... } }
//
// Translation approach (per §6.3): a binding is a SQL condition over its
// table, so binding a path issues no SQL. A child step wraps the parent's
// condition as `parentId IN (SELECT id FROM <parent> WHERE <cond>)`, a //
// step once per table down to the named one, and predicates AND onto it.
// Before any update runs, ids are read (one SELECT per distinct table and
// condition) for the ops' operands, including those of nested sub-updates,
// and for every variable, which empties its update when it binds no tuple
// (the paper uses one Sorted Outer Union). Then the sub-operations execute
// sequentially using the configured delete/insert strategies.
//
// Predicates over inlined content become SQL over the owning table's
// columns; predicates over a child table's content become
// `id IN (SELECT parentId FROM child WHERE ...)`. The reads carry the
// query's literals and parse per call; the ops stage their operand ids in
// the shared `xupd_idlist` scratch table and reference them as
// `id IN (SELECT id FROM xupd_idlist)` (RelationalStore::IdListPredicate),
// so their statement texts are constant and reuse cached plans.
//
// Documented deviations: inserting "over" an inlined single-occurrence
// element overwrites it (the paper would emit a warning, §6.2); RENAME of a
// table-mapped element is unsupported at the SQL level (the mapping fixes
// table names at schema time).
#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"
#include "engine/engine_span.h"
#include "engine/store.h"
#include "xml/parser.h"
#include "xpath/ast.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace xupd::engine {

using shred::InlinedField;
using shred::TableMapping;
using xpath::PathExpr;
using xpath::Predicate;
using xpath::Step;
using xquery::ContentExpr;
using xquery::Statement;
using xquery::SubOp;
using xquery::UpdateOp;

namespace {

/// A variable binding resolved against the relational store: the tuples of
/// `table` that `cond` selects, or an inlined object inside each of them.
struct Binding {
  const TableMapping* table = nullptr;  ///< owning table.
  /// SQL condition over `table`'s columns; empty selects every row. Path
  /// steps and predicates only extend it, so binding a path issues no SQL.
  std::string cond;
  /// The ids `cond` selects, read in the bind phase for the ops' operands
  /// (UPDATE target, DELETE/RENAME/REPLACE child, INSERT source) only.
  std::vector<int64_t> ids;
  /// For bindings to inlined objects: the element path below the table's
  /// element and (optionally) the attribute name.
  bool inlined = false;
  std::vector<std::string> inlined_path;
  std::string inlined_attr;
};

using Env = std::map<std::string, Binding>;

/// `cond AND (more)`, where either side may be empty (every row).
std::string Conjoin(const std::string& cond, const std::string& more) {
  if (more.empty()) return cond;
  if (cond.empty()) return more;
  return cond + " AND (" + more + ")";
}

class Translator {
 public:
  explicit Translator(RelationalStore* store)
      : store_(store), mapping_(&store->mapping()) {}

  Status Execute(const Statement& stmt) {
    if (!stmt.is_update()) {
      return Status::InvalidArgument("statement has no UPDATE clause");
    }
    if (!stmt.let_clauses.empty()) {
      return Status::Unimplemented("LET clauses in relational translation");
    }
    Env env;
    XUPD_ASSIGN_OR_RETURN(bool any,
                          BindForWhere(stmt.for_clauses, stmt.where, &env));
    if (!any) return Status::OK();
    // Bind phase for all updates (including nested) before executing.
    std::vector<PlannedOp> plan;
    for (const UpdateOp& op : stmt.updates) {
      XUPD_RETURN_IF_ERROR(BindUpdate(op, env, &plan));
    }
    for (const PlannedOp& op : plan) {
      XUPD_RETURN_IF_ERROR(ExecuteOp(op));
    }
    return Status::OK();
  }

 private:
  struct PlannedOp {
    SubOp::Kind kind = SubOp::Kind::kDelete;
    Binding target;  ///< the UPDATE target binding.
    Binding child;   ///< operand binding (delete/replace).
    /// Content (resolved at bind time).
    ContentExpr::Kind content_kind = ContentExpr::Kind::kNone;
    std::string content_text;
    std::string content_name;
    std::unique_ptr<xml::Element> content_element;
    Binding content_source;  ///< for INSERT $var copies.
    std::string rename_to;
  };

  // --- path resolution -----------------------------------------------------

  /// Resolves a path to a Binding. Heads: document(...) (from the mapping
  /// root) or $var (from an existing binding).
  Result<Binding> ResolvePath(const PathExpr& path, const Env& env) {
    Binding current;
    size_t step_index = 0;
    if (path.head == PathExpr::Head::kVariable) {
      auto it = env.find(path.variable);
      if (it == env.end()) {
        return Status::NotFound("unbound variable $" + path.variable);
      }
      current = it->second;
    } else {
      // document(...): start at the mapping root. The first step may name
      // the root element itself.
      current.table = mapping_->root();
      if (!path.steps.empty() &&
          path.steps[0].axis == Step::Axis::kChild &&
          path.steps[0].name == current.table->element) {
        XUPD_ASSIGN_OR_RETURN(current.cond,
                              PredicatesToSql(path.steps[0].predicates,
                                              current.table));
        step_index = 1;
      }
    }
    for (; step_index < path.steps.size(); ++step_index) {
      const Step& step = path.steps[step_index];
      XUPD_RETURN_IF_ERROR(ApplyStep(step, &current));
    }
    return current;
  }

  /// A path resolved as an op operand: its ids are read now, in the bind
  /// phase.
  Result<Binding> ResolveOperand(const PathExpr& path, const Env& env) {
    XUPD_ASSIGN_OR_RETURN(Binding b, ResolvePath(path, env));
    XUPD_ASSIGN_OR_RETURN(b.ids, Read(b));
    return b;
  }

  /// The ids `b` selects. SelectIds runs once per distinct (table,
  /// condition) per statement: an inlined operand and its tuple, or a
  /// target that is also an emptiness check, share one read.
  Result<std::vector<int64_t>> Read(const Binding& b) {
    auto key = std::make_pair(b.table, b.cond);
    auto it = reads_.find(key);
    if (it == reads_.end()) {
      XUPD_ASSIGN_OR_RETURN(std::vector<int64_t> ids,
                            store_->SelectIds(b.table->element, b.cond));
      it = reads_.emplace(std::move(key), std::move(ids)).first;
    }
    return it->second;
  }

  /// Moves `current` one table down, to `child`: the child rows whose parent
  /// `current` selects. A child step is one such move; a // step is one per
  /// table on the mapping's path to the named table.
  static void Descend(const TableMapping* child, Binding* current) {
    std::string parents = "SELECT id FROM " + current->table->table;
    if (!current->cond.empty()) parents += " WHERE " + current->cond;
    current->cond = "parentId IN (" + parents + ")";
    current->table = child;
  }

  Status ApplyStep(const Step& step, Binding* current) {
    if (current->inlined) {
      // Deeper into the inlined region.
      if (step.axis == Step::Axis::kChild) {
        current->inlined_path.push_back(step.name);
        return Status::OK();
      }
      if (step.axis == Step::Axis::kAttribute) {
        current->inlined_attr = step.name;
        return Status::OK();
      }
      return Status::Unimplemented("step inside inlined region");
    }
    switch (step.axis) {
      case Step::Axis::kChild: {
        // Child table?
        for (const TableMapping* child :
             mapping_->ChildTables(current->table->element)) {
          if (child->element == step.name) {
            XUPD_ASSIGN_OR_RETURN(std::string pred,
                                  PredicatesToSql(step.predicates, child));
            Descend(child, current);
            current->cond = Conjoin(current->cond, pred);
            return Status::OK();
          }
        }
        // Inlined child?
        std::vector<std::string> p{step.name};
        bool known = false;
        for (const InlinedField& f : current->table->fields) {
          if (!f.path.empty() && f.path[0] == step.name) known = true;
        }
        if (known) {
          if (!step.predicates.empty()) {
            return Status::Unimplemented("predicates on inlined elements");
          }
          current->inlined = true;
          current->inlined_path = std::move(p);
          return Status::OK();
        }
        return Status::NotFound("no table or inlined mapping for step '" +
                                step.name + "' under <" +
                                current->table->element + ">");
      }
      case Step::Axis::kDescendant: {
        // Locate the unique table with this element name in the subtree of
        // the current table.
        const TableMapping* found = nullptr;
        for (const TableMapping* t : mapping_->SubtreeTables(current->table)) {
          if (t->element == step.name) {
            if (found != nullptr) {
              return Status::InvalidArgument("ambiguous // step '" +
                                             step.name + "'");
            }
            found = t;
          }
        }
        if (found == nullptr) {
          return Status::NotFound("// step '" + step.name +
                                  "' matches no table");
        }
        XUPD_ASSIGN_OR_RETURN(std::string pred,
                              PredicatesToSql(step.predicates, found));
        std::vector<const TableMapping*> chain =
            mapping_->PathFromRoot(found);
        auto it = std::find(chain.begin(), chain.end(), current->table);
        if (it == chain.end()) {
          return Status::Internal("inconsistent table chain");
        }
        for (++it; it != chain.end(); ++it) Descend(*it, current);
        current->cond = Conjoin(current->cond, pred);
        return Status::OK();
      }
      case Step::Axis::kAttribute: {
        const InlinedField* f =
            mapping_->ResolveInlined(current->table, {}, step.name);
        if (f == nullptr) {
          return Status::NotFound("attribute '" + step.name +
                                  "' is not mapped on <" +
                                  current->table->element + ">");
        }
        current->inlined = true;
        current->inlined_attr = step.name;
        return Status::OK();
      }
      default:
        return Status::Unimplemented(
            "path step kind in relational translation");
    }
  }

  // --- predicate translation -----------------------------------------------

  Result<std::string> PredicatesToSql(const std::vector<Predicate>& preds,
                                      const TableMapping* tm) {
    std::string out;
    for (const Predicate& p : preds) {
      XUPD_ASSIGN_OR_RETURN(std::string one, PredicateToSql(p, tm));
      if (!out.empty()) out += " AND ";
      out += one;
    }
    return out;
  }

  Result<std::string> PredicateToSql(const Predicate& pred,
                                     const TableMapping* tm) {
    switch (pred.kind) {
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr: {
        std::string joiner =
            pred.kind == Predicate::Kind::kAnd ? " AND " : " OR ";
        std::string out = "(";
        for (size_t i = 0; i < pred.children.size(); ++i) {
          if (i > 0) out += joiner;
          XUPD_ASSIGN_OR_RETURN(std::string one,
                                PredicateToSql(pred.children[i], tm));
          out += one;
        }
        out += ")";
        return out;
      }
      case Predicate::Kind::kNot: {
        XUPD_ASSIGN_OR_RETURN(std::string one,
                              PredicateToSql(pred.children[0], tm));
        return "NOT (" + one + ")";
      }
      case Predicate::Kind::kCompare:
      case Predicate::Kind::kExists: {
        const PathExpr& path = pred.path;
        if (path.head != PathExpr::Head::kContext) {
          return Status::Unimplemented(
              "non-relative predicate path in SQL translation");
        }
        std::string op = "=";
        if (pred.kind == Predicate::Kind::kCompare) {
          switch (pred.op) {
            case Predicate::Op::kEq:
              op = "=";
              break;
            case Predicate::Op::kNe:
              op = "<>";
              break;
            case Predicate::Op::kLt:
              op = "<";
              break;
            case Predicate::Op::kLe:
              op = "<=";
              break;
            case Predicate::Op::kGt:
              op = ">";
              break;
            case Predicate::Op::kGe:
              op = ">=";
              break;
          }
        }
        std::string literal = pred.rhs_is_number
                                  ? std::to_string(pred.rhs_number)
                                  : SqlQuote(pred.rhs_string);
        // @attr or element path.
        std::vector<std::string> epath;
        std::string attr;
        for (const Step& s : path.steps) {
          if (s.axis == Step::Axis::kChild) {
            epath.push_back(s.name);
          } else if (s.axis == Step::Axis::kAttribute) {
            attr = s.name;
          } else {
            return Status::Unimplemented("predicate path step kind");
          }
        }
        // Inlined field of tm?
        const InlinedField* f = mapping_->ResolveInlined(tm, epath, attr);
        if (f != nullptr) {
          if (pred.kind == Predicate::Kind::kExists) {
            return f->column + " IS NOT NULL";
          }
          return f->column + " " + op + " " + literal;
        }
        // Path descending through one child table: child field condition.
        if (!epath.empty()) {
          for (const TableMapping* child : mapping_->ChildTables(tm->element)) {
            if (child->element != epath.front()) continue;
            std::vector<std::string> rest(epath.begin() + 1, epath.end());
            const InlinedField* cf = mapping_->ResolveInlined(child, rest, attr);
            if (cf == nullptr && rest.empty() && attr.empty()) {
              // Existence of the child element itself.
              return "id IN (SELECT parentId FROM " + child->table + ")";
            }
            if (cf == nullptr) {
              return Status::Unimplemented("deep predicate path '" +
                                           Join(epath, "/") + "'");
            }
            if (pred.kind == Predicate::Kind::kExists) {
              return "id IN (SELECT parentId FROM " + child->table + " WHERE " +
                     cf->column + " IS NOT NULL)";
            }
            return "id IN (SELECT parentId FROM " + child->table + " WHERE " +
                   cf->column + " " + op + " " + literal + ")";
          }
        }
        return Status::Unimplemented("predicate path '" + Join(epath, "/") +
                                     "' not mapped under <" + tm->element +
                                     ">");
      }
    }
    return Status::Internal("unknown predicate kind");
  }

  Status ApplyWherePredicate(const Predicate& pred, Env* env) {
    // WHERE predicates whose path starts at a bound variable narrow that
    // variable's condition.
    if ((pred.kind == Predicate::Kind::kCompare ||
         pred.kind == Predicate::Kind::kExists) &&
        pred.path.head == PathExpr::Head::kVariable) {
      auto it = env->find(pred.path.variable);
      if (it == env->end()) {
        return Status::NotFound("unbound variable $" + pred.path.variable +
                                " in WHERE");
      }
      Binding& b = it->second;
      if (b.inlined) {
        return Status::Unimplemented("WHERE over inlined binding");
      }
      Predicate relative = pred;
      relative.path.head = PathExpr::Head::kContext;
      relative.path.variable.clear();
      XUPD_ASSIGN_OR_RETURN(std::string sql, PredicateToSql(relative, b.table));
      b.cond = Conjoin(b.cond, sql);
      return Status::OK();
    }
    return Status::Unimplemented("WHERE predicate form in SQL translation");
  }

  // --- binding updates -------------------------------------------------------

  /// Binds `fors` into `env` with each WHERE predicate applied as soon as
  /// its variable is bound (an outer variable's before the first clause), so
  /// the conditions composed from that variable inherit it. False when a
  /// variable binds no tuple: the update then binds nothing, as
  /// NativeExecutor::BindTuples keeps no tuple.
  Result<bool> BindForWhere(const std::vector<xquery::ForClause>& fors,
                            const std::vector<Predicate>& where, Env* env) {
    auto binds = [](const xquery::ForClause& c, const Predicate& pred) {
      return c.variable == pred.path.variable;
    };
    for (const Predicate& pred : where) {
      if (std::none_of(fors.begin(), fors.end(),
                       [&](const auto& c) { return binds(c, pred); })) {
        XUPD_RETURN_IF_ERROR(ApplyWherePredicate(pred, env));
      }
    }
    for (const auto& clause : fors) {
      XUPD_ASSIGN_OR_RETURN((*env)[clause.variable],
                            ResolvePath(clause.path, *env));
      for (const Predicate& pred : where) {
        if (binds(clause, pred)) {
          XUPD_RETURN_IF_ERROR(ApplyWherePredicate(pred, env));
        }
      }
    }
    for (const auto& [var, b] : *env) {
      // Every row of the root table is the loaded root; were there none,
      // every path would bind nothing anyway.
      if (b.table == mapping_->root() && b.cond.empty()) continue;
      XUPD_ASSIGN_OR_RETURN(std::vector<int64_t> ids, Read(b));
      if (ids.empty()) return false;
    }
    return true;
  }

  Status BindUpdate(const UpdateOp& op, Env env, std::vector<PlannedOp>* plan) {
    XUPD_ASSIGN_OR_RETURN(bool any,
                          BindForWhere(op.for_clauses, op.where, &env));
    if (!any) return Status::OK();
    XUPD_ASSIGN_OR_RETURN(Binding target, ResolveOperand(op.target, env));
    for (const SubOp& sub : op.sub_ops) {
      if (sub.kind == SubOp::Kind::kNestedUpdate) {
        XUPD_RETURN_IF_ERROR(BindUpdate(*sub.nested, env, plan));
        continue;
      }
      PlannedOp planned;
      planned.kind = sub.kind;
      planned.target = target;
      planned.rename_to = sub.rename_to;
      if (sub.kind == SubOp::Kind::kDelete ||
          sub.kind == SubOp::Kind::kRename ||
          sub.kind == SubOp::Kind::kReplace) {
        XUPD_ASSIGN_OR_RETURN(planned.child, ResolveOperand(sub.child, env));
      }
      if (sub.kind == SubOp::Kind::kInsert ||
          sub.kind == SubOp::Kind::kReplace) {
        if (sub.position != SubOp::Position::kAppend) {
          return Status::Unimplemented(
              "positional INSERT in the relational store (document order is "
              "not maintained, §5.1)");
        }
        planned.content_kind = sub.content.kind;
        planned.content_text = sub.content.text;
        planned.content_name = sub.content.name;
        if (sub.content.kind == ContentExpr::Kind::kXmlFragment) {
          xml::ParseOptions options;
          auto frag = xml::ParseFragment(sub.content.text, options);
          if (!frag.ok()) return frag.status();
          planned.content_element = std::move(frag).value();
        } else if (sub.content.kind == ContentExpr::Kind::kPath) {
          XUPD_ASSIGN_OR_RETURN(planned.content_source,
                                ResolveOperand(sub.content.path, env));
        }
      }
      plan->push_back(std::move(planned));
    }
    return Status::OK();
  }

  // --- executing planned ops -------------------------------------------------

  Status ExecuteOp(const PlannedOp& op) {
    switch (op.kind) {
      case SubOp::Kind::kDelete:
        return ExecuteDelete(op);
      case SubOp::Kind::kInsert:
        return ExecuteInsert(op);
      case SubOp::Kind::kReplace:
        // Inlined replace = overwrite; table-mapped replace = delete + insert.
        if (op.child.inlined) return ExecuteInsertInlined(op, op.child);
        XUPD_RETURN_IF_ERROR(ExecuteDelete(op));
        return ExecuteInsert(op);
      case SubOp::Kind::kRename:
        return ExecuteRename(op);
      case SubOp::Kind::kNestedUpdate:
        return Status::Internal("nested update not flattened");
    }
    return Status::Internal("unknown op kind");
  }

  Status ExecuteDelete(const PlannedOp& op) {
    const Binding& child = op.child;
    if (child.table == nullptr) {
      return Status::InvalidArgument("DELETE operand not bound");
    }
    if (child.inlined) {
      // Simple deletion (§6.1): set the inlined columns NULL.
      std::string sets;
      for (const InlinedField& f : child.table->fields) {
        bool under = f.path.size() >= child.inlined_path.size() &&
                     std::equal(child.inlined_path.begin(),
                                child.inlined_path.end(), f.path.begin());
        if (!child.inlined_attr.empty()) {
          under = under && f.kind == InlinedField::Kind::kAttribute &&
                  f.attr == child.inlined_attr &&
                  f.path == child.inlined_path;
        }
        if (under) {
          if (!sets.empty()) sets += ", ";
          sets += f.column + " = NULL";
        }
      }
      if (sets.empty()) {
        return Status::NotFound("no mapped columns for inlined delete");
      }
      if (child.ids.empty()) return Status::OK();
      XUPD_ASSIGN_OR_RETURN(std::string where,
                            store_->IdListPredicate(child.ids));
      return store_->db()
          ->ExecuteQueryBound("UPDATE " + child.table->table + " SET " +
                                  sets + " WHERE " + where,
                              {})
          .status();
    }
    if (child.ids.empty()) return Status::OK();
    XUPD_ASSIGN_OR_RETURN(std::string where,
                          store_->IdListPredicate(child.ids));
    return store_->DeleteWhere(child.table->element, where);
  }

  Status ExecuteInsertInlined(const PlannedOp& op, const Binding& where) {
    // Overwrite semantics for inserting over a single-occurrence inlined
    // element (documented deviation; the paper would warn, §6.2).
    const TableMapping* tm = where.table;
    std::vector<std::string> path = where.inlined_path;
    std::string attr = where.inlined_attr;
    std::string value;
    if (op.content_kind == ContentExpr::Kind::kString) {
      value = op.content_text;
    } else if (op.content_kind == ContentExpr::Kind::kXmlFragment &&
               op.content_element != nullptr) {
      value = op.content_element->TextContent();
      if (path.empty() || path.back() != op.content_element->name()) {
        // REPLACE <name>x</name> WITH <appellation>y</> style renames are
        // not expressible when the mapping fixes columns.
        if (op.kind == SubOp::Kind::kReplace &&
            mapping_->ResolveInlined(tm, {op.content_element->name()}, "") ==
                nullptr &&
            !path.empty()) {
          return Status::Unimplemented(
              "replacing an inlined element with a differently-named element");
        }
      }
    } else if (op.content_kind == ContentExpr::Kind::kNewAttribute) {
      attr = op.content_name;
      value = op.content_text;
    } else {
      return Status::Unimplemented("content kind for inlined insert");
    }
    const InlinedField* f = mapping_->ResolveInlined(tm, path, attr);
    if (f == nullptr) {
      return Status::NotFound("no mapped column for inlined insert");
    }
    if (where.ids.empty()) return Status::OK();
    // Bind the content as a parameter: the statement text stays constant
    // across values (no quoting/escaping), so repeated ops over the same
    // column reuse one parsed plan.
    std::string sets = f->column + " = ?";
    // Maintain the presence flag of enclosing inlined non-leaf elements.
    for (const InlinedField& pf : tm->fields) {
      if (pf.kind == InlinedField::Kind::kPresence &&
          pf.path.size() <= path.size() &&
          std::equal(pf.path.begin(), pf.path.end(), path.begin())) {
        sets += ", " + pf.column + " = '1'";
      }
    }
    // The ids ride in the staged id-list table, so the statement text is
    // constant per (table, column set) shape: bind the content value and let
    // repeated ops share one cached plan.
    XUPD_ASSIGN_OR_RETURN(std::string id_pred,
                          store_->IdListPredicate(where.ids));
    return store_->db()
        ->ExecuteQueryBound(
            "UPDATE " + tm->table + " SET " + sets + " WHERE " + id_pred,
            {rdb::Value::Str(value)})
        .status();
  }

  Status ExecuteInsert(const PlannedOp& op) {
    const Binding& target = op.target;
    if (target.table == nullptr || target.inlined) {
      return Status::InvalidArgument("INSERT target must be table-mapped");
    }
    switch (op.content_kind) {
      case ContentExpr::Kind::kXmlFragment: {
        const xml::Element* frag = op.content_element.get();
        // Child table content?
        if (mapping_->ForElement(frag->name()) != nullptr) {
          for (int64_t id : target.ids) {
            XUPD_RETURN_IF_ERROR(store_->InsertConstructed(*frag, id));
          }
          return Status::OK();
        }
        // Inlined single-occurrence content: overwrite the column(s).
        Binding where = target;
        where.inlined = true;
        where.inlined_path = {frag->name()};
        PlannedOp inlined = ClonePlannedShallow(op);
        return ExecuteInsertInlined(inlined, where);
      }
      case ContentExpr::Kind::kNewAttribute: {
        Binding where = target;
        where.inlined = true;
        where.inlined_attr = op.content_name;
        PlannedOp inlined = ClonePlannedShallow(op);
        return ExecuteInsertInlined(inlined, where);
      }
      case ContentExpr::Kind::kPath: {
        const Binding& src = op.content_source;
        if (src.table == nullptr || src.inlined) {
          return Status::Unimplemented("copying a non-table-mapped source");
        }
        if (src.ids.empty()) return Status::OK();
        // Stage the bound source ids in xupd_idlist and copy them in one
        // strategy pass per destination: the outer-union SELECT (and the
        // table/ASR strategies' marking statements) then carry the constant
        // "id IN (SELECT id FROM xupd_idlist)" root predicate instead of a
        // per-source literal id, so every copy reuses cached plans. The
        // copies themselves get fresh ids, so the staged set stays valid
        // across destinations.
        XUPD_ASSIGN_OR_RETURN(std::string pred,
                              store_->IdListPredicate(src.ids));
        for (int64_t dst : target.ids) {
          XUPD_RETURN_IF_ERROR(
              store_->CopySubtreesWhere(src.table->element, pred, dst));
        }
        return Status::OK();
      }
      case ContentExpr::Kind::kString: {
        Binding where = target;
        where.inlined = true;  // the element's own pcdata column.
        PlannedOp inlined = ClonePlannedShallow(op);
        return ExecuteInsertInlined(inlined, where);
      }
      default:
        return Status::Unimplemented("content kind in relational INSERT");
    }
  }

  Status ExecuteRename(const PlannedOp& op) {
    const Binding& child = op.child;
    if (!child.inlined || child.inlined_attr.empty()) {
      return Status::Unimplemented(
          "RENAME is supported for inlined attributes only (table names are "
          "fixed by the mapping; §6.3 notes only the top level moves)");
    }
    const InlinedField* from = mapping_->ResolveInlined(
        child.table, child.inlined_path, child.inlined_attr);
    const InlinedField* to = mapping_->ResolveInlined(
        child.table, child.inlined_path, op.rename_to);
    if (from == nullptr || to == nullptr) {
      return Status::NotFound(
          "both source and destination attribute columns must be mapped");
    }
    if (child.ids.empty()) return Status::OK();
    // §6.3: movement but no creation of data; one UPDATE on the top level.
    XUPD_ASSIGN_OR_RETURN(std::string where,
                          store_->IdListPredicate(child.ids));
    return store_->db()
        ->ExecuteQueryBound("UPDATE " + child.table->table + " SET " +
                                to->column + " = " + from->column + ", " +
                                from->column + " = NULL WHERE " + where,
                            {})
        .status();
  }

  static PlannedOp ClonePlannedShallow(const PlannedOp& op) {
    PlannedOp out;
    out.kind = op.kind;
    out.content_kind = op.content_kind;
    out.content_text = op.content_text;
    out.content_name = op.content_name;
    if (op.content_element != nullptr) {
      out.content_element = op.content_element->Clone();
    }
    out.rename_to = op.rename_to;
    return out;
  }

  RelationalStore* store_;
  const shred::Mapping* mapping_;
  /// Read's memo, for the statement being bound.
  std::map<std::pair<const TableMapping*, std::string>, std::vector<int64_t>>
      reads_;
};

}  // namespace

Status RelationalStore::ExecuteXQueryUpdate(std::string_view query) {
  OpScope op(this);
  EngineSpan span(&db_, "xquery_update", &xquery_update_hist_);
  auto stmt = xquery::ParseStatement(query);
  if (!stmt.ok()) return stmt.status();
  // Whole-statement atomicity (§6): bind + every sub-operation commit or
  // roll back together; the sub-operations' own entry-point transactions
  // nest as savepoints inside this scope.
  return op.Done(RunInTxn([&]() -> Status {
    Translator translator(this);
    return translator.Execute(stmt.value());
  }));
}

}  // namespace xupd::engine
