#include "rdb/planner.h"

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"
#include "rdb/database.h"

namespace xupd::rdb {

using sql::Expr;

namespace {

void FlattenConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == Expr::Kind::kBinary && e.op == Expr::Op::kAnd) {
    FlattenConjuncts(e.children[0], out);
    FlattenConjuncts(e.children[1], out);
    return;
  }
  out->push_back(&e);
}

/// The one-relation FROM list a DELETE/UPDATE binds its expressions against
/// (aliased by the table's own name, like the seed interpreter).
std::vector<PlannedRelation> SingleTableRelations(const Table* table) {
  std::vector<PlannedRelation> rels(1);
  rels[0].alias = table->schema().name();
  rels[0].name = table->schema().name();
  rels[0].table = table;
  rels[0].columns.reserve(table->schema().column_count());
  for (const ColumnDef& c : table->schema().columns()) {
    rels[0].columns.push_back(c.name);
  }
  return rels;
}

}  // namespace

// ---------------------------------------------------------------------------
// Name resolution and expression binding

Result<std::pair<size_t, size_t>> Planner::ResolveColumn(
    const std::vector<PlannedRelation>& rels, const std::string& table,
    const std::string& column) const {
  if (!table.empty()) {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (EqualsIgnoreCase(rels[i].alias, table)) {
        for (size_t c = 0; c < rels[i].columns.size(); ++c) {
          if (EqualsIgnoreCase(rels[i].columns[c], column)) {
            return std::make_pair(i, c);
          }
        }
        return Status::NotFound("column '" + table + "." + column +
                                "' not found");
      }
    }
    return Status::NotFound("unknown table alias '" + table + "'");
  }
  int found_rel = -1;
  int found_col = -1;
  for (size_t i = 0; i < rels.size(); ++i) {
    for (size_t c = 0; c < rels[i].columns.size(); ++c) {
      if (EqualsIgnoreCase(rels[i].columns[c], column)) {
        if (found_rel >= 0) {
          return Status::InvalidArgument("ambiguous column '" + column + "'");
        }
        found_rel = static_cast<int>(i);
        found_col = static_cast<int>(c);
        break;
      }
    }
  }
  if (found_rel < 0) {
    return Status::NotFound("column '" + column + "' not found");
  }
  return std::make_pair(static_cast<size_t>(found_rel),
                        static_cast<size_t>(found_col));
}

Result<BoundExpr> Planner::Bind(const Expr& e,
                                const std::vector<PlannedRelation>& rels,
                                bool values_context) {
  BoundExpr b;
  b.kind = e.kind;
  b.op = e.op;
  b.negated = e.negated;
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      b.literal = e.literal;
      return b;
    case Expr::Kind::kParam:
      b.param_index = e.param_index;
      return b;
    case Expr::Kind::kColumn: {
      if (values_context) {
        return Status::InvalidArgument("column reference outside a query");
      }
      XUPD_ASSIGN_OR_RETURN(auto rc, ResolveColumn(rels, e.table, e.column));
      b.rel = rc.first;
      b.col = rc.second;
      b.name = e.table.empty() ? e.column : e.table + "." + e.column;
      b.max_rel = static_cast<int>(rc.first);
      return b;
    }
    case Expr::Kind::kOldColumn: {
      if (old_schema_ == nullptr) {
        return Status::InvalidArgument("OLD.* outside a row trigger");
      }
      int col = old_schema_->ColumnIndex(e.column);
      if (col < 0) {
        return Status::NotFound("OLD." + e.column + " not found");
      }
      b.col = static_cast<size_t>(col);
      b.name = e.column;
      return b;
    }
    case Expr::Kind::kUnary:
    case Expr::Kind::kBinary:
    case Expr::Kind::kIsNull: {
      for (const Expr& c : e.children) {
        XUPD_ASSIGN_OR_RETURN(BoundExpr bc, Bind(c, rels, values_context));
        b.max_rel = std::max(b.max_rel, bc.max_rel);
        b.children.push_back(std::move(bc));
      }
      return b;
    }
    case Expr::Kind::kInList: {
      XUPD_ASSIGN_OR_RETURN(BoundExpr operand,
                            Bind(e.children[0], rels, values_context));
      b.max_rel = operand.max_rel;
      b.children.push_back(std::move(operand));
      for (const Expr& item : e.in_list) {
        XUPD_ASSIGN_OR_RETURN(BoundExpr bi, Bind(item, rels, values_context));
        b.max_rel = std::max(b.max_rel, bi.max_rel);
        b.in_list.push_back(std::move(bi));
      }
      return b;
    }
    case Expr::Kind::kInSubquery: {
      XUPD_ASSIGN_OR_RETURN(BoundExpr operand,
                            Bind(e.children[0], rels, values_context));
      b.max_rel = operand.max_rel;
      b.children.push_back(std::move(operand));
      XUPD_ASSIGN_OR_RETURN(b.subquery, PlanSelect(*e.subquery));
      return b;
    }
    case Expr::Kind::kAggregate:
      return Status::InvalidArgument("aggregate outside select list");
  }
  return Status::Internal("unknown expression kind");
}

// ---------------------------------------------------------------------------
// Access-path selection

namespace {

/// The index path conjunct `c` offers relation `k` of `table`: an equality
/// whose probe value sees only strictly-earlier relations (or none), or a
/// non-negated IN list of row-free values or IN subquery, on an indexed
/// column of relation `k`. Returns false when it offers none.
bool IndexPathFor(const BoundExpr& c, const Table& table, size_t k,
                  AccessPath* path) {
  if (c.kind == Expr::Kind::kBinary && c.op == Expr::Op::kEq) {
    for (int side = 0; side < 2; ++side) {
      const BoundExpr& lhs = c.children[static_cast<size_t>(side)];
      const BoundExpr& rhs = c.children[static_cast<size_t>(1 - side)];
      if (lhs.kind != Expr::Kind::kColumn || lhs.rel != k) continue;
      if (rhs.max_rel >= static_cast<int>(k)) continue;
      const HashIndex* idx = table.FindIndexOnColumn(static_cast<int>(lhs.col));
      if (idx == nullptr) continue;
      path->kind = AccessPath::Kind::kIndexEq;
      path->index = idx;
      path->index_name = idx->name();
      path->column_name = lhs.name;
      path->probe = rhs;
      return true;
    }
    return false;
  }
  const bool in_form = (c.kind == Expr::Kind::kInList ||
                        c.kind == Expr::Kind::kInSubquery) &&
                       !c.negated &&
                       c.children[0].kind == Expr::Kind::kColumn &&
                       c.children[0].rel == k;
  if (!in_form) return false;
  for (const BoundExpr& item : c.in_list) {
    if (item.max_rel >= 0) return false;
  }
  const HashIndex* idx =
      table.FindIndexOnColumn(static_cast<int>(c.children[0].col));
  if (idx == nullptr) return false;
  path->index = idx;
  path->index_name = idx->name();
  path->column_name = c.children[0].name;
  if (c.kind == Expr::Kind::kInList) {
    path->kind = AccessPath::Kind::kIndexIn;
    path->probe_list = c.in_list;
  } else {
    path->kind = AccessPath::Kind::kIndexInSubquery;
    path->probe_subquery = c.subquery;
  }
  return true;
}

/// The column of the first conjunct other than `consumed` that is
/// `rel_k.col = <row-free value>` on a column no index serves, or -1.
int UnindexedEqColumn(const Table& table, size_t k,
                      const std::vector<BoundExpr*>& conjuncts, int consumed) {
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const BoundExpr& c = *conjuncts[ci];
    if (static_cast<int>(ci) == consumed || c.kind != Expr::Kind::kBinary ||
        c.op != Expr::Op::kEq) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const BoundExpr& lhs = c.children[static_cast<size_t>(side)];
      const BoundExpr& rhs = c.children[static_cast<size_t>(1 - side)];
      if (lhs.kind != Expr::Kind::kColumn || lhs.rel != k || rhs.max_rel >= 0) {
        continue;
      }
      const int col = static_cast<int>(lhs.col);
      if (table.FindIndexOnColumn(col) == nullptr) return col;
    }
  }
  return -1;
}

}  // namespace

int Planner::ChooseAccessPath(const std::vector<PlannedRelation>& rels,
                              size_t k,
                              const std::vector<BoundExpr*>& conjuncts,
                              AccessPath* path) const {
  path->kind = AccessPath::Kind::kScan;
  const Table* table = rels[k].table;  // null for a CTE: it has no indexes
  const bool probes = table != nullptr &&
                      db_->planner_index_probes_enabled() &&
                      allow_index_probes_;
  int consumed = probes ? ChooseIndexPath(*table, k, conjuncts, path) : -1;
  if (consumed < 0 && k > 0) consumed = ChooseHashPath(k, conjuncts, path);
  // Index demand: a writer step over a durable table that scans, builds a
  // hash table or probes an IN form would take an equality path instead if
  // its row-free equality's column had an index (see ChooseIndexPath).
  if (probes && table->durable() &&
      path->kind != AccessPath::Kind::kIndexEq) {
    path->demand_column = UnindexedEqColumn(*table, k, conjuncts, consumed);
  }
  return consumed;
}

int Planner::ChooseHashPath(size_t k, const std::vector<BoundExpr*>& conjuncts,
                            AccessPath* path) const {
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const BoundExpr& c = *conjuncts[ci];
    if (c.kind != Expr::Kind::kBinary || c.op != Expr::Op::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const BoundExpr& lhs = c.children[static_cast<size_t>(side)];
      const BoundExpr& rhs = c.children[static_cast<size_t>(1 - side)];
      if (lhs.kind != Expr::Kind::kColumn || lhs.rel != k) continue;
      // A row-free value would key every outer row alike: a filtered scan.
      if (rhs.max_rel < 0 || rhs.max_rel >= static_cast<int>(k)) continue;
      path->kind = AccessPath::Kind::kHashEq;
      path->column = lhs.col;
      path->column_name = lhs.name;
      path->probe = rhs;
      return static_cast<int>(ci);
    }
  }
  return -1;
}

int Planner::ChooseIndexPath(const Table& table, size_t k,
                             const std::vector<BoundExpr*>& conjuncts,
                             AccessPath* path) const {
  // The first applicable conjunct wins, with one exception: an equality on
  // a row-free value (a literal or ?) beats an earlier IN-list or
  // IN-subquery path, whose candidate set is usually far larger.
  int chosen = -1;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    AccessPath candidate;
    if (!IndexPathFor(*conjuncts[ci], table, k, &candidate)) continue;
    const bool eq = candidate.kind == AccessPath::Kind::kIndexEq;
    if (chosen >= 0 && !(eq && candidate.probe.max_rel < 0)) continue;
    *path = std::move(candidate);
    if (eq) return static_cast<int>(ci);
    chosen = static_cast<int>(ci);
  }
  return chosen;
}

// ---------------------------------------------------------------------------
// SELECT planning

Result<PlannedCore> Planner::PlanCore(const sql::SelectCore& core) {
  PlannedCore out;
  for (const sql::TableRef& ref : core.from) {
    PlannedRelation rel;
    rel.alias = ref.alias;
    rel.name = ref.table;
    bool is_cte = false;
    for (auto it = cte_stack_.rbegin(); it != cte_stack_.rend(); ++it) {
      if (EqualsIgnoreCase(it->name, ref.table)) {
        rel.cte_slot = it->slot;
        rel.columns = it->columns;
        is_cte = true;
        break;
      }
    }
    if (!is_cte) {
      const Table* table = db_->FindTable(ref.table);
      if (table == nullptr) {
        return Status::NotFound("table '" + ref.table + "' not found");
      }
      rel.table = table;
      rel.columns.reserve(table->schema().column_count());
      for (const ColumnDef& c : table->schema().columns()) {
        rel.columns.push_back(c.name);
      }
    }
    out.relations.push_back(std::move(rel));
  }

  for (const sql::SelectItem& item : core.items) {
    if (!item.star && item.expr.kind == Expr::Kind::kAggregate) {
      out.has_aggregate = true;
    }
  }

  // Output schema + bound output expressions ('*' expanded here, once).
  size_t anon = 0;
  for (const sql::SelectItem& item : core.items) {
    if (item.star) {
      if (out.has_aggregate) {
        return Status::InvalidArgument("'*' mixed with aggregates");
      }
      for (size_t r = 0; r < out.relations.size(); ++r) {
        for (size_t c = 0; c < out.relations[r].columns.size(); ++c) {
          BoundExpr e;
          e.kind = Expr::Kind::kColumn;
          e.rel = r;
          e.col = c;
          e.name = out.relations[r].columns[c];
          e.max_rel = static_cast<int>(r);
          out.outputs.push_back(std::move(e));
          out.out_columns.push_back(out.relations[r].columns[c]);
        }
      }
      continue;
    }
    if (item.expr.kind == Expr::Kind::kAggregate) {
      const Expr& e = item.expr;
      BoundExpr agg;
      agg.kind = Expr::Kind::kAggregate;
      agg.agg = e.agg;
      agg.count_star = e.count_star;
      if (!e.count_star) {
        XUPD_ASSIGN_OR_RETURN(
            auto rc, ResolveColumn(out.relations, e.table, e.column));
        agg.rel = rc.first;
        agg.col = rc.second;
        agg.name = e.table.empty() ? e.column : e.table + "." + e.column;
        agg.max_rel = static_cast<int>(rc.first);
      }
      out.outputs.push_back(std::move(agg));
    } else {
      if (out.has_aggregate) {
        return Status::InvalidArgument(
            "non-aggregate select item without GROUP BY");
      }
      XUPD_ASSIGN_OR_RETURN(BoundExpr bound, Bind(item.expr, out.relations));
      out.outputs.push_back(std::move(bound));
    }
    if (!item.alias.empty()) {
      out.out_columns.push_back(item.alias);
    } else if (item.expr.kind == Expr::Kind::kColumn) {
      out.out_columns.push_back(item.expr.column);
    } else {
      out.out_columns.push_back("expr" + std::to_string(++anon));
    }
  }

  // WHERE conjuncts, pushed down to the earliest step that binds them.
  out.filters.resize(out.relations.size());
  std::vector<const Expr*> conjuncts;
  if (core.where.has_value()) FlattenConjuncts(*core.where, &conjuncts);
  for (const Expr* c : conjuncts) {
    XUPD_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*c, out.relations));
    if (out.relations.empty()) {
      out.const_filters.push_back(std::move(bound));
    } else {
      size_t at = bound.max_rel < 0 ? 0 : static_cast<size_t>(bound.max_rel);
      out.filters[at].push_back(std::move(bound));
    }
  }

  // Access paths. The consumed conjunct stays in the filter list: the hash
  // index matches by value identity while SQL comparison coerces across
  // types, so the residual check keeps scan/probe results identical.
  out.paths.resize(out.relations.size());
  for (size_t k = 0; k < out.relations.size(); ++k) {
    std::vector<BoundExpr*> step;
    step.reserve(out.filters[k].size());
    for (BoundExpr& f : out.filters[k]) step.push_back(&f);
    ChooseAccessPath(out.relations, k, step, &out.paths[k]);
  }
  return out;
}

Result<std::shared_ptr<const PlannedSelect>> Planner::PlanSelect(
    const sql::SelectStmt& stmt) {
  auto out = std::make_shared<PlannedSelect>();
  size_t scope_base = cte_stack_.size();
  auto restore_scope = [&] { cte_stack_.resize(scope_base); };

  for (const auto& cte : stmt.ctes) {
    auto inner = PlanSelect(*cte.query);
    if (!inner.ok()) {
      restore_scope();
      return inner.status();
    }
    PlannedSelect::Cte planned;
    planned.name = cte.name;
    planned.slot = next_cte_slot_++;
    planned.query = std::move(inner).value();
    if (!cte.columns.empty()) {
      if (cte.columns.size() != planned.query->out_columns.size()) {
        restore_scope();
        return Status::InvalidArgument("CTE '" + cte.name +
                                       "' column count mismatch");
      }
      planned.columns = cte.columns;
    } else {
      planned.columns = planned.query->out_columns;
    }
    cte_stack_.push_back({planned.name, planned.slot, planned.columns});
    out->ctes.push_back(std::move(planned));
  }

  for (const sql::SelectCore& core : stmt.cores) {
    auto planned = PlanCore(core);
    if (!planned.ok()) {
      restore_scope();
      return planned.status();
    }
    if (!out->cores.empty() &&
        planned->out_columns.size() != out->cores[0].out_columns.size()) {
      restore_scope();
      return Status::InvalidArgument("UNION ALL arity mismatch");
    }
    out->cores.push_back(std::move(planned).value());
  }
  out->out_columns = out->cores[0].out_columns;

  for (const sql::OrderItem& item : stmt.order_by) {
    int col = -1;
    for (size_t i = 0; i < out->out_columns.size(); ++i) {
      if (EqualsIgnoreCase(out->out_columns[i], item.column)) {
        col = static_cast<int>(i);
        break;
      }
    }
    if (col < 0) {
      restore_scope();
      return Status::NotFound("ORDER BY column '" + item.column +
                              "' not in result");
    }
    out->order_by.emplace_back(col, item.desc);
  }

  restore_scope();
  return std::shared_ptr<const PlannedSelect>(std::move(out));
}

// ---------------------------------------------------------------------------
// DML planning

Result<PlannedMutation> Planner::PlanMutation(
    const std::string& table, const std::optional<Expr>& where,
    const std::vector<std::pair<std::string, Expr>>& sets) {
  PlannedMutation m;
  m.table = db_->FindTable(table);
  if (m.table == nullptr) {
    return Status::NotFound("table '" + table + "' not found");
  }
  std::vector<PlannedRelation> rels = SingleTableRelations(m.table);

  std::vector<const Expr*> conjuncts;
  if (where.has_value()) FlattenConjuncts(*where, &conjuncts);
  std::vector<BoundExpr> bound;
  bound.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    XUPD_ASSIGN_OR_RETURN(BoundExpr b, Bind(*c, rels));
    bound.push_back(std::move(b));
  }
  std::vector<BoundExpr*> ptrs;
  ptrs.reserve(bound.size());
  for (BoundExpr& b : bound) ptrs.push_back(&b);
  int consumed = ChooseAccessPath(rels, 0, ptrs, &m.path);
  for (size_t i = 0; i < bound.size(); ++i) {
    if (static_cast<int>(i) == consumed) continue;
    m.filters.push_back(std::move(bound[i]));
  }

  for (const auto& [name, expr] : sets) {
    int col = m.table->schema().ColumnIndex(name);
    if (col < 0) {
      return Status::NotFound("column '" + name + "' not found");
    }
    PlannedMutation::Set set;
    set.col = col;
    set.type = m.table->schema().columns()[static_cast<size_t>(col)].type;
    XUPD_ASSIGN_OR_RETURN(set.expr, Bind(expr, rels));
    m.sets.push_back(std::move(set));
  }
  m.relation = std::move(rels[0]);
  return m;
}

Result<PlannedInsert> Planner::PlanInsert(const sql::InsertStmt& stmt) {
  PlannedInsert ins;
  ins.table = db_->FindTable(stmt.table);
  if (ins.table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  ins.table_name = ins.table->schema().name();
  const TableSchema& schema = ins.table->schema();
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.column_count(); ++i) {
      ins.column_map.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt.columns) {
      int col = schema.ColumnIndex(name);
      if (col < 0) {
        return Status::NotFound("column '" + name + "' not found in '" +
                                stmt.table + "'");
      }
      ins.column_map.push_back(col);
    }
  }
  ins.column_types.reserve(ins.column_map.size());
  for (int col : ins.column_map) {
    ins.column_types.push_back(schema.columns()[static_cast<size_t>(col)].type);
  }

  if (stmt.select != nullptr) {
    XUPD_ASSIGN_OR_RETURN(ins.select, PlanSelect(*stmt.select));
    return ins;
  }
  std::vector<PlannedRelation> no_rels;
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != ins.column_map.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    std::vector<BoundExpr> row;
    row.reserve(exprs.size());
    for (const Expr& e : exprs) {
      XUPD_ASSIGN_OR_RETURN(BoundExpr b,
                            Bind(e, no_rels, /*values_context=*/true));
      row.push_back(std::move(b));
    }
    ins.rows.push_back(std::move(row));
  }
  return ins;
}

Result<std::shared_ptr<const PlannedStatement>> Planner::Plan(
    const sql::Statement& stmt) {
  auto plan = std::make_shared<PlannedStatement>();
  plan->kind = stmt.kind;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      XUPD_ASSIGN_OR_RETURN(plan->select, PlanSelect(stmt.select));
      break;
    }
    case sql::Statement::Kind::kDelete: {
      XUPD_ASSIGN_OR_RETURN(plan->mutation,
                            PlanMutation(stmt.del.table, stmt.del.where, {}));
      break;
    }
    case sql::Statement::Kind::kUpdate: {
      XUPD_ASSIGN_OR_RETURN(plan->mutation,
                            PlanMutation(stmt.update.table, stmt.update.where,
                                         stmt.update.sets));
      break;
    }
    case sql::Statement::Kind::kInsert: {
      XUPD_ASSIGN_OR_RETURN(plan->insert, PlanInsert(stmt.insert));
      break;
    }
    default:
      return Status::InvalidArgument("statement kind is not plannable");
  }
  plan->cte_slot_count = next_cte_slot_;
  return std::shared_ptr<const PlannedStatement>(std::move(plan));
}

Result<std::shared_ptr<const PlannedStatement>> Planner::PlanCached(
    const sql::Statement& stmt, PlanCacheSlot* slot, Stats* stats) {
  const uint64_t version = db_->catalog_version();
  if (slot != nullptr && slot->Valid(db_, version)) {
    ++stats->plan_cache_hits;
    return slot->plan;
  }
  XUPD_ASSIGN_OR_RETURN(auto plan, Plan(stmt));
  ++stats->plans_built;
  if (slot != nullptr) *slot = PlanCacheSlot{plan, version, db_};
  return plan;
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering

namespace {

std::string AggName(Expr::Agg agg) {
  switch (agg) {
    case Expr::Agg::kMin:
      return "MIN";
    case Expr::Agg::kMax:
      return "MAX";
    case Expr::Agg::kCount:
      return "COUNT";
    case Expr::Agg::kSum:
      return "SUM";
  }
  return "?";
}

std::string OpName(Expr::Op op) {
  switch (op) {
    case Expr::Op::kEq:
      return "=";
    case Expr::Op::kNe:
      return "<>";
    case Expr::Op::kLt:
      return "<";
    case Expr::Op::kLe:
      return "<=";
    case Expr::Op::kGt:
      return ">";
    case Expr::Op::kGe:
      return ">=";
    case Expr::Op::kAnd:
      return "AND";
    case Expr::Op::kOr:
      return "OR";
    case Expr::Op::kAdd:
      return "+";
    case Expr::Op::kSub:
      return "-";
    case Expr::Op::kMul:
      return "*";
    case Expr::Op::kDiv:
      return "/";
    default:
      return "?";
  }
}

std::string ExprStr(const BoundExpr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.ToSqlLiteral();
    case Expr::Kind::kParam:
      return "?" + std::to_string(e.param_index + 1);
    case Expr::Kind::kColumn:
      return e.name;
    case Expr::Kind::kOldColumn:
      return "OLD." + e.name;
    case Expr::Kind::kUnary:
      return (e.op == Expr::Op::kNot ? "NOT " : "-") + ExprStr(e.children[0]);
    case Expr::Kind::kBinary:
      return "(" + ExprStr(e.children[0]) + " " + OpName(e.op) + " " +
             ExprStr(e.children[1]) + ")";
    case Expr::Kind::kIsNull:
      return "(" + ExprStr(e.children[0]) +
             (e.negated ? " IS NOT NULL)" : " IS NULL)");
    case Expr::Kind::kInList: {
      std::string out = "(" + ExprStr(e.children[0]) +
                        (e.negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < e.in_list.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprStr(e.in_list[i]);
      }
      return out + "))";
    }
    case Expr::Kind::kInSubquery:
      return "(" + ExprStr(e.children[0]) +
             (e.negated ? " NOT IN (subquery))" : " IN (subquery))");
    case Expr::Kind::kAggregate:
      return AggName(e.agg) + "(" + (e.count_star ? "*" : e.name) + ")";
  }
  return "?";
}

std::string FilterSuffix(const std::vector<BoundExpr>& filters) {
  if (filters.empty()) return "";
  std::string out = " (filter: ";
  for (size_t i = 0; i < filters.size(); ++i) {
    if (i > 0) out += " AND ";
    out += ExprStr(filters[i]);
  }
  return out + ")";
}

void Line(std::string* out, int depth, const std::string& text) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(text);
  out->push_back('\n');
}

std::string RelationLabel(const PlannedRelation& rel) {
  std::string label = rel.name;
  if (!EqualsIgnoreCase(rel.alias, rel.name)) label += " " + rel.alias;
  if (rel.cte_slot >= 0) label += " (cte)";
  return label;
}

/// EXPLAIN ANALYZE annotation for one operator line; empty when `os` is
/// null (plain EXPLAIN). `loops` adds the Open() count — meaningful on a
/// join inner side, noise on a statement head.
std::string ActualSuffix(const OpStats* os, bool loops) {
  if (os == nullptr) return "";
  char buf[96];
  if (loops) {
    std::snprintf(buf, sizeof buf,
                  " (actual rows=%llu loops=%llu time_us=%.3f)",
                  static_cast<unsigned long long>(os->rows),
                  static_cast<unsigned long long>(os->opens),
                  static_cast<double>(os->time_ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, " (actual rows=%llu time_us=%.3f)",
                  static_cast<unsigned long long>(os->rows),
                  static_cast<double>(os->time_ns) / 1e3);
  }
  return buf;
}

void AccessNode(std::string* out, int depth, const PlannedRelation& rel,
                const AccessPath& path, const std::vector<BoundExpr>& filters,
                const OpStats* os = nullptr) {
  std::string text;
  switch (path.kind) {
    case AccessPath::Kind::kScan:
      text = "Scan " + RelationLabel(rel);
      break;
    case AccessPath::Kind::kIndexEq:
      text = "IndexProbe " + RelationLabel(rel) + " via " + path.index_name +
             " (" + path.column_name + " = " + ExprStr(path.probe) + ")";
      break;
    case AccessPath::Kind::kIndexIn:
      text = "IndexProbe " + RelationLabel(rel) + " via " + path.index_name +
             " (" + path.column_name + " IN [" +
             std::to_string(path.probe_list.size()) + " values])";
      break;
    case AccessPath::Kind::kIndexInSubquery:
      text = "IndexProbe " + RelationLabel(rel) + " via " + path.index_name +
             " (" + path.column_name + " IN (subquery))";
      break;
    case AccessPath::Kind::kHashEq:
      text = "HashProbe " + RelationLabel(rel) + " (" + path.column_name +
             " = " + ExprStr(path.probe) + ")";
      break;
  }
  Line(out, depth, text + FilterSuffix(filters) +
                       ActualSuffix(os, /*loops=*/true));
}

void JoinTree(std::string* out, int depth, const PlannedCore& core, size_t k,
              const AnalyzeStats::Core* cs) {
  const OpStats* rel_stats = [&](size_t i) -> const OpStats* {
    return cs != nullptr && i < cs->rels.size() ? &cs->rels[i] : nullptr;
  }(k);
  if (k == 0) {
    AccessNode(out, depth, core.relations[0], core.paths[0], core.filters[0],
               rel_stats);
    return;
  }
  Line(out, depth, "NestedLoopJoin");
  JoinTree(out, depth + 1, core, k - 1, cs);
  AccessNode(out, depth + 1, core.relations[k], core.paths[k],
             core.filters[k], rel_stats);
}

void CoreToString(std::string* out, int depth, const PlannedCore& core,
                  const AnalyzeStats::Core* cs) {
  std::string head = core.has_aggregate ? "Aggregate [" : "Project [";
  for (size_t i = 0; i < core.outputs.size(); ++i) {
    if (i > 0) head += ", ";
    head += core.has_aggregate ? ExprStr(core.outputs[i])
                               : core.out_columns[i];
  }
  Line(out, depth,
       head + "]" + ActualSuffix(cs != nullptr ? &cs->total : nullptr,
                                 /*loops=*/false));
  if (core.relations.empty()) {
    Line(out, depth + 1, "OneRow" + FilterSuffix(core.const_filters));
    return;
  }
  JoinTree(out, depth + 1, core, core.relations.size() - 1, cs);
}

void SelectToString(std::string* out, int depth, const PlannedSelect& sel,
                    const AnalyzeStats* an = nullptr) {
  for (const auto& cte : sel.ctes) {
    Line(out, depth, "Cte " + cte.name);
    // CTE bodies (like subqueries) are not instrumented; their cost lands in
    // the consuming core's access steps.
    SelectToString(out, depth + 1, *cte.query);
  }
  if (!sel.order_by.empty()) {
    std::string keys;
    for (const auto& [col, desc] : sel.order_by) {
      if (!keys.empty()) keys += ", ";
      keys += sel.out_columns[static_cast<size_t>(col)];
      if (desc) keys += " DESC";
    }
    Line(out, depth, "Sort [" + keys + "]");
    ++depth;
  }
  if (sel.cores.size() > 1) {
    Line(out, depth, "UnionAll");
    ++depth;
  }
  for (size_t i = 0; i < sel.cores.size(); ++i) {
    CoreToString(out, depth, sel.cores[i],
                 an != nullptr && i < an->cores.size() ? &an->cores[i]
                                                       : nullptr);
  }
}

std::string PlanToStringImpl(const PlannedStatement& plan,
                             const AnalyzeStats* an) {
  std::string out;
  const OpStats* root = an != nullptr ? &an->root : nullptr;
  const OpStats* mut = an != nullptr ? &an->mutation : nullptr;
  switch (plan.kind) {
    case sql::Statement::Kind::kSelect:
      SelectToString(&out, 0, *plan.select, an);
      break;
    case sql::Statement::Kind::kDelete:
      Line(&out, 0, "Delete " + plan.mutation.relation.name +
                        ActualSuffix(root, /*loops=*/false));
      AccessNode(&out, 1, plan.mutation.relation, plan.mutation.path,
                 plan.mutation.filters, mut);
      break;
    case sql::Statement::Kind::kUpdate: {
      std::string sets;
      for (const auto& set : plan.mutation.sets) {
        if (!sets.empty()) sets += ", ";
        sets += plan.mutation.table->schema()
                    .columns()[static_cast<size_t>(set.col)]
                    .name;
      }
      Line(&out, 0, "Update " + plan.mutation.relation.name + " [set " +
                        sets + "]" + ActualSuffix(root, /*loops=*/false));
      AccessNode(&out, 1, plan.mutation.relation, plan.mutation.path,
                 plan.mutation.filters, mut);
      break;
    }
    case sql::Statement::Kind::kInsert: {
      Line(&out, 0, "Insert " + plan.insert.table_name + " [" +
                        std::to_string(plan.insert.column_map.size()) +
                        " columns]" + ActualSuffix(root, /*loops=*/false));
      if (plan.insert.select != nullptr) {
        SelectToString(&out, 1, *plan.insert.select, an);
      } else {
        Line(&out, 1,
             "Values [" + std::to_string(plan.insert.rows.size()) + " rows]");
      }
      break;
    }
    default:
      Line(&out, 0, "(not plannable)");
      break;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace

std::string PlanToString(const PlannedStatement& plan) {
  return PlanToStringImpl(plan, nullptr);
}

std::string PlanToStringAnalyzed(const PlannedStatement& plan,
                                 const AnalyzeStats& stats) {
  std::string out = PlanToStringImpl(plan, &stats);
  char buf[96];
  std::snprintf(buf, sizeof buf, "\nExecution: rows=%llu time_us=%.3f",
                static_cast<unsigned long long>(stats.root.rows),
                static_cast<double>(stats.root.time_ns) / 1e3);
  out += buf;
  return out;
}

}  // namespace xupd::rdb
