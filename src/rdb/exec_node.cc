#include "rdb/exec_node.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/str_util.h"
#include "rdb/database.h"

namespace xupd::rdb {

using sql::Expr;

// ---------------------------------------------------------------------------
// Governance poll (the TickGovernance slow path)

Status ExecContext::PollGovernance() const {
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("statement cancelled via CancelToken");
  }
  if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
    return Status::DeadlineExceeded(
        "statement deadline exceeded (see Database::set_statement_timeout_us "
        "/ SET STATEMENT_TIMEOUT)");
  }
  if (mem != nullptr) return mem->CheckHard();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value helpers

Result<Value> CoerceValue(Value v, ColumnType type) {
  if (v.is_null()) return v;
  if (type == ColumnType::kInteger) {
    if (v.type() == ValueType::kInt) return v;
    int64_t parsed;
    if (ParseInt64(v.AsString(), &parsed)) return Value::Int(parsed);
    return Status::InvalidArgument("cannot coerce '" +
                                   std::string(v.AsString()) + "' to INTEGER");
  }
  if (v.type() == ValueType::kString) return v;
  return Value::Str(v.ToString());
}

namespace {

// Truthiness of a value with NULL == not-true.
bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == ValueType::kInt) return v.AsInt() != 0;
  return !v.AsString().empty();
}

/// SQL integers are int64; a result outside that range is an error, never
/// a wrapped value.
Status IntegerOverflow() { return Status::InvalidArgument("integer overflow"); }

bool IsComparison(Expr::Op op) {
  return op == Expr::Op::kEq || op == Expr::Op::kNe || op == Expr::Op::kLt ||
         op == Expr::Op::kLe || op == Expr::Op::kGt || op == Expr::Op::kGe;
}

/// Whether comparison `op` holds for a three-way Compare result `cmp`.
bool ComparisonHolds(Expr::Op op, int cmp) {
  switch (op) {
    case Expr::Op::kEq:
      return cmp == 0;
    case Expr::Op::kNe:
      return cmp != 0;
    case Expr::Op::kLt:
      return cmp < 0;
    case Expr::Op::kLe:
      return cmp <= 0;
    case Expr::Op::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Bound-expression evaluation

Result<const SubqueryValues*> SubquerySet(
    const PlannedSelect& sub, ExecContext& ctx) {
  auto it = ctx.subquery_memo->find(&sub);
  if (it != ctx.subquery_memo->end()) return it->second.get();
  XUPD_ASSIGN_OR_RETURN(ResultSet result, ExecutePlannedSelect(sub, ctx));
  auto set = std::make_unique<SubqueryValues>();
  for (const Row& row : result.rows) {
    if (!row.empty() && !row[0].is_null()) set->Insert(row[0]);
  }
  const auto* raw = set.get();
  ctx.subquery_memo->emplace(&sub, std::move(set));
  return raw;
}

Result<Value> EvalBound(const BoundExpr& expr,
                        const std::vector<const Value*>& slots,
                        ExecContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kParam: {
      if (ctx.params == nullptr ||
          expr.param_index >= static_cast<int>(ctx.params->size()) ||
          expr.param_index < 0) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(expr.param_index + 1) +
            " is not bound");
      }
      return (*ctx.params)[static_cast<size_t>(expr.param_index)];
    }
    case Expr::Kind::kColumn:
      return slots[expr.rel][expr.col];
    case Expr::Kind::kOldColumn: {
      if (ctx.old_table == nullptr) {
        return Status::InvalidArgument("OLD.* outside a row trigger");
      }
      return ctx.old_table->row(ctx.old_rowid)[expr.col];
    }
    case Expr::Kind::kUnary: {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(expr.children[0], slots, ctx));
      if (expr.op == Expr::Op::kNot) {
        if (v.is_null()) return Value::Null();
        return Value::Int(Truthy(v) ? 0 : 1);
      }
      if (expr.op == Expr::Op::kNeg) {
        if (v.is_null()) return Value::Null();
        XUPD_ASSIGN_OR_RETURN(Value i, CoerceValue(v, ColumnType::kInteger));
        int64_t out = 0;
        if (__builtin_sub_overflow(int64_t{0}, i.AsInt(), &out)) {
          return IntegerOverflow();
        }
        return Value::Int(out);
      }
      return Status::Internal("unknown unary op");
    }
    case Expr::Kind::kBinary: {
      if (expr.op == Expr::Op::kAnd) {
        XUPD_ASSIGN_OR_RETURN(Value l, EvalBound(expr.children[0], slots, ctx));
        if (!l.is_null() && !Truthy(l)) return Value::Int(0);
        XUPD_ASSIGN_OR_RETURN(Value r, EvalBound(expr.children[1], slots, ctx));
        if (!r.is_null() && !Truthy(r)) return Value::Int(0);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Int(1);
      }
      if (expr.op == Expr::Op::kOr) {
        XUPD_ASSIGN_OR_RETURN(Value l, EvalBound(expr.children[0], slots, ctx));
        if (!l.is_null() && Truthy(l)) return Value::Int(1);
        XUPD_ASSIGN_OR_RETURN(Value r, EvalBound(expr.children[1], slots, ctx));
        if (!r.is_null() && Truthy(r)) return Value::Int(1);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Int(0);
      }
      XUPD_ASSIGN_OR_RETURN(Value l, EvalBound(expr.children[0], slots, ctx));
      XUPD_ASSIGN_OR_RETURN(Value r, EvalBound(expr.children[1], slots, ctx));
      switch (expr.op) {
        case Expr::Op::kAdd:
        case Expr::Op::kSub:
        case Expr::Op::kMul:
        case Expr::Op::kDiv: {
          if (l.is_null() || r.is_null()) return Value::Null();
          XUPD_ASSIGN_OR_RETURN(Value li, CoerceValue(l, ColumnType::kInteger));
          XUPD_ASSIGN_OR_RETURN(Value ri, CoerceValue(r, ColumnType::kInteger));
          int64_t a = li.AsInt(), b = ri.AsInt(), out = 0;
          bool overflow = false;
          switch (expr.op) {
            case Expr::Op::kAdd:
              overflow = __builtin_add_overflow(a, b, &out);
              break;
            case Expr::Op::kSub:
              overflow = __builtin_sub_overflow(a, b, &out);
              break;
            case Expr::Op::kMul:
              overflow = __builtin_mul_overflow(a, b, &out);
              break;
            default:
              if (b == 0) return Status::InvalidArgument("division by zero");
              overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
              if (!overflow) out = a / b;
          }
          if (overflow) return IntegerOverflow();
          return Value::Int(out);
        }
        default: {
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!IsComparison(expr.op)) {
            return Status::Internal("unknown binary op");
          }
          return Value::Int(ComparisonHolds(expr.op, l.Compare(r)) ? 1 : 0);
        }
      }
    }
    case Expr::Kind::kIsNull: {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(expr.children[0], slots, ctx));
      bool is_null = v.is_null();
      return Value::Int((is_null != expr.negated) ? 1 : 0);
    }
    case Expr::Kind::kInList: {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(expr.children[0], slots, ctx));
      if (v.is_null()) return Value::Null();
      for (const BoundExpr& item : expr.in_list) {
        XUPD_ASSIGN_OR_RETURN(Value candidate, EvalBound(item, slots, ctx));
        if (v.SqlEquals(candidate)) {
          return Value::Int(expr.negated ? 0 : 1);
        }
      }
      return Value::Int(expr.negated ? 1 : 0);
    }
    case Expr::Kind::kInSubquery: {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(expr.children[0], slots, ctx));
      if (v.is_null()) return Value::Null();
      XUPD_ASSIGN_OR_RETURN(const auto* set, SubquerySet(*expr.subquery, ctx));
      bool found = set->Contains(v);
      return Value::Int((found != expr.negated) ? 1 : 0);
    }
    case Expr::Kind::kAggregate:
      return Status::InvalidArgument("aggregate outside select list");
  }
  return Status::Internal("unknown expression kind");
}

Result<bool> EvalBoolBound(const BoundExpr& expr,
                           const std::vector<const Value*>& slots,
                           ExecContext& ctx) {
  XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(expr, slots, ctx));
  return Truthy(v);
}

// ---------------------------------------------------------------------------
// Operators

namespace {

/// Gathers candidate rowids for an index-driven access path (one Lookup per
/// probe value; counts each as an index probe). A NULL probe value matches
/// no row under `=` or IN, but the hash index keys NULL like any other value,
/// so NULL probes are skipped: DELETE and UPDATE drop the probed conjunct
/// and would otherwise also hit the rows whose column is NULL.
Status GatherCandidates(const AccessPath& path,
                        const std::vector<const Value*>& slots,
                        ExecContext& ctx, std::vector<size_t>* out) {
  auto probe = [&](const Value& v) {
    if (v.is_null()) return;
    path.index->Lookup(v, out);
    ++ctx.stats->index_probes;
  };
  switch (path.kind) {
    case AccessPath::Kind::kScan:
    case AccessPath::Kind::kHashEq:
      return Status::Internal("path has no index candidates");
    case AccessPath::Kind::kIndexEq: {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(path.probe, slots, ctx));
      probe(v);
      return Status::OK();
    }
    case AccessPath::Kind::kIndexIn: {
      for (const BoundExpr& item : path.probe_list) {
        XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(item, slots, ctx));
        probe(v);
      }
      return Status::OK();
    }
    case AccessPath::Kind::kIndexInSubquery: {
      XUPD_ASSIGN_OR_RETURN(const auto* set,
                            SubquerySet(*path.probe_subquery, ctx));
      for (const Value& v : *set) probe(v);
      return Status::OK();
    }
  }
  return Status::Internal("unknown access path kind");
}

void SortUnique(std::vector<size_t>* rowids) {
  std::sort(rowids->begin(), rowids->end());
  rowids->erase(std::unique(rowids->begin(), rowids->end()), rowids->end());
}

/// The operand of a direct comparison, in place: the current tuple's
/// column cell, the literal, or the bound parameter. Null for every other
/// operand shape and for a ? with no bound value (EvalBound reports it).
const Value* DirectOperand(const BoundExpr& e,
                           const std::vector<const Value*>& slots,
                           const ExecContext& ctx) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
      return &slots[e.rel][e.col];
    case Expr::Kind::kLiteral:
      return &e.literal;
    case Expr::Kind::kParam:
      if (ctx.params == nullptr || e.param_index < 0 ||
          e.param_index >= static_cast<int>(ctx.params->size())) {
        return nullptr;
      }
      return &(*ctx.params)[static_cast<size_t>(e.param_index)];
    default:
      return nullptr;
  }
}

/// Whether every conjunct holds for the current tuple (NULL counts as
/// not-true): the one predicate evaluator behind the row cursor and the
/// hash steps. A comparison of two direct operands is decided by
/// Value::Compare on the operands in place; every other conjunct goes
/// through EvalBoolBound.
Result<bool> ConjunctsHold(const std::vector<BoundExpr>& conjuncts,
                           const std::vector<const Value*>& slots,
                           ExecContext& ctx) {
  for (const BoundExpr& c : conjuncts) {
    const Value* l = nullptr;
    const Value* r = nullptr;
    if (c.kind == Expr::Kind::kBinary && IsComparison(c.op)) {
      l = DirectOperand(c.children[0], slots, ctx);
      if (l != nullptr) r = DirectOperand(c.children[1], slots, ctx);
    }
    bool holds;
    if (r != nullptr) {
      holds = !l->is_null() && !r->is_null() &&
              ComparisonHolds(c.op, l->Compare(*r));
    } else {
      XUPD_ASSIGN_OR_RETURN(holds, EvalBoolBound(c, slots, ctx));
    }
    if (!holds) return false;
  }
  return true;
}

/// Emits one empty tuple when the FROM-less WHERE holds.
class OneRowNode : public ExecNode {
 public:
  OneRowNode(const std::vector<BoundExpr>* filters,
             std::vector<const Value*>* slots)
      : filters_(filters), slots_(slots) {}

  Status Open(ExecContext&) override {
    emitted_ = false;
    return Status::OK();
  }
  Result<bool> Next(ExecContext& ctx) override {
    if (emitted_) return false;
    emitted_ = true;
    return ConjunctsHold(*filters_, *slots_, ctx);
  }

 private:
  const std::vector<BoundExpr>* filters_;
  std::vector<const Value*>* slots_;
  bool emitted_ = false;
};

/// The one row loop: reads the candidate rows of one access step. The
/// candidates are every slot (a scan, or the build of a hash step) or the
/// ascending, deduplicated rowids an index path gathers; the rows come from
/// the writer's slab, a reader's snapshot at its pin, or a materialized
/// CTE. Each candidate ticks governance. A live (writer) or visible (reader)
/// row, or any CTE row, is examined: it is written into the shared slot
/// array and returned when the step's conjuncts hold. The examined rows are
/// counted once, when the cursor is destroyed: into the table's rows_read
/// on every path, and for a scan also into rows_scanned, with each open
/// counted in the table's scans; a step with index demand also adds them
/// to the table's counter of its demand column.
class RowCursor final : public ExecNode {
 public:
  /// `candidates` (null = the cursor's own buffer) holds an index path's
  /// rowids between Open and the last Next.
  RowCursor(const PlannedRelation& rel, const AccessPath& path,
            const std::vector<BoundExpr>& filters, size_t k,
            std::vector<const Value*>* slots,
            std::vector<size_t>* candidates = nullptr)
      : rel_(rel),
        path_(path),
        filters_(filters),
        k_(k),
        slots_(slots),
        index_(path.kind != AccessPath::Kind::kScan &&
               path.kind != AccessPath::Kind::kHashEq),
        candidates_(candidates != nullptr ? candidates : &own_candidates_) {}
  RowCursor(const RowCursor&) = delete;
  RowCursor& operator=(const RowCursor&) = delete;
  ~RowCursor() override {
    if (opens_ == 0) return;
    const Table* table = rel_.table;
    if (!index_) {
      stats_->rows_scanned += rows_;
      if (table != nullptr) table->access_stats().scans += opens_;
    }
    if (table != nullptr && rows_ != 0) {
      table->access_stats().rows_read += rows_;
      if (path_.demand_column >= 0) {
        table->AddIndexDemand(path_.demand_column, rows_);
      }
    }
  }

  Status Open(ExecContext& ctx) override {
    ++opens_;
    stats_ = ctx.stats;
    pos_ = 0;
    const Table* table = rel_.table;
    if (table == nullptr) {
      mat_ = (*ctx.cte_values)[static_cast<size_t>(rel_.cte_slot)].get();
      end_ = mat_->rows.size();
      return Status::OK();
    }
    if (!index_) {
      // A snapshot scan stops at the slots that existed at Open: later ones
      // belong to epochs newer than the pin and would be invisible anyway.
      end_ = ctx.read_epoch != kLatestEpoch ? table->SnapshotRowCount()
                                            : table->capacity();
      return Status::OK();
    }
    if (ctx.read_epoch != kLatestEpoch) {
      // Reader sessions plan with index probes disabled (hash indexes are
      // writer-private, not epoch-versioned); reaching here means a plan
      // leaked across the writer/reader boundary.
      return Status::Internal("index probe reached in snapshot read");
    }
    // IN-list / IN-subquery probe values are row-free by construction, so
    // at an inner join step the candidate set is identical for every outer
    // row: gather it once per execution and replay it on later opens
    // (liveness is still checked per candidate, and mutations never
    // interleave with an executing pipeline).
    if (!gathered_ || path_.kind == AccessPath::Kind::kIndexEq) {
      candidates_->clear();
      XUPD_RETURN_IF_ERROR(GatherCandidates(path_, *slots_, ctx, candidates_));
      // Multi-probe paths can surface a rowid twice; dedupe. Sorting puts
      // every probe kind in ascending rowid order == scan order, keeping
      // output order stable vs a filtered scan.
      SortUnique(candidates_);
      gathered_ = true;
    }
    end_ = candidates_->size();
    return Status::OK();
  }

  Result<bool> Next(ExecContext& ctx) override {
    const Table* table = rel_.table;
    while (pos_ < end_) {
      XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
      const size_t i = pos_++;
      rowid_ = index_ ? (*candidates_)[i] : i;
      const Value* row;
      if (table == nullptr) {
        row = mat_->rows[i].data();
      } else if (ctx.read_epoch == kLatestEpoch) {
        if (!table->is_live(rowid_)) continue;
        row = table->row(rowid_);
      } else {
        // Snapshot read (reader session): visibility comes from row epoch
        // metadata, not the writer-private liveness bitmap, and cell values
        // are materialized through the seqlock into the staging row (stable
        // while inner join steps iterate — only this cursor's own Next
        // overwrites it).
        staging_.clear();
        if (!table->SnapshotReadRow(rowid_, ctx.read_epoch, &staging_)) {
          continue;
        }
        row = staging_.data();
      }
      ++rows_;
      (*slots_)[k_] = row;
      if (filters_.empty()) return true;
      XUPD_ASSIGN_OR_RETURN(bool holds, ConjunctsHold(filters_, *slots_, ctx));
      if (holds) return true;
    }
    return false;
  }

  /// The current row (valid after Next returned true, until the next Next).
  const Value* row() const { return (*slots_)[k_]; }
  /// The current row's slot (for a CTE, its position in the result).
  size_t rowid() const { return rowid_; }

 private:
  const PlannedRelation& rel_;
  const AccessPath& path_;
  const std::vector<BoundExpr>& filters_;
  const size_t k_;
  std::vector<const Value*>* const slots_;
  const bool index_;  ///< candidates come from an index path.
  std::vector<size_t> own_candidates_;
  std::vector<size_t>* const candidates_;
  bool gathered_ = false;
  const ResultSet* mat_ = nullptr;  ///< CTE rows.
  Row staging_;  ///< snapshot reads materialize here (owned copies).
  size_t pos_ = 0;
  size_t end_ = 0;
  size_t rowid_ = 0;
  Stats* stats_ = nullptr;
  uint64_t opens_ = 0;
  uint64_t rows_ = 0;  ///< rows examined.
};

/// Hash-join inner step (AccessPath::kHashEq). The first Open of an
/// execution reads every row of the relation once through a RowCursor —
/// for a reader a snapshot read at the pin — and keys every row by its join
/// column, skipping NULL keys. Each Open then evaluates the probe value over
/// the outer tuple and Next streams the rows whose key matches it under the
/// index's own rules (Value::Hash, then Value::operator==: "42" matches 42,
/// "7" does not match "07"), in ascending row order, that also satisfy the
/// step's conjuncts. The join conjunct stays among them, so the rows and
/// their order are the nested-loop plan's. The build is charged to
/// mem.query_scratch until the pipeline is destroyed.
class HashProbeNode : public ExecNode {
 public:
  HashProbeNode(const PlannedRelation* rel, const AccessPath* path,
                const std::vector<BoundExpr>* filters, size_t k,
                std::vector<const Value*>* slots)
      : rel_(rel), path_(path), filters_(filters), k_(k), slots_(slots) {}
  ~HashProbeNode() override {
    if (charged_ != 0) mem_->Release(MemoryAccountant::kQueryScratch, charged_);
  }

  Status Open(ExecContext& ctx) override {
    if (!built_) XUPD_RETURN_IF_ERROR(Build(ctx));
    next_ = -1;
    if (entries_.empty()) return Status::OK();
    XUPD_ASSIGN_OR_RETURN(key_, EvalBound(path_->probe, *slots_, ctx));
    if (key_.is_null()) return Status::OK();
    hash_ = key_.Hash();
    next_ = heads_[Bucket(hash_)];
    return Status::OK();
  }

  Result<bool> Next(ExecContext& ctx) override {
    while (next_ >= 0) {
      XUPD_RETURN_IF_ERROR(ctx.TickGovernance());
      const Entry& e = entries_[static_cast<size_t>(next_)];
      next_ = e.next;
      if (e.hash != hash_ || !(e.row[path_->column] == key_)) continue;
      (*slots_)[k_] = e.row;
      XUPD_ASSIGN_OR_RETURN(bool holds, ConjunctsHold(*filters_, *slots_, ctx));
      if (holds) return true;
    }
    return false;
  }

 private:
  struct Entry {
    const Value* row;
    uint64_t hash;
    int32_t next;  ///< next entry in the bucket's chain, -1 = end.
  };

  Status Build(ExecContext& ctx) {
    built_ = true;
    // One pass over every row of the relation, governed and counted as any
    // scan is. A snapshot read materializes each row into the cursor's
    // staging row, so a reader's build copies the keyed rows into rows_ and
    // points its entries there once rows_ has stopped growing. Outer slots
    // stay as they are; slot k_ is rewritten by Next before it is read.
    static const std::vector<BoundExpr> kNoFilters;
    RowCursor rows(*rel_, *path_, kNoFilters, k_, slots_);
    XUPD_RETURN_IF_ERROR(rows.Open(ctx));
    const bool copy = rel_->table != nullptr && ctx.read_epoch != kLatestEpoch;
    const size_t arity = rel_->columns.size();
    const size_t col = path_->column;
    while (true) {
      XUPD_ASSIGN_OR_RETURN(bool more, rows.Next(ctx));
      if (!more) break;
      const Value* row = rows.row();
      if (row[col].is_null()) continue;
      entries_.push_back({copy ? nullptr : row, row[col].Hash(), -1});
      if (copy) rows_.insert(rows_.end(), row, row + arity);
    }
    if (copy) {
      for (size_t i = 0; i < entries_.size(); ++i) {
        entries_[i].row = rows_.data() + i * arity;
      }
    }
    // Prepending in reverse row order leaves every chain ascending.
    size_t buckets = 1;
    while (buckets < 2 * entries_.size()) buckets <<= 1;
    heads_.assign(buckets, -1);
    for (size_t i = entries_.size(); i-- > 0;) {
      int32_t& head = heads_[Bucket(entries_[i].hash)];
      entries_[i].next = head;
      head = static_cast<int32_t>(i);
    }
    mem_ = ctx.mem;
    if (mem_ != nullptr) {
      charged_ = entries_.capacity() * sizeof(Entry) +
                 heads_.size() * sizeof(int32_t) +
                 rows_.capacity() * sizeof(Value);
      mem_->Charge(MemoryAccountant::kQueryScratch, charged_);
    }
    return Status::OK();
  }

  /// Integer keys hash to themselves, so the bucket mixes the hash first
  /// (see HashIndex::Mix).
  size_t Bucket(uint64_t hash) const {
    return HashIndex::Mix(hash) & (heads_.size() - 1);
  }

  const PlannedRelation* rel_;
  const AccessPath* path_;
  const std::vector<BoundExpr>* filters_;
  size_t k_;
  std::vector<const Value*>* slots_;
  bool built_ = false;
  std::vector<Entry> entries_;  ///< ascending row order.
  std::vector<int32_t> heads_;  ///< bucket -> first entry, -1 = empty.
  Row rows_;                    ///< reader builds: the copied rows.
  MemoryAccountant* mem_ = nullptr;
  size_t charged_ = 0;
  Value key_;          ///< the current probe value.
  uint64_t hash_ = 0;  ///< key_.Hash().
  int32_t next_ = -1;  ///< next chain entry to examine, -1 = done.
};

/// Nested-loop join: for each outer tuple, re-opens the inner side (whose
/// probe expressions see the outer tuple through the shared slots).
class NestedLoopJoinNode : public ExecNode {
 public:
  NestedLoopJoinNode(std::unique_ptr<ExecNode> outer,
                     std::unique_ptr<ExecNode> inner)
      : outer_(std::move(outer)), inner_(std::move(inner)) {}

  Status Open(ExecContext& ctx) override {
    inner_open_ = false;
    return outer_->Open(ctx);
  }

  Result<bool> Next(ExecContext& ctx) override {
    while (true) {
      if (!inner_open_) {
        XUPD_ASSIGN_OR_RETURN(bool more, outer_->Next(ctx));
        if (!more) return false;
        XUPD_RETURN_IF_ERROR(inner_->Open(ctx));
        inner_open_ = true;
      }
      XUPD_ASSIGN_OR_RETURN(bool more, inner_->Next(ctx));
      if (more) return true;
      inner_open_ = false;
    }
  }

 private:
  std::unique_ptr<ExecNode> outer_;
  std::unique_ptr<ExecNode> inner_;
  bool inner_open_ = false;
};

/// EXPLAIN ANALYZE wrapper: charges wall time spent in the wrapped subtree's
/// Open()/Next() and counts emitted rows. Only built when a statement is
/// being analyzed — normal execution never sees it.
class TimedNode : public ExecNode {
 public:
  TimedNode(std::unique_ptr<ExecNode> child, OpStats* stats)
      : child_(std::move(child)), stats_(stats) {}

  Status Open(ExecContext& ctx) override {
    ++stats_->opens;
    const uint64_t t0 = MonotonicNanos();
    Status s = child_->Open(ctx);
    stats_->time_ns += MonotonicNanos() - t0;
    return s;
  }

  Result<bool> Next(ExecContext& ctx) override {
    const uint64_t t0 = MonotonicNanos();
    Result<bool> r = child_->Next(ctx);
    stats_->time_ns += MonotonicNanos() - t0;
    if (r.ok() && r.value()) ++stats_->rows;
    return r;
  }

 private:
  std::unique_ptr<ExecNode> child_;
  OpStats* stats_;
};

std::unique_ptr<ExecNode> MakeAccessNode(const PlannedCore& core, size_t k,
                                         std::vector<const Value*>* slots,
                                         OpStats* stats) {
  std::unique_ptr<ExecNode> node;
  if (core.paths[k].kind == AccessPath::Kind::kHashEq) {
    node = std::make_unique<HashProbeNode>(&core.relations[k], &core.paths[k],
                                           &core.filters[k], k, slots);
  } else {
    node = std::make_unique<RowCursor>(core.relations[k], core.paths[k],
                                       core.filters[k], k, slots);
  }
  if (stats != nullptr) {
    node = std::make_unique<TimedNode>(std::move(node), stats);
  }
  return node;
}

}  // namespace

std::unique_ptr<ExecNode> BuildCorePipeline(const PlannedCore& core,
                                            std::vector<const Value*>* slots,
                                            AnalyzeStats::Core* core_stats) {
  auto rel_stats = [core_stats](size_t k) -> OpStats* {
    return core_stats != nullptr && k < core_stats->rels.size()
               ? &core_stats->rels[k]
               : nullptr;
  };
  if (core.relations.empty()) {
    return std::make_unique<OneRowNode>(&core.const_filters, slots);
  }
  std::unique_ptr<ExecNode> node = MakeAccessNode(core, 0, slots,
                                                  rel_stats(0));
  for (size_t k = 1; k < core.relations.size(); ++k) {
    node = std::make_unique<NestedLoopJoinNode>(
        std::move(node), MakeAccessNode(core, k, slots, rel_stats(k)));
  }
  return node;
}

// ---------------------------------------------------------------------------
// Core / statement execution

namespace {

/// Charges materialized result/CTE rows to mem.query_scratch for the
/// duration of one ExecutePlannedSelect (released wholesale on scope exit).
/// Charges are batched so the accountant's atomics are touched once per
/// ~16 KiB of growth, not once per row.
class ScratchCharge {
 public:
  explicit ScratchCharge(MemoryAccountant* mem) : mem_(mem) {}
  ~ScratchCharge() {
    if (mem_ != nullptr && charged_ != 0) {
      mem_->Release(MemoryAccountant::kQueryScratch, charged_);
    }
  }
  void AddRow(size_t columns) {
    if (mem_ == nullptr) return;
    pending_ += columns * sizeof(Value) + sizeof(Row);
    if (pending_ >= 16 * 1024) Flush();
  }
  void Flush() {
    if (mem_ == nullptr || pending_ == 0) return;
    mem_->Charge(MemoryAccountant::kQueryScratch, pending_);
    charged_ += pending_;
    pending_ = 0;
  }

 private:
  MemoryAccountant* mem_;
  size_t pending_ = 0;
  size_t charged_ = 0;
};

Result<ResultSet> ExecutePlannedCore(const PlannedCore& core,
                                     ExecContext& ctx, ScratchCharge* scratch,
                                     AnalyzeStats::Core* cs = nullptr) {
  std::vector<const Value*> slots(core.relations.size(), nullptr);
  std::unique_ptr<ExecNode> root = BuildCorePipeline(core, &slots, cs);
  XUPD_RETURN_IF_ERROR(root->Open(ctx));

  ResultSet out;
  out.columns = core.out_columns;

  if (core.has_aggregate) {
    struct Accumulator {
      int64_t count = 0;
      Value acc;
    };
    std::vector<Accumulator> accs(core.outputs.size());
    while (true) {
      XUPD_ASSIGN_OR_RETURN(bool more, root->Next(ctx));
      if (!more) break;
      for (size_t i = 0; i < core.outputs.size(); ++i) {
        const BoundExpr& e = core.outputs[i];
        Value v =
            e.count_star ? Value::Int(1) : slots[e.rel][e.col];
        if (v.is_null()) continue;
        Accumulator& a = accs[i];
        ++a.count;
        switch (e.agg) {
          case Expr::Agg::kCount:
            break;
          case Expr::Agg::kMin:
            if (a.acc.is_null() || v.Compare(a.acc) < 0) a.acc = v;
            break;
          case Expr::Agg::kMax:
            if (a.acc.is_null() || v.Compare(a.acc) > 0) a.acc = v;
            break;
          case Expr::Agg::kSum: {
            XUPD_ASSIGN_OR_RETURN(Value vi,
                                  CoerceValue(v, ColumnType::kInteger));
            int64_t sum = 0;
            if (__builtin_add_overflow(a.acc.is_null() ? 0 : a.acc.AsInt(),
                                       vi.AsInt(), &sum)) {
              return IntegerOverflow();
            }
            a.acc = Value::Int(sum);
            break;
          }
        }
      }
    }
    Row row;
    row.reserve(core.outputs.size());
    for (size_t i = 0; i < core.outputs.size(); ++i) {
      if (core.outputs[i].agg == Expr::Agg::kCount) {
        row.push_back(Value::Int(accs[i].count));
      } else {
        row.push_back(accs[i].acc);
      }
    }
    out.rows.push_back(std::move(row));
    return out;
  }

  while (true) {
    XUPD_ASSIGN_OR_RETURN(bool more, root->Next(ctx));
    if (!more) break;
    Row row;
    row.reserve(core.outputs.size());
    for (const BoundExpr& e : core.outputs) {
      XUPD_ASSIGN_OR_RETURN(Value v, EvalBound(e, slots, ctx));
      row.push_back(std::move(v));
    }
    scratch->AddRow(row.size());
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Result<ResultSet> ExecutePlannedSelect(const PlannedSelect& plan,
                                       ExecContext& ctx) {
  // Sort / CTE / UNION materialization is this statement's scratch memory;
  // the hard budget fires at the next governance tick once it overruns.
  ScratchCharge scratch(ctx.mem);
  for (const PlannedSelect::Cte& cte : plan.ctes) {
    XUPD_ASSIGN_OR_RETURN(ResultSet result,
                          ExecutePlannedSelect(*cte.query, ctx));
    auto mat = std::make_unique<ResultSet>(std::move(result));
    mat->columns = cte.columns;
    for (const Row& row : mat->rows) scratch.AddRow(row.size());
    scratch.Flush();
    (*ctx.cte_values)[static_cast<size_t>(cte.slot)] = std::move(mat);
  }

  // EXPLAIN ANALYZE instruments only the root select (compared by identity)
  // so CTE bodies and IN-subqueries recursing through here stay plain.
  AnalyzeStats* an =
      ctx.analyze != nullptr &&
              ctx.analyze_select == static_cast<const void*>(&plan)
          ? ctx.analyze
          : nullptr;

  ResultSet out;
  for (size_t i = 0; i < plan.cores.size(); ++i) {
    AnalyzeStats::Core* cs =
        an != nullptr && i < an->cores.size() ? &an->cores[i] : nullptr;
    const uint64_t t0 = cs != nullptr ? MonotonicNanos() : 0;
    XUPD_ASSIGN_OR_RETURN(ResultSet core,
                          ExecutePlannedCore(plan.cores[i], ctx, &scratch, cs));
    scratch.Flush();
    if (cs != nullptr) {
      ++cs->total.opens;
      cs->total.time_ns += MonotonicNanos() - t0;
      cs->total.rows += core.rows.size();
    }
    if (i == 0) {
      out = std::move(core);
    } else {
      for (Row& row : core.rows) out.rows.push_back(std::move(row));
    }
  }

  if (!plan.order_by.empty()) {
    std::stable_sort(out.rows.begin(), out.rows.end(),
                     [&plan](const Row& a, const Row& b) {
                       for (const auto& [col, desc] : plan.order_by) {
                         int cmp = a[static_cast<size_t>(col)].Compare(
                             b[static_cast<size_t>(col)]);
                         if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
  }
  return out;
}

Status CollectMatchingRowids(const PlannedMutation& m, ExecContext& ctx,
                             MutationScratch* scratch) {
  // EXPLAIN ANALYZE: the whole collection (index gather or scan plus
  // residual filters, including any IN-subquery evaluation) is the
  // mutation's access step.
  struct MutationTimer {
    OpStats* os;
    uint64_t t0;
    explicit MutationTimer(AnalyzeStats* an)
        : os(an != nullptr ? &an->mutation : nullptr),
          t0(os != nullptr ? MonotonicNanos() : 0) {}
    ~MutationTimer() {
      if (os != nullptr) {
        ++os->opens;
        os->time_ns += MonotonicNanos() - t0;
      }
    }
  } timer(ctx.analyze);

  std::vector<size_t>& out = scratch->rowids;
  out.clear();
  RowCursor rows(m.relation, m.path, m.filters, 0, &scratch->slots,
                 &scratch->candidates);
  XUPD_RETURN_IF_ERROR(rows.Open(ctx));
  while (true) {
    XUPD_ASSIGN_OR_RETURN(bool more, rows.Next(ctx));
    if (!more) break;
    out.push_back(rows.rowid());
  }
  if (timer.os != nullptr) timer.os->rows = out.size();
  return Status::OK();
}

}  // namespace xupd::rdb
