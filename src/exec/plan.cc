#include "exec/plan.h"

#include "common/stringf.h"

namespace lqs {

const char* JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
      return "Inner Join";
    case JoinKind::kLeftOuter:
      return "Left Outer Join";
    case JoinKind::kRightOuter:
      return "Right Outer Join";
    case JoinKind::kFullOuter:
      return "Full Outer Join";
    case JoinKind::kLeftSemi:
      return "Left Semi Join";
    case JoinKind::kLeftAnti:
      return "Left Anti Semi Join";
    case JoinKind::kRightSemi:
      return "Right Semi Join";
  }
  return "?";
}

void PlanNode::Visit(const std::function<void(const PlanNode&)>& fn) const {
  fn(*this);
  for (const auto& c : children) c->Visit(fn);
}

void PlanNode::VisitMutable(const std::function<void(PlanNode&)>& fn) {
  fn(*this);
  for (auto& c : children) c->VisitMutable(fn);
}

int PlanNode::CountNodes() const {
  int n = 1;
  for (const auto& c : children) n += c->CountNodes();
  return n;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->id = id;
  copy->type = type;
  copy->table_name = table_name;
  copy->index_name = index_name;
  if (seek_lo) copy->seek_lo = seek_lo->Clone();
  if (seek_hi) copy->seek_hi = seek_hi->Clone();
  if (pushed_predicate) copy->pushed_predicate = pushed_predicate->Clone();
  copy->bitmap_probe_column = bitmap_probe_column;
  copy->bitmap_source_id = bitmap_source_id;
  copy->rid_outer_column = rid_outer_column;
  copy->bitmap_key_column = bitmap_key_column;
  copy->constant_rows = constant_rows;
  if (predicate) copy->predicate = predicate->Clone();
  for (const auto& p : projections) copy->projections.push_back(p->Clone());
  copy->join_kind = join_kind;
  copy->outer_keys = outer_keys;
  copy->inner_keys = inner_keys;
  copy->buffered_outer = buffered_outer;
  copy->sort_columns = sort_columns;
  copy->top_n = top_n;
  copy->group_columns = group_columns;
  copy->aggregates = aggregates;
  copy->est_rows = est_rows;
  copy->est_cpu_ms = est_cpu_ms;
  copy->est_io_ms = est_io_ms;
  copy->est_rebinds = est_rebinds;
  copy->output_schema = output_schema;
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

Plan Plan::Clone() const {
  Plan copy;
  copy.root = root->Clone();
  copy.nodes.resize(nodes.size());
  copy.root->Visit([&copy](const PlanNode& n) { copy.nodes[n.id] = &n; });
  return copy;
}

namespace {

DataType AggResultType(const AggSpec& agg, const Schema& input) {
  switch (agg.func) {
    case AggSpec::Func::kCount:
      return DataType::kInt64;
    case AggSpec::Func::kSum:
    case AggSpec::Func::kAvg:
      return DataType::kDouble;
    case AggSpec::Func::kMin:
    case AggSpec::Func::kMax:
      return agg.column >= 0 ? input.column(agg.column).type
                             : DataType::kInt64;
  }
  return DataType::kInt64;
}

/// Guards schema derivation against out-of-range column references (full
/// validation happens afterwards, but derivation itself must not index out
/// of bounds).
Status CheckInRange(const std::vector<int>& cols, size_t arity,
                    const char* what) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= arity) {
      return Status::InvalidArgument(std::string(what) +
                                     ": column index out of range");
    }
  }
  return Status::OK();
}

Status CheckExprInRange(const Expr* e, size_t arity, const char* what) {
  if (e == nullptr) return Status::OK();
  if (e->kind() == Expr::Kind::kColumn &&
      (e->column_index() < 0 ||
       static_cast<size_t>(e->column_index()) >= arity)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": column reference out of range");
  }
  LQS_RETURN_IF_ERROR(CheckExprInRange(e->left(), arity, what));
  return CheckExprInRange(e->right(), arity, what);
}

const char* AggFuncName(AggSpec::Func func) {
  switch (func) {
    case AggSpec::Func::kCount:
      return "count";
    case AggSpec::Func::kSum:
      return "sum";
    case AggSpec::Func::kMin:
      return "min";
    case AggSpec::Func::kMax:
      return "max";
    case AggSpec::Func::kAvg:
      return "avg";
  }
  return "agg";
}

/// `prefix` followed by the decimal `index`: a generated column name
/// (appended, see Expr::ToString).
std::string IndexedName(const char* prefix, size_t index) {
  return std::string(prefix).append(std::to_string(index));
}

Status DeriveSchema(PlanNode& node, const Catalog& catalog) {
  for (auto& c : node.children) {
    LQS_RETURN_IF_ERROR(DeriveSchema(*c, catalog));
  }
  auto table_schema = [&](const std::string& name) -> const Schema* {
    const Table* t = catalog.GetTable(name);
    return t == nullptr ? nullptr : &t->schema();
  };

  switch (node.type) {
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexScan:
    case OpType::kColumnstoreScan:
    case OpType::kRidLookup: {
      const Schema* s = table_schema(node.table_name);
      if (s == nullptr)
        return Status::NotFound("plan references unknown table: " +
                                node.table_name);
      node.output_schema = *s;
      break;
    }
    case OpType::kIndexSeek: {
      // Nonclustered seek returns (key, rid).
      const Table* t = catalog.GetTable(node.table_name);
      if (t == nullptr)
        return Status::NotFound("plan references unknown table: " +
                                node.table_name);
      const OrderedIndex* idx = t->GetIndex(node.index_name);
      if (idx == nullptr)
        return Status::NotFound("plan references unknown index: " +
                                node.index_name + " on " + node.table_name);
      Schema s;
      s.AddColumn({t->schema().column(idx->key_column()).name,
                   t->schema().column(idx->key_column()).type});
      s.AddColumn({"rid", DataType::kInt64});
      node.output_schema = s;
      break;
    }
    case OpType::kConstantScan: {
      Schema s;
      size_t arity = node.constant_rows.empty() ? 0
                                                : node.constant_rows[0].size();
      for (size_t i = 0; i < arity; ++i) {
        DataType t = node.constant_rows[0][i].type();
        s.AddColumn({IndexedName("c", i), t});
      }
      node.output_schema = s;
      break;
    }
    case OpType::kFilter:
    case OpType::kTop:
    case OpType::kSegment:
    case OpType::kBitmapCreate:
    case OpType::kEagerSpool:
    case OpType::kLazySpool:
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
    case OpType::kSort:
    case OpType::kTopNSort:
    case OpType::kDistinctSort:
    case OpType::kConcatenation:
      if (node.children.empty())
        return Status::InvalidArgument("operator requires a child");
      node.output_schema = node.child(0)->output_schema;
      break;
    case OpType::kComputeScalar: {
      Schema s = node.child(0)->output_schema;
      int i = 0;
      for (const auto& p : node.projections) {
        LQS_RETURN_IF_ERROR(
            CheckExprInRange(p.get(), s.num_columns(), "projection"));
        s.AddColumn({IndexedName("expr", i++),
                     p->ResultType(node.child(0)->output_schema)});
      }
      node.output_schema = s;
      break;
    }
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin: {
      if (node.children.size() != 2)
        return Status::InvalidArgument("join requires two children");
      const Schema& outer = node.child(0)->output_schema;
      const Schema& inner = node.child(1)->output_schema;
      Schema s;
      switch (node.join_kind) {
        case JoinKind::kLeftSemi:
        case JoinKind::kLeftAnti:
          s = outer;
          break;
        case JoinKind::kRightSemi:
          s = inner;
          break;
        default:
          s = outer;
          for (const auto& c : inner.columns()) s.AddColumn(c);
          break;
      }
      node.output_schema = s;
      break;
    }
    case OpType::kHashAggregate:
    case OpType::kStreamAggregate: {
      const Schema& in = node.child(0)->output_schema;
      LQS_RETURN_IF_ERROR(
          CheckInRange(node.group_columns, in.num_columns(), "group by"));
      for (const AggSpec& a : node.aggregates) {
        if (a.column >= 0 &&
            static_cast<size_t>(a.column) >= in.num_columns()) {
          return Status::InvalidArgument("aggregate column out of range");
        }
      }
      Schema s;
      for (int g : node.group_columns) s.AddColumn(in.column(g));
      int i = 0;
      for (const auto& agg : node.aggregates) {
        s.AddColumn({IndexedName(AggFuncName(agg.func), i++),
                     AggResultType(agg, in)});
      }
      node.output_schema = s;
      break;
    }
    case OpType::kNumOpTypes:
      return Status::InvalidArgument("invalid op type");
  }
  return Status::OK();
}

Status CheckExprColumns(const Expr* e, size_t arity, const char* what) {
  if (e == nullptr) return Status::OK();
  if (e->kind() == Expr::Kind::kColumn &&
      (e->column_index() < 0 ||
       static_cast<size_t>(e->column_index()) >= arity)) {
    return Status::InvalidArgument(std::string("column reference out of "
                                               "range in ") +
                                   what);
  }
  LQS_RETURN_IF_ERROR(CheckExprColumns(e->left(), arity, what));
  return CheckExprColumns(e->right(), arity, what);
}

Status CheckColumns(const std::vector<int>& cols, size_t arity,
                    const char* what) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= arity) {
      return Status::InvalidArgument(std::string("column index out of range "
                                                 "in ") +
                                     what);
    }
  }
  return Status::OK();
}

/// Validates every column reference in the plan against the derived
/// schemas, so index-arithmetic mistakes in hand-built plans fail fast.
Status ValidatePlan(const PlanNode& node) {
  for (const auto& c : node.children) LQS_RETURN_IF_ERROR(ValidatePlan(*c));
  const size_t arity = node.output_schema.num_columns();
  const size_t child0_arity =
      node.children.empty() ? 0 : node.child(0)->output_schema.num_columns();

  // Pushed predicates evaluate against the base table row == the scan's own
  // output schema.
  LQS_RETURN_IF_ERROR(CheckExprColumns(node.pushed_predicate.get(),
                                       IsScan(node.type) ? arity : arity,
                                       "pushed predicate"));
  if (node.bitmap_probe_column >= 0 &&
      static_cast<size_t>(node.bitmap_probe_column) >= arity) {
    return Status::InvalidArgument("bitmap probe column out of range");
  }
  switch (node.type) {
    case OpType::kFilter:
      LQS_RETURN_IF_ERROR(CheckExprColumns(node.predicate.get(), child0_arity,
                                           "filter predicate"));
      break;
    case OpType::kComputeScalar:
      for (const auto& p : node.projections) {
        LQS_RETURN_IF_ERROR(
            CheckExprColumns(p.get(), child0_arity, "projection"));
      }
      break;
    case OpType::kHashJoin:
    case OpType::kMergeJoin: {
      const size_t a0 = node.child(0)->output_schema.num_columns();
      const size_t a1 = node.child(1)->output_schema.num_columns();
      LQS_RETURN_IF_ERROR(CheckColumns(node.outer_keys, a0, "outer keys"));
      LQS_RETURN_IF_ERROR(CheckColumns(node.inner_keys, a1, "inner keys"));
      LQS_RETURN_IF_ERROR(
          CheckExprColumns(node.predicate.get(), a0 + a1, "join residual"));
      break;
    }
    case OpType::kNestedLoopJoin: {
      const size_t a0 = node.child(0)->output_schema.num_columns();
      const size_t a1 = node.child(1)->output_schema.num_columns();
      LQS_RETURN_IF_ERROR(
          CheckExprColumns(node.predicate.get(), a0 + a1, "join residual"));
      break;
    }
    case OpType::kSort:
    case OpType::kTopNSort:
    case OpType::kDistinctSort:
      LQS_RETURN_IF_ERROR(
          CheckColumns(node.sort_columns, child0_arity, "sort columns"));
      break;
    case OpType::kHashAggregate:
    case OpType::kStreamAggregate: {
      LQS_RETURN_IF_ERROR(
          CheckColumns(node.group_columns, child0_arity, "group columns"));
      for (const AggSpec& a : node.aggregates) {
        if (a.column >= 0 &&
            static_cast<size_t>(a.column) >= child0_arity) {
          return Status::InvalidArgument("aggregate column out of range");
        }
      }
      break;
    }
    case OpType::kSegment:
      LQS_RETURN_IF_ERROR(
          CheckColumns(node.group_columns, child0_arity, "segment columns"));
      break;
    case OpType::kBitmapCreate:
      if (node.bitmap_key_column < 0 ||
          static_cast<size_t>(node.bitmap_key_column) >= child0_arity) {
        return Status::InvalidArgument("bitmap key column out of range");
      }
      break;
    default:
      break;
  }
  return Status::OK();
}

/// Outer-column references are bound by the executor only on the inner side
/// of a Nested Loops join; anywhere else Eval would be handed a null outer
/// row. Rejecting such plans here keeps the hot evaluation path free of
/// per-row binding checks.
Status CheckOuterBindings(const PlanNode& node, bool outer_available) {
  auto check = [&](const Expr* e, const char* what) -> Status {
    if (e != nullptr && !outer_available && e->ContainsOuterColumn()) {
      return Status::InvalidArgument(
          std::string(what) + " of " + OpTypeName(node.type) +
          " references an outer column outside a Nested Loops inner side");
    }
    return Status::OK();
  };
  LQS_RETURN_IF_ERROR(check(node.seek_lo.get(), "seek bound"));
  LQS_RETURN_IF_ERROR(check(node.seek_hi.get(), "seek bound"));
  LQS_RETURN_IF_ERROR(check(node.pushed_predicate.get(), "pushed predicate"));
  LQS_RETURN_IF_ERROR(check(node.predicate.get(), "predicate"));
  for (const auto& p : node.projections) {
    LQS_RETURN_IF_ERROR(check(p.get(), "projection"));
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    const bool child_outer =
        outer_available ||
        (node.type == OpType::kNestedLoopJoin && i == 1);
    LQS_RETURN_IF_ERROR(CheckOuterBindings(*node.children[i], child_outer));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Plan> FinalizePlan(std::unique_ptr<PlanNode> root,
                            const Catalog& catalog) {
  if (root == nullptr) return Status::InvalidArgument("null plan");
  LQS_RETURN_IF_ERROR(DeriveSchema(*root, catalog));
  LQS_RETURN_IF_ERROR(ValidatePlan(*root));
  LQS_RETURN_IF_ERROR(CheckOuterBindings(*root, /*outer_available=*/false));
  Plan plan;
  plan.root = std::move(root);
  int next_id = 0;
  plan.root->VisitMutable([&next_id](PlanNode& n) { n.id = next_id++; });
  plan.nodes.resize(next_id);
  plan.root->Visit([&plan](const PlanNode& n) { plan.nodes[n.id] = &n; });
  return plan;
}

namespace {

void PrintNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(StringF("[%d] %s", node.id, OpTypeName(node.type)));
  if (IsJoin(node.type)) {
    out->append(" (");
    out->append(JoinKindName(node.join_kind));
    out->append(")");
  }
  if (!node.table_name.empty()) {
    out->append(" [" + node.table_name +
                (node.index_name.empty() ? "" : "." + node.index_name) + "]");
  }
  if (node.pushed_predicate) {
    out->append(" push=" + node.pushed_predicate->ToString());
  }
  if (node.bitmap_source_id >= 0) {
    out->append(StringF(" probe_bitmap=%d", node.bitmap_source_id));
  }
  out->append(StringF("  est_rows=%.0f cpu=%.1fms io=%.1fms", node.est_rows,
                      node.est_cpu_ms, node.est_io_ms));
  out->append("\n");
  for (const auto& c : node.children) PrintNode(*c, depth + 1, out);
}

}  // namespace

std::string PlanToString(const Plan& plan) {
  std::string out;
  PrintNode(*plan.root, 0, &out);
  return out;
}

}  // namespace lqs
