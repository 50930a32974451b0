#include "lqs/pipeline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "exec/cost_constants.h"

namespace lqs {

bool IsBlockingEdge(const PlanNode& parent, size_t child_index) {
  switch (parent.type) {
    case OpType::kSort:
    case OpType::kTopNSort:
    case OpType::kDistinctSort:
    case OpType::kHashAggregate:
    case OpType::kEagerSpool:
      return true;
    case OpType::kHashJoin:
      return child_index == 0;  // build side
    default:
      return false;
  }
}

namespace {

/// True when the operator has a blocking input phase whose cost is
/// attributed to its blocked child's pipeline (§4.5/§4.6): the sort family,
/// hash aggregation, the hash join build and the eager spool write.
bool HasBoundaryCost(OpType type) {
  switch (type) {
    case OpType::kSort:
    case OpType::kDistinctSort:
    case OpType::kTopNSort:
    case OpType::kHashAggregate:
    case OpType::kHashJoin:
    case OpType::kEagerSpool:
      return true;
    default:
      return false;
  }
}

/// Per-pipeline lists the walk collects before Flatten() copies them into
/// the PlanAnalysis spans.
struct PipelineLists {
  std::vector<int> nodes;
  std::vector<int> drivers;
  std::vector<int> inner_drivers;
  std::vector<int> children;
};

/// Decomposes the plan into pipelines. Expects `out`'s pipeline_of_node,
/// flags, nlj_outer_child and nlj_inner_child sized to the plan.
struct Walker {
  PlanAnalysis* out;
  std::vector<PipelineLists> lists;

  int NewPipeline(int root_node) {
    out->pipeline_root.push_back(root_node);
    lists.emplace_back();
    return out->pipeline_count() - 1;
  }

  /// Assigns `node` (and its same-pipeline descendants) to pipeline `pid`,
  /// starting new pipelines below blocking edges, and appends its subtree
  /// to `out->postorder`. `inner_nlj` is the innermost same-pipeline NL
  /// join whose inner side we are on (or null). Returns true when some
  /// same-pipeline edge between `node` and the pipeline's sources crosses a
  /// semi-blocking operator (kFlagSeparatedBySemiBlocking). `under_inner`
  /// tracks NL-inner edges across pipeline boundaries too — it keeps
  /// propagating where `inner_nlj` resets, feeding kFlagUnderNljInner,
  /// which the incremental freezes are gated on.
  bool Assign(const PlanNode& node, int pid, const PlanNode* inner_nlj,
              bool under_inner) {
    out->pipeline_of_node[node.id] = pid;
    lists[pid].nodes.push_back(node.id);
    if (inner_nlj != nullptr) {
      out->flags[node.id] |= kFlagOnNljInner;
      out->nlj_outer_child[node.id] = inner_nlj->child(0)->id;
      out->nlj_inner_child[node.id] = inner_nlj->child(1)->id;
    }
    if (under_inner) out->flags[node.id] |= kFlagUnderNljInner;

    bool has_same_pipeline_child = false;
    bool below_semi_blocking = false;
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode& child = *node.children[i];
      const bool nlj_inner_edge =
          node.type == OpType::kNestedLoopJoin && i == 1;
      const bool child_under_inner = under_inner || nlj_inner_edge;
      if (IsBlockingEdge(node, i)) {
        const int child_pid = NewPipeline(child.id);
        lists[pid].children.push_back(child_pid);
        Assign(child, child_pid, nullptr, child_under_inner);
        continue;
      }
      has_same_pipeline_child = true;
      const bool child_below_semi =
          Assign(child, pid, nlj_inner_edge ? &node : inner_nlj,
                 child_under_inner);
      // A node is separated from the pipeline's sources by a semi-blocking
      // operator when a same-pipeline child either is semi-blocking itself
      // (for NLJ: only when it actually buffers) or is already separated.
      const bool child_is_semi =
          IsExchange(child.type) ||
          (child.type == OpType::kNestedLoopJoin && child.buffered_outer);
      below_semi_blocking = below_semi_blocking || child_is_semi ||
                            child_below_semi;
    }
    if (below_semi_blocking) {
      out->flags[node.id] |= kFlagSeparatedBySemiBlocking;
    }

    if (!has_same_pipeline_child) {
      // A source of this pipeline: either a leaf access path or a blocking
      // operator whose output feeds this pipeline (e.g. a Sort). Inner-side
      // NLJ sources are recorded separately (§3.1.1 excludes them from the
      // driver set; §4.4(1) adds them back for semi-blocking plans).
      if (inner_nlj != nullptr) {
        lists[pid].inner_drivers.push_back(node.id);
      } else {
        lists[pid].drivers.push_back(node.id);
      }
    }
    out->postorder.push_back(node.id);
    return below_semi_blocking;
  }

  /// Copies the collected lists into the PlanAnalysis spans. Each span is
  /// sized once: regrowing it would strand freed blocks between long-lived
  /// allocations, and a monitor builds one analysis per cached estimator.
  void Flatten() {
    auto flatten = [this](std::vector<int> PipelineLists::*list,
                          std::vector<int>* begin, std::vector<int>* ids) {
      size_t total = 0;
      for (const PipelineLists& p : lists) total += (p.*list).size();
      begin->assign(1, 0);
      begin->reserve(lists.size() + 1);
      ids->clear();
      ids->reserve(total);
      for (const PipelineLists& p : lists) {
        ids->insert(ids->end(), (p.*list).begin(), (p.*list).end());
        begin->push_back(static_cast<int>(ids->size()));
      }
    };
    flatten(&PipelineLists::nodes, &out->pipeline_node_begin,
            &out->pipeline_nodes);
    flatten(&PipelineLists::drivers, &out->driver_begin, &out->driver_ids);
    flatten(&PipelineLists::inner_drivers, &out->inner_driver_begin,
            &out->inner_driver_ids);
    flatten(&PipelineLists::children, &out->child_pipeline_begin,
            &out->child_pipeline_ids);
  }
};

/// Freeze topology and §4.6 weight attribution, derived once from the
/// pipeline decomposition (see the field docs in pipeline.h).
void FillFreezeAndWeightTopology(const Plan& plan, PlanAnalysis* a) {
  const int num_pipelines = a->pipeline_count();
  a->pipeline_freezable.assign(num_pipelines, 1);
  for (int id = 0; id < plan.size(); ++id) {
    if ((a->flags[id] & kFlagUnderNljInner) != 0) {
      a->pipeline_freezable[a->pipeline_of_node[id]] = 0;
    }
  }

  // Own terms first (each pipeline's members, in pipeline_nodes order), then
  // the boundary terms blocking operators scatter into their blocked child's
  // pipeline — deterministic, so repeated analyses of one plan sum weights
  // in one order.
  const std::vector<int>& members = a->pipeline_nodes;
  std::vector<std::vector<std::pair<int, bool>>> contribs(num_pipelines);
  for (int id : members) {
    contribs[a->pipeline_of_node[id]].push_back({id, false});
  }
  for (int id : members) {
    const PlanNode& node = plan.node(id);
    if (HasBoundaryCost(node.type) && !node.children.empty()) {
      contribs[a->pipeline_of_node[node.child(0)->id]].push_back({id, true});
    }
  }
  a->weight_begin.assign(1, 0);
  a->weight_node.clear();
  a->weight_boundary.clear();
  for (const auto& terms : contribs) {
    for (const auto& [id, boundary] : terms) {
      a->weight_node.push_back(id);
      a->weight_boundary.push_back(boundary ? 1 : 0);
    }
    a->weight_begin.push_back(static_cast<int>(a->weight_node.size()));
  }

  // A pipeline's weight reads refined cardinalities of its own nodes and of
  // their first children (n_in terms may cross a blocking boundary; probe /
  // inner join inputs stay within the pipeline).
  a->weight_dep_begin.assign(1, 0);
  a->weight_dep_ids.clear();
  a->weight_freezable.assign(num_pipelines, 0);
  for (int p = 0; p < num_pipelines; ++p) {
    std::vector<int> deps = {p};
    for (int j = a->pipeline_node_begin[p]; j < a->pipeline_node_begin[p + 1];
         ++j) {
      const PlanNode& node = plan.node(members[j]);
      if (!node.children.empty()) {
        deps.push_back(a->pipeline_of_node[node.child(0)->id]);
      }
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    bool freezable = true;
    for (int d : deps) freezable = freezable && a->pipeline_freezable[d] != 0;
    a->weight_freezable[p] = freezable ? 1 : 0;
    a->weight_dep_ids.insert(a->weight_dep_ids.end(), deps.begin(),
                             deps.end());
    a->weight_dep_begin.push_back(static_cast<int>(a->weight_dep_ids.size()));
  }
}

/// Top-down half of the flat layout: the may-stop-early flag and the NL
/// rebind-multiplier chain, both of which depend on a node's ancestors.
/// `chain` holds the outer child ids of the NL joins whose inner side
/// contains `node`, outermost first.
void MarkTopDown(const PlanNode& node, bool may_stop_early,
                 std::vector<int>* chain,
                 std::vector<std::vector<int>>* chains, PlanAnalysis* a) {
  if (may_stop_early) a->flags[node.id] |= kFlagMayStopEarly;
  (*chains)[node.id] = *chain;
  for (size_t i = 0; i < node.children.size(); ++i) {
    // Top abandons its child at N rows; a merge join may exhaust one input
    // and abandon the other mid-stream.
    const bool child_early = may_stop_early || node.type == OpType::kTop ||
                             node.type == OpType::kMergeJoin;
    if (node.type == OpType::kNestedLoopJoin && i == 1) {
      // Semi/anti kinds abandon the inner stream after the first match.
      const bool inner_early = child_early ||
                               node.join_kind == JoinKind::kLeftSemi ||
                               node.join_kind == JoinKind::kLeftAnti;
      chain->push_back(node.child(0)->id);
      MarkTopDown(*node.children[i], inner_early, chain, chains, a);
      chain->pop_back();
    } else {
      MarkTopDown(*node.children[i], child_early, chain, chains, a);
    }
  }
}

/// Fills the per-node operator layout, the flags that depend only on the
/// node or its ancestors, and the NL rebind-multiplier chains (see the field
/// docs in pipeline.h). The pipeline walk adds the remaining flag bits.
void FillNodeLayout(const Plan& plan, PlanAnalysis* a) {
  const int n = plan.size();
  const double inf = std::numeric_limits<double>::infinity();
  a->op.assign(n, OpType::kTableScan);
  a->join_kind.assign(n, JoinKind::kInner);
  a->child_begin.assign(1, 0);
  a->child_ids.clear();
  a->est_rows.assign(n, 0.0);
  a->est_seed.assign(n, 0.0);
  a->top_n.assign(n, inf);
  a->constant_row_count.assign(n, 0.0);
  a->projection_count.assign(n, 1.0);
  a->flags.assign(n, 0);
  a->nlj_outer_child.assign(n, -1);
  a->nlj_inner_child.assign(n, -1);
  for (int id = 0; id < n; ++id) {
    const PlanNode& node = plan.node(id);
    const OpType t = node.type;
    a->op[id] = t;
    a->join_kind[id] = node.join_kind;
    for (const auto& c : node.children) a->child_ids.push_back(c->id);
    a->child_begin.push_back(static_cast<int>(a->child_ids.size()));
    a->est_rows[id] = node.est_rows;
    a->est_seed[id] = std::max(0.0, node.est_rows);
    if (node.top_n >= 0) a->top_n[id] = static_cast<double>(node.top_n);
    a->constant_row_count[id] =
        static_cast<double>(node.constant_rows.size());
    a->projection_count[id] =
        static_cast<double>(std::max<size_t>(1, node.projections.size()));

    uint16_t f = 0;
    if ((t == OpType::kTableScan || t == OpType::kClusteredIndexScan ||
         t == OpType::kColumnstoreScan) &&
        node.pushed_predicate == nullptr && node.bitmap_source_id < 0) {
      f |= kFlagPlainScan;
    }
    if (IsAggregate(t) && node.group_columns.empty()) {
      f |= kFlagScalarAggregate;
    }
    if (IsExchange(t) || t == OpType::kSort || t == OpType::kComputeScalar ||
        t == OpType::kBitmapCreate) {
      f |= kFlagCardinalityPreserving;
    }
    if (t == OpType::kFilter || IsJoin(t)) f |= kFlagSelective;
    if (IsScan(t)) f |= kFlagScan;
    if (t == OpType::kColumnstoreScan) f |= kFlagColumnstore;
    if (IsSortFamily(t) || t == OpType::kHashAggregate ||
        t == OpType::kHashJoin || t == OpType::kEagerSpool) {
      f |= kFlagBlockingForProgress;
    }
    a->flags[id] = f;
  }

  std::vector<int> chain;
  std::vector<std::vector<int>> chains(n);
  MarkTopDown(*plan.root, false, &chain, &chains, a);
  a->mult_begin.assign(1, 0);
  a->mult_chain.clear();
  for (const std::vector<int>& c : chains) {
    a->mult_chain.insert(a->mult_chain.end(), c.begin(), c.end());
    a->mult_begin.push_back(static_cast<int>(a->mult_chain.size()));
  }
}

void FillCatalogStatics(const Plan& plan, const Catalog* catalog,
                        PlanAnalysis* a) {
  a->node_statics.assign(plan.size(), NodeStatics{});
  if (catalog == nullptr) return;  // every table unknown
  for (int id = 0; id < plan.size(); ++id) {
    const PlanNode& node = plan.node(id);
    NodeStatics& s = a->node_statics[id];
    const Table* t = catalog->GetTable(node.table_name);
    if (t != nullptr) {
      s.table_rows = static_cast<double>(t->num_rows());
      s.bound_table_rows = s.table_rows;
    }
    switch (node.type) {
      case OpType::kTableScan:
      case OpType::kClusteredIndexScan:
      case OpType::kIndexScan:
        if (t != nullptr) {
          s.scan_io_ms = static_cast<double>(t->num_pages()) *
                         cost::kIoSequentialPageMs;
          s.scan_cpu_ms =
              static_cast<double>(t->num_rows()) * cost::kCpuScanRowMs;
        }
        break;
      case OpType::kColumnstoreScan: {
        const ColumnstoreIndex* csi = catalog->GetColumnstore(node.table_name);
        if (csi != nullptr && t != nullptr) {
          s.scan_io_ms =
              static_cast<double>(csi->num_segments()) * cost::kIoSegmentMs;
          s.scan_cpu_ms =
              static_cast<double>(t->num_rows()) * cost::kCpuBatchRowMs;
        }
        break;
      }
      default:
        break;
    }
    const bool uncorrelated_full_scan =
        (node.type == OpType::kTableScan ||
         node.type == OpType::kClusteredIndexScan ||
         node.type == OpType::kIndexScan ||
         node.type == OpType::kColumnstoreScan) &&
        node.pushed_predicate == nullptr && node.bitmap_source_id < 0 &&
        (a->flags[id] & kFlagOnNljInner) == 0;
    if (uncorrelated_full_scan) s.full_scan_rows = s.table_rows;
  }
}

/// Base-table origin of one operator output column, found by walking down
/// through multiplicity-non-increasing operators only.
struct DegreeOrigin {
  const PlanNode* scan = nullptr;  ///< leaf access path reached
  int column = -1;                 ///< column index in the base table schema
};

/// Resolves (node, output column) to a base-table column such that within a
/// single execution of the subtree, no value's multiplicity in the output
/// column can exceed its multiplicity in the base column — the soundness
/// condition for capping a join side's degree sequence with the base
/// column's precomputed norms. Operators that can replicate rows (inner and
/// outer joins, Concatenation) stop the walk; re-execution under a
/// Nested Loops inner side is handled separately (the LpBound engine
/// declines any subtree with a rebind multiplier > 1). Returns false when
/// no such origin exists.
bool ResolveDegreeOrigin(const Catalog& catalog, const PlanNode& node,
                         int column, DegreeOrigin* out) {
  if (column < 0) return false;
  switch (node.type) {
    // Leaf access paths over stored rows: every output row is a distinct
    // base row, so output degrees are bounded by base-column degrees.
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexScan:
    case OpType::kColumnstoreScan:
      out->scan = &node;
      out->column = column;
      return true;
    case OpType::kIndexSeek: {
      // Output schema is (index key, rid); only the key column maps back.
      if (column != 0) return false;
      const Table* t = catalog.GetTable(node.table_name);
      if (t == nullptr) return false;
      const OrderedIndex* idx = t->GetIndex(node.index_name);
      if (idx == nullptr) return false;
      out->scan = &node;
      out->column = idx->key_column();
      return true;
    }
    // kRidLookup fetches one base row per outer rid, and duplicate rids
    // replicate rows — not multiplicity-pure, so it stops the walk.

    // Row-preserving / row-filtering pass-throughs: same column index on
    // the only child, output is a (reordered) subset of the input.
    case OpType::kFilter:
    case OpType::kTop:
    case OpType::kSegment:
    case OpType::kBitmapCreate:
    case OpType::kSort:
    case OpType::kTopNSort:
    case OpType::kDistinctSort:
    case OpType::kEagerSpool:
    case OpType::kLazySpool:
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
      if (node.children.empty()) return false;
      return ResolveDegreeOrigin(catalog, *node.child(0), column, out);
    case OpType::kComputeScalar: {
      // Pass-through columns only; computed expressions have no base norms.
      if (node.children.empty()) return false;
      const int child_arity =
          static_cast<int>(node.child(0)->output_schema.num_columns());
      if (column >= child_arity) return false;
      return ResolveDegreeOrigin(catalog, *node.child(0), column, out);
    }
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin:
      // Semi/anti joins emit each preserved-side row at most once, so the
      // walk continues down that side; inner and outer joins replicate
      // matching rows and stop it.
      switch (node.join_kind) {
        case JoinKind::kLeftSemi:
        case JoinKind::kLeftAnti:
          return ResolveDegreeOrigin(catalog, *node.child(0), column, out);
        case JoinKind::kRightSemi:
          return ResolveDegreeOrigin(catalog, *node.child(1), column, out);
        default:
          return false;
      }
    case OpType::kHashAggregate:
    case OpType::kStreamAggregate:
      // Group columns pass through with one output row per group: a value's
      // output degree (groups containing it) never exceeds its input degree
      // (rows containing it). Aggregate outputs are computed, not resolved.
      if (node.children.empty()) return false;
      if (column < static_cast<int>(node.group_columns.size())) {
        return ResolveDegreeOrigin(catalog, *node.child(0),
                                   node.group_columns[column], out);
      }
      return false;
    default:
      // kConstantScan, kConcatenation (can merge duplicates from several
      // children), kRidLookup, and anything added later: no sound origin.
      return false;
  }
}

/// Hoists the LpBound join-side degree caps: for every equijoin node and
/// each input side, the min over that side's resolvable key columns of the
/// base column's exact ℓ∞ / ℓ2 norms (see NodeStatics in pipeline.h).
void FillDegreeNormStatics(const Plan& plan, const Catalog& catalog,
                           PlanAnalysis* a) {
  for (int id = 0; id < plan.size(); ++id) {
    const PlanNode& node = plan.node(id);
    if (!IsJoin(node.type)) continue;
    if (node.outer_keys.empty() ||
        node.outer_keys.size() != node.inner_keys.size()) {
      continue;  // not an equijoin: no degree caps apply
    }
    NodeStatics& s = a->node_statics[id];
    for (int side = 0; side < 2; ++side) {
      const std::vector<int>& keys =
          side == 0 ? node.outer_keys : node.inner_keys;
      const PlanNode& child = *node.child(static_cast<size_t>(side));
      bool valid = false;
      double linf = std::numeric_limits<double>::infinity();
      double l2 = std::numeric_limits<double>::infinity();
      for (int key : keys) {
        DegreeOrigin origin;
        if (!ResolveDegreeOrigin(catalog, child, key, &origin)) continue;
        const TableStatistics* stats =
            catalog.GetStatistics(origin.scan->table_name);
        if (stats == nullptr) continue;
        const Table* t = catalog.GetTable(origin.scan->table_name);
        if (t == nullptr || origin.column < 0 ||
            origin.column >=
                static_cast<int>(t->schema().num_columns())) {
          continue;
        }
        const DegreeNorms& norms = stats->degree_norms(origin.column);
        if (!norms.valid) continue;
        // Any single resolved key column caps the composite-key degrees,
        // so the min over resolved columns is sound even when some key
        // columns fail to resolve.
        valid = true;
        linf = std::min(linf, norms.linf);
        l2 = std::min(l2, norms.l2);
      }
      s.lp_side_valid[side] = valid;
      s.lp_linf[side] = linf;
      s.lp_l2[side] = l2;
    }
  }
}

}  // namespace

PlanAnalysis AnalyzePlan(const Plan& plan, const Catalog* catalog) {
  PlanAnalysis analysis;
  const int n = plan.size();
  FillNodeLayout(plan, &analysis);

  analysis.pipeline_of_node.assign(n, -1);
  analysis.postorder.reserve(n);
  Walker walker{&analysis, {}};
  const int root_pid = walker.NewPipeline(plan.root->id);
  walker.Assign(*plan.root, root_pid, nullptr, false);
  walker.Flatten();
  FillFreezeAndWeightTopology(plan, &analysis);
  FillCatalogStatics(plan, catalog, &analysis);
  if (catalog != nullptr) FillDegreeNormStatics(plan, *catalog, &analysis);
  return analysis;
}

}  // namespace lqs
