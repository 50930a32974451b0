#include "analysis/validator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/stringf.h"

namespace lqs {

std::string ValidationIssue::ToString() const {
  std::string out = check;
  if (node_id >= 0) out += StringF(" [node %d]", node_id);
  if (pipeline_id >= 0) out += StringF(" [pipeline %d]", pipeline_id);
  out += ": " + detail;
  return out;
}

void ValidationReport::Add(std::string check, int node_id, int pipeline_id,
                           std::string detail) {
  issues_.push_back(ValidationIssue{std::move(check), node_id, pipeline_id,
                                    std::move(detail)});
}

void ValidationReport::Merge(const ValidationReport& other) {
  issues_.insert(issues_.end(), other.issues_.begin(), other.issues_.end());
}

std::string ValidationReport::ToString() const {
  std::string out;
  for (const ValidationIssue& issue : issues_) {
    out += issue.ToString();
    out += "\n";
  }
  return out;
}

Status ValidationReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::Internal(StringF("%zu invariant violation(s):\n",
                                  issues_.size()) +
                          ToString());
}

namespace {

/// Expected child count per operator; -1 means "one or more" (Concatenation).
int ExpectedChildren(OpType type) {
  switch (type) {
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexScan:
    case OpType::kIndexSeek:
    case OpType::kConstantScan:
    case OpType::kColumnstoreScan:
      return 0;
    case OpType::kRidLookup:
      return 0;
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin:
      return 2;
    case OpType::kConcatenation:
      return -1;
    case OpType::kNumOpTypes:
      return 0;
    default:
      return 1;
  }
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

void PlanValidator::CheckStructure(const Plan& plan,
                                   ValidationReport* report) const {
  if (plan.root == nullptr) {
    report->Add("plan.root", -1, -1, "finalized plan has null root");
    return;
  }
  const int n = plan.size();
  if (plan.root->CountNodes() != n) {
    report->Add("plan.id_density", -1, -1,
                StringF("tree has %d nodes but flat index has %d",
                        plan.root->CountNodes(), n));
  }

  // Ids must be unique, in [0, n), pre-order, and the flat index must point
  // back at the node carrying the id. Unique ids over a unique_ptr tree also
  // rule out aliasing/cycles in the flat view.
  std::set<int> seen;
  int expected_preorder = 0;
  bool preorder_ok = true;
  plan.root->Visit([&](const PlanNode& node) {
    if (node.id < 0 || node.id >= n) {
      report->Add("plan.id_range", node.id, -1,
                  StringF("id out of range [0, %d)", n));
      preorder_ok = false;
      return;
    }
    if (!seen.insert(node.id).second) {
      report->Add("plan.id_unique", node.id, -1, "duplicate node id");
    }
    if (node.id != expected_preorder) preorder_ok = false;
    expected_preorder++;
    if (static_cast<size_t>(node.id) < plan.nodes.size() &&
        plan.nodes[node.id] != &node) {
      report->Add("plan.flat_index", node.id, -1,
                  "plan.nodes[id] does not point at the node carrying id");
    }
  });
  if (!preorder_ok) {
    report->Add("plan.id_preorder", -1, -1,
                "node ids are not dense pre-order (FinalizePlan contract)");
  }

  plan.root->Visit([&](const PlanNode& node) {
    const int want = ExpectedChildren(node.type);
    const int got = static_cast<int>(node.children.size());
    if ((want >= 0 && got != want) || (want < 0 && got < 1)) {
      report->Add("plan.arity", node.id, -1,
                  StringF("%s has %d children, expected %s",
                          OpTypeName(node.type), got,
                          want >= 0 ? StringF("%d", want).c_str() : ">= 1"));
    }
    if (node.bitmap_source_id >= 0) {
      if (node.bitmap_source_id >= n ||
          plan.node(node.bitmap_source_id).type != OpType::kBitmapCreate) {
        report->Add("plan.bitmap_ref", node.id, -1,
                    StringF("bitmap_source_id %d is not a BitmapCreate node",
                            node.bitmap_source_id));
      }
    }
    if (catalog_ != nullptr && IsScan(node.type) &&
        node.type != OpType::kConstantScan) {
      if (catalog_->GetTable(node.table_name) == nullptr) {
        report->Add("plan.table_ref", node.id, -1,
                    "references unknown table '" + node.table_name + "'");
      }
    }
  });

  // Outer-column references only on NL inner sides (mirrors the
  // FinalizePlan gate so hand-assembled Plan structs are covered too).
  struct OuterWalk {
    ValidationReport* report;
    void Walk(const PlanNode& node, bool outer_available) {
      auto check = [&](const Expr* e, const char* what) {
        if (e != nullptr && !outer_available && e->ContainsOuterColumn()) {
          report->Add("plan.outer_binding", node.id, -1,
                      std::string(what) +
                          " references an outer column outside a Nested "
                          "Loops inner side");
        }
      };
      check(node.seek_lo.get(), "seek bound");
      check(node.seek_hi.get(), "seek bound");
      check(node.pushed_predicate.get(), "pushed predicate");
      check(node.predicate.get(), "predicate");
      for (const auto& p : node.projections) check(p.get(), "projection");
      for (size_t i = 0; i < node.children.size(); ++i) {
        Walk(*node.children[i],
             outer_available ||
                 (node.type == OpType::kNestedLoopJoin && i == 1));
      }
    }
  };
  OuterWalk{report}.Walk(*plan.root, false);
}

void PlanValidator::CheckAnnotations(const Plan& plan,
                                     ValidationReport* report) const {
  plan.root->Visit([&](const PlanNode& node) {
    if (!FiniteNonNegative(node.est_rows)) {
      report->Add("plan.est_rows", node.id, -1,
                  StringF("estimated rows %g not finite/non-negative",
                          node.est_rows));
    }
    if (!FiniteNonNegative(node.est_cpu_ms)) {
      report->Add("plan.est_cpu", node.id, -1,
                  StringF("estimated CPU %g not finite/non-negative",
                          node.est_cpu_ms));
    }
    if (!FiniteNonNegative(node.est_io_ms)) {
      report->Add("plan.est_io", node.id, -1,
                  StringF("estimated I/O %g not finite/non-negative",
                          node.est_io_ms));
    }
    if (!FiniteNonNegative(node.est_rebinds)) {
      report->Add("plan.est_rebinds", node.id, -1,
                  StringF("estimated rebinds %g not finite/non-negative",
                          node.est_rebinds));
    }
  });
}

namespace {

/// True when `begin` is a well-formed span index over `ids` for `count`
/// entities: count + 1 non-decreasing offsets from 0 to ids.size().
bool WellFormedSpan(const std::vector<int>& begin, const std::vector<int>& ids,
                    int count) {
  return static_cast<int>(begin.size()) == count + 1 && begin[0] == 0 &&
         begin[count] == static_cast<int>(ids.size()) &&
         std::is_sorted(begin.begin(), begin.end());
}

}  // namespace

void PlanValidator::CheckPipelines(const Plan& plan, const PlanAnalysis& a,
                                   ValidationReport* report) const {
  const int n = plan.size();
  const int num_pipelines = a.pipeline_count();

  // Shape: every per-node array covers the plan and every per-pipeline
  // span indexes its id list; nothing below is safe to read otherwise.
  const size_t nodes = static_cast<size_t>(n);
  if (a.pipeline_of_node.size() != nodes || a.flags.size() != nodes ||
      a.nlj_outer_child.size() != nodes || a.nlj_inner_child.size() != nodes ||
      num_pipelines == 0 ||
      !WellFormedSpan(a.pipeline_node_begin, a.pipeline_nodes,
                      num_pipelines) ||
      !WellFormedSpan(a.driver_begin, a.driver_ids, num_pipelines) ||
      !WellFormedSpan(a.inner_driver_begin, a.inner_driver_ids,
                      num_pipelines) ||
      !WellFormedSpan(a.child_pipeline_begin, a.child_pipeline_ids,
                      num_pipelines)) {
    report->Add("pipeline.map_size", -1, -1,
                StringF("flat layout malformed for %d nodes, %d pipelines",
                        n, num_pipelines));
    return;
  }

  // Partition: membership spans are disjoint, cover the plan, and agree
  // with the node -> pipeline map.
  std::vector<int> membership(nodes, -1);
  for (int p = 0; p < num_pipelines; ++p) {
    for (int j = a.pipeline_node_begin[p]; j < a.pipeline_node_begin[p + 1];
         ++j) {
      const int id = a.pipeline_nodes[j];
      if (id < 0 || id >= n) {
        report->Add("pipeline.member_range", id, p, "member id invalid");
        continue;
      }
      if (membership[id] != -1) {
        report->Add("pipeline.partition", id, p,
                    StringF("node also in pipeline %d", membership[id]));
      }
      membership[id] = p;
      if (a.pipeline_of_node[id] != p) {
        report->Add("pipeline.map_mismatch", id, p,
                    StringF("pipeline_of_node says %d",
                            a.pipeline_of_node[id]));
      }
    }
  }
  for (int id = 0; id < n; ++id) {
    if (membership[id] == -1) {
      report->Add("pipeline.coverage", id, -1,
                  "node belongs to no pipeline");
    }
  }
  // Every later check indexes pipelines through pipeline_of_node.
  if (std::any_of(a.pipeline_of_node.begin(), a.pipeline_of_node.end(),
                  [&](int p) { return p < 0 || p >= num_pipelines; })) {
    return;
  }

  // Parent edges, for boundary checks below.
  std::vector<int> parent(nodes, -1);
  plan.root->Visit([&](const PlanNode& node) {
    for (const auto& c : node.children) parent[c->id] = node.id;
  });

  for (int p = 0; p < num_pipelines; ++p) {
    // §3: every pipeline needs at least one standard driver — progress of a
    // driverless pipeline would be undefined (0/0).
    if (a.driver_begin[p] == a.driver_begin[p + 1]) {
      report->Add("pipeline.driver", -1, p,
                  "pipeline has no standard driver node");
    }
    const int root = a.pipeline_root[p];
    if (root < 0 || root >= n || a.pipeline_of_node[root] != p) {
      report->Add("pipeline.root", root, p,
                  "root node not a member of its own pipeline");
    }
    auto check_drivers = [&](const std::vector<int>& begin,
                             const std::vector<int>& ids, const char* kind) {
      for (int j = begin[p]; j < begin[p + 1]; ++j) {
        const int d = ids[j];
        if (d < 0 || d >= n || a.pipeline_of_node[d] != p) {
          report->Add("pipeline.driver_member", d, p,
                      std::string(kind) + " driver not in pipeline");
          continue;
        }
        for (const auto& c : plan.node(d).children) {
          if (a.pipeline_of_node[c->id] == p) {
            report->Add("pipeline.driver_source", d, p,
                        std::string(kind) +
                            " driver has a same-pipeline child (not a "
                            "source)");
          }
        }
      }
    };
    check_drivers(a.driver_begin, a.driver_ids, "standard");
    check_drivers(a.inner_driver_begin, a.inner_driver_ids, "inner");

    // The child-pipeline span must list only pipelines whose root's parent
    // edge leaves this pipeline.
    for (int j = a.child_pipeline_begin[p]; j < a.child_pipeline_begin[p + 1];
         ++j) {
      const int c = a.child_pipeline_ids[j];
      if (c < 0 || c >= num_pipelines) {
        report->Add("pipeline.child_range", -1, p,
                    StringF("child pipeline %d out of range", c));
        continue;
      }
      const int child_root = a.pipeline_root[c];
      if (child_root < 0 || child_root >= n || parent[child_root] < 0 ||
          a.pipeline_of_node[parent[child_root]] != p) {
        report->Add("pipeline.child_link", child_root, p,
                    StringF("child pipeline %d's root is not below this "
                            "pipeline",
                            c));
      }
    }
  }

  // Blocking edges and pipeline boundaries coincide.
  plan.root->Visit([&](const PlanNode& node) {
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode& child = *node.children[i];
      const bool blocking = IsBlockingEdge(node, i);
      const bool boundary =
          a.pipeline_of_node[node.id] != a.pipeline_of_node[child.id];
      if (blocking != boundary) {
        report->Add("pipeline.blocking_edge", node.id, -1,
                    StringF("edge to child %d: IsBlockingEdge=%d but "
                            "pipeline boundary=%d",
                            child.id, blocking ? 1 : 0, boundary ? 1 : 0));
      }
      if (boundary && a.pipeline_root[a.pipeline_of_node[child.id]] !=
                          child.id) {
        report->Add("pipeline.boundary_root", child.id, -1,
                    "blocked child is not the root of its pipeline");
      }
    }
  });

  // NL-inner bookkeeping: kFlagOnNljInner is set exactly when the node
  // names its enclosing join's children, and implies kFlagUnderNljInner.
  for (int id = 0; id < n; ++id) {
    const bool inner = (a.flags[id] & kFlagOnNljInner) != 0;
    const bool under = (a.flags[id] & kFlagUnderNljInner) != 0;
    const int outer_child = a.nlj_outer_child[id];
    const int inner_child = a.nlj_inner_child[id];
    if (inner != (outer_child >= 0) || inner != (inner_child >= 0) ||
        (inner && !under)) {
      report->Add("pipeline.nlj_flags", id, -1,
                  "kFlagOnNljInner, kFlagUnderNljInner and the enclosing "
                  "join's children disagree");
      continue;
    }
    if (!inner) continue;
    const int nlj = inner_child < n ? parent[inner_child] : -1;
    if (outer_child >= n || nlj < 0 ||
        plan.node(nlj).type != OpType::kNestedLoopJoin ||
        plan.node(nlj).child(0)->id != outer_child ||
        plan.node(nlj).child(1)->id != inner_child) {
      report->Add("pipeline.nlj_ref", id, -1,
                  StringF("children %d/%d are not a Nested Loops join's "
                          "outer/inner inputs",
                          outer_child, inner_child));
    } else if (a.pipeline_of_node[nlj] != a.pipeline_of_node[id]) {
      report->Add("pipeline.nlj_pipeline", id, -1,
                  "enclosing NL join lies in a different pipeline");
    }
  }
}

ValidationReport PlanValidator::Validate(const Plan& plan) const {
  ValidationReport report;
  CheckStructure(plan, &report);
  if (plan.root != nullptr) CheckAnnotations(plan, &report);
  return report;
}

ValidationReport PlanValidator::Validate(const Plan& plan,
                                         const PlanAnalysis& analysis) const {
  ValidationReport report = Validate(plan);
  if (plan.root != nullptr) CheckPipelines(plan, analysis, &report);
  return report;
}

}  // namespace lqs
