#ifndef LQS_LQS_PIPELINE_H_
#define LQS_LQS_PIPELINE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "exec/plan.h"
#include "storage/catalog.h"

namespace lqs {

/// One pipeline (maximal subtree of concurrently executing operators,
/// §3.1.1 / Figure 5).
struct PipelineInfo {
  int id = -1;
  /// Topmost node of the pipeline.
  int root_node = -1;
  /// All plan-node ids belonging to this pipeline.
  std::vector<int> nodes;
  /// Standard driver nodes: pipeline members with no same-pipeline children,
  /// excluding nodes on the inner side of a Nested Loops join (§3.1.1).
  std::vector<int> driver_nodes;
  /// Nested-loops inner-side sources, promoted to drivers when the §4.4(1)
  /// semi-blocking adjustment is enabled.
  std::vector<int> inner_driver_nodes;
  /// Pipelines directly below this one (across blocking boundaries); they
  /// complete before this pipeline's corresponding input is consumed.
  std::vector<int> child_pipelines;
};

/// Per-node catalog constants hoisted out of the per-snapshot estimation
/// path. Filled by the catalog-aware AnalyzePlan overload; everything here
/// is a pure function of (plan node, catalog), so computing it once at
/// estimator construction and never again is exact, not approximate.
struct NodeStatics {
  /// Catalog row count of the node's table; < 0 when the node reads no
  /// table or the catalog has no entry for it.
  double table_rows = -1.0;
  /// Same quantity in the convention the Appendix A bound formulas use:
  /// +infinity when unknown (an unknown table bounds nothing).
  double bound_table_rows = std::numeric_limits<double>::infinity();
  double scan_cpu_ms = 0.0;  ///< §4.6 static CPU term of a scan access path
  double scan_io_ms = 0.0;   ///< §4.6 static I/O term of a scan access path
  /// table_rows for an uncorrelated full scan (scan access path, no pushed
  /// predicate, no bitmap, not on an NL-inner side) — its total output per
  /// execution is exactly the table size — else -1.
  double full_scan_rows = -1.0;

  // --- LpBound degree-norm statics (join nodes only) ---
  // Hoisted by FillDegreeNormStatics so the LpBound bounding engine's
  // per-snapshot path reads two doubles per join side instead of chasing
  // schemas, provenance and string-keyed catalog maps (LQS_NOALLOC /
  // LQS_DETERMINISTIC discipline).
  /// Per input side (0 = outer/build, 1 = inner/probe): true when at least
  /// one equijoin key column on that side resolves through a
  /// multiplicity-non-increasing operator path to a base-table column with
  /// exact degree norms, so the ℓ∞/ℓ2 caps below soundly bound the side's
  /// join-key degree sequence.
  bool lp_side_valid[2] = {false, false};
  /// min over the side's resolved key columns of the base column's exact
  /// max frequency (ℓ∞ of the degree sequence). Using the min is sound for
  /// composite keys: a composite key's degree never exceeds any single
  /// component column's degree.
  double lp_linf[2] = {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity()};
  /// Same, for the ℓ2 norms (the Cauchy–Schwarz product bound
  /// ℓ2(outer)·ℓ2(inner) on the number of matching pairs).
  double lp_l2[2] = {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity()};
};

/// Plan-static per-node flags of the flat layout (PlanAnalysis::flags).
enum NodeFlag : uint16_t {
  /// An ancestor (Top, Merge Join, or a semi/anti Nested Loops join above
  /// its inner side) may abandon the node before end-of-stream, so
  /// "exact output" Appendix A lower bounds do not apply.
  kFlagMayStopEarly = 1u << 0,
  /// Table / clustered index / columnstore scan with no pushed predicate
  /// and no bitmap probe: Appendix A's exact-table-size rule.
  kFlagPlainScan = 1u << 1,
  /// Aggregate without group columns: one row per execution.
  kFlagScalarAggregate = 1u << 2,
  /// Exchange, Sort, Compute Scalar or Bitmap Create: emits exactly its
  /// input, so refinement copies the child's estimate (§4.4).
  kFlagCardinalityPreserving = 1u << 3,
  /// Filter or join: the §4.1 guard also requires both outcomes observed.
  /// (A scan with a pushed predicate is selective too; that is a snapshot
  /// property, tested per call.)
  kFlagSelective = 1u << 4,
  kFlagScan = 1u << 5,         ///< IsScan(op)
  kFlagColumnstore = 1u << 6,  ///< batch-mode columnstore scan (§4.7)
  kFlagOnNljInner = 1u << 7,   ///< on_nlj_inner_side
  kFlagUnderNljInner = 1u << 8,  ///< under_nlj_inner
  kFlagSeparatedBySemiBlocking = 1u << 9,  ///< separated_by_semi_blocking
  /// §4.5 two-phase progress applies: sort family, hash aggregate, hash
  /// join, eager spool.
  kFlagBlockingForProgress = 1u << 10,
};

/// Static plan decomposition shared by all estimator features.
struct PlanAnalysis {
  std::vector<PipelineInfo> pipelines;
  /// node id -> pipeline id.
  std::vector<int> pipeline_of_node;
  /// node id -> true when the path from the node down to its pipeline's
  /// driver (leaf) nodes passes through at least one semi-blocking operator
  /// (Exchange, buffered Nested Loops) — the §4.4(2) condition under which
  /// refinement scales by the immediate child's progress instead of the
  /// pipeline's driver progress.
  std::vector<bool> separated_by_semi_blocking;
  /// node id -> true when the node lies on the inner side of some Nested
  /// Loops join within its own pipeline.
  std::vector<bool> on_nlj_inner_side;
  /// node id -> id of the enclosing Nested Loops join when on its inner
  /// side, else -1 (innermost such join).
  std::vector<int> enclosing_nlj;

  // --- Hoisted traversal orders and freeze topology (all plan-static) ---
  /// Plan node ids, children before parents — the iteration order of the
  /// refinement pass, hoisted so the hot path never re-walks child pointers.
  std::vector<int> postorder;
  /// node id -> true when ANY edge on the node's path from the plan root is
  /// the inner input of a Nested Loops join — including inner sides entered
  /// in an ancestor pipeline. Such nodes can be re-bound (re-executed), so
  /// their DMV counters are not final even after `finished`; every
  /// incremental freeze is gated on this being false. Note the difference
  /// from on_nlj_inner_side, which only tracks inner sides within the
  /// node's own pipeline.
  std::vector<bool> under_nlj_inner;
  /// pipeline id -> true when no member node is under_nlj_inner: once every
  /// member reports `finished`, all counters feeding the pipeline's alpha,
  /// refined rows and bounds are final, so frozen values stay exact.
  std::vector<uint8_t> pipeline_freezable;

  // --- Hoisted §4.6 weight attribution (plan-static) ---
  // A pipeline's weight is a sum of terms. Own terms contribute the
  // operator's max(CPU, I/O); boundary terms contribute a blocking
  // operator's input-phase cost, attributed to the pipeline it temporally
  // executes with (its blocked child's pipeline, §4.5).
  /// pipeline id p -> its terms are [weight_begin[p], weight_begin[p+1])
  /// of weight_node / weight_boundary: own nodes first, then boundary terms
  /// scattered from blocking operators in parent pipelines.
  std::vector<int> weight_begin;
  std::vector<int> weight_node;
  std::vector<uint8_t> weight_boundary;
  /// pipeline id p -> [weight_dep_begin[p], weight_dep_begin[p+1]) of
  /// weight_dep_ids: sorted unique pipeline ids whose refined
  /// cardinalities feed its weight (itself included).
  std::vector<int> weight_dep_begin;
  std::vector<int> weight_dep_ids;
  /// pipeline id -> every weight dependency is freezable, so the weight is
  /// a constant once they have all finished.
  std::vector<uint8_t> weight_freezable;

  /// max(0, est_rows) per node: the N̂ seed vector, hoisted so the per-call
  /// seeding is one flat copy instead of a pointer-chasing loop.
  std::vector<double> est_seed;

  // --- Flat per-node layout (catalog-aware AnalyzePlan only) ---
  // Everything the per-snapshot estimator reads about the plan, indexed by
  // node id and walked in `postorder`, so no estimation stage touches a
  // PlanNode or the catalog (DESIGN.md §11).
  std::vector<OpType> op;
  std::vector<JoinKind> join_kind;
  /// node id i -> its children are child_ids[child_begin[i] ..
  /// child_begin[i+1]), in child order.
  std::vector<int> child_begin;
  std::vector<int> child_ids;
  /// Raw showplan estimate per node (est_seed is its max(0, .)).
  std::vector<double> est_rows;
  /// top_n as a double; +infinity when unset.
  std::vector<double> top_n;
  /// constant_rows.size() of a Constant Scan (0 elsewhere).
  std::vector<double> constant_row_count;
  /// max(1, projections.size()) of a Compute Scalar (1 elsewhere).
  std::vector<double> projection_count;
  /// NodeFlag bits per node.
  std::vector<uint16_t> flags;
  /// node id -> outer (child 0) and inner (child 1) ids of enclosing_nlj,
  /// or -1 off an NL inner side.
  std::vector<int> nlj_outer_child;
  std::vector<int> nlj_inner_child;
  /// node id i -> mult_chain[mult_begin[i] .. mult_begin[i+1]): the outer
  /// child ids of every Nested Loops join whose inner side contains i,
  /// outermost join first. Folding their upper bounds top-down as
  /// m = max(1, ub) * (m == inf ? 1 : m) from m = 1 yields i's rebind
  /// multiplier, with the same operations in the same order as a recursive
  /// descent that multiplies at each NL inner edge.
  std::vector<int> mult_begin;
  std::vector<int> mult_chain;
  /// pipeline id p -> standard drivers driver_ids[driver_begin[p] ..
  /// driver_begin[p+1]) and §4.4(1) inner drivers inner_driver_ids[
  /// inner_driver_begin[p] .. inner_driver_begin[p+1]), as in PipelineInfo.
  std::vector<int> driver_begin;
  std::vector<int> driver_ids;
  std::vector<int> inner_driver_begin;
  std::vector<int> inner_driver_ids;
  /// pipeline id -> its root node (PipelineInfo::root_node).
  std::vector<int> pipeline_root;

  /// Catalog statics per node (catalog-aware AnalyzePlan only; an absent
  /// catalog leaves every table unknown).
  std::vector<NodeStatics> node_statics;

  int pipeline_count() const { return static_cast<int>(pipelines.size()); }
};

/// Decomposes the plan into pipelines and computes the per-node flags above.
///
/// Blocking boundaries (edges where a new pipeline starts below):
///  - the input edge of Sort / Top N Sort / Distinct Sort / Hash Aggregate /
///    Eager Spool,
///  - the build (first) input edge of a Hash Join.
/// All other edges — including both Nested Loops inputs, Merge Join inputs
/// and Exchange inputs — stay within the parent's pipeline.
PlanAnalysis AnalyzePlan(const Plan& plan);

/// Catalog-aware overload, the one the estimator and the bounds engines
/// read: additionally fills the flat per-node layout and hoists the
/// per-node catalog constants (table sizes, scan cost terms, LpBound degree
/// norms) into node_statics, so the per-snapshot path never touches a
/// PlanNode or the catalog's string-keyed maps. `catalog` may be null, in
/// which case every table is unknown.
PlanAnalysis AnalyzePlan(const Plan& plan, const Catalog* catalog);

/// True when the edge from `parent` to its `child_index`-th child is a
/// blocking boundary per the rules above.
bool IsBlockingEdge(const PlanNode& parent, size_t child_index);

}  // namespace lqs

#endif  // LQS_LQS_PIPELINE_H_
