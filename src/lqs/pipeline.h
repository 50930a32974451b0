#ifndef LQS_LQS_PIPELINE_H_
#define LQS_LQS_PIPELINE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "exec/plan.h"
#include "storage/catalog.h"

namespace lqs {

/// Per-node catalog constants hoisted out of the per-snapshot estimation
/// path. Filled by AnalyzePlan; everything here is a pure function of
/// (plan node, catalog), so computing it once at estimator construction and
/// never again is exact, not approximate.
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
  /// On the inner side of some Nested Loops join within the node's own
  /// pipeline (nlj_outer_child / nlj_inner_child name the innermost one).
  kFlagOnNljInner = 1u << 7,
  /// ANY edge on the node's path from the plan root is the inner input of a
  /// Nested Loops join — including inner sides entered in an ancestor
  /// pipeline. Such nodes can be re-bound (re-executed), so their DMV
  /// counters are not final even after `finished`; every incremental freeze
  /// is gated on this being clear.
  kFlagUnderNljInner = 1u << 8,
  /// The path from the node down to its pipeline's driver (leaf) nodes
  /// passes through at least one semi-blocking operator (Exchange, buffered
  /// Nested Loops) — the §4.4(2) condition under which refinement scales by
  /// the immediate child's progress instead of the pipeline's driver
  /// progress.
  kFlagSeparatedBySemiBlocking = 1u << 9,
  /// §4.5 two-phase progress applies: sort family, hash aggregate, hash
  /// join, eager spool.
  kFlagBlockingForProgress = 1u << 10,
};

/// Static plan decomposition shared by all estimator features: the one
/// plan layout. Everything the per-snapshot estimator and the bounds
/// engines read about the plan lives here in flat arrays, indexed by node or
/// pipeline id and walked in `postorder`, so no estimation stage touches a
/// PlanNode or the catalog (DESIGN.md §11). A span field pair `x_begin` /
/// `x_ids` stores entity e's list as x_ids[x_begin[e] .. x_begin[e+1]).
struct PlanAnalysis {
  // --- Pipeline decomposition (§3.1.1 / Figure 5) ---
  /// node id -> pipeline id. Pipelines are numbered parent before child;
  /// pipeline 0 holds the plan root.
  std::vector<int> pipeline_of_node;
  /// pipeline id -> its topmost node.
  std::vector<int> pipeline_root;
  /// pipeline id -> its member nodes in walk order (a node before its
  /// same-pipeline children), the order §4.6 sums own weight terms in.
  std::vector<int> pipeline_node_begin;
  std::vector<int> pipeline_nodes;
  /// pipeline id -> standard drivers: members with no same-pipeline
  /// children, excluding nodes on a Nested Loops inner side (§3.1.1).
  std::vector<int> driver_begin;
  std::vector<int> driver_ids;
  /// pipeline id -> Nested Loops inner-side sources, promoted to drivers
  /// when the §4.4(1) semi-blocking adjustment is enabled.
  std::vector<int> inner_driver_begin;
  std::vector<int> inner_driver_ids;
  /// pipeline id -> pipelines directly below it (across blocking
  /// boundaries); they complete before its corresponding input is consumed.
  std::vector<int> child_pipeline_begin;
  std::vector<int> child_pipeline_ids;

  // --- Hoisted traversal orders and freeze topology (all plan-static) ---
  /// Plan node ids, children before parents — the iteration order of the
  /// refinement pass, hoisted so the hot path never re-walks child pointers.
  std::vector<int> postorder;
  /// pipeline id -> true when no member node has kFlagUnderNljInner: once
  /// every member reports `finished`, all counters feeding the pipeline's
  /// alpha, refined rows and bounds are final, so frozen values stay exact.
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

  // --- Per-node operator layout ---
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
  /// node id -> outer (child 0) and inner (child 1) ids of the innermost
  /// same-pipeline Nested Loops join whose inner side holds the node, or -1
  /// off an NL inner side (exactly when kFlagOnNljInner is clear).
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

  /// Catalog statics per node (an absent catalog leaves every table
  /// unknown).
  std::vector<NodeStatics> node_statics;

  int pipeline_count() const {
    return static_cast<int>(pipeline_root.size());
  }
};

/// Decomposes the plan into pipelines and fills every PlanAnalysis field,
/// hoisting the per-node catalog constants (table sizes, scan cost terms,
/// LpBound degree norms) into node_statics, so the per-snapshot path never
/// touches a PlanNode or the catalog's string-keyed maps. `catalog` may be
/// null, in which case every table is unknown.
///
/// Blocking boundaries (edges where a new pipeline starts below):
///  - the input edge of Sort / Top N Sort / Distinct Sort / Hash Aggregate /
///    Eager Spool,
///  - the build (first) input edge of a Hash Join.
/// All other edges — including both Nested Loops inputs, Merge Join inputs
/// and Exchange inputs — stay within the parent's pipeline.
PlanAnalysis AnalyzePlan(const Plan& plan, const Catalog* catalog);

/// True when the edge from `parent` to its `child_index`-th child is a
/// blocking boundary per the rules above.
bool IsBlockingEdge(const PlanNode& parent, size_t child_index);

}  // namespace lqs

#endif  // LQS_LQS_PIPELINE_H_
