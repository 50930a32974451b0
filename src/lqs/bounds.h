#ifndef LQS_LQS_BOUNDS_H_
#define LQS_LQS_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "common/deterministic.h"
#include "common/noalloc.h"
#include "dmv/query_profile.h"
#include "exec/plan.h"
#include "lqs/pipeline.h"
#include "storage/catalog.h"

namespace lqs {

/// Worst-case lower/upper bounds on each operator's total GetNext count,
/// derived online from algebraic operator properties (§4.2, Appendix A).
struct CardinalityBounds {
  std::vector<double> lower;  ///< per node id
  std::vector<double> upper;  ///< per node id; may be +infinity (spools)

  /// Clamps a cardinality estimate for `node_id` into [lower, upper].
  /// Deterministic under malformed inputs: a NaN estimate clamps to the
  /// lower bound (the observed count is the only trustworthy value), and an
  /// inverted range (lower > upper — possible only if an engine produced an
  /// unsound interval) collapses to the lower bound rather than hitting
  /// std::clamp's undefined behaviour.
  double Clamp(int node_id, double estimate) const;
};

/// Which bound derivation(s) the bounding pipeline runs per snapshot.
/// Selected by EstimatorOptions::bounds_engine (monitor cache-key bits
/// 13-14), so every engine choice is a distinct cached estimator.
enum class BoundsEngineKind : uint8_t {
  /// The paper's Appendix A algebraic derivation (the default; output is
  /// bit-identical to the pre-pipeline monolithic path).
  kAppendixA = 0,
  /// LpBound (arXiv:2502.05912) pessimistic upper bounds from exact
  /// degree-sequence ℓ∞/ℓ2 norms; lower bounds degrade to the observed K.
  kLpBound = 1,
  /// Both engines, intersected per node: max of lowers, min of uppers,
  /// with an inverted intersection resolving to the Appendix-A interval.
  kIntersect = 2,
};

/// Stable display name: "appendix_a", "lp_bound", "intersect".
const char* BoundsEngineName(BoundsEngineKind kind);

/// Per-call observability counters of the bounds-engine pipeline.
struct BoundsEngineStats {
  /// Appendix-A nodes whose coefficients were derived (frozen nodes skip).
  uint64_t derivations = 0;
  /// Nodes where the LpBound upper bound strictly tightened Appendix A's
  /// at intersection.
  uint64_t lp_tightenings = 0;
  /// Nodes whose intersection inverted (lower > upper) and fell back to
  /// the Appendix-A interval.
  uint64_t intersection_inversions = 0;
};

/// The Appendix A bounds for every node given the current DMV snapshot:
/// ComputeBoundsPipelineInto with kAppendixA over a freshly built
/// AnalyzePlan(plan, &catalog). Builds the plan analysis on every call: a
/// convenience for tests and one-off checks, not for the per-snapshot path.
CardinalityBounds ComputeBounds(const Plan& plan, const Catalog& catalog,
                                const ProfileSnapshot& snapshot);

/// The one per-snapshot bounds entry point: runs the engine(s) selected by
/// `kind` in a single postorder pass over the flat layout of `analysis`
/// (the AnalyzePlan result for `plan`, which carries the hoisted table
/// sizes and degree norms) and writes the per-node intervals into `out`.
///  - kAppendixA: children's bounds compose bottom-up, scaled on NL inner
///    sides by the outer side's upper bound; end-of-stream is exact.
///  - kLpBound: lower = K_i; an equijoin's upper is the min over the valid
///    caps UB_outer*UB_inner, UB_inner*ℓ∞(outer keys), UB_outer*ℓ∞(inner
///    keys) and ℓ2(outer)*ℓ2(inner) (Cauchy–Schwarz). Subtrees that may
///    re-execute (rebind multiplier > 1) are declined with upper = +inf:
///    the norms cap a single execution.
///  - kIntersect: Appendix A into `out`, LpBound into `scratch`, then per
///    node max of lowers / min of uppers; an inverted intersection keeps
///    the Appendix-A interval and counts stats->intersection_inversions.
/// Outputs are resized, never cleared (every node is written), so reused
/// buffers allocate nothing after the first call.
///
/// `frozen` (optional, per node id) marks operators that are `finished` in
/// THIS snapshot and not under any NL-inner edge: their bounds are exactly
/// K_i, so derivation is skipped. The mask must come from the snapshot
/// being estimated, never an earlier one, which keeps out-of-order replay
/// exact. `stats` (optional) accumulates the counters; `derivations`
/// counts Appendix A nodes whose coefficients were derived (kLpBound
/// leaves it untouched). `catalog` and `hoisted` are unused and stay in
/// the parameter list so existing callers keep compiling.
///
/// LQS_NOALLOC + LQS_DETERMINISTIC: per-snapshot hot path of every bounding
/// estimator configuration (both statically checked by tools/lqs_verify).
LQS_NOALLOC LQS_DETERMINISTIC void ComputeBoundsPipelineInto(
    BoundsEngineKind kind, const Plan& plan, const Catalog& catalog,
    const ProfileSnapshot& snapshot, const PlanAnalysis* hoisted,
    const PlanAnalysis& analysis, const std::vector<uint8_t>* frozen,
    CardinalityBounds* out, CardinalityBounds* scratch,
    BoundsEngineStats* stats);

}  // namespace lqs

#endif  // LQS_LQS_BOUNDS_H_
