#include "lqs/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lqs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 0 * inf would be NaN under IEEE; in a cardinality product a zero factor
/// means an empty side, so the product is soundly zero.
double SafeMul(double a, double b) {
  if (a == 0.0 || b == 0.0) return 0.0;  // lint:allow-float-eq
  return a * b;
}

/// Rebind multiplier of node `id` under one engine: the top-down fold of
/// the engine's own upper bounds of every enclosing NL join's outer child
/// (PlanAnalysis::mult_chain). 1 at top level.
inline double Multiplier(const PlanAnalysis& a, const std::vector<double>& ub,
                         int id) {
  double m = 1.0;
  for (int j = a.mult_begin[id]; j < a.mult_begin[id + 1]; ++j) {
    m = std::max(1.0, ub[a.mult_chain[j]]) * (m == kInf ? 1.0 : m);
  }
  return m;
}

/// Appendix A interval of one node whose children's intervals are final.
/// `inner_multiplier`: upper bound on how many times this subtree will
/// execute (UB of the enclosing NL joins' outer sides); 1 at top level.
void AppendixABound(const PlanAnalysis& a, const ProfileSnapshot& snap,
                    int id, double inner_multiplier, CardinalityBounds* out) {
  const OperatorProfile& prof = snap.operators[id];
  const double k = static_cast<double>(prof.row_count);
  const uint16_t flags = a.flags[id];
  const int* child = a.child_ids.data() + a.child_begin[id];
  auto child_ub = [&](int i) { return out->upper[child[i]]; };
  auto child_k = [&](int i) {
    return static_cast<double>(snap.operators[child[i]].row_count);
  };
  double lb = k;
  double ub = kInf;

  switch (a.op[id]) {
    // --- Access paths ---
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kColumnstoreScan: {
      const double rows = a.node_statics[id].bound_table_rows;
      if ((flags & kFlagPlainScan) != 0) {
        // Appendix A: a full scan outputs exactly the table size (per
        // execution); across unknown executions only K is a safe LB.
        lb = inner_multiplier <= 1.0 ? rows : k;
        ub = rows * inner_multiplier;
      } else {
        // With storage-engine filters the output is unknown, but it cannot
        // exceed the rows not yet examined plus those already returned.
        // Rows FULLY examined: exclude the page/segment currently in
        // flight, whose rows may still be emitted.
        double done_pages =
            prof.logical_read_count > 0
                ? static_cast<double>(prof.logical_read_count - 1)
                : 0.0;
        double examined =
            std::min(rows, done_pages * static_cast<double>(kRowsPerPage));
        if ((flags & kFlagColumnstore) != 0 && prof.segment_total_count > 0) {
          double done_segments =
              prof.segment_read_count > 0
                  ? static_cast<double>(prof.segment_read_count - 1)
                  : 0.0;
          examined = rows * done_segments /
                     static_cast<double>(prof.segment_total_count);
        }
        ub = k + (rows - examined) * inner_multiplier;
        ub = std::max(ub, k);
      }
      break;
    }
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexSeek:
    case OpType::kIndexScan:
      lb = k;
      // "TableSize, or TableSize * UB_{i-1}"
      ub = a.node_statics[id].bound_table_rows * inner_multiplier;
      break;
    case OpType::kRidLookup:
      lb = k;
      ub = 1.0 * inner_multiplier;  // one row per execution
      break;
    case OpType::kConstantScan:
      lb = a.constant_row_count[id];
      ub = lb * std::max(1.0, inner_multiplier);
      break;

    // --- Joins (Appendix A): LB = K_i;
    //     UB = (UB_stream - K_stream + 1) * UB_other + K_i, where the
    //     "stream" is the input whose future rows drive future output:
    //     the probe side for Hash Match, the outer side for Nested
    //     Loops / Merge Join. The +1 covers the stream row currently
    //     being processed.
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin: {
      lb = k;
      const bool hash = a.op[id] == OpType::kHashJoin;
      const int stream = hash ? 1 : 0;
      const int other = 1 - stream;
      const JoinKind kind = a.join_kind[id];
      double remaining =
          std::max(0.0, child_ub(stream) - child_k(stream)) + 1.0;
      ub = remaining * std::max(1.0, child_ub(other)) + k;
      // Kinds that additionally emit preserved/unmatched build rows after
      // the probe completes.
      if (hash &&
          (kind == JoinKind::kLeftOuter || kind == JoinKind::kFullOuter ||
           kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti)) {
        ub += child_ub(0);
      }
      // Semi/anti variants cannot exceed the preserved side's UB either.
      switch (kind) {
        case JoinKind::kLeftSemi:
        case JoinKind::kLeftAnti:
          ub = std::min(ub, child_ub(0));
          break;
        case JoinKind::kRightSemi:
          ub = std::min(ub, child_ub(1));
          break;
        default:
          break;
      }
      break;
    }

    case OpType::kConcatenation: {
      lb = 0;
      ub = 0;
      const int num_children = a.child_begin[id + 1] - a.child_begin[id];
      for (int i = 0; i < num_children; ++i) {
        lb += child_k(i);
        ub += child_ub(i);
      }
      lb = std::max(lb, k);
      break;
    }

    // --- Filters / segment:
    //     LB = K_i; UB = (UB_{i-1} - K_{i-1}) + K_i ---
    case OpType::kFilter:
    case OpType::kSegment:
      lb = k;
      ub = std::max(0.0, child_ub(0) - child_k(0)) + k;
      break;

    // Distinct Sort is listed with the filter formula in Table 1, but it
    // BLOCKS: consumed rows buffer invisibly through the sort phase and
    // only then deduplicate, so (UB_{i-1} - K_{i-1}) + K_i collapses to
    // K_i the moment the input is exhausted — unsound until the sort
    // starts emitting. Like the blocking aggregate below, only the input
    // cardinality bounds the output.
    case OpType::kDistinctSort:
      lb = k;
      ub = child_ub(0);
      break;

    // --- Cardinality-preserving: LB = K_{i-1}; UB = UB_{i-1} ---
    // Exchanges are listed with the filter formula in the paper's Table 1,
    // but they BUFFER rows (§4.4): consumed-but-buffered input will still
    // be emitted, so the sound bounds are those of a cardinality-
    // preserving operator.
    case OpType::kSort:
    case OpType::kComputeScalar:
    case OpType::kBitmapCreate:
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
      lb = std::max(k, child_k(0));
      ub = child_ub(0);
      break;

    case OpType::kTop:
    case OpType::kTopNSort: {
      const double n = a.top_n[id];
      lb = std::min(n, std::max(k, child_k(0)));
      ub = std::min(n * std::max(1.0, inner_multiplier), child_ub(0));
      break;
    }

    // --- Aggregates: LB = max(1, K_i); UB = remaining input + K_i ---
    case OpType::kHashAggregate:
    case OpType::kStreamAggregate:
      if ((flags & kFlagScalarAggregate) != 0) {
        // Scalar aggregate: exactly one row per execution.
        lb = std::max(k, 1.0);
        ub = std::max(1.0, inner_multiplier);
      } else if (a.op[id] == OpType::kStreamAggregate) {
        lb = k;  // a group-by over empty input yields zero rows
        // Pipelined aggregate: every consumed input row belongs to an
        // emitted group or the current one; each remaining input row can
        // open at most one new group.
        ub = std::max(0.0, child_ub(0) - child_k(0)) + std::max(k, 1.0) +
             1.0;
        ub = std::min(ub, child_ub(0));
      } else {
        // Blocking aggregate: groups accumulate invisibly during the
        // input phase, so only the input cardinality bounds the output.
        lb = k;  // a group-by over empty input yields zero rows
        ub = child_ub(0);
      }
      break;

    // --- Spools: unbounded above across rebinds ---
    case OpType::kEagerSpool:
    case OpType::kLazySpool:
      lb = k;
      ub = inner_multiplier > 1.0 || inner_multiplier == kInf ? kInf
                                                              : child_ub(0);
      break;

    case OpType::kNumOpTypes:
      break;
  }

  // Under a limiting ancestor the subtree may be abandoned before
  // end-of-stream: exact-output lower bounds do not hold, only K does.
  if ((flags & kFlagMayStopEarly) != 0) lb = k;

  // An operator that has reached end-of-stream (and cannot be re-bound
  // again once the query's remaining executions are done) has exact
  // cardinality. Only safe outside NL inners, where no further rebinds
  // can occur.
  if (prof.finished && inner_multiplier <= 1.0) {
    lb = k;
    ub = k;
  }

  if (ub < lb) ub = lb;
  out->lower[id] = lb;
  out->upper[id] = ub;
}

/// LpBound upper bound of one node for a single execution, given its
/// children's final LpBound uppers in `ub`.
double LpSingleExecutionUpper(const PlanAnalysis& a,
                              const std::vector<double>& ub, int id) {
  const int* child = a.child_ids.data() + a.child_begin[id];
  auto child_ub = [&](int i) { return ub[child[i]]; };
  switch (a.op[id]) {
    // --- Access paths: at most the table (ℓ1 of any degree sequence). ---
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexScan:
    case OpType::kIndexSeek:
    case OpType::kColumnstoreScan:
      return a.node_statics[id].bound_table_rows;
    case OpType::kRidLookup:
      return 1.0;
    case OpType::kConstantScan:
      return a.constant_row_count[id];

    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin: {
      const double ub0 = child_ub(0);
      const double ub1 = child_ub(1);
      const NodeStatics& s = a.node_statics[id];
      // Matching-pair caps: cross product, one ℓ∞ cap per side whose
      // key degrees resolved to exact base-column norms, and the
      // Cauchy–Schwarz ℓ2 product when both sides resolved.
      double pairs = SafeMul(ub0, ub1);
      if (s.lp_side_valid[0]) pairs = std::min(pairs, SafeMul(ub1, s.lp_linf[0]));
      if (s.lp_side_valid[1]) pairs = std::min(pairs, SafeMul(ub0, s.lp_linf[1]));
      if (s.lp_side_valid[0] && s.lp_side_valid[1]) {
        pairs = std::min(pairs, SafeMul(s.lp_l2[0], s.lp_l2[1]));
      }
      // Output per join kind: matched pairs, plus preserved rows for
      // outer kinds; semi/anti kinds emit preserved-side rows at most
      // once (and an anti join's output is not bounded by pairs at all).
      switch (a.join_kind[id]) {
        case JoinKind::kInner:
          return pairs;
        case JoinKind::kLeftOuter:
          return pairs + ub0;
        case JoinKind::kRightOuter:
          return pairs + ub1;
        case JoinKind::kFullOuter:
          return pairs + ub0 + ub1;
        case JoinKind::kLeftSemi:
          return std::min(pairs, ub0);
        case JoinKind::kLeftAnti:
          return ub0;
        case JoinKind::kRightSemi:
          return std::min(pairs, ub1);
      }
      return kInf;
    }

    case OpType::kConcatenation: {
      double sum = 0;
      const int num_children = a.child_begin[id + 1] - a.child_begin[id];
      for (int i = 0; i < num_children; ++i) sum += child_ub(i);
      return sum;
    }

    // --- Multiplicity-non-increasing single-input operators. ---
    case OpType::kFilter:
    case OpType::kSegment:
    case OpType::kDistinctSort:
    case OpType::kSort:
    case OpType::kComputeScalar:
    case OpType::kBitmapCreate:
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
    case OpType::kEagerSpool:
    case OpType::kLazySpool:
      return child_ub(0);

    case OpType::kTop:
    case OpType::kTopNSort:
      return std::min(a.top_n[id], child_ub(0));

    case OpType::kHashAggregate:
    case OpType::kStreamAggregate:
      if ((a.flags[id] & kFlagScalarAggregate) != 0) return 1.0;
      return child_ub(0);  // at most one row per input row

    case OpType::kNumOpTypes:
      break;
  }
  return kInf;
}

/// The one bounds pass: a single postorder loop that derives each node's
/// Appendix A interval into `appendix` and its LpBound interval into `lp`
/// (either may be null to skip that engine). Every node is written by each
/// engine, so the outputs are only resized, never cleared.
LQS_NOALLOC LQS_DETERMINISTIC void BoundsPass(
    const Plan& plan, const ProfileSnapshot& snapshot, const PlanAnalysis& a,
    const std::vector<uint8_t>* frozen, CardinalityBounds* appendix,
    CardinalityBounds* lp, uint64_t* derivations) {
  const size_t n = static_cast<size_t>(plan.size());
  for (CardinalityBounds* out : {appendix, lp}) {
    if (out == nullptr) continue;
    // LQS_ALLOC_OK("sized to the plan on first use; a no-op after")
    out->lower.resize(n);
    // LQS_ALLOC_OK("sized to the plan on first use; a no-op after")
    out->upper.resize(n);
  }
  uint64_t derived = 0;
  for (const int id : a.postorder) {
    const OperatorProfile& prof = snapshot.operators[id];
    const double k = static_cast<double>(prof.row_count);
    // Finished in this snapshot and not under any NL-inner edge: both
    // derivations would end at upper = K_i regardless (the end-of-stream
    // clamp always fires, since the multiplier is 1 on every such path).
    const bool is_frozen = frozen != nullptr && (*frozen)[id] != 0;
    if (appendix != nullptr) {
      if (is_frozen) {
        appendix->lower[id] = k;
        appendix->upper[id] = k;
      } else {
        ++derived;
        AppendixABound(a, snapshot, id, Multiplier(a, appendix->upper, id),
                       appendix);
      }
    }
    if (lp != nullptr) {
      // The observed count is the engine's only lower bound: always sound,
      // and it guarantees intersection with Appendix A (whose lower bound
      // is >= K everywhere) can never invert on the lower side.
      lp->lower[id] = k;
      if (is_frozen) {
        lp->upper[id] = k;
        continue;
      }
      const double m = Multiplier(a, lp->upper, id);
      double ub = kInf;
      if (m <= 1.0) {
        // The norms cap a single execution; a subtree that may rebind is
        // declined and left to Appendix A via the intersection. Outside NL
        // inners, end-of-stream is exact.
        ub = prof.finished ? k : LpSingleExecutionUpper(a, lp->upper, id);
      }
      lp->upper[id] = std::max(ub, k);
    }
  }
  if (derivations != nullptr) *derivations += derived;
}

}  // namespace

double CardinalityBounds::Clamp(int node_id, double estimate) const {
  const double lo = lower[node_id];
  const double hi = upper[node_id];
  // std::clamp propagates NaN estimates and is undefined for an inverted
  // range; both resolve deterministically to the lower bound — the observed
  // count, the one value a malformed input cannot poison.
  if (!(lo <= hi)) return lo;
  if (std::isnan(estimate)) return lo;
  return std::clamp(estimate, lo, hi);
}

CardinalityBounds ComputeBounds(const Plan& plan, const Catalog& catalog,
                                const ProfileSnapshot& snapshot) {
  const PlanAnalysis analysis = AnalyzePlan(plan, &catalog);
  CardinalityBounds bounds;
  ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, plan, catalog,
                            snapshot, nullptr, analysis, nullptr, &bounds,
                            nullptr, nullptr);
  return bounds;
}

const char* BoundsEngineName(BoundsEngineKind kind) {
  switch (kind) {
    case BoundsEngineKind::kAppendixA:
      return "appendix_a";
    case BoundsEngineKind::kLpBound:
      return "lp_bound";
    case BoundsEngineKind::kIntersect:
      return "intersect";
  }
  return "unknown";
}

void ComputeBoundsPipelineInto(BoundsEngineKind kind, const Plan& plan,
                               const Catalog& /*catalog*/,
                               const ProfileSnapshot& snapshot,
                               const PlanAnalysis* /*hoisted*/,
                               const PlanAnalysis& analysis,
                               const std::vector<uint8_t>* frozen,
                               CardinalityBounds* out,
                               CardinalityBounds* scratch,
                               BoundsEngineStats* stats) {
  uint64_t* derivations = stats != nullptr ? &stats->derivations : nullptr;
  switch (kind) {
    case BoundsEngineKind::kAppendixA:
      BoundsPass(plan, snapshot, analysis, frozen, out, nullptr, derivations);
      return;
    case BoundsEngineKind::kLpBound:
      BoundsPass(plan, snapshot, analysis, frozen, nullptr, out, nullptr);
      return;
    case BoundsEngineKind::kIntersect:
      break;
  }
  BoundsPass(plan, snapshot, analysis, frozen, out, scratch, derivations);
  for (int id = 0; id < plan.size(); ++id) {
    const double a_lo = out->lower[id];
    const double a_up = out->upper[id];
    const double lo = std::max(a_lo, scratch->lower[id]);
    const double up = std::min(a_up, scratch->upper[id]);
    if (std::isnan(lo) || std::isnan(up) || lo > up) {
      // One engine produced an interval disjoint from the other's — an
      // unsoundness symptom. Resolve deterministically to the Appendix-A
      // interval (already in `out`) and surface the event.
      if (stats != nullptr) ++stats->intersection_inversions;
      continue;
    }
    if (stats != nullptr && up < a_up) ++stats->lp_tightenings;
    out->lower[id] = lo;
    out->upper[id] = up;
  }
}

}  // namespace lqs
