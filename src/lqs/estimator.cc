#include "lqs/estimator.h"

#include "exec/cost_constants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lqs {

namespace {

double K(const ProfileSnapshot& snap, int id) {
  return static_cast<double>(snap.operators[id].row_count);
}

/// Executions of a node so far (NL inner sides): first Open plus rebinds.
double Executions(const ProfileSnapshot& snap, int id) {
  const OperatorProfile& p = snap.operators[id];
  return static_cast<double>(p.rebind_count) + (p.opened ? 1.0 : 0.0);
}

/// §4.3/§4.7-aware progress of driver node `d`: fills (k, n) such that k/n
/// is the driver's progress contribution.
LQS_NOALLOC LQS_DETERMINISTIC inline void DriverShare(
    const PlanAnalysis& a, const EstimatorOptions& options,
    const ProfileSnapshot& snapshot, int d, const std::vector<double>& n_hat,
    double* k, double* n) {
  const OperatorProfile& prof = snapshot.operators[d];
  const uint16_t flags = a.flags[d];
  const bool inner = (flags & kFlagOnNljInner) != 0;
  if (prof.finished && !inner) {
    *k = 1.0;
    *n = 1.0;
  } else if ((flags & kFlagColumnstore) != 0 && options.batch_mode_segments &&
             prof.segment_total_count > 0) {
    // §4.7: batch-mode scans progress by segments processed.
    *k = static_cast<double>(prof.segment_read_count);
    *n = static_cast<double>(prof.segment_total_count);
  } else if ((flags & kFlagScan) != 0 && prof.has_pushed_predicate &&
             options.storage_predicate_io && prof.total_pages > 0 && !inner) {
    // §4.3: scans with storage-engine predicates progress by I/O fraction —
    // their output cardinality is unreliable, but the pages they must
    // touch are known exactly.
    *k = static_cast<double>(prof.logical_read_count);
    *n = static_cast<double>(prof.total_pages);
  } else if (a.node_statics[d].full_scan_rows > 0) {
    // Plain full scans: total known exactly from the catalog.
    *k = static_cast<double>(prof.row_count);
    *n = a.node_statics[d].full_scan_rows;
  } else {
    // Everything else (seeks, blocking-operator outputs, constant scans,
    // NL-inner drivers): use the current best cardinality estimate.
    *k = static_cast<double>(prof.row_count);
    *n = std::max(1.0, n_hat[d]);
  }
}

}  // namespace

EstimatorOptions EstimatorOptions::TotalGetNext() {
  EstimatorOptions o;
  o.use_driver_nodes = false;
  o.refine_cardinality = false;
  o.bound_cardinality = false;
  o.semi_blocking_adjust = false;
  o.two_phase_blocking = false;
  o.use_weights = false;
  o.storage_predicate_io = false;
  o.batch_mode_segments = false;
  return o;
}

EstimatorOptions EstimatorOptions::BoundingOnly() {
  EstimatorOptions o = TotalGetNext();
  o.bound_cardinality = true;
  return o;
}

EstimatorOptions EstimatorOptions::DriverNodeRefined() {
  EstimatorOptions o;
  o.use_driver_nodes = true;
  o.refine_cardinality = true;
  o.bound_cardinality = true;
  o.semi_blocking_adjust = true;
  o.two_phase_blocking = false;
  o.use_weights = false;
  o.storage_predicate_io = true;
  o.batch_mode_segments = true;
  return o;
}

EstimatorOptions EstimatorOptions::Lqs() {
  EstimatorOptions o;  // defaults are the full configuration
  return o;
}

const char* EstimatorOptions::PresetName(int index) {
  static constexpr const char* kNames[kPresetCount] = {"tgn", "bounding",
                                                       "refined", "lqs"};
  if (index < 0 || index >= kPresetCount) {
    std::fprintf(stderr,
                 "EstimatorOptions::PresetName: index %d out of range "
                 "[0, %d)\n",
                 index, kPresetCount);
    std::abort();
  }
  return kNames[index];
}

EstimatorOptions EstimatorOptions::PresetByIndex(int index) {
  switch (index) {
    case 0: return TotalGetNext();
    case 1: return BoundingOnly();
    case 2: return DriverNodeRefined();
    case 3: return Lqs();
    default: break;
  }
  std::fprintf(stderr,
               "EstimatorOptions::PresetByIndex: index %d out of range "
               "[0, %d)\n",
               index, kPresetCount);
  std::abort();
}

bool EstimatorOptions::PresetFromName(std::string_view name,
                                      EstimatorOptions* out) {
  for (int i = 0; i < kPresetCount; ++i) {
    if (name == PresetName(i)) {
      *out = PresetByIndex(i);
      return true;
    }
  }
  // "<preset>_lp": the base preset with the LpBound-intersected bounding
  // engine (see EstimatorOptions::bounds_engine).
  constexpr std::string_view kLpSuffix = "_lp";
  if (name.size() > kLpSuffix.size() &&
      name.substr(name.size() - kLpSuffix.size()) == kLpSuffix) {
    EstimatorOptions base;
    if (PresetFromName(name.substr(0, name.size() - kLpSuffix.size()),
                       &base)) {
      base.bounds_engine = BoundsEngineKind::kIntersect;
      *out = base;
      return true;
    }
  }
  return false;
}

uint64_t EstimatorOptions::PackBits() const {
  uint64_t bits = 0;
  int shift = 0;
  for (bool flag :
       {use_driver_nodes, refine_cardinality, bound_cardinality,
        semi_blocking_adjust, two_phase_blocking, use_weights,
        critical_path_only, storage_predicate_io, batch_mode_segments,
        interpolate_refinement, propagate_refinement, incremental}) {
    if (flag) bits |= uint64_t{1} << shift;
    ++shift;
  }
  // Bits 12-13: the bounds-engine selector (three engine kinds).
  bits |= static_cast<uint64_t>(bounds_engine) << 12;
  return bits | (refine_min_rows << 16);
}

ProgressEstimator::ProgressEstimator(const Plan* plan, const Catalog* catalog,
                                     EstimatorOptions options)
    : plan_(plan), catalog_(catalog), options_(options),
      analysis_(AnalyzePlan(*plan, catalog)) {}

void ProgressEstimator::PrepareWorkspace(Workspace* ws) const {
  if (ws->owner == this) return;
  if (ws->owner != nullptr) {
    // One workspace per estimator per thread (see the Workspace contract):
    // a workspace bound to another estimator carries that plan's shape and
    // frozen values. Mixing plans would read caches of the wrong query —
    // abort loudly instead.
    std::fprintf(stderr,
                 "ProgressEstimator::EstimateInto: workspace is bound to a "
                 "different estimator (plan shape %zu nodes, this plan has "
                 "%d) — use one Workspace per estimator per thread\n",
                 ws->node_frozen.size(), plan_->size());
    std::abort();
  }
  const size_t n = static_cast<size_t>(plan_->size());
  const size_t np = static_cast<size_t>(analysis_.pipeline_count());
  ws->owner = this;
  ws->bounds.lower.reserve(n);  // resized by the bounds pass per call
  ws->bounds.upper.reserve(n);
  ws->lp_bounds.lower.reserve(n);  // second-engine scratch (kIntersect)
  ws->lp_bounds.upper.reserve(n);
  ws->node_frozen.assign(n, 0);
  ws->pipeline_finished.assign(np, 0);
  ws->weight_frozen.assign(np, 0);
  ws->frozen_weight.assign(np, 0.0);
  ws->on_path.assign(np, 1);
  ws->cp_best.assign(np, 0.0);
  ws->cp_best_child.assign(np, -1);
}

void ProgressEstimator::ComputeFreezeMasks(const ProfileSnapshot& snapshot,
                                           Workspace* ws) const {
  if (!options_.incremental) return;  // masks stay all-zero
  // Everything below derives from THIS snapshot only. A `finished` operator
  // outside every NL-inner side has final counters, so any snapshot that
  // shows it finished shows the same counters — frozen values computed from
  // one such snapshot are exact for all of them, in any replay order.
  const PlanAnalysis& a = analysis_;
  std::fill(ws->pipeline_finished.begin(), ws->pipeline_finished.end(), 1);
  const int n = plan_->size();
  for (int i = 0; i < n; ++i) {
    const bool finished = snapshot.operators[i].finished;
    ws->node_frozen[i] =
        finished && (a.flags[i] & kFlagUnderNljInner) == 0 ? 1 : 0;
    if (!finished) ws->pipeline_finished[a.pipeline_of_node[i]] = 0;
  }
}

void ProgressEstimator::PipelineAlphasInto(const ProfileSnapshot& snapshot,
                                           const std::vector<double>& n_hat,
                                           bool include_inner, Workspace* ws,
                                           std::vector<double>* out) const {
  const PlanAnalysis& a = analysis_;
  const bool inner_drivers = include_inner && options_.semi_blocking_adjust;
  std::vector<double>& alpha = *out;
  const int num_pipelines = a.pipeline_count();
  for (int p = 0; p < num_pipelines; ++p) {
    if (options_.incremental && ws->pipeline_finished[p] != 0 &&
        a.pipeline_freezable[p] != 0) {
      // Every member operator finished: the root-finished override below
      // would force exactly 1.0 — skip the driver loop.
      alpha[p] = 1.0;
      ws->stats.alpha_freezes++;
      continue;
    }
    double sum_k = 0;
    double sum_n = 0;
    auto add = [&](int d) {
      double k = 0;
      double n = 1;
      DriverShare(a, options_, snapshot, d, n_hat, &k, &n);
      // Normalize heterogeneous units (rows vs pages vs segments) by
      // weighting each driver by its row cardinality estimate.
      double weight = std::max(1.0, n_hat[d]);
      if (n > 0) {
        sum_k += weight * (k / n);
        sum_n += weight;
      }
    };
    for (int j = a.driver_begin[p]; j < a.driver_begin[p + 1]; ++j) {
      add(a.driver_ids[j]);
    }
    if (inner_drivers) {
      for (int j = a.inner_driver_begin[p]; j < a.inner_driver_begin[p + 1];
           ++j) {
        add(a.inner_driver_ids[j]);
      }
    }
    alpha[p] = sum_n > 0 ? std::clamp(sum_k / sum_n, 0.0, 1.0) : 0.0;
    // A pipeline whose root has finished is complete regardless of the
    // drivers' bookkeeping.
    const int root = a.pipeline_root[p];
    if (snapshot.operators[root].finished &&
        (a.flags[root] & kFlagOnNljInner) == 0) {
      alpha[p] = 1.0;
    }
  }
}

void ProgressEstimator::RefinePass(const ProfileSnapshot& snapshot,
                                   const std::vector<double>& alpha,
                                   const CardinalityBounds* bounds,
                                   std::vector<double>* n_hat) const {
  // Bottom-up (children before parents) so child refinements feed the
  // §4.4(2) immediate-child scale-up; the order is hoisted into
  // analysis_.postorder so the pass is one flat loop.
  const PlanAnalysis& a = analysis_;
  std::vector<double>& nh = *n_hat;
  for (const int id : a.postorder) {
    const OperatorProfile& prof = snapshot.operators[id];
    const double k = K(snapshot, id);
    const uint16_t flags = a.flags[id];
    const bool inner = (flags & kFlagOnNljInner) != 0;

    if (prof.finished && !inner) {
      nh[id] = std::max(1.0, k);
      continue;
    }

    // Exactly-known totals for uncorrelated full scans.
    const double scan_rows = a.node_statics[id].full_scan_rows;
    if (scan_rows >= 0) {
      nh[id] = scan_rows;
      continue;
    }

    const int* child = a.child_ids.data() + a.child_begin[id];
    const int num_children = a.child_begin[id + 1] - a.child_begin[id];
    double estimate = a.est_rows[id];  // showplan default
    bool locally_refined = false;      // estimate replaced by observation

    if (options_.refine_cardinality) {
      const uint64_t min_rows = options_.refine_min_rows;
      // Cardinality-preserving operators emit exactly their input: their
      // best estimate IS the child's refined estimate. Scaling their own
      // K by driver progress is wrong for a buffering exchange (its K
      // deliberately lags, §4.4) and redundant for sorts.
      if (!inner && (flags & kFlagCardinalityPreserving) != 0) {
        nh[id] = std::max(k, nh[child[0]]);
        continue;
      }
      if (inner && options_.semi_blocking_adjust) {
        // §4.1 (nested loops) + §4.4(3): scale K_i by the inverse of the
        // fraction of outer rows the join has actually PROCESSED.
        // Executions of the join's direct inner child count processed
        // outer rows exactly, which adjusts for rows merely buffered on
        // the outer side; the outer child's refined total supplies the
        // denominator. Nodes that are not re-executed per outer row
        // (spool children) are handled correctly too: at completion the
        // fraction is 1 and the estimate equals K_i.
        const double processed =
            Executions(snapshot, a.nlj_inner_child[id]);
        double outer_total = nh[a.nlj_outer_child[id]];
        if (processed >=
                static_cast<double>(std::min<uint64_t>(min_rows, 8)) &&
            outer_total > 0) {
          const double fraction =
              std::clamp(processed / std::max(1.0, outer_total), 1e-9, 1.0);
          estimate = k / fraction;
          locally_refined = true;
        }
      } else if (!inner) {
        // Scale-up basis: pipeline driver progress, or the immediate
        // child's progress when separated by a semi-blocking operator
        // (§4.4(2), Figure 9).
        const int pid = a.pipeline_of_node[id];
        double scale = 0.0;
        if (options_.semi_blocking_adjust &&
            (flags & kFlagSeparatedBySemiBlocking) != 0) {
          double ck = 0;
          double cn = 0;
          for (int i = 0; i < num_children; ++i) {
            const int c = child[i];
            if (a.pipeline_of_node[c] != pid) {
              continue;  // blocked child: not part of this flow
            }
            ck += K(snapshot, c);
            cn += std::max(1.0, nh[c]);
          }
          scale = cn > 0 ? ck / cn : 0.0;
        } else {
          scale = alpha[pid];
        }
        scale = std::clamp(scale, 0.0, 1.0);

        // Guard conditions (§4.1): enough rows observed on all inputs,
        // and for selective operators both outcomes observed.
        bool guards = scale > 1e-9 && k >= static_cast<double>(min_rows);
        double input_seen = 0;
        for (int i = 0; i < num_children; ++i) {
          const double kc = K(snapshot, child[i]);
          input_seen += kc;
          if (kc < static_cast<double>(min_rows)) guards = false;
        }
        const bool selective =
            (flags & kFlagSelective) != 0 ||
            ((flags & kFlagScan) != 0 && prof.has_pushed_predicate);
        if (selective && num_children > 0 && !(k > 0 && k < input_seen)) {
          guards = false;
        }
        if (guards) {
          double scaled = k / scale;
          estimate = options_.interpolate_refinement
                         ? (1.0 - scale) * a.est_rows[id] + scale * scaled
                         : scaled;
          locally_refined = true;
        }
      }
    }

    // §7(a) extension: before any local observation exists, inherit the
    // children's refinement by scaling the showplan estimate with the
    // ratio by which the children's estimates moved.
    if (options_.propagate_refinement && !inner &&
        k < static_cast<double>(options_.refine_min_rows) &&
        num_children > 0 && !locally_refined) {
      double ratio = 1.0;
      int contributing = 0;
      for (int i = 0; i < num_children; ++i) {
        const int c = child[i];
        if (a.est_rows[c] > 0 && nh[c] > 0) {
          ratio *= nh[c] / a.est_rows[c];
          contributing++;
        }
      }
      if (contributing > 0) {
        ratio = std::pow(ratio, 1.0 / contributing);
        estimate = a.est_rows[id] * std::clamp(ratio, 0.02, 50.0);
      }
    }

    if (options_.bound_cardinality && bounds != nullptr) {
      double lb = bounds->lower[id];
      double ub = bounds->upper[id];
      if (std::isfinite(lb)) estimate = std::max(estimate, lb);
      if (std::isfinite(ub)) estimate = std::min(estimate, ub);
    }
    nh[id] = std::max(estimate, 0.0);
  }
}

void ProgressEstimator::OperatorProgressInto(
    const ProfileSnapshot& snapshot, const std::vector<double>& n_hat,
    std::vector<double>* progress) const {
  const PlanAnalysis& a = analysis_;
  const int n = plan_->size();
  for (int id = 0; id < n; ++id) {
    const OperatorProfile& prof = snapshot.operators[id];
    const uint16_t flags = a.flags[id];
    const bool inner = (flags & kFlagOnNljInner) != 0;
    double& out = (*progress)[id];
    if (!prof.opened) {
      out = 0.0;
    } else if (prof.finished && !inner) {
      out = 1.0;
    } else if ((flags & kFlagColumnstore) != 0 &&
               options_.batch_mode_segments &&
               prof.segment_total_count > 0) {
      // §4.7 batch mode.
      out = std::clamp(static_cast<double>(prof.segment_read_count) /
                           static_cast<double>(prof.segment_total_count),
                       0.0, 1.0);
    } else if ((flags & kFlagScan) != 0 && prof.has_pushed_predicate &&
               options_.storage_predicate_io && prof.total_pages > 0 &&
               !inner) {
      // §4.3 storage-engine predicates.
      out = std::clamp(static_cast<double>(prof.logical_read_count) /
                           static_cast<double>(prof.total_pages),
                       0.0, 1.0);
    } else if (options_.two_phase_blocking &&
               (flags & kFlagBlockingForProgress) != 0) {
      // §4.5 two-phase model for blocking operators (Figure 10): progress
      // over input + output tuples. The "input" of a hash join's blocking
      // phase is its build child; for sorts/aggregates/spools it is the
      // only child. The hash join's pipelined probe stream is covered by
      // its own K/N̂.
      const int input_child = a.child_ids[a.child_begin[id]];
      const double k_total = K(snapshot, input_child) + K(snapshot, id);
      const double n_total =
          std::max(1.0, n_hat[input_child]) + std::max(1.0, n_hat[id]);
      out = std::clamp(k_total / std::max(1.0, n_total), 0.0, 1.0);
    } else {
      out = std::clamp(K(snapshot, id) / std::max(1.0, n_hat[id]), 0.0, 1.0);
    }
  }
}

double ProgressEstimator::OwnCostMs(int id,
                                    const std::vector<double>& n_hat) const {
  // Per-node cost re-evaluated at the refined cardinalities with the same
  // constants the executor charges and the optimizer predicts. Within an
  // operator, CPU and I/O are assumed to overlap: only their maximum
  // contributes (§4.6). Blocking input phases are NOT part of this term —
  // they weigh the blocked child's pipeline (BoundaryCostMs).
  const PlanAnalysis& a = analysis_;
  const int* child = a.child_ids.data() + a.child_begin[id];
  const bool leaf = a.child_begin[id + 1] == a.child_begin[id];
  const double n_out = std::max(0.0, n_hat[id]);
  const double n_in = leaf ? 0.0 : std::max(0.0, n_hat[child[0]]);
  double cpu = 0;
  double io = 0;
  switch (a.op[id]) {
    // Scans read the whole object regardless of how many rows survive
    // their pushed predicates: cost does not scale with output. The terms
    // are catalog constants, hoisted into the analysis.
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kIndexScan:
    case OpType::kColumnstoreScan:
      io = a.node_statics[id].scan_io_ms;
      cpu = a.node_statics[id].scan_cpu_ms;
      break;
    // Seeks and lookups scale with the rows they fetch.
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexSeek:
    case OpType::kRidLookup:
      io = std::max(1.0, n_out / static_cast<double>(kRowsPerPage)) *
           cost::kIoRandomPageMs;
      cpu = n_out * cost::kCpuScanRowMs;
      break;
    case OpType::kConstantScan:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kFilter:
      cpu = n_in * cost::kCpuFilterRowMs;
      break;
    case OpType::kComputeScalar:
      cpu = n_in * cost::kCpuComputeRowMs * a.projection_count[id];
      break;
    case OpType::kTop:
    case OpType::kSegment:
    case OpType::kConcatenation:
    case OpType::kBitmapCreate:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kSort:
    case OpType::kDistinctSort:
    case OpType::kTopNSort:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kHashAggregate:
      cpu = n_out * cost::kCpuAggOutputRowMs;
      break;
    case OpType::kStreamAggregate:
      cpu = n_in * cost::kCpuStreamAggRowMs;
      break;
    case OpType::kHashJoin: {
      // Probe + output run with the join's own pipeline; the build phase
      // is the boundary term.
      const double n_probe = std::max(0.0, n_hat[child[1]]);
      cpu = (n_probe + n_out) * cost::kCpuHashProbeRowMs;
      break;
    }
    case OpType::kMergeJoin: {
      const double n_inner = std::max(0.0, n_hat[child[1]]);
      cpu = (n_in + n_inner + n_out) * cost::kCpuMergeRowMs;
      break;
    }
    case OpType::kNestedLoopJoin:
      cpu = (n_in + n_out) * cost::kCpuNljRowMs;
      break;
    case OpType::kEagerSpool:
      cpu = n_out * cost::kCpuSpoolReadRowMs;
      break;
    case OpType::kLazySpool:
      cpu = n_out * cost::kCpuSpoolReadRowMs +
            n_in * cost::kCpuSpoolWriteRowMs;
      break;
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
      cpu = n_out *
            (cost::kCpuExchangeBufferRowMs + cost::kCpuExchangeRowMs);
      break;
    case OpType::kNumOpTypes:
      break;
  }
  return std::max(cpu, io);
}

double ProgressEstimator::BoundaryCostMs(
    int id, const std::vector<double>& n_hat) const {
  // A blocking operator's INPUT phase executes while its (blocked) child
  // pipeline runs (§4.5), so this share weighs the child pipeline.
  const PlanAnalysis& a = analysis_;
  const bool leaf = a.child_begin[id + 1] == a.child_begin[id];
  const double n_in =
      leaf ? 0.0 : std::max(0.0, n_hat[a.child_ids[a.child_begin[id]]]);
  switch (a.op[id]) {
    case OpType::kSort:
    case OpType::kDistinctSort:
    case OpType::kTopNSort:
      return n_in * (cost::kCpuSortInputRowMs +
                     std::log2(std::max(2.0, n_in)) * cost::kCpuSortRowMs);
    case OpType::kHashAggregate:
      return n_in * cost::kCpuAggInputRowMs;
    case OpType::kHashJoin:
      return n_in * cost::kCpuHashBuildRowMs;
    case OpType::kEagerSpool:
      return n_in * cost::kCpuSpoolWriteRowMs;
    default:
      return 0.0;
  }
}

void ProgressEstimator::PipelineWeightsInto(const std::vector<double>& n_hat,
                                            Workspace* ws,
                                            std::vector<double>* weight) const {
  // Weight terms are hoisted per pipeline (analysis_.weight_begin/node),
  // so each pipeline's weight is an independent sum — which is what makes
  // the frozen-weight cache sound: once every pipeline whose refined
  // cardinalities feed the sum has finished (and none sits under an
  // NL-inner side), every input to the sum is final and the cached value
  // is exact.
  const PlanAnalysis& a = analysis_;
  const int num_pipelines = a.pipeline_count();
  for (int p = 0; p < num_pipelines; ++p) {
    bool can_freeze = options_.incremental && a.weight_freezable[p] != 0;
    if (can_freeze) {
      for (int j = a.weight_dep_begin[p]; j < a.weight_dep_begin[p + 1];
           ++j) {
        can_freeze = can_freeze &&
                     ws->pipeline_finished[a.weight_dep_ids[j]] != 0;
      }
    }
    if (can_freeze && ws->weight_frozen[p] != 0) {
      (*weight)[p] = ws->frozen_weight[p];
      ws->stats.weight_cache_hits++;
      continue;
    }
    double w = 0;
    for (int j = a.weight_begin[p]; j < a.weight_begin[p + 1]; ++j) {
      const int id = a.weight_node[j];
      w += a.weight_boundary[j] != 0 ? BoundaryCostMs(id, n_hat)
                                     : OwnCostMs(id, n_hat);
    }
    w = std::max(w, 1e-6);
    (*weight)[p] = w;
    if (can_freeze) {
      ws->frozen_weight[p] = w;
      ws->weight_frozen[p] = 1;
    }
  }
}

void ProgressEstimator::EstimateInto(const ProfileSnapshot& snapshot,
                                     Workspace* workspace,
                                     ProgressReport* report) const {
  Workspace* ws = workspace;
  PrepareWorkspace(ws);
  ws->stats.calls++;
  const int n = plan_->size();
  const int num_pipelines = analysis_.pipeline_count();

  ComputeFreezeMasks(snapshot, ws);

  const CardinalityBounds* bounds_ptr = nullptr;
  if (options_.bound_cardinality) {
    BoundsEngineStats bstats;
    ComputeBoundsPipelineInto(options_.bounds_engine, *plan_, *catalog_,
                              snapshot, &analysis_, analysis_,
                              options_.incremental ? &ws->node_frozen : nullptr,
                              &ws->bounds, &ws->lp_bounds, &bstats);
    ws->stats.bound_derivations += bstats.derivations;
    ws->stats.lp_tightenings += bstats.lp_tightenings;
    ws->stats.intersection_inversions += bstats.intersection_inversions;
    bounds_ptr = &ws->bounds;
  }

  // The report's vectors are the working buffers: N̂ refines in place in
  // refined_rows and the alphas land in pipeline_progress, so nothing is
  // copied out at the end. Seed N̂ with showplan estimates, then iterate:
  // alphas need driver N̂, refinement needs alphas. Two rounds reach a
  // fixed point for the plan shapes that matter (the §4.4(1) inner drivers
  // need round-1 refinement).
  std::vector<double>& n_hat = report->refined_rows;
  std::vector<double>& alpha = report->pipeline_progress;
  // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
  n_hat.resize(static_cast<size_t>(n));
  // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
  alpha.resize(static_cast<size_t>(num_pipelines));
  std::copy(analysis_.est_seed.begin(), analysis_.est_seed.end(),
            n_hat.begin());
  PipelineAlphasInto(snapshot, n_hat, false, ws, &alpha);
  RefinePass(snapshot, alpha, bounds_ptr, &n_hat);
  PipelineAlphasInto(snapshot, n_hat, true, ws, &alpha);
  RefinePass(snapshot, alpha, bounds_ptr, &n_hat);
  PipelineAlphasInto(snapshot, n_hat, true, ws, &alpha);

  // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
  report->operator_progress.resize(static_cast<size_t>(n));
  OperatorProgressInto(snapshot, n_hat, &report->operator_progress);

  // ---- Query-level progress ----
  if (!options_.use_weights) {
    double sum_k = 0;
    double sum_n = 0;
    if (options_.use_driver_nodes) {
      const PlanAnalysis& a = analysis_;
      for (int p = 0; p < num_pipelines; ++p) {
        for (int j = a.driver_begin[p]; j < a.driver_begin[p + 1]; ++j) {
          const int d = a.driver_ids[j];
          double k = 0;
          double nn = 1;
          DriverShare(a, options_, snapshot, d, n_hat, &k, &nn);
          double weight = std::max(1.0, n_hat[d]);
          if (nn > 0) {
            sum_k += weight * (k / nn);
            sum_n += weight;
          }
        }
        if (options_.semi_blocking_adjust) {
          for (int j = a.inner_driver_begin[p];
               j < a.inner_driver_begin[p + 1]; ++j) {
            const int d = a.inner_driver_ids[j];
            double weight = std::max(1.0, n_hat[d]);
            sum_k += weight *
                     std::clamp(K(snapshot, d) / std::max(1.0, n_hat[d]), 0.0,
                                1.0);
            sum_n += weight;
          }
        }
      }
    } else {
      for (int i = 0; i < n; ++i) {
        sum_k += std::min(K(snapshot, i), n_hat[i]);
        sum_n += n_hat[i];
      }
    }
    report->query_progress =
        sum_n > 0 ? std::clamp(sum_k / sum_n, 0.0, 1.0) : 0.0;
    // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
    report->pipeline_weight.assign(static_cast<size_t>(num_pipelines), 1.0);
    return;
  }

  // §4.6: weight each speed-independent pipeline by max(est CPU, est I/O),
  // re-evaluated at the refined cardinalities (the paper: "optimizer cost
  // estimates of I/O and CPU cost per tuple and refined N_i counts"), and
  // aggregate pipeline progress. Optionally restrict to the longest
  // (critical) path.
  std::vector<double>& weight = report->pipeline_weight;
  // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
  weight.resize(static_cast<size_t>(num_pipelines));
  PipelineWeightsInto(n_hat, ws, &weight);

  if (options_.critical_path_only) {
    // Longest root-to-leaf path in the pipeline tree by total weight.
    std::vector<double>& best = ws->cp_best;
    std::vector<int>& best_child = ws->cp_best_child;
    // Pipelines are created parent-before-child; iterate in reverse.
    for (int p = num_pipelines - 1; p >= 0; --p) {
      best[p] = weight[p];
      best_child[p] = -1;
      double best_sub = 0;
      for (int j = analysis_.child_pipeline_begin[p];
           j < analysis_.child_pipeline_begin[p + 1]; ++j) {
        const int c = analysis_.child_pipeline_ids[j];
        if (best[c] > best_sub) {
          best_sub = best[c];
          best_child[p] = c;
        }
      }
      best[p] += best_sub;
    }
    // LQS_ALLOC_OK("sized by PrepareWorkspace; assign reuses capacity")
    ws->on_path.assign(static_cast<size_t>(num_pipelines), 0);
    for (int p = 0; p >= 0; p = best_child[p]) ws->on_path[p] = 1;
  }

  double sum_wp = 0;
  double sum_w = 0;
  for (int p = 0; p < num_pipelines; ++p) {
    if (options_.critical_path_only && !ws->on_path[p]) continue;
    sum_wp += weight[p] * alpha[p];
    sum_w += weight[p];
  }
  report->query_progress =
      sum_w > 0 ? std::clamp(sum_wp / sum_w, 0.0, 1.0) : 0.0;
}

}  // namespace lqs
