#include "analysis/invariant_checker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stringf.h"

namespace lqs {

namespace {

/// Allowed decrease of query progress between consecutive snapshots when
/// the refined cardinality vector did NOT change. With N̂ fixed, every
/// K_i/N̂_i ratio grows under monotone DMV counters, so query progress is
/// structurally non-decreasing and any drop beyond this numeric allowance
/// is a genuine estimator bug. When any N̂_i was revised between the two
/// snapshots the drop is a legitimate revision event — the paper's §5
/// revision metric *measures* those, and unguarded configurations revise
/// by 0.5+ in one polling interval — so it is tracked in
/// max_query_regression() but never reported as a violation.
constexpr double kQueryRegressionSlack = 0.01;

bool InUnitRange(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

/// True when a refined cardinality changed meaningfully between snapshots.
/// Either direction counts: an upward revision shrinks the numerator's
/// share directly, a downward one shifts pipeline weight mass onto less
/// complete pipelines — both legitimately move query progress down.
bool CardinalityRevised(double before, double after) {
  if (std::isinf(before) || std::isinf(after)) {
    return std::isinf(before) != std::isinf(after);
  }
  return std::fabs(after - before) >
         1e-9 * std::max({1.0, std::fabs(before), std::fabs(after)});
}

}  // namespace

ProgressInvariantChecker::ProgressInvariantChecker(
    const ProgressEstimator* estimator, InvariantCheckerOptions options)
    : estimator_(estimator), options_(options) {}

void ProgressInvariantChecker::Reset() {
  report_ = ValidationReport();
  prev_query_progress_ = 0.0;
  prev_refined_rows_.clear();
  prev_time_ms_ = -1.0;
  max_regression_ = 0.0;
  snapshots_checked_ = 0;
}

void ProgressInvariantChecker::EstimateCheckedInto(
    const ProfileSnapshot& snapshot, ProgressEstimator::Workspace* workspace,
    ProgressReport* report) {
  estimator_->EstimateInto(snapshot, workspace, report);
  CheckReport(snapshot, *report);
}

void ProgressInvariantChecker::CheckReport(const ProfileSnapshot& snapshot,
                                           const ProgressReport& report) {
  // Fast path: one branch-light pass accumulating validity as arithmetic.
  // Each comparison is false for NaN, so `(v >= 0) & (v <= 1)` rejects NaN
  // and both infinities without calling the classification functions; the
  // detailed per-value diagnosis runs only when something is wrong, which
  // keeps the always-on checker within a few percent of EstimateInto itself.
  const double q = report.query_progress;
  bool ok = (q >= 0.0) & (q <= 1.0);
  const size_t nodes = report.operator_progress.size();
  for (size_t i = 0; i < nodes; ++i) {
    const double p = report.operator_progress[i];
    // +inf is legal for refined rows above an unbounded spool; NaN and
    // negatives never are, and `n_hat >= 0` rejects exactly those.
    ok = ok & (p >= 0.0) & (p <= 1.0) & (report.refined_rows[i] >= 0.0);
  }
  for (size_t p = 0; p < report.pipeline_progress.size(); ++p) {
    const double v = report.pipeline_progress[p];
    ok = ok & (v >= 0.0) & (v <= 1.0);
  }
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  for (size_t p = 0; p < report.pipeline_weight.size(); ++p) {
    const double w = report.pipeline_weight[p];
    ok = ok & (w > 0.0) & (w <= kMaxDouble);
  }
  if (!ok) ReportRangeViolations(snapshot, report);

  // Monotonicity under monotone snapshots. With a stable refined
  // cardinality vector every K_i/N̂_i ratio only grows, so query progress
  // must not fall; if any N̂_i was revised the drop is a legitimate
  // revision event (§5) and is only tracked. Snapshots must arrive in time
  // order; an out-of-order feed resets the baseline instead of reporting a
  // spurious regression.
  if (prev_time_ms_ >= 0.0 && snapshot.time_ms >= prev_time_ms_) {
    const double regression = prev_query_progress_ - report.query_progress;
    if (regression > max_regression_) max_regression_ = regression;
    if (regression > kQueryRegressionSlack) {
      bool revised = prev_refined_rows_.size() != report.refined_rows.size();
      for (size_t i = 0; !revised && i < report.refined_rows.size(); ++i) {
        revised = CardinalityRevised(prev_refined_rows_[i],
                                     report.refined_rows[i]);
      }
      if (!revised) {
        report_.Add("progress.monotonicity", -1, -1,
                    StringF("query progress fell %g -> %g (t=%g -> %g) with "
                            "no cardinality revision, beyond slack %g",
                            prev_query_progress_, report.query_progress,
                            prev_time_ms_, snapshot.time_ms,
                            kQueryRegressionSlack));
      }
    }
  }
  prev_query_progress_ = report.query_progress;
  prev_refined_rows_ = report.refined_rows;
  prev_time_ms_ = snapshot.time_ms;
  snapshots_checked_++;

  if (options_.deep_bounds_check) CheckBounds(snapshot, report);
}

void ProgressInvariantChecker::ReportRangeViolations(
    const ProfileSnapshot& snapshot, const ProgressReport& report) {
  if (!InUnitRange(report.query_progress)) {
    report_.Add("progress.query_range", -1, -1,
                StringF("query progress %g outside [0, 1] at t=%g",
                        report.query_progress, snapshot.time_ms));
  }
  for (size_t i = 0; i < report.operator_progress.size(); ++i) {
    const int node = static_cast<int>(i);
    if (!InUnitRange(report.operator_progress[i])) {
      report_.Add("progress.operator_range", node, -1,
                  StringF("operator progress %g outside [0, 1] at t=%g",
                          report.operator_progress[i], snapshot.time_ms));
    }
    const double n_hat = report.refined_rows[i];
    if (std::isnan(n_hat) || n_hat < 0.0) {
      report_.Add("progress.refined_rows", node, -1,
                  StringF("refined cardinality %g invalid at t=%g", n_hat,
                          snapshot.time_ms));
    }
  }
  for (size_t p = 0; p < report.pipeline_progress.size(); ++p) {
    if (!InUnitRange(report.pipeline_progress[p])) {
      report_.Add("progress.pipeline_range", -1, static_cast<int>(p),
                  StringF("pipeline progress %g outside [0, 1] at t=%g",
                          report.pipeline_progress[p], snapshot.time_ms));
    }
  }
  for (size_t p = 0; p < report.pipeline_weight.size(); ++p) {
    const double w = report.pipeline_weight[p];
    if (!std::isfinite(w) || w <= 0.0) {
      report_.Add("progress.pipeline_weight", -1, static_cast<int>(p),
                  StringF("pipeline weight %g not positive/finite at t=%g",
                          w, snapshot.time_ms));
    }
  }
}

void ProgressInvariantChecker::CheckBounds(const ProfileSnapshot& snapshot,
                                           const ProgressReport& report) {
  const Plan& plan = estimator_->plan();
  CardinalityBounds bounds;
  ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, plan,
                            estimator_->catalog(), snapshot, nullptr,
                            estimator_->analysis(), nullptr, &bounds, nullptr,
                            nullptr);
  for (int i = 0; i < plan.size(); ++i) {
    const double lb = bounds.lower[i];
    const double ub = bounds.upper[i];
    if (!std::isfinite(lb) || lb < 0.0) {
      report_.Add("bounds.lower", i, -1,
                  StringF("lower bound %g not finite/non-negative at t=%g",
                          lb, snapshot.time_ms));
      continue;
    }
    if (std::isnan(ub) || ub < lb) {
      report_.Add("bounds.order", i, -1,
                  StringF("bounds [%g, %g] violate lower <= upper at t=%g",
                          lb, ub, snapshot.time_ms));
      continue;
    }
    // Clamp must be idempotent and land inside [lower, upper] for any
    // finite probe, including +/-inf-adjacent extremes.
    const double probes[] = {0.0, lb, ub, lb + 0.5 * (std::isfinite(ub)
                                                          ? ub - lb
                                                          : 1.0),
                             report.refined_rows[i]};
    for (double x : probes) {
      if (std::isnan(x)) continue;
      const double c = bounds.Clamp(i, x);
      if (std::isnan(c) || c < lb || c > ub) {
        report_.Add("bounds.clamp_range", i, -1,
                    StringF("Clamp(%g) = %g escapes [%g, %g]", x, c, lb, ub));
      } else if (bounds.Clamp(i, c) != c) {
        report_.Add("bounds.clamp_idempotent", i, -1,
                    StringF("Clamp(Clamp(%g)) = %g != %g", x,
                            bounds.Clamp(i, c), c));
      }
    }
    // Refined cardinalities must respect the Appendix A corridor. The upper
    // end is floored at one row: the estimator reports N̂_i = max(1, K_i)
    // for finished operators so progress ratios stay well-defined even for
    // empty results.
    if (estimator_->options().bound_cardinality) {
      const double n_hat = report.refined_rows[i];
      const double tol = 1e-6 * std::max(1.0, std::fabs(n_hat));
      if (n_hat < lb - tol || n_hat > std::max(ub, 1.0) + tol) {
        report_.Add("bounds.refined_within", i, -1,
                    StringF("refined cardinality %g outside [%g, %g] at "
                            "t=%g",
                            n_hat, lb, std::max(ub, 1.0), snapshot.time_ms));
      }
    }
  }
}

void ProgressInvariantChecker::CheckFinal(
    const ProfileSnapshot& final_snapshot,
    ProgressEstimator::Workspace* workspace, double min_final_progress) {
  ProgressReport report;
  estimator_->EstimateInto(final_snapshot, workspace, &report);
  const EstimatorOptions& opts = estimator_->options();
  // Exact completion is structurally guaranteed only for the weighted
  // pipeline aggregate: a finished pipeline root forces alpha = 1, so the
  // weighted sum is exactly 1 at end-of-stream. Unweighted driver
  // aggregates can stick marginally below 1.0 when an NL-inner driver's
  // refined cardinality over-shoots its final row count.
  const bool exact_at_completion = opts.use_driver_nodes && opts.use_weights;
  if (exact_at_completion && std::fabs(report.query_progress - 1.0) > 1e-6) {
    report_.Add("progress.final_complete", -1, -1,
                StringF("refining estimator reports %g at end-of-stream, "
                        "expected 1.0",
                        report.query_progress));
  }
  if (report.query_progress < min_final_progress) {
    report_.Add("progress.final_floor", -1, -1,
                StringF("final progress %g below configured floor %g",
                        report.query_progress, min_final_progress));
  }
}

}  // namespace lqs
