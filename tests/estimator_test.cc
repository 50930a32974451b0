#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

#include "lqs/estimator.h"
#include "lqs/metrics.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root,
                 OptimizerOptions opt = {}) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, opt));
    return plan;
  }

  ExecutionResult Run(const Plan& plan, double interval_ms = 2.0) {
    ExecOptions exec;
    exec.snapshot_interval_ms = interval_ms;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(EstimatorTest, ProgressWithinBoundsAndIncreasesOverall) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  auto result = Run(plan);
  ASSERT_GT(result.trace.snapshots.size(), 5u);
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  double first = -1;
  double last = -1;
  for (const auto& snap : result.trace.snapshots) {
    ProgressReport r = EstimateFresh(est, snap);
    EXPECT_GE(r.query_progress, 0.0);
    EXPECT_LE(r.query_progress, 1.0);
    for (double p : r.operator_progress) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    if (first < 0) first = r.query_progress;
    last = r.query_progress;
  }
  EXPECT_GT(last, first);
  EXPECT_GT(last, 0.7);  // late snapshots should be near completion
}

TEST_F(EstimatorTest, FinishedQueryReportsFullProgress) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  auto result = Run(plan);
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressReport r = EstimateFresh(est, result.trace.final_snapshot);
  EXPECT_NEAR(r.query_progress, 1.0, 1e-6);
  for (double p : r.operator_progress) EXPECT_NEAR(p, 1.0, 1e-6);
}

TEST_F(EstimatorTest, NotStartedReportsZero) {
  Plan plan = Annotated(Scan("t_big"));
  ProfileSnapshot empty;
  empty.operators.resize(static_cast<size_t>(plan.size()));
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressReport r = EstimateFresh(est, empty);
  EXPECT_DOUBLE_EQ(r.query_progress, 0.0);
}

TEST_F(EstimatorTest, RefinementConvergesToTrueCardinality) {
  // Filter whose optimizer estimate is badly wrong (amplified error). After
  // enough rows are observed, the refined estimate must land near the true
  // selectivity regardless of the initial estimate.
  OptimizerOptions bad;
  bad.selectivity_error = 3.0;  // up to ~20x off
  Plan plan = Annotated(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 40)), bad);
  auto result = Run(plan);
  const double n_true = static_cast<double>(
      result.trace.final_snapshot.operators[0].row_count);
  ASSERT_GT(n_true, 0);

  ProgressEstimator est(&plan, catalog_.get(),
                        EstimatorOptions::DriverNodeRefined());
  // Take a late snapshot (>60% through) that is not the final one.
  const auto& snaps = result.trace.snapshots;
  ASSERT_GT(snaps.size(), 4u);
  const auto& late = snaps[snaps.size() * 3 / 4];
  ProgressReport r = EstimateFresh(est, late);
  EXPECT_NEAR(r.refined_rows[0], n_true, 0.25 * n_true)
      << "optimizer estimate was " << plan.node(0).est_rows;
}

TEST_F(EstimatorTest, RefinementGuardsHoldBackEarly) {
  Plan plan = Annotated(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 40)));
  ProgressEstimator est(&plan, catalog_.get(),
                        EstimatorOptions::DriverNodeRefined());
  // Snapshot with fewer than refine_min_rows observed: refined estimate
  // stays at the (bounded) optimizer estimate, not k/alpha.
  ProfileSnapshot snap;
  snap.operators.resize(static_cast<size_t>(plan.size()));
  snap.operators[0].opened = true;
  snap.operators[0].row_count = 2;  // << refine_min_rows
  snap.operators[1].opened = true;
  snap.operators[1].row_count = 10;
  snap.operators[1].logical_read_count = 1;
  ProgressReport r = EstimateFresh(est, snap);
  // k/alpha would be 2 / (10/5000) = 1000; the guard keeps the estimate at
  // the optimizer value (clamped by bounds).
  EXPECT_NE(r.refined_rows[0], 1000.0);
}

TEST_F(EstimatorTest, RefinementPlusBoundingBeatsRawEstimates) {
  // Error_count with refinement+bounding must beat the raw TGN model when
  // optimizer estimates are bad, averaged over a handful of plans.
  OptimizerOptions bad;
  bad.selectivity_error = 2.5;
  double err_tgn = 0;
  double err_refined = 0;
  int plans = 0;
  for (int variant = 0; variant < 4; ++variant) {
    Plan plan = Annotated(
        HashAgg(HashJoin(JoinKind::kInner,
                         Filter(Scan("t_small"),
                                ColCmp(1, CompareOp::kLe, 2 + variant)),
                         Scan("t_big", ColCmp(2, CompareOp::kLt,
                                              20 + 10 * variant)),
                         {0}, {1}),
                {2}, {Count(), Sum(5)}),
        bad);
    auto result = Run(plan);
    err_tgn += EvaluateQuery(plan, *catalog_, result.trace,
                             EstimatorOptions::TotalGetNext())
                   .error_count;
    err_refined += EvaluateQuery(plan, *catalog_, result.trace,
                                 EstimatorOptions::DriverNodeRefined())
                       .error_count;
    plans++;
  }
  EXPECT_LT(err_refined / plans, err_tgn / plans);
}

TEST_F(EstimatorTest, StoragePredicateUsesIoFraction) {
  // §4.3: a scan with a pushed predicate reports progress by I/O fraction.
  Plan plan = Annotated(Scan("t_big", ColCmp(2, CompareOp::kLt, 3)));
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProfileSnapshot snap;
  snap.operators.resize(1);
  auto& p = snap.operators[0];
  p.opened = true;
  p.has_pushed_predicate = true;
  p.total_pages = 40;
  p.logical_read_count = 10;
  p.row_count = 3;  // tiny output so far — misleading for k/N
  ProgressReport r = EstimateFresh(est, snap);
  EXPECT_NEAR(r.operator_progress[0], 0.25, 1e-9);

  // With the feature disabled, the report falls back to k/N̂.
  EstimatorOptions no_io = EstimatorOptions::Lqs();
  no_io.storage_predicate_io = false;
  ProgressEstimator est2(&plan, catalog_.get(), no_io);
  ProgressReport r2 = EstimateFresh(est2, snap);
  EXPECT_NE(r2.operator_progress[0], r.operator_progress[0]);
}

TEST_F(EstimatorTest, BatchModeUsesSegmentFraction) {
  Plan plan = Annotated(CsScan("t_big"));
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProfileSnapshot snap;
  snap.operators.resize(1);
  auto& p = snap.operators[0];
  p.opened = true;
  p.segment_total_count = 2;
  p.segment_read_count = 1;
  p.row_count = 4096;
  ProgressReport r = EstimateFresh(est, snap);
  EXPECT_NEAR(r.operator_progress[0], 0.5, 1e-9);
}

TEST_F(EstimatorTest, TwoPhaseBlockingShowsProgressDuringInput) {
  // §4.5 / Figure 10: during the aggregate's input phase the output-only
  // model reports ~0 while the two-phase model reports meaningful progress.
  Plan plan = Annotated(HashAgg(Scan("t_big"), {2}, {Count()}));
  auto result = Run(plan);
  EstimatorOptions two_phase = EstimatorOptions::Lqs();
  EstimatorOptions output_only = EstimatorOptions::Lqs();
  output_only.two_phase_blocking = false;
  ProgressEstimator est_two(&plan, catalog_.get(), two_phase);
  ProgressEstimator est_out(&plan, catalog_.get(), output_only);

  // Mid-input snapshot: the aggregate (node 0) has consumed rows but output
  // nothing.
  bool found = false;
  for (const auto& snap : result.trace.snapshots) {
    if (snap.operators[0].row_count == 0 &&
        snap.operators[1].row_count > 2000) {
      ProgressReport two = EstimateFresh(est_two, snap);
      ProgressReport out = EstimateFresh(est_out, snap);
      EXPECT_GT(two.operator_progress[0], 0.3);
      EXPECT_LT(out.operator_progress[0], 0.05);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no mid-input snapshot captured";
}

TEST_F(EstimatorTest, WeightsImproveTimeCorrelationOnLopsidedPlan) {
  // Pipeline weights (§4.6): a cheap-per-row build pipeline followed by an
  // expensive probe pipeline skews the unweighted estimator; weights fix
  // the time correlation.
  Plan plan = Annotated(
      Sort(HashJoin(JoinKind::kInner, Scan("t_small"),
                    Nlj(JoinKind::kInner, Scan("t_big"),
                        CiSeek("t_small", OuterCol(1), OuterCol(1))),
                    {0}, {1}),
           {2}));
  auto result = Run(plan);
  EstimatorOptions weighted = EstimatorOptions::Lqs();
  EstimatorOptions unweighted = EstimatorOptions::Lqs();
  unweighted.use_weights = false;
  double err_w =
      EvaluateQuery(plan, *catalog_, result.trace, weighted).error_time;
  double err_u =
      EvaluateQuery(plan, *catalog_, result.trace, unweighted).error_time;
  // Both are valid estimators; weighted should not be substantially worse
  // and typically wins on lopsided plans.
  EXPECT_LE(err_w, err_u + 0.05);
}

TEST_F(EstimatorTest, InnerSideRefinementScalesByExecutions) {
  // §4.4(3): with a buffered outer, the inner side's expected total calls
  // must be scaled by executions (rebinds), not by the outer child's K.
  Plan plan = Annotated(
      Nlj(JoinKind::kInner, Scan("t_small"),
          CiSeek("t_big", OuterCol(0), OuterCol(0)), nullptr,
          /*buffered=*/true));
  auto result = Run(plan, 0.2);
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  const double n_true = static_cast<double>(
      result.trace.final_snapshot.operators[2].row_count);
  // Mid-execution snapshot where the outer is fully buffered but the inner
  // has only partially executed.
  bool checked = false;
  for (const auto& snap : result.trace.snapshots) {
    const auto& inner = snap.operators[2];
    const auto& outer = snap.operators[1];
    if (outer.finished && inner.rebind_count > 40 &&
        inner.row_count < n_true * 0.8) {
      ProgressReport r = EstimateFresh(est, snap);
      EXPECT_NEAR(r.refined_rows[2], n_true, 0.3 * n_true);
      checked = true;
      break;
    }
  }
  EXPECT_TRUE(checked) << "no mid-NLJ snapshot captured";
}

TEST_F(EstimatorTest, PresetConfigurationsDiffer) {
  EstimatorOptions tgn = EstimatorOptions::TotalGetNext();
  EXPECT_FALSE(tgn.use_driver_nodes);
  EXPECT_FALSE(tgn.refine_cardinality);
  EXPECT_FALSE(tgn.bound_cardinality);
  EstimatorOptions bound = EstimatorOptions::BoundingOnly();
  EXPECT_TRUE(bound.bound_cardinality);
  EXPECT_FALSE(bound.refine_cardinality);
  EstimatorOptions lqs = EstimatorOptions::Lqs();
  EXPECT_TRUE(lqs.use_weights);
  EXPECT_TRUE(lqs.two_phase_blocking);
}

TEST(EstimatorOptionsTest, PackBitsDistinguishesEveryField) {
  // The monitor's estimator cache is keyed on PackBits(): two option sets
  // that pack equal share one cached estimator. Flip every field of Lqs()
  // one at a time — each boolean, each bounds engine, the refinement
  // threshold — and require every packed value to be distinct.
  std::vector<EstimatorOptions> variants = {EstimatorOptions::Lqs()};
  for (bool EstimatorOptions::*flag :
       {&EstimatorOptions::use_driver_nodes,
        &EstimatorOptions::refine_cardinality,
        &EstimatorOptions::bound_cardinality,
        &EstimatorOptions::semi_blocking_adjust,
        &EstimatorOptions::two_phase_blocking,
        &EstimatorOptions::use_weights,
        &EstimatorOptions::critical_path_only,
        &EstimatorOptions::storage_predicate_io,
        &EstimatorOptions::batch_mode_segments,
        &EstimatorOptions::interpolate_refinement,
        &EstimatorOptions::propagate_refinement,
        &EstimatorOptions::incremental}) {
    EstimatorOptions o = EstimatorOptions::Lqs();
    o.*flag = !(o.*flag);
    variants.push_back(o);
  }
  for (BoundsEngineKind engine :
       {BoundsEngineKind::kLpBound, BoundsEngineKind::kIntersect}) {
    EstimatorOptions o = EstimatorOptions::Lqs();
    o.bounds_engine = engine;
    variants.push_back(o);
  }
  for (uint64_t min_rows : {0, 1, 31}) {
    EstimatorOptions o = EstimatorOptions::Lqs();
    o.refine_min_rows = min_rows;
    variants.push_back(o);
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    for (size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i].PackBits(), variants[j].PackBits())
          << "variants " << i << " and " << j << " share a cache key";
    }
  }
}

TEST_F(EstimatorTest, MetricsProduceFiniteErrors) {
  Plan plan = Annotated(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}));
  auto result = Run(plan);
  for (auto opts :
       {EstimatorOptions::TotalGetNext(), EstimatorOptions::BoundingOnly(),
        EstimatorOptions::DriverNodeRefined(), EstimatorOptions::Lqs()}) {
    QueryEvaluation eval = EvaluateQuery(plan, *catalog_, result.trace, opts);
    EXPECT_GE(eval.error_count, 0.0);
    EXPECT_LE(eval.error_count, 1.0);
    EXPECT_GE(eval.error_time, 0.0);
    EXPECT_LE(eval.error_time, 1.0);
    EXPECT_GT(eval.observations, 0);
    for (const auto& op : eval.operator_errors) {
      EXPECT_TRUE(std::isfinite(op.count_error));
      EXPECT_TRUE(std::isfinite(op.time_error));
    }
  }
}

TEST_F(EstimatorTest, ProgressCurveCoversExecution) {
  Plan plan = Annotated(Sort(Scan("t_big"), {1}));
  auto result = Run(plan);
  auto curve = ProgressCurve(plan, *catalog_, result.trace,
                             EstimatorOptions::Lqs());
  ASSERT_GT(curve.size(), 3u);
  EXPECT_LT(curve.front().time_fraction, 0.2);
  EXPECT_GT(curve.back().time_fraction, 0.8);
  for (const auto& s : curve) {
    EXPECT_GE(s.true_count, 0.0);
    EXPECT_LE(s.true_count, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace testing
}  // namespace lqs
