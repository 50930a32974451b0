#include "gtest/gtest.h"

#include "lqs/estimator.h"
#include "lqs/metrics.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root, OptimizerOptions opt = {}) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, opt));
    return plan;
  }

  ExecutionResult Run(const Plan& plan, double interval = 2.0) {
    ExecOptions exec;
    exec.snapshot_interval_ms = interval;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

// ---------------------------------------------------------------------------
// §7(a): refined-cardinality propagation across pipeline boundaries
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, PropagationScalesUnstartedParents) {
  // Filter badly over-estimated (planted), feeding a blocking aggregate in
  // a later pipeline. Without propagation, the aggregate's input-size view
  // stays at the inflated showplan estimate until its pipeline starts; with
  // propagation, the filter's refinement carries upward immediately.
  Plan plan = Annotated(
      Sort(HashAgg(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {1},
                   {Count()}),
           {1}));
  // Plant a 20x over-estimate on the filter and everything above it.
  plan.root->VisitMutable([](PlanNode& n) {
    if (n.type == OpType::kFilter) n.est_rows = 10000;  // true: 500
  });

  auto result = Run(plan);
  // Mid-scan snapshot: filter refining, aggregate not yet emitting.
  const ProfileSnapshot* mid = nullptr;
  for (const auto& snap : result.trace.snapshots) {
    if (snap.operators[2].row_count > 200 && snap.operators[1].row_count == 0) {
      mid = &snap;
    }
  }
  ASSERT_NE(mid, nullptr);

  EstimatorOptions off = EstimatorOptions::DriverNodeRefined();
  off.bound_cardinality = false;
  EstimatorOptions on = off;
  on.propagate_refinement = true;
  ProgressEstimator est_off(&plan, catalog_.get(), off);
  ProgressEstimator est_on(&plan, catalog_.get(), on);
  double filter_refined = EstimateFresh(est_on, *mid).refined_rows[2];
  double agg_off = EstimateFresh(est_off, *mid).refined_rows[1];
  double agg_on = EstimateFresh(est_on, *mid).refined_rows[1];
  // The filter's refinement (~500) must pull the aggregate estimate down
  // when propagation is on; without it the aggregate keeps its scaled
  // showplan estimate derived from 10000 input rows.
  EXPECT_LT(filter_refined, 2000);
  EXPECT_LE(agg_on, agg_off);
}

TEST_F(ExtensionsTest, PropagationOffMatchesPaperDefault) {
  EXPECT_FALSE(EstimatorOptions::Lqs().propagate_refinement);
  EXPECT_FALSE(EstimatorOptions::DriverNodeRefined().propagate_refinement);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
