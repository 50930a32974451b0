// End-to-end correctness net for the estimator: every TPC-H and TPC-DS
// workload plan is statically validated (PlanValidator) and then replayed
// snapshot-by-snapshot through the ProgressInvariantChecker — with the deep
// Appendix A bounds cross-checks enabled — under all four EstimatorOptions
// presets. Any structural defect in plan finalization or pipeline
// decomposition, and any runtime violation of the paper's progress
// invariants (range, monotonicity, bounds consistency, end-of-stream
// completion) fails here with the (workload, query, config) named.

#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "lqs/estimator.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

struct Preset {
  const char* name;
  EstimatorOptions options;
};

std::vector<Preset> AllPresets() {
  return {{"tgn", EstimatorOptions::TotalGetNext()},
          {"bounding_only", EstimatorOptions::BoundingOnly()},
          {"refined", EstimatorOptions::DriverNodeRefined()},
          {"lqs", EstimatorOptions::Lqs()}};
}

/// Both benchmark workloads, executed once and shared by all tests.
class InvariantsTest : public ::testing::Test {
 protected:
  struct ExecutedWorkload {
    Workload workload;
    std::vector<ExecutionResult> runs;  // parallel to workload.queries
  };

  static std::vector<ExecutedWorkload>& GetWorkloads() {
    static std::vector<ExecutedWorkload>* shared = [] {
      auto* all = new std::vector<ExecutedWorkload>();
      OptimizerOptions oo;
      oo.selectivity_error = 1.5;  // realistic misestimation
      ExecOptions exec;
      exec.snapshot_interval_ms = 5.0;

      TpchOptions tpch;
      tpch.scale = 0.1;
      auto h = MakeTpchWorkload(tpch);
      EXPECT_TRUE(h.ok());
      TpcdsOptions tpcds;
      tpcds.scale = 0.1;
      auto ds = MakeTpcdsWorkload(tpcds);
      EXPECT_TRUE(ds.ok());

      for (auto* w : {&h.value(), &ds.value()}) {
        EXPECT_TRUE(AnnotateWorkload(w, oo).ok());
        ExecutedWorkload ew;
        ew.workload = std::move(*w);
        for (auto& q : ew.workload.queries) {
          auto run = ExecuteQuery(q.plan, ew.workload.catalog.get(), exec);
          EXPECT_TRUE(run.ok()) << ew.workload.name << "/" << q.name;
          ew.runs.push_back(std::move(run).value());
        }
        all->push_back(std::move(ew));
      }
      return all;
    }();
    return *shared;
  }
};

TEST_F(InvariantsTest, EveryWorkloadPlanPassesStaticValidation) {
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    PlanValidator validator(ew.workload.catalog.get());
    for (const WorkloadQuery& q : ew.workload.queries) {
      PlanAnalysis analysis = AnalyzePlan(q.plan, ew.workload.catalog.get());
      ValidationReport report = validator.Validate(q.plan, analysis);
      EXPECT_TRUE(report.ok()) << ew.workload.name << "/" << q.name << "\n"
                               << report.ToString();
    }
  }
}

TEST_F(InvariantsTest, ReplayUnderAllPresetsIsViolationFree) {
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
      const WorkloadQuery& q = ew.workload.queries[qi];
      for (const Preset& preset : AllPresets()) {
        ProgressEstimator estimator(&q.plan, ew.workload.catalog.get(),
                                    preset.options);
        InvariantCheckerOptions copts;
        copts.deep_bounds_check = true;
        ProgressInvariantChecker checker(&estimator, copts);
        ProgressEstimator::Workspace workspace;
        ProgressReport report;
        for (const auto& snap : ew.runs[qi].trace.snapshots) {
          checker.EstimateCheckedInto(snap, &workspace, &report);
        }
        checker.CheckFinal(ew.runs[qi].trace.final_snapshot, &workspace,
                           /*min_final_progress=*/0.3);
        ASSERT_TRUE(checker.report().ok())
            << ew.workload.name << "/" << q.name << " under " << preset.name
            << "\n"
            << checker.report().ToString();
      }
    }
  }
}

TEST_F(InvariantsTest, CheckerStatusConversionCarriesIssues) {
  ValidationReport report;
  EXPECT_TRUE(report.ToStatus().ok());
  report.Add("test.check", 3, 1, "synthetic violation");
  Status st = report.ToStatus();
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_NE(st.message().find("test.check"), std::string::npos);
  EXPECT_NE(st.message().find("node 3"), std::string::npos);
}

// ---- Validator negative coverage: corrupted inputs must be caught ----

class ValidatorNegativeTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ValidatorNegativeTest, DetectsCorruptedNodeIds) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), *catalog_);
  const_cast<PlanNode*>(plan.nodes[1])->id = 0;  // duplicate id
  PlanValidator validator(catalog_.get());
  ValidationReport report = validator.Validate(plan);
  EXPECT_FALSE(report.ok());
}

TEST_F(ValidatorNegativeTest, DetectsNegativeEstimates) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(Scan("t_big"), *catalog_);
  const_cast<PlanNode*>(plan.nodes[0])->est_rows = -5.0;
  PlanValidator validator;
  EXPECT_FALSE(validator.Validate(plan).ok());
}

// Removes entity e's whole list from the flat span pair (begin, ids).
void ClearSpan(std::vector<int>* begin, std::vector<int>* ids, int e) {
  const int removed = (*begin)[e + 1] - (*begin)[e];
  ids->erase(ids->begin() + (*begin)[e], ids->begin() + (*begin)[e + 1]);
  for (size_t k = e + 1; k < begin->size(); ++k) (*begin)[k] -= removed;
}

// Appends `id` to entity e's list in the flat span pair (begin, ids).
void AppendToSpan(std::vector<int>* begin, std::vector<int>* ids, int e,
                  int id) {
  ids->insert(ids->begin() + (*begin)[e + 1], id);
  for (size_t k = e + 1; k < begin->size(); ++k) ++(*begin)[k];
}

bool HasCheck(const ValidationReport& report, const std::string& check) {
  for (const auto& issue : report.issues()) {
    if (issue.check == check) return true;
  }
  return false;
}

// Sort(Filter(Scan)): pipeline 0 = {Sort}, pipeline 1 = {Filter, Scan}.
TEST_F(ValidatorNegativeTest, DetectsDriverlessPipeline) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {0}),
      *catalog_);
  PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  ASSERT_TRUE(PlanValidator().Validate(plan, analysis).ok());
  ClearSpan(&analysis.driver_begin, &analysis.driver_ids, 1);
  ValidationReport report = PlanValidator().Validate(plan, analysis);
  EXPECT_TRUE(HasCheck(report, "pipeline.driver")) << report.ToString();
}

TEST_F(ValidatorNegativeTest, DetectsBrokenPipelinePartition) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {0}),
      *catalog_);
  PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  // Claim a node of pipeline 1 for pipeline 0 as well.
  AppendToSpan(&analysis.pipeline_node_begin, &analysis.pipeline_nodes, 0,
               analysis.pipeline_nodes[analysis.pipeline_node_begin[1]]);
  ValidationReport report = PlanValidator().Validate(plan, analysis);
  EXPECT_TRUE(HasCheck(report, "pipeline.partition")) << report.ToString();
}

TEST_F(ValidatorNegativeTest, DetectsDriverOfAnotherPipeline) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {0}),
      *catalog_);
  PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  const int scan = analysis.driver_ids[analysis.driver_begin[1]];
  ASSERT_EQ(analysis.pipeline_of_node[scan], 1);
  analysis.driver_ids[analysis.driver_begin[0]] = scan;
  ValidationReport report = PlanValidator().Validate(plan, analysis);
  EXPECT_TRUE(HasCheck(report, "pipeline.driver_member"))
      << report.ToString();
}

TEST_F(ValidatorNegativeTest, DetectsNljInnerFlagWithoutEnclosingJoin) {
  using namespace pb;  // NOLINT
  // Node 0 = NL join, 1 = outer scan, 2 = inner seek.
  Plan plan = MustFinalize(Nlj(JoinKind::kInner, Scan("t_small"),
                               CiSeek("t_big", OuterCol(0), OuterCol(0))),
                           *catalog_);
  PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  ASSERT_TRUE(PlanValidator().Validate(plan, analysis).ok());
  ASSERT_EQ(analysis.nlj_outer_child[1], -1);
  analysis.flags[1] |= kFlagOnNljInner;
  ValidationReport report = PlanValidator().Validate(plan, analysis);
  EXPECT_TRUE(HasCheck(report, "pipeline.nlj_flags")) << report.ToString();
}

TEST_F(ValidatorNegativeTest, DetectsOutOfRangeProgress) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(Scan("t_big"), *catalog_);
  ProgressEstimator estimator(&plan, catalog_.get(),
                              EstimatorOptions::Lqs());
  ProgressInvariantChecker checker(&estimator);
  ProfileSnapshot snap;
  snap.operators.resize(1);
  ProgressReport bogus = EstimateFresh(estimator, snap);
  bogus.query_progress = 1.5;
  bogus.operator_progress[0] = -0.25;
  checker.CheckReport(snap, bogus);
  EXPECT_FALSE(checker.report().ok());
  EXPECT_EQ(checker.report().issues().size(), 2u)
      << checker.report().ToString();
}

TEST_F(ValidatorNegativeTest, DetectsProgressRegression) {
  using namespace pb;  // NOLINT
  Plan plan = MustFinalize(Scan("t_big"), *catalog_);
  ProgressEstimator estimator(&plan, catalog_.get(),
                              EstimatorOptions::Lqs());
  ProgressInvariantChecker checker(&estimator);
  ProfileSnapshot snap;
  snap.operators.resize(1);
  ProgressReport earlier = EstimateFresh(estimator, snap);
  earlier.query_progress = 0.9;
  snap.time_ms = 1.0;
  checker.CheckReport(snap, earlier);
  ProgressReport later = earlier;
  later.query_progress = 0.2;  // collapse beyond any revision slack
  snap.time_ms = 2.0;
  checker.CheckReport(snap, later);
  EXPECT_FALSE(checker.report().ok());
  EXPECT_GT(checker.max_query_regression(), 0.5);
  checker.Reset();
  EXPECT_TRUE(checker.report().ok());
  EXPECT_EQ(checker.snapshots_checked(), 0u);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
