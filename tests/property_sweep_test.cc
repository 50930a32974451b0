// Matrix property tests: every estimator configuration must satisfy the
// core progress invariants on every query of a mixed workload sample. This
// is the broadest safety net in the suite — any feature flag combination
// that emits out-of-range progress, NaNs, or violates monotone completion
// fails here with the (config, query) pair named.

#include <cmath>
#include <string>
#include <tuple>

#include "gtest/gtest.h"

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"
#include "lqs/metrics.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

struct ConfigCase {
  const char* name;
  EstimatorOptions options;
};

std::vector<ConfigCase> AllConfigs() {
  std::vector<ConfigCase> configs;
  configs.push_back({"tgn", EstimatorOptions::TotalGetNext()});
  configs.push_back({"bounding_only", EstimatorOptions::BoundingOnly()});
  configs.push_back({"refined", EstimatorOptions::DriverNodeRefined()});
  configs.push_back({"lqs", EstimatorOptions::Lqs()});
  EstimatorOptions interp = EstimatorOptions::DriverNodeRefined();
  interp.interpolate_refinement = true;
  configs.push_back({"interpolated", interp});
  EstimatorOptions crit = EstimatorOptions::Lqs();
  crit.critical_path_only = true;
  configs.push_back({"critical_path", crit});
  EstimatorOptions prop = EstimatorOptions::Lqs();
  prop.propagate_refinement = true;
  configs.push_back({"propagated", prop});
  EstimatorOptions no_guard = EstimatorOptions::Lqs();
  no_guard.refine_min_rows = 0;
  configs.push_back({"no_guards", no_guard});
  EstimatorOptions no_io = EstimatorOptions::Lqs();
  no_io.storage_predicate_io = false;
  no_io.batch_mode_segments = false;
  configs.push_back({"no_io_progress", no_io});
  EstimatorOptions lqs_lp;
  EXPECT_TRUE(EstimatorOptions::PresetFromName("lqs_lp", &lqs_lp));
  configs.push_back({"lqs_lp", lqs_lp});
  EstimatorOptions refined_lp;
  EXPECT_TRUE(EstimatorOptions::PresetFromName("refined_lp", &refined_lp));
  configs.push_back({"refined_lp", refined_lp});
  return configs;
}

/// Shared fixture: one TPC-DS workload executed once; each test parameter
/// replays the traces under a different estimator configuration.
class EstimatorMatrixTest : public ::testing::TestWithParam<int> {
 protected:
  struct Shared {
    Workload workload;
    std::vector<ExecutionResult> runs;  // parallel to workload.queries
  };

  static Shared& GetShared() {
    static Shared* shared = [] {
      auto* s = new Shared();
      TpcdsOptions opt;
      opt.scale = 0.1;
      auto w = MakeTpcdsWorkload(opt);
      EXPECT_TRUE(w.ok());
      s->workload = std::move(w).value();
      OptimizerOptions oo;
      oo.selectivity_error = 1.5;
      EXPECT_TRUE(AnnotateWorkload(&s->workload, oo).ok());
      ExecOptions exec;
      exec.snapshot_interval_ms = 4.0;
      for (auto& q : s->workload.queries) {
        auto run = ExecuteQuery(q.plan, s->workload.catalog.get(), exec);
        EXPECT_TRUE(run.ok()) << q.name;
        s->runs.push_back(std::move(run).value());
      }
      return s;
    }();
    return *shared;
  }
};

TEST_P(EstimatorMatrixTest, InvariantsHoldOnEveryQuery) {
  const ConfigCase config = AllConfigs()[static_cast<size_t>(GetParam())];
  Shared& shared = GetShared();
  for (size_t qi = 0; qi < shared.workload.queries.size(); ++qi) {
    const WorkloadQuery& q = shared.workload.queries[qi];
    const ExecutionResult& run = shared.runs[qi];
    ProgressEstimator estimator(&q.plan, shared.workload.catalog.get(),
                                config.options);
    // This matrix includes deliberately unguarded configurations
    // (refine_min_rows = 0, propagation, interpolation) whose cardinality
    // revisions drop query progress by 0.5+ within one polling interval;
    // the checker recognizes revision events and only flags regressions
    // that happen with a stable cardinality vector, so the defaults hold
    // even here.
    ProgressInvariantChecker checker(&estimator);
    ProgressEstimator::Workspace workspace;
    ProgressReport r;
    for (const auto& snap : run.trace.snapshots) {
      checker.EstimateCheckedInto(snap, &workspace, &r);
      ASSERT_TRUE(std::isfinite(r.query_progress))
          << config.name << "/" << q.name;
      ASSERT_GE(r.query_progress, 0.0) << config.name << "/" << q.name;
      ASSERT_LE(r.query_progress, 1.0) << config.name << "/" << q.name;
      for (int n = 0; n < q.plan.size(); ++n) {
        ASSERT_TRUE(std::isfinite(r.operator_progress[n]))
            << config.name << "/" << q.name << " node " << n;
        ASSERT_GE(r.operator_progress[n], 0.0)
            << config.name << "/" << q.name << " node " << n;
        ASSERT_LE(r.operator_progress[n], 1.0)
            << config.name << "/" << q.name << " node " << n;
        ASSERT_GE(r.refined_rows[n], 0.0)
            << config.name << "/" << q.name << " node " << n;
        ASSERT_TRUE(std::isfinite(r.refined_rows[n]) ||
                    r.refined_rows[n] > 0)
            << config.name << "/" << q.name << " node " << n;
      }
    }
    // At completion the shipping configuration reports exactly 100%; the
    // raw-estimate configurations may stick below it (the paper's Figure 4
    // shows estimates pinned at 99% when cardinalities are wrong), but no
    // configuration may be wildly off at completion.
    ProgressReport done;
    estimator.EstimateInto(run.trace.final_snapshot, &workspace, &done);
    if (std::string(config.name) == "lqs") {
      ASSERT_NEAR(done.query_progress, 1.0, 1e-6)
          << config.name << "/" << q.name;
    } else {
      ASSERT_GE(done.query_progress, 0.35) << config.name << "/" << q.name;
    }
    // The runtime checker must agree with the explicit assertions above:
    // the whole replay was violation-free under this configuration.
    ASSERT_TRUE(checker.report().ok())
        << config.name << "/" << q.name << "\n" << checker.report().ToString();
  }
}

TEST_P(EstimatorMatrixTest, PlansPassStaticValidation) {
  Shared& shared = GetShared();
  PlanValidator validator(shared.workload.catalog.get());
  for (const WorkloadQuery& q : shared.workload.queries) {
    ValidationReport report = validator.Validate(
        q.plan, AnalyzePlan(q.plan, shared.workload.catalog.get()));
    ASSERT_TRUE(report.ok()) << q.name << "\n" << report.ToString();
  }
}

TEST_P(EstimatorMatrixTest, MetricsAreBoundedOnEveryQuery) {
  const ConfigCase config = AllConfigs()[static_cast<size_t>(GetParam())];
  Shared& shared = GetShared();
  for (size_t qi = 0; qi < shared.workload.queries.size(); ++qi) {
    const WorkloadQuery& q = shared.workload.queries[qi];
    QueryEvaluation eval = EvaluateQuery(
        q.plan, *shared.workload.catalog, shared.runs[qi].trace,
        config.options);
    ASSERT_GE(eval.error_count, 0.0) << config.name << "/" << q.name;
    ASSERT_LE(eval.error_count, 1.0) << config.name << "/" << q.name;
    ASSERT_GE(eval.error_time, 0.0) << config.name << "/" << q.name;
    ASSERT_LE(eval.error_time, 1.0) << config.name << "/" << q.name;
    for (const OperatorError& op : eval.operator_errors) {
      ASSERT_LE(op.count_error, 1.0 + 1e-9)
          << config.name << "/" << q.name << " node " << op.node_id;
      ASSERT_LE(op.time_error, 1.0 + 1e-9)
          << config.name << "/" << q.name << " node " << op.node_id;
    }
  }
}

/// Bounds-engine pipeline properties over the same shared workload: the
/// intersected intervals are contained in Appendix A's (lower = max,
/// upper = min can only shrink) and — the soundness half — never exclude
/// the true final cardinality at any snapshot.
class BoundsEnginePropertyTest : public EstimatorMatrixTest {};

TEST_F(BoundsEnginePropertyTest, IntersectContainedInAppendixAAndSound) {
  Shared& shared = GetShared();
  for (size_t qi = 0; qi < shared.workload.queries.size(); ++qi) {
    const WorkloadQuery& q = shared.workload.queries[qi];
    const ExecutionResult& run = shared.runs[qi];
    const ProfileSnapshot& fin = run.trace.final_snapshot;
    const PlanAnalysis analysis =
        AnalyzePlan(q.plan, shared.workload.catalog.get());
    CardinalityBounds a, x, scratch;
    BoundsEngineStats stats;
    for (const auto& snap : run.trace.snapshots) {
      ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, q.plan,
                                *shared.workload.catalog, snap, nullptr,
                                analysis, nullptr, &a, &scratch, nullptr);
      ComputeBoundsPipelineInto(BoundsEngineKind::kIntersect, q.plan,
                                *shared.workload.catalog, snap, nullptr,
                                analysis, nullptr, &x, &scratch, &stats);
      for (int i = 0; i < q.plan.size(); ++i) {
        const double n_true = static_cast<double>(fin.operators[i].row_count);
        // Containment: intersected ⊆ Appendix A.
        ASSERT_GE(x.lower[i], a.lower[i]) << q.name << " node " << i;
        ASSERT_LE(x.upper[i], a.upper[i]) << q.name << " node " << i;
        ASSERT_LE(x.lower[i], x.upper[i]) << q.name << " node " << i;
        // Soundness: the truth never falls outside the tightened corridor.
        ASSERT_LE(x.lower[i], n_true + 1e-9)
            << q.name << " node " << i << " at t=" << snap.time_ms;
        ASSERT_GE(x.upper[i], n_true - 1e-9)
            << q.name << " node " << i << " at t=" << snap.time_ms;
      }
    }
    // An inversion would mean one engine produced an unsound interval.
    ASSERT_EQ(stats.intersection_inversions, 0u) << q.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EstimatorMatrixTest, ::testing::Range(0, 11),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(AllConfigs()[static_cast<size_t>(info.param)].name);
    });

}  // namespace
}  // namespace testing
}  // namespace lqs
