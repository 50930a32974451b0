#include <cmath>
#include <limits>

#include "gtest/gtest.h"

#include "lqs/bounds.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class BoundsTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  /// Runs the plan with frequent snapshots and asserts the Appendix A
  /// soundness invariant at every snapshot: LB_i <= N_i^true <= UB_i.
  void CheckSoundness(const Plan& plan, const char* label) {
    ExecOptions exec;
    exec.snapshot_interval_ms = 2.0;
    auto result = MustExecute(plan, catalog_.get(), exec);
    const auto& fin = result.trace.final_snapshot;
    for (const auto& snap : result.trace.snapshots) {
      CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
      for (int i = 0; i < plan.size(); ++i) {
        const double n_true = static_cast<double>(fin.operators[i].row_count);
        EXPECT_LE(b.lower[i], n_true + 1e-9)
            << label << " node " << i << " ("
            << OpTypeName(plan.node(i).type) << ") at t=" << snap.time_ms;
        EXPECT_GE(b.upper[i], n_true - 1e-9)
            << label << " node " << i << " ("
            << OpTypeName(plan.node(i).type) << ") at t=" << snap.time_ms;
      }
    }
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(BoundsTest, FullScanBoundsAreExact) {
  Plan plan = MustFinalize(Scan("t_big"), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(1);
  snap.operators[0].row_count = 1234;
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_DOUBLE_EQ(b.lower[0], 5000.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 5000.0);
}

TEST_F(BoundsTest, PushedPredicateScanUpperBoundShrinksWithReads) {
  Plan plan =
      MustFinalize(Scan("t_big", ColCmp(2, CompareOp::kLt, 1)), *catalog_);
  ProfileSnapshot early;
  early.operators.resize(1);
  early.operators[0].row_count = 10;
  early.operators[0].logical_read_count = 2;
  ProfileSnapshot late = early;
  late.operators[0].logical_read_count = 30;
  late.operators[0].row_count = 40;
  CardinalityBounds b_early = ComputeBounds(plan, *catalog_, early);
  CardinalityBounds b_late = ComputeBounds(plan, *catalog_, late);
  EXPECT_LT(b_late.upper[0], b_early.upper[0]);
  EXPECT_GE(b_early.upper[0], b_early.lower[0]);
}

TEST_F(BoundsTest, FilterBoundFollowsAppendixA) {
  // Filter over full scan: UB = (UB_child - K_child) + K_filter.
  Plan plan = MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(2);
  snap.operators[0].row_count = 100;   // filter output
  snap.operators[1].row_count = 1000;  // scan output
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_DOUBLE_EQ(b.lower[0], 100.0);
  EXPECT_DOUBLE_EQ(b.upper[0], (5000.0 - 1000.0) + 100.0);
}

TEST_F(BoundsTest, JoinBoundFollowsAppendixA) {
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(3);
  snap.operators[0].row_count = 50;    // join output so far
  snap.operators[1].row_count = 200;   // build (outer) complete
  snap.operators[1].finished = true;
  snap.operators[2].row_count = 1000;  // probe (inner)
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  // For Hash Match the streaming input is the probe (children[1]):
  // UB = (UB_probe - K_probe + 1) * UB_build + K_i
  //    = (5000 - 1000 + 1) * 200 + 50.
  EXPECT_DOUBLE_EQ(b.upper[0], (5000.0 - 1000.0 + 1.0) * 200.0 + 50.0);
  EXPECT_DOUBLE_EQ(b.lower[0], 50.0);
}

TEST_F(BoundsTest, FinishedOperatorHasExactBounds) {
  Plan plan = MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(2);
  snap.operators[0].row_count = 500;
  snap.operators[0].finished = true;
  snap.operators[1].row_count = 5000;
  snap.operators[1].finished = true;
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_DOUBLE_EQ(b.lower[0], 500.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 500.0);
}

TEST_F(BoundsTest, ScalarAggregateBoundedByOne) {
  Plan plan = MustFinalize(HashAgg(Scan("t_big"), {}, {Count()}), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(2);
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_DOUBLE_EQ(b.lower[0], 1.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 1.0);
}

TEST_F(BoundsTest, SortPreservesChildBounds) {
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {0}),
      *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(3);
  snap.operators[1].row_count = 300;   // filter output so far
  snap.operators[2].row_count = 2000;  // scan
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  // Sort LB = K_child, UB = UB_child.
  EXPECT_DOUBLE_EQ(b.lower[0], 300.0);
  EXPECT_DOUBLE_EQ(b.upper[0], b.upper[1]);
}

TEST_F(BoundsTest, TopNBoundedByN) {
  Plan plan = MustFinalize(TopNSort(Scan("t_big"), {0}, 10), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(2);
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_LE(b.upper[0], 10.0);
}

TEST_F(BoundsTest, SpoolUnboundedOnInnerSide) {
  Plan plan = MustFinalize(
      Nlj(JoinKind::kInner, Scan("t_small"),
          EagerSpool(Filter(Scan("t_small"), ColCmp(1, CompareOp::kEq, 0)))),
      *catalog_);
  int spool_id = -1;
  plan.root->Visit([&](const PlanNode& n) {
    if (n.type == OpType::kEagerSpool) spool_id = n.id;
  });
  ProfileSnapshot snap;
  snap.operators.resize(static_cast<size_t>(plan.size()));
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  EXPECT_TRUE(std::isinf(b.upper[spool_id]));
}

// ---- Edge cases: empty inputs, infinite uppers, end-of-stream ----

TEST_F(BoundsTest, EmptyTableScanHasZeroExactBounds) {
  auto empty = std::make_unique<Table>(
      "t_empty", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  ASSERT_OK(empty->ClusterBy(0));
  ASSERT_OK(catalog_->AddTable(std::move(empty)));
  ASSERT_OK(catalog_->BuildAllStatistics(StatisticsOptions{}));

  Plan plan = MustFinalize(
      Filter(Scan("t_empty"), ColCmp(1, CompareOp::kLt, 10)), *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(2);
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  // A full scan of a zero-row table is exactly bounded at zero before the
  // first poll, and the filter above it inherits the empty corridor.
  EXPECT_DOUBLE_EQ(b.lower[1], 0.0);
  EXPECT_DOUBLE_EQ(b.upper[1], 0.0);
  EXPECT_DOUBLE_EQ(b.lower[0], 0.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 0.0);
  // Clamp into a degenerate [0, 0] corridor pins every estimate at zero.
  EXPECT_DOUBLE_EQ(b.Clamp(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(b.Clamp(0, 12345.0), 0.0);
}

TEST_F(BoundsTest, ClampStaysFiniteUnderUnboundedSpool) {
  Plan plan = MustFinalize(
      Nlj(JoinKind::kInner, Scan("t_small"),
          EagerSpool(Filter(Scan("t_small"), ColCmp(1, CompareOp::kEq, 0)))),
      *catalog_);
  int spool_id = -1;
  plan.root->Visit([&](const PlanNode& n) {
    if (n.type == OpType::kEagerSpool) spool_id = n.id;
  });
  ProfileSnapshot snap;
  snap.operators.resize(static_cast<size_t>(plan.size()));
  CardinalityBounds b = ComputeBounds(plan, *catalog_, snap);
  ASSERT_TRUE(std::isinf(b.upper[spool_id]));
  // An infinite upper bound must never leak infinity (or NaN) into a
  // clamped estimate: a finite probe comes back finite, idempotent, and at
  // least the lower bound.
  for (double probe : {0.0, 1.0, 1e6, 1e18}) {
    const double c = b.Clamp(spool_id, probe);
    EXPECT_TRUE(std::isfinite(c)) << "probe " << probe;
    EXPECT_GE(c, b.lower[spool_id]) << "probe " << probe;
    EXPECT_DOUBLE_EQ(b.Clamp(spool_id, c), c) << "probe " << probe;
  }
}

TEST_F(BoundsTest, EndOfStreamBoundsCollapseToTrueCardinality) {
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 37)), {1}),
      *catalog_);
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  const auto& fin = result.trace.final_snapshot;
  CardinalityBounds b = ComputeBounds(plan, *catalog_, fin);
  for (int i = 0; i < plan.size(); ++i) {
    ASSERT_TRUE(fin.operators[i].finished) << "node " << i;
    const double k = static_cast<double>(fin.operators[i].row_count);
    // Appendix A: an operator at end-of-stream has exact bounds
    // lower = upper = K_i, so Clamp becomes the constant function K_i.
    EXPECT_DOUBLE_EQ(b.lower[i], k) << "node " << i;
    EXPECT_DOUBLE_EQ(b.upper[i], k) << "node " << i;
    EXPECT_DOUBLE_EQ(b.Clamp(i, 0.0), k) << "node " << i;
    EXPECT_DOUBLE_EQ(b.Clamp(i, 1e12), k) << "node " << i;
  }
}

// ---- Clamp hardening: NaN estimates and inverted ranges ----

TEST(CardinalityBoundsClampTest, NanEstimateClampsToLowerBound) {
  CardinalityBounds b;
  b.lower = {10.0};
  b.upper = {100.0};
  // std::clamp propagates NaN; the bounds corridor must not. The observed
  // lower bound is the only trustworthy value a poisoned estimate leaves.
  const double c = b.Clamp(0, std::nan(""));
  EXPECT_FALSE(std::isnan(c));
  EXPECT_DOUBLE_EQ(c, 10.0);
}

TEST(CardinalityBoundsClampTest, InvertedRangeCollapsesToLowerBound) {
  CardinalityBounds b;
  b.lower = {50.0};
  b.upper = {20.0};  // unsound-engine symptom; std::clamp would be UB
  for (double probe : {0.0, 30.0, 1e9, std::nan("")}) {
    const double c = b.Clamp(0, probe);
    EXPECT_DOUBLE_EQ(c, 50.0) << "probe " << probe;
  }
}

TEST(CardinalityBoundsClampTest, InfiniteEstimateClampsToUpperBound) {
  CardinalityBounds b;
  b.lower = {10.0};
  b.upper = {100.0};
  EXPECT_DOUBLE_EQ(b.Clamp(0, std::numeric_limits<double>::infinity()),
                   100.0);
  EXPECT_DOUBLE_EQ(b.Clamp(0, -std::numeric_limits<double>::infinity()),
                   10.0);
}

// ---- LpBound engine (ℓp-norm pessimistic upper bounds) ----

class LpBoundsTest : public BoundsTest {
 protected:
  // t_small(200: a unique) ⋈ t_big(5000: fk = i % 200) on (a, fk) — the
  // LpBound showcase: node 0 = join, 1 = t_small scan, 2 = t_big scan.
  Plan KeyForeignKeyJoin() {
    return MustFinalize(HashJoin(JoinKind::kInner, Scan("t_small"),
                                 Scan("t_big"), {0}, {1}),
                        *catalog_);
  }

  CardinalityBounds LpBounds(const Plan& plan, const ProfileSnapshot& snap) {
    const PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
    CardinalityBounds out;
    ComputeBoundsPipelineInto(BoundsEngineKind::kLpBound, plan, *catalog_,
                              snap, nullptr, analysis, nullptr, &out, nullptr,
                              nullptr);
    return out;
  }
};

TEST_F(LpBoundsTest, KeyJoinUpperBoundIsDegreeCapNotQuadratic) {
  Plan plan = KeyForeignKeyJoin();
  ProfileSnapshot snap;
  snap.operators.resize(3);
  CardinalityBounds lp = LpBounds(plan, snap);
  // ℓ∞(t_small.a) = 1 (unique key): every t_big row matches at most one
  // t_small row, so UB = 5000 — exact, before a single row has flowed.
  // The Cauchy–Schwarz cap agrees: ℓ2(a)·ℓ2(fk) = √200·√125000 = 5000.
  EXPECT_DOUBLE_EQ(lp.upper[0], 5000.0);
  EXPECT_DOUBLE_EQ(lp.lower[0], 0.0);
  // Appendix A at the same snapshot only has the quadratic product cap.
  CardinalityBounds a = ComputeBounds(plan, *catalog_, snap);
  EXPECT_GT(a.upper[0], 1e6);
}

TEST_F(LpBoundsTest, IntersectTakesTheTighterEngine) {
  Plan plan = KeyForeignKeyJoin();
  ProfileSnapshot snap;
  snap.operators.resize(3);
  const PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  CardinalityBounds a, x, scratch;
  BoundsEngineStats stats;
  ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, plan, *catalog_,
                            snap, nullptr, analysis, nullptr, &a, &scratch,
                            nullptr);
  ComputeBoundsPipelineInto(BoundsEngineKind::kIntersect, plan, *catalog_,
                            snap, nullptr, analysis, nullptr, &x, &scratch,
                            &stats);
  // Per-node containment: the intersection can only shrink intervals.
  for (int i = 0; i < plan.size(); ++i) {
    EXPECT_GE(x.lower[i], a.lower[i]) << "node " << i;
    EXPECT_LE(x.upper[i], a.upper[i]) << "node " << i;
  }
  EXPECT_DOUBLE_EQ(x.upper[0], 5000.0);
  EXPECT_GT(stats.lp_tightenings, 0u);
  EXPECT_EQ(stats.intersection_inversions, 0u);
}

TEST_F(LpBoundsTest, DeclinesRebindingSubtreesUnderNestedLoops) {
  // The ℓp caps bound a single execution; a subtree that may re-execute
  // per outer row must be declined (UB = +inf), not under-bounded.
  Plan plan = MustFinalize(
      Nlj(JoinKind::kInner,
          Filter(Scan("t_small"), ColCmp(1, CompareOp::kLe, 3)),
          CiSeek("t_big", OuterCol(0), OuterCol(0)), nullptr,
          /*buffered=*/true),
      *catalog_);
  int seek_id = -1;
  plan.root->Visit([&](const PlanNode& n) {
    if (IsScan(n.type) && n.table_name == "t_big") seek_id = n.id;
  });
  ASSERT_GE(seek_id, 0);
  ProfileSnapshot snap;
  snap.operators.resize(static_cast<size_t>(plan.size()));
  CardinalityBounds lp = LpBounds(plan, snap);
  EXPECT_TRUE(std::isinf(lp.upper[seek_id]));
}

TEST_F(LpBoundsTest, SemiJoinBoundedByPreservedSide) {
  Plan plan = MustFinalize(HashJoin(JoinKind::kLeftSemi, Scan("t_small"),
                                    Scan("t_big"), {0}, {1}),
                           *catalog_);
  ProfileSnapshot snap;
  snap.operators.resize(3);
  CardinalityBounds lp = LpBounds(plan, snap);
  // A semi join emits each preserved-side row at most once.
  EXPECT_LE(lp.upper[0], 200.0);
}

TEST_F(LpBoundsTest, FinishedJoinFreezesToObservedCount) {
  Plan plan = KeyForeignKeyJoin();
  ProfileSnapshot snap;
  snap.operators.resize(3);
  snap.operators[0].row_count = 4321;
  snap.operators[0].finished = true;
  snap.operators[1].row_count = 200;
  snap.operators[1].finished = true;
  snap.operators[2].row_count = 5000;
  snap.operators[2].finished = true;
  CardinalityBounds lp = LpBounds(plan, snap);
  EXPECT_DOUBLE_EQ(lp.lower[0], 4321.0);
  EXPECT_DOUBLE_EQ(lp.upper[0], 4321.0);
}

TEST_F(LpBoundsTest, LpAndIntersectSoundOverLiveJoinQuery) {
  Plan plan = MustFinalize(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count(), Sum(5)}),
      *catalog_);
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  const auto& fin = result.trace.final_snapshot;
  const PlanAnalysis analysis = AnalyzePlan(plan, catalog_.get());
  CardinalityBounds b, scratch;
  for (BoundsEngineKind kind :
       {BoundsEngineKind::kLpBound, BoundsEngineKind::kIntersect}) {
    for (const auto& snap : result.trace.snapshots) {
      ComputeBoundsPipelineInto(kind, plan, *catalog_, snap, nullptr,
                                analysis, nullptr, &b, &scratch, nullptr);
      for (int i = 0; i < plan.size(); ++i) {
        const double n_true = static_cast<double>(fin.operators[i].row_count);
        ASSERT_LE(b.lower[i], n_true + 1e-9)
            << BoundsEngineName(kind) << " node " << i << " at t="
            << snap.time_ms;
        ASSERT_GE(b.upper[i], n_true - 1e-9)
            << BoundsEngineName(kind) << " node " << i << " at t="
            << snap.time_ms;
      }
    }
  }
}

// ---- Soundness property over live executions ----

TEST_F(BoundsTest, SoundOverLiveFilterQuery) {
  Plan plan = MustFinalize(
      Sort(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 37)), {1}),
      *catalog_);
  CheckSoundness(plan, "filter+sort");
}

TEST_F(BoundsTest, SoundOverLiveJoinAggQuery) {
  Plan plan = MustFinalize(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count(), Sum(5)}),
      *catalog_);
  CheckSoundness(plan, "join+agg");
}

TEST_F(BoundsTest, SoundOverLiveNljQuery) {
  Plan plan = MustFinalize(
      Nlj(JoinKind::kInner,
          Filter(Scan("t_small"), ColCmp(1, CompareOp::kLe, 3)),
          CiSeek("t_big", OuterCol(0), OuterCol(0)), nullptr,
          /*buffered=*/true),
      *catalog_);
  CheckSoundness(plan, "buffered nlj");
}

/// Property sweep: Appendix A bounds are sound at every snapshot of every
/// TPC-H query.
class BoundsSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(BoundsSoundnessSweep, TpchQuerySound) {
  TpchOptions opt;
  opt.scale = 0.1;
  static StatusOr<Workload> workload = MakeTpchWorkload(opt);
  ASSERT_TRUE(workload.ok());
  ASSERT_OK(AnnotateWorkload(&workload.value(), OptimizerOptions{}));
  WorkloadQuery& q = workload->queries[GetParam()];
  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  auto result = ExecuteQuery(q.plan, workload->catalog.get(), exec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& fin = result->trace.final_snapshot;
  for (const auto& snap : result->trace.snapshots) {
    CardinalityBounds b = ComputeBounds(q.plan, *workload->catalog, snap);
    for (int i = 0; i < q.plan.size(); ++i) {
      const double n_true = static_cast<double>(fin.operators[i].row_count);
      ASSERT_LE(b.lower[i], n_true + 1e-9)
          << q.name << " node " << i << " "
          << OpTypeName(q.plan.node(i).type);
      ASSERT_GE(b.upper[i], n_true - 1e-9)
          << q.name << " node " << i << " "
          << OpTypeName(q.plan.node(i).type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTpchQueries, BoundsSoundnessSweep,
                         ::testing::Range(0, 22));

}  // namespace
}  // namespace testing
}  // namespace lqs
