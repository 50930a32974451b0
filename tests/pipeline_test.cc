#include "gtest/gtest.h"

#include "lqs/pipeline.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

// Entity e's list from the flat span pair (begin, ids).
std::vector<int> Span(const std::vector<int>& begin,
                      const std::vector<int>& ids, int e) {
  return std::vector<int>(ids.begin() + begin[e], ids.begin() + begin[e + 1]);
}

bool HasFlag(const PlanAnalysis& a, int id, NodeFlag flag) {
  return (a.flags[id] & flag) != 0;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }
  PlanAnalysis Analyze(const Plan& plan) {
    return AnalyzePlan(plan, catalog_.get());
  }
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(PipelineTest, SingleScanIsOnePipeline) {
  Plan plan = MustFinalize(Scan("t_small"), *catalog_);
  PlanAnalysis a = Analyze(plan);
  ASSERT_EQ(a.pipeline_count(), 1);
  EXPECT_EQ(Span(a.driver_begin, a.driver_ids, 0), std::vector<int>{0});
}

TEST_F(PipelineTest, Figure5ShapeDecomposesIntoPipelines) {
  // The paper's Figure 5: Merge Join of (Sort over Index Scan T.A) with
  // Index Scan T.B, then Filter and (Hash) Group-By above.
  //  - the Sort input forms its own pipeline (pipeline 1),
  //  - the group-by input boundary splits the plan again.
  NodePtr mj = MergeJoin(JoinKind::kInner, Sort(CiScan("t_small"), {0}),
                         IdxScan("t_big", "ix_fk"), {0}, {1});
  NodePtr root = HashAgg(Filter(std::move(mj), ColCmp(1, CompareOp::kLe, 5)),
                         {2}, {Count()});
  Plan plan = MustFinalize(std::move(root), *catalog_);
  PlanAnalysis a = Analyze(plan);

  // Pipelines: [HashAgg output], [Filter+MergeJoin+Sort(out)+IndexScan],
  // [Sort input scan].
  ASSERT_EQ(a.pipeline_count(), 3);

  // Locate nodes.
  int sort_id = -1;
  int scan_a = -1;
  int scan_b = -1;
  int agg_id = -1;
  plan.root->Visit([&](const PlanNode& n) {
    if (n.type == OpType::kSort) sort_id = n.id;
    if (n.type == OpType::kClusteredIndexScan) scan_a = n.id;
    if (n.type == OpType::kIndexScan) scan_b = n.id;
    if (n.type == OpType::kHashAggregate) agg_id = n.id;
  });
  ASSERT_GE(sort_id, 0);

  // The Sort and Index Scan T.B are drivers of the middle pipeline; the
  // scan under the Sort drives the bottom pipeline (the Figure 5 shading).
  const int mid = a.pipeline_of_node[sort_id];
  const std::vector<int> mid_drivers = Span(a.driver_begin, a.driver_ids, mid);
  EXPECT_NE(mid, a.pipeline_of_node[scan_a]);
  EXPECT_EQ(a.pipeline_of_node[scan_b], mid);
  EXPECT_EQ(mid_drivers.size(), 2u);
  EXPECT_TRUE(std::count(mid_drivers.begin(), mid_drivers.end(), sort_id) ==
              1);
  EXPECT_TRUE(std::count(mid_drivers.begin(), mid_drivers.end(), scan_b) ==
              1);

  // The aggregate's output pipeline is above the boundary.
  EXPECT_NE(a.pipeline_of_node[agg_id], mid);
}

TEST_F(PipelineTest, HashJoinBuildSideIsSeparatePipeline) {
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog_);
  PlanAnalysis a = Analyze(plan);
  ASSERT_EQ(a.pipeline_count(), 2);
  // Probe scan shares the join's pipeline; build scan does not.
  EXPECT_EQ(a.pipeline_of_node[0], a.pipeline_of_node[2]);
  EXPECT_NE(a.pipeline_of_node[0], a.pipeline_of_node[1]);
  // The root pipeline's child is the build pipeline.
  EXPECT_EQ(Span(a.child_pipeline_begin, a.child_pipeline_ids,
                 a.pipeline_of_node[0])
                .size(),
            1u);
}

TEST_F(PipelineTest, NljInnerSideExcludedFromDrivers) {
  Plan plan = MustFinalize(
      Nlj(JoinKind::kInner, Scan("t_small"),
          CiSeek("t_big", OuterCol(0), OuterCol(0))),
      *catalog_);
  PlanAnalysis a = Analyze(plan);
  ASSERT_EQ(a.pipeline_count(), 1);
  // Node 1 = outer scan (driver), node 2 = inner seek (inner driver).
  EXPECT_EQ(Span(a.driver_begin, a.driver_ids, 0), std::vector<int>{1});
  EXPECT_EQ(Span(a.inner_driver_begin, a.inner_driver_ids, 0),
            std::vector<int>{2});
  EXPECT_TRUE(HasFlag(a, 2, kFlagOnNljInner));
  EXPECT_FALSE(HasFlag(a, 1, kFlagOnNljInner));
  // The enclosing join is node 0: its outer and inner inputs.
  EXPECT_EQ(a.nlj_outer_child[2], 1);
  EXPECT_EQ(a.nlj_inner_child[2], 2);
}

TEST_F(PipelineTest, ExchangeMarksSeparation) {
  // Nodes above an Exchange are separated from the pipeline's drivers by a
  // semi-blocking operator (§4.4(2)).
  Plan plan = MustFinalize(
      Filter(Gather(Scan("t_big")), ColCmp(2, CompareOp::kLt, 10)),
      *catalog_);
  PlanAnalysis a = Analyze(plan);
  ASSERT_EQ(a.pipeline_count(), 1);
  // Filter above exchange.
  EXPECT_TRUE(HasFlag(a, 0, kFlagSeparatedBySemiBlocking));
  // The scan itself.
  EXPECT_FALSE(HasFlag(a, 2, kFlagSeparatedBySemiBlocking));
  // The exchange node itself is not separated (its child is the scan).
  EXPECT_FALSE(HasFlag(a, 1, kFlagSeparatedBySemiBlocking));
}

TEST_F(PipelineTest, BufferedNljMarksSeparationButUnbufferedDoesNot) {
  auto make = [&](bool buffered) {
    return MustFinalize(
        Filter(Nlj(JoinKind::kInner, Scan("t_small"),
                   CiSeek("t_big", OuterCol(0), OuterCol(0)), nullptr,
                   buffered),
               ColCmp(0, CompareOp::kGe, 0)),
        *catalog_);
  };
  Plan buffered = make(true);
  Plan unbuffered = make(false);
  EXPECT_TRUE(HasFlag(Analyze(buffered), 0, kFlagSeparatedBySemiBlocking));
  EXPECT_FALSE(HasFlag(Analyze(unbuffered), 0, kFlagSeparatedBySemiBlocking));
}

TEST_F(PipelineTest, EagerSpoolIsBlockingBoundary) {
  Plan plan = MustFinalize(EagerSpool(Scan("t_small")), *catalog_);
  PlanAnalysis a = Analyze(plan);
  EXPECT_EQ(a.pipeline_count(), 2);
}

TEST_F(PipelineTest, EveryNodeAssignedToExactlyOnePipeline) {
  // Property over a complex plan.
  NodePtr join = HashJoin(
      JoinKind::kInner,
      Sort(Filter(Scan("t_small"), ColCmp(1, CompareOp::kLe, 5)), {0}),
      Gather(Scan("t_big")), {0}, {1});
  Plan plan = MustFinalize(HashAgg(std::move(join), {2}, {Count()}),
                           *catalog_);
  PlanAnalysis a = Analyze(plan);
  std::vector<int> seen(plan.size(), 0);
  for (int n : a.pipeline_nodes) seen[n]++;
  for (int i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "node " << i;
    EXPECT_EQ(a.pipeline_of_node[i] >= 0, true);
  }
}

}  // namespace
}  // namespace testing
}  // namespace lqs
