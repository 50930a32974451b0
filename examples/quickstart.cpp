// Quickstart: build a small database, run one query, and watch live query
// and operator progress — the whole public API in ~100 lines.
//
//   $ ./build/examples/quickstart
//
// Steps:
//   1. Create a catalog and load a table.
//   2. Build a physical plan with the pb:: helpers and finalize it.
//   3. Annotate it with optimizer estimates (the "showplan").
//   4. Execute it under the virtual clock, collecting DMV snapshots.
//   5. Replay the snapshots through a ProgressEstimator, LQS-style.

#include <cstdio>

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "lqs/estimator.h"
#include "optimizer/annotate.h"
#include "storage/catalog.h"
#include "workload/plan_builder.h"

using namespace lqs;      // NOLINT: example code
using namespace lqs::pb;  // NOLINT

int main() {
  // 1. A catalog with one table: orders(id, customer, amount).
  Catalog catalog;
  auto orders = std::make_unique<Table>(
      "orders", Schema({{"id", DataType::kInt64},
                        {"customer", DataType::kInt64},
                        {"amount", DataType::kDouble}}));
  Rng rng(42);
  for (int64_t i = 0; i < 50000; ++i) {
    orders->AppendRow(Row{Value(i), Value(rng.NextInRange(0, 999)),
                          Value(rng.NextDouble() * 100)});
  }
  if (!orders->ClusterBy(0).ok()) return 1;
  if (!catalog.AddTable(std::move(orders)).ok()) return 1;
  StatisticsOptions stats;
  if (!catalog.BuildAllStatistics(stats).ok()) return 1;

  // 2. Plan: total amount per customer for a range of orders, sorted.
  //    Sort <- HashAggregate <- ClusteredIndexScan(pushed range predicate)
  auto root = Sort(
      HashAgg(CiScan("orders", ColBetween(/*col=*/0, 10000, 45000)),
              {/*group by customer*/ 1}, {Sum(2), Count()}),
      {/*order by customer*/ 0});
  auto plan_or = FinalizePlan(std::move(root), catalog);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "plan error: %s\n",
                 plan_or.status().ToString().c_str());
    return 1;
  }
  Plan plan = std::move(plan_or).value();

  // 3. Optimizer annotation — estimated rows and CPU/I-O costs per node.
  if (!AnnotatePlan(&plan, catalog, OptimizerOptions{}).ok()) return 1;
  // Sanity-check the finished plan before estimating progress on it; the
  // validator catches malformed id spaces, arities and negative estimates.
  ValidationReport plan_report = PlanValidator(&catalog).Validate(plan);
  if (!plan_report.ok()) {
    std::fprintf(stderr, "%s", plan_report.ToString().c_str());
    return 1;
  }
  std::printf("Execution plan:\n%s\n", PlanToString(plan).c_str());

  // 4. Execute; the profiler polls the DMV counters every 5 virtual ms.
  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  auto result = ExecuteQuery(plan, &catalog, exec);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("query returned %llu rows in %.1f virtual ms, %zu snapshots\n\n",
              static_cast<unsigned long long>(result->rows_returned),
              result->duration_ms, result->trace.snapshots.size());

  // 5. Replay the DMV snapshots through the LQS estimator. The invariant
  //    checker rides along and turns any out-of-range or inconsistent
  //    progress value into a nonzero exit.
  ProgressEstimator estimator(&plan, &catalog, EstimatorOptions::Lqs());
  ProgressInvariantChecker checker(&estimator);
  std::printf("%10s %10s | per-operator progress\n", "time(ms)", "query");
  const auto& snaps = result->trace.snapshots;
  const size_t stride = std::max<size_t>(1, snaps.size() / 12);
  // Workspace + report reused across the polling loop (the allocation-free
  // replay pattern; see the Workspace contract in lqs/estimator.h).
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (size_t i = 0; i < snaps.size(); i += stride) {
    checker.EstimateCheckedInto(snaps[i], &workspace, &report);
    std::printf("%10.1f %9.1f%% |", snaps[i].time_ms,
                100 * report.query_progress);
    for (int node = 0; node < plan.size(); ++node) {
      std::printf(" [%d]%3.0f%%", node, 100 * report.operator_progress[node]);
    }
    std::printf("\n");
  }
  checker.CheckFinal(result->trace.final_snapshot, &workspace);
  if (!checker.report().ok()) {
    std::fprintf(stderr, "%s", checker.report().ToString().c_str());
    return 1;
  }
  std::printf("\nOperators: [0]=Sort [1]=Hash Aggregate [2]=Scan\n");
  return 0;
}
