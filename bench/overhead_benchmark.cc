// Micro-benchmarks of the client-side estimator itself (google-benchmark):
// LQS polls the DMV every 500 ms (§2.2), so one EstimateInto call per query
// per tick must be far below that budget. Measures progress estimation,
// bounds computation and plan analysis on a representative multi-join plan.

#include <benchmark/benchmark.h>

#include "analysis/invariant_checker.h"
#include "bench/bench_util.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"

namespace {

using namespace lqs;        // NOLINT
using namespace lqs::bench;  // NOLINT

struct Fixture {
  Workload workload;
  Plan* plan = nullptr;
  ProfileSnapshot snapshot;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      TpchOptions opt;
      opt.scale = 0.1;
      auto w = MakeTpchWorkload(opt);
      if (!w.ok()) std::abort();
      fx->workload = std::move(w).value();
      OptimizerOptions oo;
      if (!AnnotateWorkload(&fx->workload, oo).ok()) std::abort();
      // q05 is the widest plan (6-way join with bitmap).
      for (auto& q : fx->workload.queries) {
        if (q.name == "q05") fx->plan = &q.plan;
      }
      ExecOptions exec;
      exec.snapshot_interval_ms = 5.0;
      auto run = ExecuteQuery(*fx->plan, fx->workload.catalog.get(), exec);
      if (!run.ok() || run->trace.snapshots.empty()) std::abort();
      fx->snapshot = run->trace.snapshots[run->trace.snapshots.size() / 2];
      return fx;
    }();
    return *f;
  }
};

// One estimate against a fresh Workspace and report per iteration: the
// cost of a client that keeps no state between polls.
void BM_EstimateFullLqs(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ProgressEstimator est(f.plan, f.workload.catalog.get(),
                        EstimatorOptions::Lqs());
  for (auto _ : state) {
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    est.EstimateInto(f.snapshot, &workspace, &report);
    benchmark::DoNotOptimize(report.query_progress);
  }
}
BENCHMARK(BM_EstimateFullLqs);

// The allocation-free path: same estimate as BM_EstimateFullLqs through a
// reused Workspace + report. The delta against BM_EstimateFullLqs is what
// per-call workspace sizing plus the forgone cross-call caches cost;
// bench/estimator_throughput measures the same split over whole traces.
void BM_EstimateIntoReused(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ProgressEstimator est(f.plan, f.workload.catalog.get(),
                        EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (auto _ : state) {
    est.EstimateInto(f.snapshot, &workspace, &report);
    benchmark::DoNotOptimize(report.query_progress);
  }
}
BENCHMARK(BM_EstimateIntoReused);

// Same per-snapshot work as BM_EstimateIntoReused but routed through the
// runtime invariant checker with its default (cheap) options — the delta
// between the two is the cost of leaving the checker on in production
// replay loops. Budget: under 5% on top of EstimateInto.
void BM_EstimateFullLqsChecked(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ProgressEstimator est(f.plan, f.workload.catalog.get(),
                        EstimatorOptions::Lqs());
  ProgressInvariantChecker checker(&est);
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (auto _ : state) {
    checker.EstimateCheckedInto(f.snapshot, &workspace, &report);
    benchmark::DoNotOptimize(report.query_progress);
  }
  if (!checker.report().ok()) state.SkipWithError("invariant violation");
}
BENCHMARK(BM_EstimateFullLqsChecked);

// The deep-bounds variant recomputes and cross-checks Appendix A bounds on
// every snapshot; this is the test/debug configuration, benchmarked here so
// a regression in its (expected, roughly 2x) cost is visible.
void BM_EstimateFullLqsDeepChecked(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ProgressEstimator est(f.plan, f.workload.catalog.get(),
                        EstimatorOptions::Lqs());
  InvariantCheckerOptions opts;
  opts.deep_bounds_check = true;
  ProgressInvariantChecker checker(&est, opts);
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (auto _ : state) {
    checker.EstimateCheckedInto(f.snapshot, &workspace, &report);
    benchmark::DoNotOptimize(report.query_progress);
  }
  if (!checker.report().ok()) state.SkipWithError("invariant violation");
}
BENCHMARK(BM_EstimateFullLqsDeepChecked);

void BM_EstimateTgn(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ProgressEstimator est(f.plan, f.workload.catalog.get(),
                        EstimatorOptions::TotalGetNext());
  for (auto _ : state) {
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    est.EstimateInto(f.snapshot, &workspace, &report);
    benchmark::DoNotOptimize(report.query_progress);
  }
}
BENCHMARK(BM_EstimateTgn);

void BM_ComputeBounds(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBounds(*f.plan, *f.workload.catalog, f.snapshot));
  }
}
BENCHMARK(BM_ComputeBounds);

void BM_PlanAnalysis(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzePlan(*f.plan, f.workload.catalog.get()));
  }
}
BENCHMARK(BM_PlanAnalysis);

void BM_EstimatorConstruction(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    ProgressEstimator est(f.plan, f.workload.catalog.get(),
                          EstimatorOptions::Lqs());
    benchmark::DoNotOptimize(&est);
  }
}
BENCHMARK(BM_EstimatorConstruction);

}  // namespace

BENCHMARK_MAIN();
