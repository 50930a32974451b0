// Reproduces Table 1 (Appendix A) empirically: per logical-operator bounding
// rule, measures how tight the online LB/UB envelope is around the true
// cardinality at mid-execution, and verifies soundness (zero violations)
// over every snapshot of the TPC-H workload.
//
// Expected shape: 0 violations; bounds tighten materially once upstream
// pipelines complete (the §4.2 "later pipelines" effect).
//
// Also profiles the bounds-engine pipeline: per engine (appendix_a,
// lp_bound, intersect), the absolute interval width (UB − LB) at the ~50%
// snapshot is bucketed on a log10 scale and emitted as a trailing
// "BENCH {...}" JSON line per engine (collected into BENCH_bounds.json),
// so width-distribution shifts between engines are tracked over time.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "lqs/bounds.h"
#include "lqs/pipeline.h"

int main() {
  using namespace lqs;        // NOLINT
  using namespace lqs::bench;  // NOLINT

  TpchOptions opt;
  opt.scale = BenchScale();
  auto w = MakeTpchWorkload(opt);
  if (!w.ok()) return 1;
  OptimizerOptions oo;
  oo.selectivity_error = kBenchSelectivityError;
  if (!AnnotateWorkload(&w.value(), oo).ok()) return 1;

  struct Cell {
    double rel_width_mid = 0;   // (UB-LB)/max(1,N_true) at ~50% time
    double rel_width_late = 0;  // same at ~90% time
    int instances = 0;
    int clamps = 0;  // snapshots where the optimizer estimate fell outside
  };
  std::map<OpType, Cell> table;
  long long checks = 0;
  long long violations = 0;

  // Width histogram per engine: bucket b counts nodes whose mid-snapshot
  // width (UB - LB) falls in [10^(b-1), 10^b) — bucket 0 is width < 1
  // (exact or near-exact), the last bucket is +infinity (spools, declined
  // LpBound subtrees).
  constexpr int kWidthBuckets = 10;  // <1, <10, ..., <1e8, >=1e8, inf
  const BoundsEngineKind kEngines[] = {BoundsEngineKind::kAppendixA,
                                       BoundsEngineKind::kLpBound,
                                       BoundsEngineKind::kIntersect};
  long long width_hist[3][kWidthBuckets + 1] = {};
  auto bucket_of = [](double width) {
    if (!std::isfinite(width)) return kWidthBuckets;
    int b = 0;
    for (double edge = 1.0; b < kWidthBuckets - 1 && width >= edge;
         edge *= 10.0) {
      ++b;
    }
    return width < 1.0 ? 0 : b;
  };

  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;
  for (WorkloadQuery& q : w->queries) {
    auto run = ExecuteQuery(q.plan, w->catalog.get(), exec);
    if (!run.ok() || run->trace.snapshots.size() < 4) continue;
    const auto& snaps = run->trace.snapshots;
    const auto& fin = run->trace.final_snapshot;
    const ProfileSnapshot& mid = snaps[snaps.size() / 2];
    const ProfileSnapshot& late = snaps[snaps.size() * 9 / 10];
    CardinalityBounds b_mid = ComputeBounds(q.plan, *w->catalog, mid);
    CardinalityBounds b_late = ComputeBounds(q.plan, *w->catalog, late);
    const PlanAnalysis analysis = AnalyzePlan(q.plan, w->catalog.get());
    for (int e = 0; e < 3; ++e) {
      CardinalityBounds b, scratch;
      ComputeBoundsPipelineInto(kEngines[e], q.plan, *w->catalog, mid,
                                nullptr, analysis, nullptr, &b, &scratch,
                                nullptr);
      for (int i = 0; i < q.plan.size(); ++i) {
        width_hist[e][bucket_of(b.upper[i] - b.lower[i])]++;
      }
    }
    for (int i = 0; i < q.plan.size(); ++i) {
      const double n_true = static_cast<double>(fin.operators[i].row_count);
      Cell& cell = table[q.plan.node(i).type];
      auto rel = [&](const CardinalityBounds& b) {
        if (!std::isfinite(b.upper[i])) return 10.0;  // cap "unbounded"
        return std::min(10.0,
                        (b.upper[i] - b.lower[i]) / std::max(1.0, n_true));
      };
      cell.rel_width_mid += rel(b_mid);
      cell.rel_width_late += rel(b_late);
      cell.instances++;
      const double est = q.plan.node(i).est_rows;
      if (est < b_mid.lower[i] || est > b_mid.upper[i]) cell.clamps++;
    }
    // Soundness over every snapshot.
    for (const auto& snap : snaps) {
      CardinalityBounds b = ComputeBounds(q.plan, *w->catalog, snap);
      for (int i = 0; i < q.plan.size(); ++i) {
        const double n_true = static_cast<double>(fin.operators[i].row_count);
        checks++;
        if (b.lower[i] > n_true + 1e-9 || b.upper[i] < n_true - 1e-9) {
          violations++;
        }
      }
    }
  }

  std::printf("Table 1 (Appendix A): online cardinality bounds over TPC-H\n");
  std::printf("relative envelope width (UB-LB)/N_true, capped at 10 "
              "(inf for spools)\n\n");
  std::printf("%-30s %10s %12s %12s %14s\n", "operator", "instances",
              "width @50%", "width @90%", "est clamped");
  for (const auto& [type, cell] : table) {
    if (cell.instances == 0) continue;
    std::printf("%-30s %10d %12.3f %12.3f %13.1f%%\n", OpTypeName(type),
                cell.instances, cell.rel_width_mid / cell.instances,
                cell.rel_width_late / cell.instances,
                100.0 * cell.clamps / cell.instances);
  }
  std::printf("\nsoundness: %lld bound checks, %lld violations "
              "(expected: 0)\n",
              checks, violations);

  std::printf("\nmid-execution interval width (UB-LB) per bounds engine, "
              "log10 buckets:\n");
  std::printf("%-12s %6s", "engine", "<1");
  for (int b = 1; b < kWidthBuckets - 1; ++b) {
    std::printf(" %6s", ("<1e" + std::to_string(b)).c_str());
  }
  std::printf(" %6s %6s\n", ">=1e8", "inf");
  std::string bench_lines;
  for (int e = 0; e < 3; ++e) {
    std::printf("%-12s", BoundsEngineName(kEngines[e]));
    for (int b = 0; b <= kWidthBuckets; ++b) {
      std::printf(" %6lld", width_hist[e][b]);
    }
    std::printf("\n");
    std::string buckets;
    for (int b = 0; b <= kWidthBuckets; ++b) {
      buckets += (b ? "," : "") + std::to_string(width_hist[e][b]);
    }
    char line[512];
    std::snprintf(line, sizeof(line),
                  "BENCH {\"bench\":\"table1_bounds_width\",\"engine\":"
                  "\"%s\",\"log10_buckets\":[%s],\"violations\":%lld,"
                  "\"machine\":%s}\n",
                  BoundsEngineName(kEngines[e]), buckets.c_str(),
                  violations, MachineJson().c_str());
    bench_lines += line;
  }
  std::fputs(bench_lines.c_str(), stdout);
  return violations == 0 ? 0 : 1;
}
