// Bounds-engine tightness: does intersecting the Appendix A envelope with
// LpBound ℓp-norm pessimistic upper bounds (arXiv:2502.05912) tighten the
// per-operator intervals, and does the tighter clamp improve end-to-end
// Error_time when the optimizer's cardinalities are seeded wrong?
//
// Method: the TPC-H (skewed) and TPC-DS workloads are annotated with seeded
// selectivity misestimation (two severities per workload, distinct seeds)
// so the estimates the bounds must clamp are genuinely bad. Every query
// executes once; at the ~50% snapshot both engines derive intervals
// through ComputeBoundsPipelineInto and the per-node upper-bound q-error
// UB/max(1, N_true) is collected per operator class. The same trace
// then replays through EvaluateQuery twice — Appendix A only vs intersected
// — and Error_time aggregates per engine.
//
// Gate (exit 1 on violation): the intersected pipeline's total Error_time
// must not exceed Appendix A's. The intersection can only shrink intervals
// (lower = max, upper = min, inversions resolve to Appendix A), so a
// regression here means an unsound LpBound cap clamped the estimate away
// from the truth.
//
// Output: deterministic tables plus trailing "BENCH {...}" JSON lines
// (scripts/bench.sh collects them into BENCH_bounds.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "lqs/bounds.h"
#include "lqs/metrics.h"
#include "workload/workload.h"

namespace {

using namespace lqs;  // NOLINT

// Upper-bound q-errors of one engine, joins tracked separately (that is
// where the ℓp caps act; everything else passes bounds through).
struct QErrors {
  std::vector<double> all;
  std::vector<double> joins;
  long long unbounded = 0;  // UB = +inf (spools, declined rebind subtrees)
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t ix = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(ix, v.size() - 1)];
}

void Collect(const Plan& plan, const CardinalityBounds& b,
             const ProfileSnapshot& fin, QErrors* out) {
  for (int i = 0; i < plan.size(); ++i) {
    if (!std::isfinite(b.upper[i])) {
      out->unbounded++;
      continue;
    }
    const double n_true = static_cast<double>(fin.operators[i].row_count);
    const double q = b.upper[i] / std::max(1.0, n_true);
    out->all.push_back(q);
    if (IsJoin(plan.node(i).type)) out->joins.push_back(q);
  }
}

}  // namespace

int main() {
  using namespace lqs::bench;  // NOLINT

  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;

  struct Config {
    std::string workload;
    uint64_t seed;
    double selectivity_error;
  };
  const Config configs[] = {
      {"tpch", 7, kBenchSelectivityError},
      {"tpch", 1031, 2.0},
      {"tpcds", 13, kBenchSelectivityError},
      {"tpcds", 4099, 2.0},
  };

  QErrors q_appendix, q_intersect;
  double time_appendix = 0, time_intersect = 0;
  double count_appendix = 0, count_intersect = 0;
  uint64_t tightenings = 0, inversions = 0;
  int queries = 0;

  std::string bench_lines;
  const std::string machine = MachineJson();
  char line[512];
  for (const Config& cfg : configs) {
    StatusOr<Workload> w = Status::NotFound("unset");
    if (cfg.workload == "tpch") {
      TpchOptions opt;
      opt.scale = BenchScale();
      w = MakeTpchWorkload(opt);
    } else {
      TpcdsOptions opt;
      opt.scale = BenchScale();
      w = MakeTpcdsWorkload(opt);
    }
    if (!w.ok()) {
      std::fprintf(stderr, "workload %s failed: %s\n", cfg.workload.c_str(),
                   w.status().ToString().c_str());
      return 1;
    }
    OptimizerOptions oo;
    oo.selectivity_error = cfg.selectivity_error;
    oo.seed = cfg.seed;
    if (!AnnotateWorkload(&w.value(), oo).ok()) return 1;

    double wl_appendix = 0, wl_intersect = 0;
    int wl_queries = 0;
    for (WorkloadQuery& q : w->queries) {
      auto run = ExecuteQuery(q.plan, w->catalog.get(), exec);
      if (!run.ok() || run->trace.snapshots.size() < 10) continue;
      const auto& snaps = run->trace.snapshots;
      const ProfileSnapshot& fin = run->trace.final_snapshot;
      const ProfileSnapshot& mid = snaps[snaps.size() / 2];

      const PlanAnalysis analysis = AnalyzePlan(q.plan, w->catalog.get());
      CardinalityBounds b_a, b_x, scratch;
      BoundsEngineStats stats;
      ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, q.plan,
                                *w->catalog, mid, nullptr, analysis, nullptr,
                                &b_a, &scratch, nullptr);
      ComputeBoundsPipelineInto(BoundsEngineKind::kIntersect, q.plan,
                                *w->catalog, mid, nullptr, analysis, nullptr,
                                &b_x, &scratch, &stats);
      Collect(q.plan, b_a, fin, &q_appendix);
      Collect(q.plan, b_x, fin, &q_intersect);
      tightenings += stats.lp_tightenings;
      inversions += stats.intersection_inversions;

      const QueryEvaluation ea =
          EvaluateQuery(q.plan, *w->catalog, run->trace,
                        EstimatorOptions::Lqs());
      EstimatorOptions lp = EstimatorOptions::Lqs();
      lp.bounds_engine = BoundsEngineKind::kIntersect;
      const QueryEvaluation ex =
          EvaluateQuery(q.plan, *w->catalog, run->trace, lp);
      time_appendix += ea.error_time;
      time_intersect += ex.error_time;
      count_appendix += ea.error_count;
      count_intersect += ex.error_count;
      wl_appendix += ea.error_time;
      wl_intersect += ex.error_time;
      ++queries;
      ++wl_queries;
    }
    if (wl_queries == 0) continue;
    std::printf("%-6s seed=%-5llu e=%.1f  queries=%2d  Error_time "
                "appendix=%.4f intersect=%.4f\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                cfg.selectivity_error, wl_queries, wl_appendix / wl_queries,
                wl_intersect / wl_queries);
    std::snprintf(line, sizeof(line),
                  "BENCH {\"bench\":\"bounds_tightness\",\"workload\":\"%s\","
                  "\"seed\":%llu,\"selectivity_error\":%.2f,\"queries\":%d,"
                  "\"appendix_error_time\":%.4f,"
                  "\"intersect_error_time\":%.4f,\"machine\":%s}\n",
                  cfg.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed),
                  cfg.selectivity_error, wl_queries, wl_appendix / wl_queries,
                  wl_intersect / wl_queries, machine.c_str());
    bench_lines += line;
  }
  if (queries == 0) {
    std::fprintf(stderr, "no queries executed\n");
    return 1;
  }

  const double n = static_cast<double>(queries);
  std::printf("\nupper-bound q-error UB/max(1,N_true) at the ~50%% "
              "snapshot:\n");
  std::printf("%-12s %10s %10s %12s %12s %12s\n", "engine", "nodes",
              "unbounded", "p50", "p90", "max");
  struct Row {
    const char* name;
    const QErrors* q;
  };
  for (const Row& r : {Row{"appendix_a", &q_appendix},
                       Row{"intersect", &q_intersect}}) {
    std::printf("%-12s %10zu %10lld %12.2f %12.2f %12.2f\n", r.name,
                r.q->all.size(), r.q->unbounded, Percentile(r.q->all, 0.5),
                Percentile(r.q->all, 0.9), Percentile(r.q->all, 1.0));
    std::printf("%-12s %10zu %10s %12.2f %12.2f %12.2f\n", "  joins only",
                r.q->joins.size(), "-", Percentile(r.q->joins, 0.5),
                Percentile(r.q->joins, 0.9), Percentile(r.q->joins, 1.0));
  }
  std::printf("\n%d queries: Error_time appendix=%.4f intersect=%.4f "
              "(Error_count %.4f / %.4f)\n",
              queries, time_appendix / n, time_intersect / n,
              count_appendix / n, count_intersect / n);
  std::printf("lp tightenings=%llu, intersection inversions=%llu "
              "(expected: 0)\n",
              static_cast<unsigned long long>(tightenings),
              static_cast<unsigned long long>(inversions));

  std::snprintf(line, sizeof(line),
                "BENCH {\"bench\":\"bounds_tightness\",\"workload\":\"all\","
                "\"queries\":%d,\"appendix_error_time\":%.4f,"
                "\"intersect_error_time\":%.4f,"
                "\"appendix_join_qerror_p50\":%.3f,"
                "\"intersect_join_qerror_p50\":%.3f,"
                "\"appendix_join_qerror_p90\":%.3f,"
                "\"intersect_join_qerror_p90\":%.3f,"
                "\"lp_tightenings\":%llu,\"intersection_inversions\":%llu,"
                "\"machine\":%s}\n",
                queries, time_appendix / n, time_intersect / n,
                Percentile(q_appendix.joins, 0.5),
                Percentile(q_intersect.joins, 0.5),
                Percentile(q_appendix.joins, 0.9),
                Percentile(q_intersect.joins, 0.9),
                static_cast<unsigned long long>(tightenings),
                static_cast<unsigned long long>(inversions), machine.c_str());
  bench_lines += line;
  std::fputs(bench_lines.c_str(), stdout);

  // Acceptance gates. The intersection may only help: inversions mean an
  // engine produced an unsound interval, and an Error_time regression means
  // a too-tight LpBound cap pulled the clamp away from the truth.
  if (inversions != 0) {
    std::fprintf(stderr, "GATE FAILED: %llu intersection inversions\n",
                 static_cast<unsigned long long>(inversions));
    return 1;
  }
  if (time_intersect > time_appendix + 1e-9) {
    std::fprintf(stderr,
                 "GATE FAILED: intersect Error_time %.4f > appendix-only "
                 "%.4f\n",
                 time_intersect / n, time_appendix / n);
    return 1;
  }
  std::printf("gate ok: no inversions, intersect Error_time <= appendix\n");
  return 0;
}
