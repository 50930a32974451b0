#ifndef LQS_BENCH_BENCH_UTIL_H_
#define LQS_BENCH_BENCH_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "lqs/estimator.h"
#include "lqs/metrics.h"
#include "workload/workload.h"

namespace lqs {
namespace bench {

/// Scale knob for the experiment suite, settable via the LQS_BENCH_SCALE
/// environment variable (default 0.5). 1.0 matches the unit-scale generators
/// (lineitem ~60k rows); the paper's 100 GB datasets are emulated at laptop
/// scale per DESIGN.md §2.
double BenchScale();

/// Snapshot interval used in experiments. The paper polls every 500 ms over
/// minutes-long queries (hundreds of observations per query); at our virtual
/// scale 5 ms yields a comparable observation density.
inline constexpr double kBenchSnapshotIntervalMs = 5.0;

/// Optimizer-error amplification applied in experiments, emulating the stale
/// statistics / complex predicates that make the paper's cardinality
/// estimates err (§3.3).
inline constexpr double kBenchSelectivityError = 1.2;

/// Builds the five §5 workloads (TPC-H skewed, TPC-DS, REAL-1/2/3) at bench
/// scale, annotated. Order matches the paper's figures (REAL-3, REAL-2,
/// REAL-1, TPC-DS, TPC-H).
std::vector<Workload> MakeAllWorkloads();

/// A named estimator configuration column.
struct EstimatorConfig {
  std::string name;
  EstimatorOptions options;
};

/// Aggregated errors of one workload under several configurations.
struct WorkloadResult {
  std::string workload;
  int queries = 0;
  std::vector<double> error_count;  ///< parallel to configs
  std::vector<double> error_time;
  /// Per (config, operator type): summed error and instance count.
  std::vector<std::map<OpType, std::pair<double, int>>> op_count_error;
  std::vector<std::map<OpType, std::pair<double, int>>> op_time_error;
};

/// Executes every query of `workload` once and evaluates each configuration
/// on the shared traces.
WorkloadResult EvaluateWorkload(Workload& workload,
                                const std::vector<EstimatorConfig>& configs);

/// Prints an aligned table: rows = workloads, columns = configs.
void PrintErrorTable(const std::string& title, const std::string& metric,
                     const std::vector<WorkloadResult>& results,
                     const std::vector<EstimatorConfig>& configs,
                     bool use_time_metric);

/// Prints per-operator-type error rows aggregated across `results`.
void PrintPerOperatorTable(const std::string& title,
                           const std::vector<WorkloadResult>& results,
                           const std::vector<EstimatorConfig>& configs,
                           bool use_time_metric);

/// The `machine` object every BENCH line carries: the core count and the
/// compiler the numbers came from, e.g. {"nproc":4,"compiler":"12.2.0"}.
std::string MachineJson();

/// ASCII sparkline of a progress curve (for figure-style benches).
std::string RenderCurve(const std::vector<double>& values, int width = 60);

}  // namespace bench
}  // namespace lqs

#endif  // LQS_BENCH_BENCH_UTIL_H_
