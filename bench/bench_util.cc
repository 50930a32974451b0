#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/stringf.h"

namespace lqs {
namespace bench {

double BenchScale() {
  const char* env = std::getenv("LQS_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.5;
}

std::vector<Workload> MakeAllWorkloads() {
  const double scale = BenchScale();
  OptimizerOptions opt;
  opt.selectivity_error = kBenchSelectivityError;

  std::vector<Workload> workloads;
  auto add = [&](StatusOr<Workload> w) {
    if (!w.ok()) {
      std::fprintf(stderr, "workload build failed: %s\n",
                   w.status().ToString().c_str());
      std::exit(1);
    }
    Status s = AnnotateWorkload(&w.value(), opt);
    if (!s.ok()) {
      std::fprintf(stderr, "annotation failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    workloads.push_back(std::move(w).value());
  };

  {
    RealWorkloadOptions real;
    real.which = 3;
    real.scale = scale;
    real.num_queries = static_cast<int>(24 * std::min(1.0, scale * 2));
    add(MakeRealWorkload(real));
    real.which = 2;
    real.num_queries = static_cast<int>(30 * std::min(1.0, scale * 2));
    add(MakeRealWorkload(real));
    real.which = 1;
    real.num_queries = static_cast<int>(30 * std::min(1.0, scale * 2));
    add(MakeRealWorkload(real));
  }
  {
    TpcdsOptions ds;
    ds.scale = scale;
    add(MakeTpcdsWorkload(ds));
  }
  {
    TpchOptions h;
    h.scale = scale;
    add(MakeTpchWorkload(h));
  }
  return workloads;
}

WorkloadResult EvaluateWorkload(Workload& workload,
                                const std::vector<EstimatorConfig>& configs) {
  WorkloadResult result;
  result.workload = workload.name;
  result.error_count.assign(configs.size(), 0.0);
  result.error_time.assign(configs.size(), 0.0);
  result.op_count_error.resize(configs.size());
  result.op_time_error.resize(configs.size());

  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;
  for (WorkloadQuery& q : workload.queries) {
    auto run = ExecuteQuery(q.plan, workload.catalog.get(), exec);
    if (!run.ok()) {
      std::fprintf(stderr, "  %s/%s failed: %s\n", workload.name.c_str(),
                   q.name.c_str(), run.status().ToString().c_str());
      continue;
    }
    if (run->trace.snapshots.size() < 3) continue;  // too short to observe
    result.queries++;
    for (size_t c = 0; c < configs.size(); ++c) {
      QueryEvaluation eval = EvaluateQuery(q.plan, *workload.catalog,
                                           run->trace, configs[c].options);
      result.error_count[c] += eval.error_count;
      result.error_time[c] += eval.error_time;
      for (const OperatorError& op : eval.operator_errors) {
        if (op.count_observations > 0) {
          auto& cell = result.op_count_error[c][op.type];
          cell.first += op.count_error;
          cell.second += 1;
        }
        if (op.time_observations > 0) {
          auto& cell = result.op_time_error[c][op.type];
          cell.first += op.time_error;
          cell.second += 1;
        }
      }
    }
  }
  if (result.queries > 0) {
    for (size_t c = 0; c < configs.size(); ++c) {
      result.error_count[c] /= result.queries;
      result.error_time[c] /= result.queries;
    }
  }
  return result;
}

void PrintErrorTable(const std::string& title, const std::string& metric,
                     const std::vector<WorkloadResult>& results,
                     const std::vector<EstimatorConfig>& configs,
                     bool use_time_metric) {
  std::printf("\n%s\n", title.c_str());
  std::printf("(average %s per query; lower is better)\n", metric.c_str());
  std::printf("%-22s %8s", "workload", "queries");
  for (const auto& c : configs) std::printf(" %22s", c.name.c_str());
  std::printf("\n");
  for (const auto& r : results) {
    std::printf("%-22s %8d", r.workload.c_str(), r.queries);
    const auto& errs = use_time_metric ? r.error_time : r.error_count;
    for (double e : errs) std::printf(" %22.4f", e);
    std::printf("\n");
  }
}

void PrintPerOperatorTable(const std::string& title,
                           const std::vector<WorkloadResult>& results,
                           const std::vector<EstimatorConfig>& configs,
                           bool use_time_metric) {
  // Aggregate across workloads.
  std::vector<std::map<OpType, std::pair<double, int>>> agg(configs.size());
  for (const auto& r : results) {
    const auto& src = use_time_metric ? r.op_time_error : r.op_count_error;
    for (size_t c = 0; c < configs.size(); ++c) {
      for (const auto& [type, cell] : src[c]) {
        agg[c][type].first += cell.first;
        agg[c][type].second += cell.second;
      }
    }
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("%-28s %10s", "operator", "instances");
  for (const auto& c : configs) std::printf(" %22s", c.name.c_str());
  std::printf("\n");
  for (const auto& [type, cell0] : agg[0]) {
    if (cell0.second < 3) continue;  // too few instances to be meaningful
    std::printf("%-28s %10d", OpTypeName(type), cell0.second);
    for (size_t c = 0; c < configs.size(); ++c) {
      auto it = agg[c].find(type);
      double avg = (it == agg[c].end() || it->second.second == 0)
                       ? 0.0
                       : it->second.first / it->second.second;
      std::printf(" %22.4f", avg);
    }
    std::printf("\n");
  }
}

std::string MachineJson() {
  return StringF("{\"nproc\":%u,\"compiler\":\"%s\"}",
                 std::thread::hardware_concurrency(), __VERSION__);
}

std::string RenderCurve(const std::vector<double>& values, int width) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  if (values.empty()) return out;
  for (int i = 0; i < width; ++i) {
    size_t idx = values.size() * static_cast<size_t>(i) /
                 static_cast<size_t>(width);
    double v = values[idx];
    int level = static_cast<int>(v * 7.999);
    if (level < 0) level = 0;
    if (level > 7) level = 7;
    out += kLevels[level];
  }
  return out;
}

}  // namespace bench
}  // namespace lqs
