// Estimator-throughput benchmark: fresh-allocation vs workspace-reusing
// estimation over whole recorded traces, at 1 / 8 / 64 concurrent sessions,
// on TPC-H + TPC-DS plans under all four §5 presets and their `_lp`
// variants (bounds_engine = kIntersect, the engine lqsbench's local_lp_2k
// runs).
//
// Both modes run in one invocation over the identical snapshot schedule:
//
//  - "fresh": ProgressEstimator with incremental=false, one EstimateInto
//    per snapshot against a fresh Workspace and report — the paper's
//    stateless §2.2 client, which reallocates every intermediate vector and
//    re-derives every finished operator's bounds, alpha and weight per
//    poll. (It reads the same hoisted plan analysis as "reuse": the
//    estimator has no path that re-reads the catalog per snapshot.)
//  - "reuse": incremental=true estimators, one Workspace per session,
//    EstimateInto() — the zero-allocation engine with finished-operator
//    short-circuits.
//
// A third pass over the same schedule times the bounds stage alone:
// ComputeBoundsPipelineInto with the preset's engine on per-session
// buffers, as lqsbench's traced replay does (bounds_ns_per_estimate; 0 for
// presets that do not bound). ns_per_estimate and bounds_ns_per_estimate
// are per estimate over the fastest of the cell's kReps replays.
//
// Reports are bit-identical across the two modes (also enforced by
// tests/estimator_workspace_test.cc); this bench cross-checks
// query_progress on every single estimate and fails on any mismatch.
//
//   $ ./build/bench/estimator_throughput
//
// All non-"BENCH " lines are deterministic; the trailing "BENCH {...}" JSON
// lines carry the wall-clock measurements (estimates/sec and reuse-mode
// ns per estimate per cell, overall speedup, and a monitor-layer
// reports/sec pair), each with the machine it ran on.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stringf.h"
#include "exec/executor.h"
#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "workload/workload.h"

using namespace lqs;         // NOLINT: bench code
using namespace lqs::bench;  // NOLINT

namespace {

struct Executed {
  const WorkloadQuery* query;
  const Catalog* catalog;
  ExecutionResult result;
};

double NowWallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One registered replay session: a trace plus its estimation state.
struct ReplaySession {
  const Executed* executed = nullptr;
  const ProgressEstimator* estimator = nullptr;
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  CardinalityBounds bounds;
  CardinalityBounds bounds_scratch;
};

enum class Mode { kFresh, kReuse, kBounds };

struct CellResult {
  uint64_t estimates = 0;
  double wall_ms = 0;
  double progress_sum = 0;  ///< Σ query_progress — deterministic checksum
  /// Fastest single replay of the schedule, per estimate: the host's
  /// speed swings over tens of milliseconds, so the best of the reps is
  /// the stable per-estimate cost (ns_per_estimate).
  double best_rep_ns_per_estimate = 0;
  uint64_t alpha_freezes = 0;
  uint64_t weight_cache_hits = 0;
};

/// How many times each cell replays its full snapshot schedule: the
/// 1-session cells cover only a few dozen estimates per pass, far too few
/// for a stable wall-clock read. Reps keep the schedule identical across
/// the two modes, so the progress-sum cross-check still holds exactly.
constexpr int kReps = 5;

/// Replays every session's full trace, interleaved round-robin across
/// sessions the way a monitor tick would, in one of the three modes.
CellResult RunCell(std::vector<ReplaySession>* sessions, Mode mode) {
  CellResult cell;
  size_t max_len = 0;
  for (const ReplaySession& s : *sessions) {
    max_len = std::max(max_len, s.executed->result.trace.snapshots.size());
  }
  const double start = NowWallMs();
  for (int rep = 0; rep < kReps; ++rep) {
    const double rep_start = NowWallMs();
    const uint64_t rep_first = cell.estimates;
    for (size_t t = 0; t < max_len; ++t) {
      for (ReplaySession& s : *sessions) {
        const auto& snaps = s.executed->result.trace.snapshots;
        if (t >= snaps.size()) continue;
        if (mode == Mode::kReuse) {
          s.estimator->EstimateInto(snaps[t], &s.workspace, &s.report);
        } else if (mode == Mode::kFresh) {
          ProgressEstimator::Workspace workspace;
          s.report = ProgressReport();
          s.estimator->EstimateInto(snaps[t], &workspace, &s.report);
        } else {
          const ProgressEstimator& e = *s.estimator;
          ComputeBoundsPipelineInto(e.options().bounds_engine, e.plan(),
                                    e.catalog(), snaps[t], &e.analysis(),
                                    e.analysis(), nullptr, &s.bounds,
                                    &s.bounds_scratch, nullptr);
          cell.progress_sum += s.bounds.lower[0];
          ++cell.estimates;
          continue;
        }
        cell.progress_sum += s.report.query_progress;
        ++cell.estimates;
      }
    }
    const uint64_t rep_estimates = cell.estimates - rep_first;
    if (rep_estimates > 0) {
      const double ns = (NowWallMs() - rep_start) * 1e6 /
                        static_cast<double>(rep_estimates);
      if (rep == 0 || ns < cell.best_rep_ns_per_estimate) {
        cell.best_rep_ns_per_estimate = ns;
      }
    }
  }
  cell.wall_ms = NowWallMs() - start;
  for (const ReplaySession& s : *sessions) {
    cell.alpha_freezes += s.workspace.stats.alpha_freezes;
    cell.weight_cache_hits += s.workspace.stats.weight_cache_hits;
  }
  return cell;
}

}  // namespace

int main() {
  TpcdsOptions ds;
  ds.scale = 0.2;
  auto wds = MakeTpcdsWorkload(ds);
  TpchOptions h;
  h.scale = 0.2;
  auto wh = MakeTpchWorkload(h);
  if (!wds.ok() || !wh.ok()) {
    std::fprintf(stderr, "workload construction failed\n");
    return 1;
  }
  OptimizerOptions oo;
  oo.selectivity_error = kBenchSelectivityError;
  if (!AnnotateWorkload(&wds.value(), oo).ok() ||
      !AnnotateWorkload(&wh.value(), oo).ok()) {
    return 1;
  }
  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;
  std::vector<Executed> executed;
  for (Workload* w : {&wds.value(), &wh.value()}) {
    for (const WorkloadQuery& q : w->queries) {
      auto result = ExecuteQuery(q.plan, w->catalog.get(), exec);
      if (!result.ok()) continue;
      executed.push_back(
          Executed{&q, w->catalog.get(), std::move(result).value()});
    }
  }
  if (executed.empty()) {
    std::fprintf(stderr, "no queries executed\n");
    return 1;
  }

  // The shared preset registry keeps the bench's configuration list and
  // output labels in lockstep with the estimator; each preset is followed
  // by its `_lp` (kIntersect) variant.
  std::vector<EstimatorConfig> presets;
  for (int i = 0; i < EstimatorOptions::kPresetCount; ++i) {
    for (const char* suffix : {"", "_lp"}) {
      const std::string name =
          std::string(EstimatorOptions::PresetName(i)) + suffix;
      EstimatorOptions options;
      if (!EstimatorOptions::PresetFromName(name, &options)) return 1;
      presets.push_back({name, options});
    }
  }
  const std::string machine = MachineJson();
  const std::vector<size_t> session_counts = {1, 8, 64};

  // Estimators cached per (plan, mode) within a preset, like the monitor's
  // cache: many sessions of the same query share one const estimator, each
  // owning its workspace.
  double total_fresh_ms = 0;
  double total_reuse_ms = 0;
  uint64_t mismatched_cells = 0;
  std::string bench_lines;
  for (const EstimatorConfig& preset : presets) {
    for (size_t num_sessions : session_counts) {
      EstimatorOptions fresh_options = preset.options;
      fresh_options.incremental = false;
      EstimatorOptions reuse_options = preset.options;
      reuse_options.incremental = true;
      std::map<const Plan*, std::unique_ptr<ProgressEstimator>> fresh_cache;
      std::map<const Plan*, std::unique_ptr<ProgressEstimator>> reuse_cache;
      std::vector<ReplaySession> fresh_sessions(num_sessions);
      std::vector<ReplaySession> reuse_sessions(num_sessions);
      for (size_t i = 0; i < num_sessions; ++i) {
        const Executed& e = executed[i % executed.size()];
        auto& fresh = fresh_cache[&e.query->plan];
        if (fresh == nullptr) {
          fresh = std::make_unique<ProgressEstimator>(
              &e.query->plan, e.catalog, fresh_options);
        }
        auto& reused = reuse_cache[&e.query->plan];
        if (reused == nullptr) {
          reused = std::make_unique<ProgressEstimator>(
              &e.query->plan, e.catalog, reuse_options);
        }
        fresh_sessions[i].executed = &e;
        fresh_sessions[i].estimator = fresh.get();
        reuse_sessions[i].executed = &e;
        reuse_sessions[i].estimator = reused.get();
      }

      const CellResult fresh = RunCell(&fresh_sessions, Mode::kFresh);
      const CellResult reuse = RunCell(&reuse_sessions, Mode::kReuse);
      const CellResult bounds =
          preset.options.bound_cardinality
              ? RunCell(&reuse_sessions, Mode::kBounds)
              : CellResult();
      total_fresh_ms += fresh.wall_ms;
      total_reuse_ms += reuse.wall_ms;
      // Bit-identity cross-check: identical schedule, so the progress sums
      // must be exactly equal (sums of identical doubles in identical
      // order). Compare representations to satisfy the no-float-== rule.
      const bool identical =
          StringF("%.17g", fresh.progress_sum) ==
          StringF("%.17g", reuse.progress_sum);
      if (!identical) ++mismatched_cells;
      std::printf("preset=%-11s sessions=%2zu estimates=%6llu "
                  "progress_sum=%.6f identical=%s\n",
                  preset.name.c_str(), num_sessions,
                  static_cast<unsigned long long>(reuse.estimates),
                  reuse.progress_sum, identical ? "yes" : "NO");
      const double fresh_rate =
          fresh.wall_ms > 0
              ? static_cast<double>(fresh.estimates) / (fresh.wall_ms / 1e3)
              : 0;
      const double reuse_rate =
          reuse.wall_ms > 0
              ? static_cast<double>(reuse.estimates) / (reuse.wall_ms / 1e3)
              : 0;
      bench_lines += StringF(
          "BENCH {\"bench\":\"estimator_throughput\",\"preset\":\"%s\","
          "\"sessions\":%zu,\"estimates\":%llu,"
          "\"estimates_per_sec_fresh\":%.0f,"
          "\"estimates_per_sec_reuse\":%.0f,\"speedup\":%.2f,"
          "\"ns_per_estimate\":%.1f,\"bounds_ns_per_estimate\":%.1f,"
          "\"alpha_freezes\":%llu,\"weight_cache_hits\":%llu,"
          "\"identical\":%s,\"machine\":%s}\n",
          preset.name.c_str(), num_sessions,
          static_cast<unsigned long long>(reuse.estimates), fresh_rate,
          reuse_rate, fresh_rate > 0 ? reuse_rate / fresh_rate : 0,
          reuse.best_rep_ns_per_estimate, bounds.best_rep_ns_per_estimate,
          static_cast<unsigned long long>(reuse.alpha_freezes),
          static_cast<unsigned long long>(reuse.weight_cache_hits),
          identical ? "true" : "false", machine.c_str());
    }
  }

  // Monitor-layer pair: the same 64-session monitor run with incremental
  // estimation on vs off — reports/sec includes checker + fan-out cost.
  double monitor_rates[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    const bool reuse = mode == 1;
    EstimatorOptions options = EstimatorOptions::Lqs();
    options.incremental = reuse;
    MonitorOptions mo;
    mo.ticks_per_horizon = 24;
    MonitorService monitor(mo);
    double offset = 0;
    for (size_t i = 0; i < 64; ++i) {
      const Executed& e = executed[i % executed.size()];
      monitor.RegisterSession(StringF("s%03zu:%s", i, e.query->name.c_str()),
                              &e.query->plan, e.catalog, &e.result.trace,
                              offset, options);
      offset += 11.0;
    }
    monitor.RunToCompletion({});
    ValidationReport invariants = monitor.FinalCheck();
    if (!invariants.ok()) {
      std::fprintf(stderr, "%s", invariants.ToString().c_str());
      return 1;
    }
    monitor_rates[mode] = monitor.stats().estimates_per_sec;
  }
  bench_lines += StringF(
      "BENCH {\"bench\":\"estimator_throughput_monitor\",\"sessions\":64,"
      "\"estimates_per_sec_fresh\":%.0f,\"estimates_per_sec_reuse\":%.0f,"
      "\"speedup\":%.2f,\"machine\":%s}\n",
      monitor_rates[0], monitor_rates[1],
      monitor_rates[0] > 0 ? monitor_rates[1] / monitor_rates[0] : 0,
      machine.c_str());

  const double overall =
      total_reuse_ms > 0 ? total_fresh_ms / total_reuse_ms : 0;
  bench_lines += StringF(
      "BENCH {\"bench\":\"estimator_throughput\",\"preset\":\"all\","
      "\"sessions\":0,\"fresh_wall_ms\":%.1f,\"reuse_wall_ms\":%.1f,"
      "\"overall_speedup\":%.2f,\"mismatched_cells\":%llu,"
      "\"machine\":%s}\n",
      total_fresh_ms, total_reuse_ms, overall,
      static_cast<unsigned long long>(mismatched_cells), machine.c_str());
  std::fputs(bench_lines.c_str(), stdout);
  if (mismatched_cells > 0) {
    std::fprintf(stderr,
                 "FAIL: fresh and reuse reports diverged in %llu cells\n",
                 static_cast<unsigned long long>(mismatched_cells));
    return 1;
  }
  return 0;
}
