// Monitor-subsystem scale benchmark, two modes.
//
// Default mode: ≥64 staggered TPC-DS / TPC-H sessions replayed through one
// MonitorService, measuring per-tick latency and report throughput, and
// *proving* the determinism contract: the rendered monitor output of a
// 1-thread run and an N-thread run are compared byte-for-byte on every
// invocation.
//
//   $ ./build/bench/monitor_scale [--threads=N] [--sessions=N]
//
// Sharded mode (the fleet-scale numbers behind BENCH_monitor_scale.json):
// sessions become *remote* loopback sessions — every snapshot crosses the
// wire format — spread across a ShardedMonitor, comparing the full-snapshot
// transport against the delta transport at the identical poll rate.
//
//   $ ./build/bench/monitor_scale --shards=4 --transport=delta --sessions=1000
//   $ ./build/bench/monitor_scale --sweep    # 1k/4k/10k, full vs delta,
//                                            # plus a 10k backpressure run
//
// The sweep gates (non-zero exit) on the acceptance criteria: every run
// completes with per-session progress monotone (within the checkers' 0.01
// revision slack), and the delta transport saves at least 3x steady-state
// bytes/session/sec at every fleet size. --budget-ms=X enables admission
// control (see ShardedMonitorOptions::shard_tick_budget_ms).
//
// Environment: LQS_MONITOR_THREADS overrides --threads (0 = hardware).
// All monitor lines in default mode are deterministic; the trailing
// "BENCH {...}" JSON lines carry the wall-clock measurements and are the
// only nondeterministic output:
//
//   $ ./monitor_scale --threads=1 | grep -v '^BENCH' > one.txt
//   $ ./monitor_scale --threads=8 | grep -v '^BENCH' > eight.txt
//   $ diff one.txt eight.txt

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stringf.h"
#include "exec/executor.h"
#include "monitor/monitor_aggregator.h"
#include "monitor/monitor_service.h"
#include "monitor/sharded_monitor.h"
#include "remote/endpoint.h"
#include "workload/workload.h"

using namespace lqs;         // NOLINT: bench code
using namespace lqs::bench;  // NOLINT

namespace {

struct Executed {
  const WorkloadQuery* query;
  const Catalog* catalog;
  ExecutionResult result;
};

/// One deterministic line per tick: shared-timeline time, state counts, and
/// progress of every session in registration order (3 decimal places — the
/// exact doubles are identical across thread counts, this just keeps lines
/// readable). This is the string compared across thread counts.
std::string RenderTimeline(MonitorService* monitor) {
  std::string out;
  monitor->RunToCompletion(
      [&out](double t, const std::vector<SessionStatus>& statuses) {
        size_t active = 0, waiting = 0, done = 0;
        std::string row;
        for (const SessionStatus& s : statuses) {
          switch (s.state) {
            case SessionState::kWaiting: ++waiting; row += "  ----"; break;
            case SessionState::kDone:    ++done;    row += "  done"; break;
            case SessionState::kRunning:
              ++active;
              row += StringF(" %5.3f", s.progress);
              break;
          }
        }
        out += StringF("t=%7.1f active=%2zu waiting=%2zu done=%2zu |%s\n", t,
                       active, waiting, done, row.c_str());
      });
  return out;
}

/// One sharded fleet run: `num_sessions` remote loopback sessions over the
/// full or delta transport, polled at the shared kBenchSnapshotIntervalMs
/// tick. Reports whether everyone finished and whether per-session progress
/// stayed monotone within the 0.01 revision slack the invariant checkers
/// use (§5: corrections are revisions, regressions are bugs).
struct ShardedRun {
  MonitorStats stats;
  std::vector<MonitorStats> shard_stats;
  double horizon_ms = 0;
  size_t sessions = 0;
  int shards = 0;
  bool all_done = false;
  bool monotone = true;
  int max_poll_divisor = 1;

  double BytesPerSessionSec() const {
    if (sessions == 0 || horizon_ms <= 0) return 0;
    return static_cast<double>(stats.transport_bytes) /
           static_cast<double>(sessions) / (horizon_ms / 1000.0);
  }
};

ShardedRun RunSharded(const std::vector<Executed>& executed,
                      size_t num_sessions, int shards, bool serve_deltas,
                      double budget_ms, int threads) {
  ShardedMonitorOptions options;
  options.num_shards = shards;
  options.shard_options.num_threads = threads;
  options.shard_options.tick_ms = kBenchSnapshotIntervalMs;
  options.shard_tick_budget_ms = budget_ms;
  ShardedMonitor monitor(options);

  PollingClientOptions client_options;
  client_options.max_attempts = 2;
  LoopbackOptions loopback;
  loopback.serve_deltas = serve_deltas;
  double offset = 0;
  for (size_t i = 0; i < num_sessions; ++i) {
    const Executed& e = executed[i % executed.size()];
    // Stagger arrivals inside a bounded window so the fleet reaches a
    // steady state with most sessions mid-flight (an unbounded stagger
    // would make the horizon scale with the fleet and leave almost every
    // session idle on any given tick).
    offset = static_cast<double>(i % 64) * kBenchSnapshotIntervalMs;
    monitor.RegisterRemoteSession(
        StringF("s%05zu:%s", i, e.query->name.c_str()), &e.query->plan,
        e.catalog,
        std::make_unique<LoopbackEndpoint>(&e.result.trace, loopback), offset,
        client_options);
  }

  ShardedRun run;
  run.sessions = num_sessions;
  run.shards = monitor.num_shards();
  run.horizon_ms = monitor.HorizonMs();
  monitor.RunToCompletion(
      [&](double, const std::vector<SessionStatus>& statuses) {
        (void)statuses;
        for (int s = 0; s < monitor.num_shards(); ++s) {
          run.max_poll_divisor =
              std::max(run.max_poll_divisor, monitor.poll_divisor(s));
        }
      });
  run.all_done = monitor.AllSessionsDone();
  // "Monotone" with the checkers' §5 semantics: every session is wrapped in
  // an always-on ProgressInvariantChecker, which reports any per-tick
  // progress drop beyond the 0.01 slack that is NOT explained by a
  // cardinality revision (revisions are legitimate; regressions are bugs).
  // A clean FinalCheck means every session's rendered progress held that
  // invariant on every computed tick.
  ValidationReport invariants = monitor.FinalCheck();
  run.monotone = invariants.ok();
  if (!invariants.ok()) {
    std::fprintf(stderr, "%s", invariants.ToString().c_str());
  }
  run.stats = monitor.stats();
  run.shard_stats = monitor.shard_stats();
  return run;
}

void PrintShardedBenchLine(const ShardedRun& run, const char* transport,
                           double budget_ms) {
  std::string shard_rates;
  for (const MonitorStats& s : run.shard_stats) {
    if (!shard_rates.empty()) shard_rates += ',';
    shard_rates += StringF("%.0f", s.reports_per_sec);
  }
  std::printf(
      "BENCH {\"bench\":\"monitor_scale\",\"mode\":\"sharded\","
      "\"sessions\":%zu,\"shards\":%d,\"transport\":\"%s\","
      "\"budget_ms\":%.3f,\"ticks\":%llu,\"reports\":%llu,"
      "\"reports_per_sec\":%.0f,\"shard_reports_per_sec\":[%s],"
      "\"transport_bytes\":%llu,\"bytes_per_session_sec\":%.1f,"
      "\"deltas_applied\":%llu,\"delta_resyncs\":%llu,"
      "\"stale_reports\":%llu,\"max_poll_divisor\":%d,"
      "\"all_done\":%s,\"monotone\":%s,\"machine\":%s}\n",
      run.sessions, run.shards, transport, budget_ms,
      static_cast<unsigned long long>(run.stats.ticks),
      static_cast<unsigned long long>(run.stats.reports_computed),
      run.stats.reports_per_sec, shard_rates.c_str(),
      static_cast<unsigned long long>(run.stats.transport_bytes),
      run.BytesPerSessionSec(),
      static_cast<unsigned long long>(run.stats.deltas_applied),
      static_cast<unsigned long long>(run.stats.delta_resyncs),
      static_cast<unsigned long long>(run.stats.stale_reports),
      run.max_poll_divisor, run.all_done ? "true" : "false",
      run.monotone ? "true" : "false", MachineJson().c_str());
}

/// Checks one run against the sweep's hard acceptance criteria.
bool RunHealthy(const ShardedRun& run, const char* label) {
  bool ok = true;
  if (!run.all_done) {
    std::fprintf(stderr, "FAIL: %s: a session wedged (not all done)\n",
                 label);
    ok = false;
  }
  if (!run.monotone) {
    std::fprintf(stderr, "FAIL: %s: per-session progress regressed\n",
                 label);
    ok = false;
  }
  return ok;
}

int RunSweep(const std::vector<Executed>& executed, int shards, int threads) {
  bool ok = true;
  for (size_t sessions : {size_t{1000}, size_t{4000}, size_t{10000}}) {
    ShardedRun full = RunSharded(executed, sessions, shards,
                                 /*serve_deltas=*/false, /*budget_ms=*/0,
                                 threads);
    PrintShardedBenchLine(full, "full", 0);
    ok = RunHealthy(full, "full transport") && ok;

    ShardedRun delta = RunSharded(executed, sessions, shards,
                                  /*serve_deltas=*/true, /*budget_ms=*/0,
                                  threads);
    PrintShardedBenchLine(delta, "delta", 0);
    ok = RunHealthy(delta, "delta transport") && ok;

    const double reduction =
        delta.BytesPerSessionSec() > 0
            ? full.BytesPerSessionSec() / delta.BytesPerSessionSec()
            : 0;
    std::printf(
        "BENCH {\"bench\":\"monitor_scale_delta_reduction\","
        "\"sessions\":%zu,\"shards\":%d,"
        "\"full_bytes_per_session_sec\":%.1f,"
        "\"delta_bytes_per_session_sec\":%.1f,\"reduction\":%.2f,"
        "\"machine\":%s}\n",
        sessions, shards, full.BytesPerSessionSec(),
        delta.BytesPerSessionSec(), reduction, MachineJson().c_str());
    if (reduction < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %zu sessions: delta transport reduction %.2fx is "
                   "below the required 3x\n",
                   sessions, reduction);
      ok = false;
    }
  }

  // The survival run: 10k sessions under an admission budget no shard can
  // meet, so the poll divisors ride the cap — sessions must degrade to
  // stale held views, never wedge, and still finish monotone.
  ShardedRun stress = RunSharded(executed, 10000, shards,
                                 /*serve_deltas=*/true, /*budget_ms=*/0.01,
                                 threads);
  PrintShardedBenchLine(stress, "delta", 0.01);
  ok = RunHealthy(stress, "backpressure stress") && ok;
  if (stress.max_poll_divisor <= 1) {
    std::fprintf(stderr,
                 "FAIL: stress budget never engaged admission control\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;  // hardware default
  size_t num_sessions = 64;
  int shards = 0;  // 0 = single-service default mode
  bool sweep = false;
  bool serve_deltas = false;
  double budget_ms = 0;
  if (const char* env = std::getenv("LQS_MONITOR_THREADS")) {
    threads = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--sessions=", 11) == 0) {
      num_sessions = static_cast<size_t>(std::atoll(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      serve_deltas = std::strcmp(argv[i] + 12, "delta") == 0;
    } else if (std::strncmp(argv[i], "--budget-ms=", 12) == 0) {
      budget_ms = std::atof(argv[i] + 12);
    }
  }

  // Build and execute the distinct queries once; the monitor then replays
  // the traces as many concurrent sessions (the same query text run by many
  // users — which is exactly what the estimator cache exploits).
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
      if (!result.ok()) continue;  // a failed query is not monitorable
      executed.push_back(
          Executed{&q, w->catalog.get(), std::move(result).value()});
    }
  }
  if (executed.empty()) {
    std::fprintf(stderr, "no queries executed\n");
    return 1;
  }

  if (sweep) return RunSweep(executed, shards > 0 ? shards : 4, threads);
  if (shards > 0) {
    ShardedRun run = RunSharded(executed, num_sessions, shards, serve_deltas,
                                budget_ms, threads);
    PrintShardedBenchLine(run, serve_deltas ? "delta" : "full", budget_ms);
    return RunHealthy(run, "sharded run") ? 0 : 1;
  }

  // Register `num_sessions` sessions cycling through the executed traces,
  // arrivals staggered so the monitor sees waiting, active and finished
  // sessions on the same tick.
  auto populate = [&](MonitorService* monitor) {
    double offset = 0;
    for (size_t i = 0; i < num_sessions; ++i) {
      const Executed& e = executed[i % executed.size()];
      monitor->RegisterSession(StringF("s%03zu:%s", i, e.query->name.c_str()),
                               &e.query->plan, e.catalog, &e.result.trace,
                               offset);
      offset += 11.0;
    }
  };

  MonitorOptions serial_opt;
  serial_opt.num_threads = 1;
  serial_opt.ticks_per_horizon = 24;
  MonitorOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = threads;

  // Reference serial run, then the measured parallel run; the rendered
  // timelines must match byte-for-byte (the determinism contract).
  MonitorService serial(serial_opt);
  populate(&serial);
  const std::string serial_render = RenderTimeline(&serial);

  MonitorService parallel(parallel_opt);
  populate(&parallel);
  const std::string parallel_render = RenderTimeline(&parallel);

  const bool deterministic = serial_render == parallel_render;
  std::fputs(parallel_render.c_str(), stdout);

  ValidationReport invariants = parallel.FinalCheck();
  if (!invariants.ok()) {
    std::fprintf(stderr, "%s", invariants.ToString().c_str());
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: 1-thread and %d-thread renders differ (%zu vs %zu "
                 "bytes)\n",
                 parallel.stats().num_threads, serial_render.size(),
                 parallel_render.size());
    return 1;
  }

  // Minimum-work floor: one 64-session timeline serves only ~121 reports,
  // too little work to time, so the measured parallel timeline is replayed
  // on fresh services until at least kMinReports reports have been served.
  // Throughput divides the summed reports by the summed tick wall time;
  // the latency percentiles are over every repetition's samples.
  constexpr uint64_t kMinReports = 100000;
  std::vector<MonitorStats> measured;
  uint64_t reports = 0;
  while (reports < kMinReports) {
    MonitorService repeat(parallel_opt);
    populate(&repeat);
    repeat.RunToCompletion(nullptr);
    measured.push_back(repeat.stats());
    if (measured.back().reports_computed == 0) break;  // nothing to time
    reports += measured.back().reports_computed;
  }
  // Merge sums reports and wall time, merges the latency histograms and
  // maxes ticks (per timeline); the per-service sizes are one repetition's.
  MonitorStats stats = MonitorAggregator::Merge(measured);
  stats.sessions = measured.back().sessions;
  stats.estimators_cached = measured.back().estimators_cached;
  stats.num_threads = measured.back().num_threads;
  std::printf(
      "BENCH {\"bench\":\"monitor_scale\",\"sessions\":%zu,"
      "\"distinct_queries\":%zu,\"estimators_cached\":%zu,\"threads\":%d,"
      "\"repetitions\":%zu,\"ticks\":%llu,\"reports\":%llu,"
      "\"reports_per_sec\":%.0f,"
      "\"p50_estimate_ms\":%.4f,\"p95_estimate_ms\":%.4f,"
      "\"p50_tick_ms\":%.4f,\"p95_tick_ms\":%.4f,\"deterministic\":%s,"
      "\"machine\":%s}\n",
      stats.sessions, executed.size(), stats.estimators_cached,
      stats.num_threads, measured.size(),
      static_cast<unsigned long long>(stats.ticks),
      static_cast<unsigned long long>(stats.reports_computed),
      stats.reports_per_sec, stats.p50_estimate_latency_ms(),
      stats.p95_estimate_latency_ms(), stats.p50_tick_latency_ms(),
      stats.p95_tick_latency_ms(), deterministic ? "true" : "false",
      MachineJson().c_str());
  return 0;
}
