// Shared declarations of the monitored-path benchmark (lqsbench).
//
// The benchmark drives the whole monitored path through the public
// ShardedMonitor facade: seeded TPC-H/TPC-DS traces are built, annotated
// and executed (workload, optimizer, exec), sessions are registered, and
// the shared virtual timeline is ticked to completion — remote endpoint ->
// PollingClient -> EstimateInto -> invariant check -> shard tick and merge.
// It measures every layer from outside: it times calls into public
// functions and reads the public stats() counters; nothing under src/ is
// instrumented. See lqsbench/README.md for the metric map.

#ifndef LQSBENCH_BENCH_H_
#define LQSBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmv/query_profile.h"
#include "monitor/sharded_monitor.h"
#include "remote/endpoint.h"
#include "remote/fault_injection.h"
#include "remote/polling_client.h"
#include "workload/workload.h"

namespace lqsbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The bit pattern of `d`, for bit-exact comparisons and digests.
inline uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Tick spacing and DMV snapshot interval in virtual ms; the same 5 ms the
/// repository's fleet benches use, about 1,284 ticks per timeline.
inline constexpr double kTickMs = 5.0;
/// Sessions arrive at a seeded offset inside this many ticks.
inline constexpr int kArrivalWindowTicks = 64;
/// Optimizer selectivity-error amplification of the traces (as in the
/// repository's benches).
inline constexpr double kSelectivityError = 1.2;
/// Scale of the TPC-H/TPC-DS traces: 44 executed queries.
inline constexpr double kTraceScale = 0.2;
/// MonitorService shards behind the ShardedMonitor facade.
inline constexpr int kShards = 4;

/// Deliberate faults used by the benchmark's own tests to prove the gate.
enum class Inject {
  kNone,
  /// Session 0 polls an endpoint that never reports completion.
  kNeverComplete,
  /// The first timeline's digest sees one flipped progress bit.
  kPerturbDigest,
};

/// One benchmark workload: how many sessions of which kind, on which
/// transport.
struct WorkloadSpec {
  std::string name;
  int sessions = 0;
  /// Endpoint-backed sessions (RegisterRemoteSession) on the delta
  /// transport; local trace-backed sessions otherwise.
  bool remote = false;
  /// Estimator preset name from the repository's registry.
  std::string preset = "lqs";
  bool faults = false;
  lqs::FaultConfig fault_config;
  lqs::PollingClientOptions client_options;
  /// Measured timelines per second of --seconds. The number of timelines
  /// depends on --seconds and the workload only, never on how fast they
  /// run, so every commit's per-tick minima are over the same number of
  /// runs. Set so a run lasts about --seconds on the machine in
  /// lqsbench/README.md.
  double timelines_per_s = 1.0;
};

/// Resolves a workload name; `smoke` shrinks the session count for the
/// benchmark's own tests. Returns false on an unknown name.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out);
/// Names of every workload, for usage messages.
std::vector<std::string> WorkloadNames();

/// One executed query: plan, catalog and the DMV trace sessions replay.
struct Executed {
  std::string name;
  const lqs::Plan* plan = nullptr;
  const lqs::Catalog* catalog = nullptr;
  lqs::ProfileTrace trace;
};

/// The seeded traces every session replays, plus the cost of making them.
struct Traces {
  std::vector<lqs::Workload> workloads;
  std::vector<Executed> executed;
  double build_s = 0;
  double annotate_s = 0;
  double execute_s = 0;
};

/// Builds, annotates and executes the TPC-DS and TPC-H workloads. The
/// traces do not depend on the benchmark seed. Returns null on failure
/// (with a message on stderr).
std::unique_ptr<Traces> BuildTraces();

/// What the seed decides for one session.
struct SessionPlan {
  int query = 0;  ///< index into Traces::executed
  double offset_ms = 0;
  uint64_t fault_seed = 0;
  std::string name;
};

/// Balanced assignment: every trace is replayed by floor or ceil of
/// sessions / traces sessions, and the seed shuffles which session gets
/// which trace, its arrival offset in the window and its fault seeds.
std::vector<SessionPlan> PlanSessions(const WorkloadSpec& spec,
                                      const Traces& traces, uint64_t seed);

/// Accumulates wall time spent inside SnapshotEndpoint::Poll of wrapped
/// endpoints. `on_poll`, when set, sees every timed call.
struct EndpointTimer {
  double ns = 0;
  uint64_t calls = 0;
  std::function<void(int session, int shard, Clock::time_point start,
                     Clock::time_point end)>
      on_poll;
};

/// Decorator that times the inner endpoint and forwards everything else
/// unchanged, so wrapped sessions serve the same reports.
class TimingEndpoint : public lqs::SnapshotEndpoint {
 public:
  TimingEndpoint(std::unique_ptr<lqs::SnapshotEndpoint> inner,
                 EndpointTimer* timer, int session, int shard)
      : inner_(std::move(inner)),
        timer_(timer),
        session_(session),
        shard_(shard) {}

  lqs::PollResult Poll(const lqs::PollRequest& request) override;
  double KnownHorizonMs() const override { return inner_->KnownHorizonMs(); }

 private:
  std::unique_ptr<lqs::SnapshotEndpoint> inner_;
  EndpointTimer* timer_;
  int session_;
  int shard_;
};

/// The endpoint chain session `id` polls: loopback over the session's
/// trace, behind the fault injector when the workload has faults (and never
/// completing for session 0 under Inject::kNeverComplete). Null for a local
/// trace-backed session.
std::unique_ptr<lqs::SnapshotEndpoint> SessionEndpoint(
    const WorkloadSpec& spec, const Traces& traces,
    const std::vector<SessionPlan>& plan, size_t id, Inject inject);

/// Polling-client options of one remote session (seeded jitter).
lqs::PollingClientOptions ClientOptionsFor(const WorkloadSpec& spec,
                                           const SessionPlan& plan);

/// Estimator options of the workload's preset.
lqs::EstimatorOptions PresetOptions(const WorkloadSpec& spec);

/// A registered monitor and the cost of registering it.
struct Fleet {
  std::unique_ptr<lqs::ShardedMonitor> monitor;
  double register_s = 0;
};

/// Registers every planned session on a fresh ShardedMonitor whose shards
/// tick on one thread each. With `timer` set, every endpoint is wrapped in
/// a TimingEndpoint feeding it.
Fleet RegisterFleet(const WorkloadSpec& spec, const Traces& traces,
                    const std::vector<SessionPlan>& plan, EndpointTimer* timer,
                    Inject inject);

/// Called after each Tick with the returned statuses and the Tick's wall
/// interval; its own time is excluded from every timed quantity.
using TickHook = std::function<void(int tick, double now_ms,
                                    const std::vector<lqs::SessionStatus>&,
                                    Clock::time_point tick_start,
                                    Clock::time_point tick_end)>;

/// Everything one timeline run observed.
struct TimelineResult {
  uint64_t ticks = 0;
  /// Operations: one running session on one tick.
  uint64_t reports = 0;
  /// Reports served by a degraded session.
  uint64_t degraded_reports = 0;
  /// Progress values that were non-finite or outside [0, 1].
  uint64_t bad_progress = 0;
  /// Sessions not done at the end of the timeline.
  uint64_t unfinished = 0;
  /// FinalCheck findings.
  std::vector<std::string> violations;
  std::vector<double> tick_ms;
  double tick_wall_ms = 0;
  double loop_wall_ms = 0;
  double excluded_ms = 0;
  uint64_t digest = 0;
  double error_time = 0;
  double staleness_p99_ms = 0;
  lqs::MonitorStats stats;

  uint64_t Failed() const { return degraded_reports + unfinished; }
  double ReportsPerSecond() const {
    return tick_wall_ms > 0 ? static_cast<double>(reports) /
                                  (tick_wall_ms / 1000.0)
                            : 0;
  }
};

/// Ticks `monitor` through the virtual timeline in a closed loop: the next
/// Tick is issued only after the previous one returns, at the schedule
/// ShardedMonitor::RunToCompletion uses (t = i * kTickMs up to the horizon,
/// then bounded overtime ticks while a session is unfinished).
TimelineResult RunTimeline(lqs::ShardedMonitor* monitor, const Traces& traces,
                           const std::vector<SessionPlan>& plan,
                           bool perturb_digest, const TickHook& hook);

/// Digest of the same timeline driven by ShardedMonitor::RunToCompletion
/// itself; the smoke mode checks it against RunTimeline's.
uint64_t RunToCompletionDigest(lqs::ShardedMonitor* monitor,
                               size_t sessions);

/// Costs of the traced run. Layer times come from outside
/// the program: the in-situ TimingEndpoint around every endpoint, and
/// standalone replays of each report's client poll, estimate, invariant
/// check and bounds, run after each tick in lockstep with the monitor.
struct TracedRun {
  TimelineResult timeline;
  double register_s = 0;
  /// Sum over ticks of the shards' own Tick wall time (stats().wall_ms).
  double shard_wall_ms = 0;
  /// One shard_stats() read plus its MonitorAggregator::Merge, per tick.
  double stats_ms = 0;
  uint64_t stats_calls = 0;
  /// Endpoint time inside the monitor's shard ticks.
  double endpoint_ns = 0;
  uint64_t endpoint_calls = 0;
  /// Standalone client replay of remote sessions: PollingClient::Poll
  /// minus endpoint time, over polls that crossed the link.
  double client_ns = 0;
  uint64_t client_polls = 0;
  /// Standalone estimator replays, one per computed report.
  double estimate_ns = 0;
  double checked_ns = 0;
  double bounds_ns = 0;
  uint64_t estimates = 0;
  /// Replayed reports whose progress differs from the served one.
  uint64_t replay_mismatches = 0;
  size_t spans = 0;
};

/// Runs the workload with tracing on and replays every report through the
/// layers' public functions; with a non-empty `span_path`, the spans are
/// written there (TSV) at the end.
TracedRun RunTraced(const WorkloadSpec& spec, const Traces& traces,
                    const std::vector<SessionPlan>& plan, Inject inject,
                    const std::string& span_path);

/// Mean cost of each wire operation over the consecutive snapshots of
/// every session's trace (weighted by the sessions replaying it).
struct CodecCosts {
  double encode_full_ns = 0;
  double encode_delta_ns = 0;
  double delta_make_ns = 0;
  double delta_apply_ns = 0;
  double decode_full_ns = 0;
  double decode_delta_ns = 0;
  double crc_ns_per_kb = 0;
  /// Operations that failed (a program defect; gated).
  uint64_t errors = 0;
};
CodecCosts ReplayCodec(const Traces& traces,
                       const std::vector<SessionPlan>& plan);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace lqsbench

#endif  // LQSBENCH_BENCH_H_
