// Workloads, trace set-up, session registration and the closed-loop
// timeline of the monitored-path benchmark.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "common/stringf.h"
#include "exec/executor.h"

namespace lqsbench {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one served status into its session's running hash: the progress
/// value bit for bit plus the state, stale and degraded flags.
uint64_t HashStatus(uint64_t h, const lqs::SessionStatus& s,
                    uint64_t progress_bits) {
  const uint64_t flags = static_cast<uint64_t>(s.state) |
                         (s.stale ? 4u : 0u) | (s.degraded ? 8u : 0u);
  return Mix(Mix(h, progress_bits), flags);
}

/// Session-ordered digest: per-session hashes combined in session id order.
uint64_t CombineDigest(const std::vector<uint64_t>& hashes) {
  uint64_t h = kFnvOffset;
  for (uint64_t s : hashes) h = Mix(h, s);
  return h;
}

/// Serves the session's snapshots but never its completion: requests are
/// answered as of one tick before the trace ends, forever. A monitor must
/// count the session as unfinished instead of wedging on it.
class NeverCompleteEndpoint : public lqs::SnapshotEndpoint {
 public:
  explicit NeverCompleteEndpoint(std::unique_ptr<lqs::SnapshotEndpoint> inner)
      : inner_(std::move(inner)) {}

  lqs::PollResult Poll(const lqs::PollRequest& request) override {
    lqs::PollRequest held = request;
    const double last = inner_->KnownHorizonMs() - kTickMs;
    held.now_ms = std::min(request.now_ms, last);
    held.deadline_ms = held.now_ms + (request.deadline_ms - request.now_ms);
    return inner_->Poll(held);
  }
  double KnownHorizonMs() const override { return inner_->KnownHorizonMs(); }

 private:
  std::unique_ptr<lqs::SnapshotEndpoint> inner_;
};

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec fleet;
  fleet.name = "fleet_delta_10k";
  fleet.sessions = 10000;
  fleet.remote = true;
  fleet.timelines_per_s = 0.25;
  specs.push_back(fleet);

  WorkloadSpec local;
  local.name = "local_lp_2k";
  local.sessions = 2000;
  local.preset = "lqs_lp";
  local.timelines_per_s = 1.4;
  specs.push_back(local);

  WorkloadSpec lossy;
  lossy.name = "lossy_delta_1k";
  lossy.sessions = 1000;
  lossy.remote = true;
  lossy.faults = true;
  lossy.fault_config.drop_probability = 0.10;
  lossy.fault_config.delay_probability = 0.10;
  lossy.fault_config.max_delay_ms = 3 * kTickMs;
  lossy.fault_config.duplicate_probability = 0.05;
  lossy.fault_config.corrupt_probability = 0.02;
  lossy.client_options.max_attempts = 4;
  lossy.client_options.staleness_policy = lqs::StalenessPolicy::kInterpolate;
  lossy.timelines_per_s = 0.85;
  specs.push_back(lossy);
  return specs;
}

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out) {
  for (WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name != name) continue;
    if (smoke) spec.sessions = std::max(50, spec.sessions / 20);
    *out = std::move(spec);
    return true;
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

std::unique_ptr<Traces> BuildTraces() {
  auto traces = std::make_unique<Traces>();
  const auto t0 = Clock::now();
  lqs::TpcdsOptions ds;
  ds.scale = kTraceScale;
  auto wds = lqs::MakeTpcdsWorkload(ds);
  lqs::TpchOptions h;
  h.scale = kTraceScale;
  auto wh = lqs::MakeTpchWorkload(h);
  if (!wds.ok() || !wh.ok()) {
    std::fprintf(stderr, "lqsbench: workload construction failed\n");
    return nullptr;
  }
  traces->workloads.push_back(std::move(wds).value());
  traces->workloads.push_back(std::move(wh).value());
  const auto t1 = Clock::now();

  lqs::OptimizerOptions oo;
  oo.selectivity_error = kSelectivityError;
  for (lqs::Workload& w : traces->workloads) {
    lqs::Status s = lqs::AnnotateWorkload(&w, oo);
    if (!s.ok()) {
      std::fprintf(stderr, "lqsbench: annotation failed: %s\n",
                   s.ToString().c_str());
      return nullptr;
    }
  }
  const auto t2 = Clock::now();

  lqs::ExecOptions exec;
  exec.snapshot_interval_ms = kTickMs;
  for (lqs::Workload& w : traces->workloads) {
    for (const lqs::WorkloadQuery& q : w.queries) {
      auto result = lqs::ExecuteQuery(q.plan, w.catalog.get(), exec);
      if (!result.ok()) continue;  // a failed query is not monitorable
      Executed e;
      e.name = w.name + "/" + q.name;
      e.plan = &q.plan;
      e.catalog = w.catalog.get();
      e.trace = std::move(result).value().trace;
      traces->executed.push_back(std::move(e));
    }
  }
  const auto t3 = Clock::now();
  if (traces->executed.empty()) {
    std::fprintf(stderr, "lqsbench: no query executed\n");
    return nullptr;
  }
  traces->build_s = MsBetween(t0, t1) / 1000.0;
  traces->annotate_s = MsBetween(t1, t2) / 1000.0;
  traces->execute_s = MsBetween(t2, t3) / 1000.0;
  return traces;
}

std::vector<SessionPlan> PlanSessions(const WorkloadSpec& spec,
                                      const Traces& traces, uint64_t seed) {
  lqs::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x6c717362ull);
  const size_t n = static_cast<size_t>(spec.sessions);
  const size_t q = traces.executed.size();
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i % q);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  std::vector<SessionPlan> plan(n);
  for (size_t i = 0; i < n; ++i) {
    SessionPlan& p = plan[i];
    p.query = order[i];
    p.offset_ms = rng.NextDouble() * kArrivalWindowTicks * kTickMs;
    p.fault_seed = rng.Next();
    p.name = lqs::StringF("s%05zu:%s", i,
                          traces.executed[static_cast<size_t>(p.query)]
                              .name.c_str());
  }
  return plan;
}

lqs::PollResult TimingEndpoint::Poll(const lqs::PollRequest& request) {
  const auto start = Clock::now();
  lqs::PollResult result = inner_->Poll(request);
  const auto end = Clock::now();
  timer_->ns += std::chrono::duration<double, std::nano>(end - start).count();
  ++timer_->calls;
  if (timer_->on_poll) timer_->on_poll(session_, shard_, start, end);
  return result;
}

std::unique_ptr<lqs::SnapshotEndpoint> SessionEndpoint(
    const WorkloadSpec& spec, const Traces& traces,
    const std::vector<SessionPlan>& plan, size_t id, Inject inject) {
  const bool never_complete = inject == Inject::kNeverComplete && id == 0;
  if (!spec.remote && !never_complete) return nullptr;
  const SessionPlan& p = plan[id];
  const Executed& e = traces.executed[static_cast<size_t>(p.query)];
  lqs::LoopbackOptions loopback;
  loopback.serve_deltas = true;
  std::unique_ptr<lqs::SnapshotEndpoint> endpoint =
      std::make_unique<lqs::LoopbackEndpoint>(&e.trace, loopback);
  if (spec.faults) {
    lqs::FaultConfig faults = spec.fault_config;
    faults.seed = p.fault_seed;
    endpoint = std::make_unique<lqs::FaultInjectingEndpoint>(
        std::move(endpoint), faults);
  }
  if (never_complete) {
    endpoint = std::make_unique<NeverCompleteEndpoint>(std::move(endpoint));
  }
  return endpoint;
}

lqs::PollingClientOptions ClientOptionsFor(const WorkloadSpec& spec,
                                           const SessionPlan& plan) {
  lqs::PollingClientOptions options = spec.client_options;
  options.jitter_seed = plan.fault_seed ^ 0x6a6974746572ull;
  return options;
}

lqs::EstimatorOptions PresetOptions(const WorkloadSpec& spec) {
  lqs::EstimatorOptions options;
  if (!lqs::EstimatorOptions::PresetFromName(spec.preset, &options)) {
    std::fprintf(stderr, "lqsbench: unknown preset %s\n",
                 spec.preset.c_str());
    std::abort();
  }
  return options;
}

Fleet RegisterFleet(const WorkloadSpec& spec, const Traces& traces,
                    const std::vector<SessionPlan>& plan, EndpointTimer* timer,
                    Inject inject) {
  lqs::ShardedMonitorOptions options;
  options.num_shards = kShards;
  // One thread per shard: with nproc threads the run-to-run spread on a
  // shared 4-vCPU host was 13-25% (pool hand-offs wait on descheduled
  // vCPUs), wider than any bound the benchmark can hold (lqsbench/README.md).
  options.shard_options.num_threads = 1;
  options.shard_options.tick_ms = kTickMs;
  options.shard_tick_budget_ms = 0;  // deterministic output
  const lqs::EstimatorOptions estimator = PresetOptions(spec);

  Fleet fleet;
  const auto start = Clock::now();
  fleet.monitor = std::make_unique<lqs::ShardedMonitor>(options);
  lqs::ShardedMonitor* monitor = fleet.monitor.get();
  for (size_t i = 0; i < plan.size(); ++i) {
    const SessionPlan& p = plan[i];
    const Executed& e = traces.executed[static_cast<size_t>(p.query)];
    std::unique_ptr<lqs::SnapshotEndpoint> endpoint =
        SessionEndpoint(spec, traces, plan, i, inject);
    if (endpoint == nullptr) {
      monitor->RegisterSession(p.name, e.plan, e.catalog, &e.trace,
                               p.offset_ms, estimator);
      continue;
    }
    if (timer != nullptr) {
      endpoint = std::make_unique<TimingEndpoint>(
          std::move(endpoint), timer, static_cast<int>(i),
          monitor->router().ShardFor(p.name));
    }
    monitor->RegisterRemoteSession(p.name, e.plan, e.catalog,
                                   std::move(endpoint), p.offset_ms,
                                   ClientOptionsFor(spec, p), estimator);
  }
  fleet.register_s = MsBetween(start, Clock::now()) / 1000.0;
  return fleet;
}

TimelineResult RunTimeline(lqs::ShardedMonitor* monitor, const Traces& traces,
                           const std::vector<SessionPlan>& plan,
                           bool perturb_digest, const TickHook& hook) {
  TimelineResult r;
  const size_t n = plan.size();
  std::vector<uint64_t> hashes(n, kFnvOffset);
  std::vector<double> error_sum(n, 0);
  std::vector<uint32_t> error_count(n, 0);
  std::vector<uint8_t> done(n, 0);
  std::vector<double> staleness;
  bool perturbed = false;

  auto observe = [&](const std::vector<lqs::SessionStatus>& statuses) {
    for (size_t id = 0; id < statuses.size(); ++id) {
      const lqs::SessionStatus& s = statuses[id];
      if (s.state == lqs::SessionState::kWaiting) continue;
      const double p = s.progress;
      const bool bad = !std::isfinite(p) || p < 0 || p > 1;
      if (bad) ++r.bad_progress;
      uint64_t progress_bits = BitsOf(p);
      if (s.state == lqs::SessionState::kRunning) {
        ++r.reports;
        if (s.degraded) ++r.degraded_reports;
        const double total =
            traces.executed[static_cast<size_t>(plan[id].query)]
                .trace.total_elapsed_ms;
        if (!bad && total > 0) {
          const double fraction =
              std::clamp(s.local_time_ms / total, 0.0, 1.0);
          error_sum[id] += std::abs(p - fraction);
          ++error_count[id];
        }
        // Virtual age of the snapshot behind the report: the client's view
        // for remote sessions, the trace lookup for local ones.
        double age = s.staleness_ms;
        if (!s.remote) {
          age = s.snapshot != nullptr ? s.local_time_ms - s.snapshot->time_ms
                                      : s.local_time_ms;
        }
        staleness.push_back(age);
        if (perturb_digest && !perturbed) {
          progress_bits ^= 1;
          perturbed = true;
        }
      }
      done[id] = s.state == lqs::SessionState::kDone;
      hashes[id] = HashStatus(hashes[id], s, progress_bits);
    }
  };

  const double horizon = monitor->HorizonMs();
  const int max_overtime = lqs::MonitorOptions().max_overtime_ticks;
  int tick = 0;
  auto step = [&](double now_ms) {
    const auto t0 = Clock::now();
    std::vector<lqs::SessionStatus> statuses = monitor->Tick(now_ms);
    const auto t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    r.tick_ms.push_back(ms);
    r.tick_wall_ms += ms;
    observe(statuses);
    if (hook) hook(tick, now_ms, statuses, t0, t1);
    r.excluded_ms += MsBetween(t1, Clock::now());
    ++tick;
  };

  const auto loop_start = Clock::now();
  int64_t i = 1;
  double t = kTickMs;
  for (;; ++i) {
    t = static_cast<double>(i) * kTickMs;
    if (t > horizon + 1e-9) break;
    step(t);
  }
  for (int extra = 0; extra < max_overtime && !monitor->AllSessionsDone();
       ++extra) {
    step(t);
    ++i;
    t = static_cast<double>(i) * kTickMs;
  }
  r.loop_wall_ms = MsBetween(loop_start, Clock::now());
  r.ticks = static_cast<uint64_t>(tick);

  for (uint8_t d : done) r.unfinished += d ? 0 : 1;
  const lqs::ValidationReport check = monitor->FinalCheck();
  for (const lqs::ValidationIssue& issue : check.issues()) {
    r.violations.push_back(issue.ToString());
  }
  r.digest = CombineDigest(hashes);
  double error_total = 0;
  size_t error_sessions = 0;
  for (size_t id = 0; id < n; ++id) {
    if (error_count[id] == 0) continue;
    error_total += error_sum[id] / error_count[id];
    ++error_sessions;
  }
  r.error_time = error_sessions > 0 ? error_total / error_sessions : 0;
  r.staleness_p99_ms = Quantile(std::move(staleness), 0.99);
  r.stats = monitor->stats();
  return r;
}

uint64_t RunToCompletionDigest(lqs::ShardedMonitor* monitor,
                               size_t sessions) {
  std::vector<uint64_t> hashes(sessions, kFnvOffset);
  monitor->RunToCompletion(
      [&](double, const std::vector<lqs::SessionStatus>& statuses) {
        for (size_t id = 0; id < statuses.size(); ++id) {
          const lqs::SessionStatus& s = statuses[id];
          if (s.state == lqs::SessionState::kWaiting) continue;
          hashes[id] = HashStatus(hashes[id], s, BitsOf(s.progress));
        }
      });
  return CombineDigest(hashes);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(values.size(), rank) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

}  // namespace lqsbench
