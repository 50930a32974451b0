#include "monitor/monitor_service.h"

#include <algorithm>
#include <chrono>  // lint:allow-wallclock latency telemetry (LatencyClockNowMs)
#include <string>
#include <tuple>
#include <utility>

namespace lqs {

namespace {

/// Monotonic timestamp in ms for latency telemetry. The one sanctioned
/// wall-clock read on the ComputeStatus path: latencies feed stats() and
/// never the session-ordered statuses, so the determinism contract on the
/// output bytes is unaffected.
double LatencyClockNowMs() {
  // lqs-verify: det-ok(latency telemetry feeds stats(), never the statuses)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now.time_since_epoch())
      .count();
}

}  // namespace

MonitorService::MonitorService(MonitorOptions options)
    : options_(options), pool_(options.num_threads) {
  MutexLock lock(&stats_mu_);
  stats_.num_threads = pool_.num_threads();
}

MonitorService::~MonitorService() = default;

const ProgressEstimator* MonitorService::CachedEstimator(
    const Plan* plan, const Catalog* catalog,
    const EstimatorOptions& options) {
  const EstimatorKey key{plan, catalog, options.PackBits()};
  auto it = estimator_cache_.find(key);
  if (it == estimator_cache_.end()) {
    it = estimator_cache_
             .emplace(key, std::make_unique<ProgressEstimator>(plan, catalog,
                                                               options))
             .first;
  }
  return it->second.get();
}

int MonitorService::AddSession(std::string name, const Plan* plan,
                               const Catalog* catalog,
                               double start_offset_ms,
                               const EstimatorOptions& estimator_options,
                               const ProfileTrace* trace,
                               std::unique_ptr<PollingClient> client) {
  const uint32_t index = static_cast<uint32_t>(sessions_.size());
  Session session;
  session.name = std::move(name);
  session.plan = plan;
  session.catalog = catalog;
  session.trace = trace;
  session.start_offset_ms = start_offset_ms;
  session.estimator = CachedEstimator(plan, catalog, estimator_options);
  if (options_.check_invariants) {
    session.checker = std::make_unique<ProgressInvariantChecker>(
        session.estimator, options_.checker_options);
  }
  session.client = std::move(client);
  session.report = std::make_unique<ProgressReport>();
  SessionStatus slot;
  slot.session_id = static_cast<int>(index);
  slot.remote = session.client != nullptr;
  due_.slots.push_back(slot);
  due_.offsets.push_back(session.start_offset_ms);
  due_.arrivals.push_back(index);
  due_.arrivals_sorted = false;
  // Every session may be running at once; growing with the slots' own
  // geometric capacity keeps registration amortized O(1).
  due_.running.reserve(due_.slots.capacity());
  due_.latencies.reserve(due_.slots.capacity());
  const bool lp_bounds = session.estimator->options().bounds_engine !=
                         BoundsEngineKind::kAppendixA;
  sessions_.push_back(std::move(session));
  MutexLock lock(&stats_mu_);
  stats_.sessions = sessions_.size();
  stats_.estimators_cached = estimator_cache_.size();
  if (slot.remote) ++stats_.remote_sessions;
  if (lp_bounds) ++stats_.lp_bounds_sessions;
  return static_cast<int>(index);
}

int MonitorService::RegisterSession(std::string name, const Plan* plan,
                                    const Catalog* catalog,
                                    const ProfileTrace* trace,
                                    double start_offset_ms,
                                    const EstimatorOptions& estimator_options) {
  return AddSession(std::move(name), plan, catalog, start_offset_ms,
                    estimator_options, trace, nullptr);
}

int MonitorService::RegisterRemoteSession(
    std::string name, const Plan* plan, const Catalog* catalog,
    std::unique_ptr<SnapshotEndpoint> endpoint, double start_offset_ms,
    const PollingClientOptions& client_options,
    const EstimatorOptions& estimator_options) {
  return AddSession(
      std::move(name), plan, catalog, start_offset_ms, estimator_options,
      nullptr,
      std::make_unique<PollingClient>(std::move(endpoint), client_options));
}

double MonitorService::HorizonMs() const {
  double horizon = 0;
  for (const Session& s : sessions_) {
    const double elapsed = s.trace != nullptr
                               ? s.trace->total_elapsed_ms
                               : std::max(0.0, s.client->KnownHorizonMs());
    horizon = std::max(horizon, s.start_offset_ms + elapsed);
  }
  return horizon;
}

void MonitorService::SessionCounters::Tally(const Session& session,
                                            const SessionStatus& status) {
  if (status.degraded) ++degraded;
  if (session.client != nullptr) transport += session.client->stats();
  // Only non-default bounds engines ever make these nonzero.
  lp_tightenings += session.workspace.stats.lp_tightenings;
  lp_inversions += session.workspace.stats.intersection_inversions;
}

bool MonitorService::AllSessionsDone() const {
  return due_.retired == sessions_.size();
}

void MonitorService::ComputeStatus(size_t index, double now_ms,
                                   SessionStatus* out, double* latency_ms) {
  Session& session = sessions_[index];
  *out = SessionStatus{};
  out->session_id = static_cast<int>(index);
  out->local_time_ms = now_ms - session.start_offset_ms;
  out->remote = session.client != nullptr;
  *latency_ms = -1;
  if (session.client != nullptr) {
    ComputeRemoteStatus(&session, out, latency_ms);
    return;
  }
  if (out->local_time_ms >= session.trace->total_elapsed_ms) {
    out->state = SessionState::kDone;
    out->snapshot = &session.trace->final_snapshot;
    out->progress = 1.0;
    return;
  }
  out->state = SessionState::kRunning;
  out->snapshot = session.trace->SnapshotAtOrBefore(out->local_time_ms);
  if (out->snapshot == nullptr) {
    // Unreachable for executor-produced traces (the profiler snapshots on
    // its first poll), but hand-built traces may have no sample this early.
    out->progress = 0;
    return;
  }
  EstimateSession(&session, out, latency_ms);
}

void MonitorService::EstimateSession(Session* session, SessionStatus* out,
                                     double* latency_ms) {
  const double start_ms = LatencyClockNowMs();
  ProgressReport* report = session->report.get();
  if (session->checker != nullptr) {
    session->checker->EstimateCheckedInto(*out->snapshot, &session->workspace,
                                          report);
  } else {
    session->estimator->EstimateInto(*out->snapshot, &session->workspace,
                                     report);
  }
  out->report = report;
  out->progress = report->query_progress;
  *latency_ms = LatencyClockNowMs() - start_ms;
}

void MonitorService::ComputeRemoteStatus(Session* session, SessionStatus* out,
                                         double* latency_ms) {
  out->remote = true;
  const ClientView& view = session->client->Poll(out->local_time_ms);
  out->stale = view.stale;
  out->staleness_ms = view.staleness_ms;
  out->degraded = view.health == TransportHealth::kDegraded;
  out->consecutive_failures = view.consecutive_failures;
  if (view.query_complete) {
    // The final snapshot crossed the link; counters are final.
    out->state = SessionState::kDone;
    out->snapshot = view.snapshot;
    out->progress = 1.0;
    return;
  }
  out->state = SessionState::kRunning;
  out->snapshot = view.snapshot;
  if (out->snapshot == nullptr) {
    // Nothing has crossed the link yet (first polls lost, or the server
    // has no sample this early). Progress holds at zero; the session is
    // alive, not wedged.
    out->progress = 0;
    return;
  }
  EstimateSession(session, out, latency_ms);
}

void MonitorService::Advance(double now_ms) {
  const auto tick_start = std::chrono::steady_clock::now();
  // Admission: the waiting tail of `arrivals` is sorted by start offset, so
  // the sessions the timeline reached form its prefix. A session is
  // admitted once its local time `now - offset` is no longer negative.
  if (!due_.arrivals_sorted) {
    std::sort(due_.arrivals.begin() + static_cast<ptrdiff_t>(due_.admitted),
              due_.arrivals.end(), [this](uint32_t a, uint32_t b) {
                return std::tie(due_.offsets[a], a) <
                       std::tie(due_.offsets[b], b);
              });
    due_.arrivals_sorted = true;
  }
  while (due_.admitted < due_.arrivals.size() &&
         now_ms - due_.offsets[due_.arrivals[due_.admitted]] >= 0) {
    // LQS_ALLOC_OK("capacity for every session reserved at registration")
    due_.running.push_back(due_.arrivals[due_.admitted++]);
  }
  const size_t computed = due_.running.size();
  // LQS_ALLOC_OK("capacity for every session reserved at registration")
  due_.latencies.resize(computed);
  // The closure captures two words, so std::function stores it inline.
  pool_.ParallelFor(computed, [this, now_ms](size_t k) {
    const size_t index = due_.running[k];
    ComputeStatus(index, now_ms, &due_.slots[index], &due_.latencies[k]);
  });
  const double tick_wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - tick_start)
                                  .count();
  // Retirement and aggregation run on the ticking thread after the barrier:
  // per-session clients and workspaces are quiescent here (the same
  // ownership rule that lets ComputeStatus mutate them without a lock). A
  // finished session's counters never change again, so they are folded
  // into the retired totals once; only the running set is summed per tick.
  size_t kept = 0;
  for (size_t k = 0; k < computed; ++k) {
    const uint32_t index = due_.running[k];
    if (due_.slots[index].state == SessionState::kDone) {
      due_.retired_counters.Tally(sessions_[index], due_.slots[index]);
      ++due_.retired;
    } else {
      due_.running[kept++] = index;
    }
  }
  due_.running.erase(due_.running.begin() + static_cast<ptrdiff_t>(kept),
                     due_.running.end());
  SessionCounters totals = due_.retired_counters;
  for (uint32_t index : due_.running) {
    totals.Tally(sessions_[index], due_.slots[index]);
  }
  // Waiting and retired slots only move in time. A retired remote session's
  // client would serve its final snapshot again, aged to this tick; that
  // age is recomputed here with the client's own formula.
  for (size_t i = 0; i < due_.slots.size(); ++i) {
    SessionStatus& slot = due_.slots[i];
    if (slot.state == SessionState::kRunning) continue;
    slot.local_time_ms = now_ms - due_.offsets[i];
    if (slot.state == SessionState::kDone && slot.remote) {
      slot.staleness_ms =
          std::max(0.0, slot.local_time_ms - slot.snapshot->time_ms);
    }
  }
  // Counter updates happen after the ParallelFor barrier, under stats_mu_
  // only — the pool's lock is never held here, so the kMonitorStats <
  // kThreadPool rank order is trivially respected.
  MutexLock lock(&stats_mu_);
  stats_.waiting = due_.slots.size() - due_.admitted;
  stats_.active = due_.running.size();
  stats_.done = due_.retired;
  stats_.degraded_sessions = totals.degraded;
  const ClientStats& transport = totals.transport;
  stats_.transport_polls = transport.polls;
  stats_.transport_retries = transport.retries;
  stats_.transport_failures = transport.transport_failures;
  stats_.decode_errors = transport.decode_errors;
  stats_.snapshots_accepted = transport.accepted;
  stats_.duplicates_ignored = transport.duplicates_ignored;
  stats_.regressions_rejected = transport.regressions_rejected;
  stats_.stale_reports = transport.stale_polls;
  stats_.transport_bytes = transport.bytes_received;
  stats_.deltas_applied = transport.deltas_applied;
  stats_.delta_resyncs = transport.delta_resyncs;
  stats_.request_id_mismatches = transport.request_id_mismatches;
  stats_.bounds_lp_tightenings = totals.lp_tightenings;
  stats_.bounds_intersection_inversions = totals.lp_inversions;
  ++stats_.ticks;
  stats_.tick_latency_ms.Add(tick_wall_ms);
  stats_.last_tick_estimate_ms = 0;
  for (size_t k = 0; k < computed; ++k) {
    const double latency = due_.latencies[k];
    if (latency < 0) continue;
    stats_.estimate_latency_ms.Add(latency);
    stats_.last_tick_estimate_ms += latency;
  }
}

std::vector<SessionStatus> MonitorService::Tick(double now_ms) {
  Advance(now_ms);
  return due_.slots;
}

void RunTickSchedule(double horizon_ms, const MonitorOptions& options,
                     const std::function<void(double)>& tick,
                     const std::function<bool()>& all_done) {
  const double width =
      options.tick_ms > 0
          ? options.tick_ms
          : horizon_ms / std::max(1, options.ticks_per_horizon);
  if (width <= 0) {
    // Degenerate horizon: every session is empty. One t=0 tick still
    // reports their kDone states; looping `t += 0` would never terminate
    // (the bug the old multi_query_monitor example had).
    tick(0);
    return;
  }
  // Tick times are indexed (t = i * width), never accumulated
  // (t += width): accumulation compounds one rounding error per
  // iteration, and over thousands of ticks with a binary-inexact width the
  // drift exceeds the 1e-9 horizon slack — the final nominal tick lands
  // past the horizon and is silently skipped, leaving every session one
  // tick short of its completion report. One multiply per tick has a
  // single rounding, so the i-th tick is the same double no matter how
  // many preceded it.
  int64_t i = 1;
  double t = width;
  for (;; ++i) {
    t = static_cast<double>(i) * width;
    if (t > horizon_ms + 1e-9) break;
    tick(t);
  }
  // Overtime: a lossy link may not have delivered some remote session's
  // final snapshot by the nominal horizon (drops, delays). Keep ticking a
  // bounded number of extra intervals; each one is another delivery
  // opportunity. Local trace-backed sessions are always done at the
  // horizon, so a monitor without remote sessions never enters this loop
  // and its output is unchanged.
  for (int extra = 0; extra < options.max_overtime_ticks && !all_done();
       ++extra) {
    tick(t);
    ++i;
    t = static_cast<double>(i) * width;
  }
}

void MonitorService::RunToCompletion(
    const std::function<void(double, const std::vector<SessionStatus>&)>&
        render) {
  if (sessions_.empty()) return;
  RunTickSchedule(
      HorizonMs(), options_,
      [&](double t) {
        auto statuses = Tick(t);
        if (render) render(t, statuses);
      },
      [this] { return AllSessionsDone(); });
}

ValidationReport MonitorService::FinalCheck() {
  ValidationReport merged;
  for (Session& session : sessions_) {
    const ProfileSnapshot* final_snapshot = nullptr;
    if (session.trace != nullptr) {
      final_snapshot = &session.trace->final_snapshot;
    } else if (session.client->complete()) {
      final_snapshot = session.client->final_snapshot();
    } else {
      // The link never delivered the final snapshot (degraded past every
      // overtime tick). The session did not wedge the service, but its
      // monitoring is incomplete — surface that as a finding.
      merged.Add("remote_session_incomplete", -1, -1,
                 session.name +
                     ": final snapshot never crossed the link "
                     "(consecutive failures: " +
                     std::to_string(session.client->view()
                                        .consecutive_failures) +
                     ")");
    }
    if (session.checker == nullptr || final_snapshot == nullptr) continue;
    // A fresh workspace, not the session's: the final estimate must leave
    // the session's report and the published workspace counters untouched.
    ProgressEstimator::Workspace workspace;
    session.checker->CheckFinal(*final_snapshot, &workspace);
    for (const ValidationIssue& issue : session.checker->report().issues()) {
      merged.Add(issue.check, issue.node_id, issue.pipeline_id,
                 session.name + ": " + issue.detail);
    }
  }
  return merged;
}

void MonitorStats::DeriveRates() {
  reports_computed = estimate_latency_ms.count();
  estimate_wall_ms = estimate_latency_ms.sum();
  wall_ms = tick_latency_ms.sum();
  const double reports = static_cast<double>(reports_computed);
  reports_per_sec = wall_ms > 0 ? reports / (wall_ms / 1000.0) : 0;
  estimates_per_sec =
      estimate_wall_ms > 0 ? reports / (estimate_wall_ms / 1000.0) : 0;
}

MonitorStats MonitorService::stats() const {
  MonitorStats stats;
  {
    MutexLock lock(&stats_mu_);
    stats = stats_;
  }
  stats.DeriveRates();
  return stats;
}

}  // namespace lqs
