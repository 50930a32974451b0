#include "monitor/sharded_monitor.h"

#include <algorithm>
#include <chrono>  // lint:allow-wallclock backpressure wall-time telemetry
#include <utility>

namespace lqs {

ShardedMonitor::ShardedMonitor(ShardedMonitorOptions options)
    : options_(options), router_(options.num_shards) {
  shards_.resize(static_cast<size_t>(router_.num_shards()));
  for (Shard& shard : shards_) {
    shard.service = std::make_unique<MonitorService>(options_.shard_options);
  }
  MutexLock lock(&backpressure_mu_);
  poll_divisors_.assign(shards_.size(), 1);
  last_tick_wall_ms_.assign(shards_.size(), 0);
}

int ShardedMonitor::RegisterSession(std::string name, const Plan* plan,
                                    const Catalog* catalog,
                                    const ProfileTrace* trace,
                                    double start_offset_ms,
                                    const EstimatorOptions& estimator_options) {
  const int shard_id = router_.ShardFor(name);
  MonitorService& service = *shards_[static_cast<size_t>(shard_id)].service;
  const int local_id =
      service.RegisterSession(std::move(name), plan, catalog, trace,
                              start_offset_ms, estimator_options);
  return RecordHome(shard_id, local_id);
}

int ShardedMonitor::RegisterRemoteSession(
    std::string name, const Plan* plan, const Catalog* catalog,
    std::unique_ptr<SnapshotEndpoint> endpoint, double start_offset_ms,
    const PollingClientOptions& client_options,
    const EstimatorOptions& estimator_options) {
  const int shard_id = router_.ShardFor(name);
  MonitorService& service = *shards_[static_cast<size_t>(shard_id)].service;
  const int local_id = service.RegisterRemoteSession(
      std::move(name), plan, catalog, std::move(endpoint), start_offset_ms,
      client_options, estimator_options);
  return RecordHome(shard_id, local_id);
}

int ShardedMonitor::RecordHome(int shard_id, int local_id) {
  const int global_id = static_cast<int>(session_homes_.size());
  session_homes_.push_back(SessionHome{shard_id, local_id});
  shards_[static_cast<size_t>(shard_id)].global_ids.push_back(global_id);
  return global_id;
}

double ShardedMonitor::HorizonMs() const {
  double horizon = 0;
  for (const Shard& shard : shards_) {
    horizon = std::max(horizon, shard.service->HorizonMs());
  }
  return horizon;
}

bool ShardedMonitor::AllSessionsDone() const {
  for (const Shard& shard : shards_) {
    if (!shard.service->AllSessionsDone()) return false;
  }
  return true;
}

void ShardedMonitor::AdjustBackpressure(int shard_index) {
  if (options_.shard_tick_budget_ms <= 0) return;
  const size_t i = static_cast<size_t>(shard_index);
  if (last_tick_wall_ms_[i] > options_.shard_tick_budget_ms) {
    poll_divisors_[i] =
        std::min(poll_divisors_[i] * 2, std::max(1, options_.max_poll_divisor));
  } else if (last_tick_wall_ms_[i] < options_.shard_tick_budget_ms / 2) {
    poll_divisors_[i] = std::max(1, poll_divisors_[i] / 2);
  }
}

std::vector<SessionStatus> ShardedMonitor::Tick(double now_ms) {
  std::vector<SessionStatus> statuses(session_homes_.size());
  // Completion is exempt from backpressure: at or past the horizon every
  // shard ticks every time, so degraded shards still deliver their final
  // reports instead of holding a stale running view forever. Without a
  // budget every shard is due anyway, so the horizon is not consulted.
  const bool at_horizon =
      options_.shard_tick_budget_ms > 0 && now_ms + 1e-9 >= HorizonMs();
  for (size_t shard_index = 0; shard_index < shards_.size(); ++shard_index) {
    Shard& shard = shards_[shard_index];
    int divisor;
    {
      // Sample the divisor, then release: backpressure_mu_ must never be
      // held across the shard tick below (it fans out on the shard's
      // ThreadPool — the blocking-under-lock shape the locks checker
      // rejects).
      MutexLock lock(&backpressure_mu_);
      divisor = poll_divisors_[shard_index];
    }
    const bool due =
        shard.computed_sessions == 0 || divisor <= 1 || at_horizon ||
        tick_index_ % static_cast<uint64_t>(divisor) == 0;
    if (due) {
      const auto start = std::chrono::steady_clock::now();
      shard.service->Advance(now_ms);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      shard.computed_sessions = shard.service->session_count();
      MutexLock lock(&backpressure_mu_);
      last_tick_wall_ms_[shard_index] = wall_ms;
      AdjustBackpressure(static_cast<int>(shard_index));
    }
    const std::vector<SessionStatus>& slots = shard.service->statuses();
    for (size_t local = 0; local < shard.computed_sessions; ++local) {
      SessionStatus& status =
          statuses[static_cast<size_t>(shard.global_ids[local])];
      status = slots[local];
      status.session_id = shard.global_ids[local];
      // Skipped by admission control: the held view is served as-is, but
      // flagged — a dashboard must know it is looking at old data.
      if (!due && status.state == SessionState::kRunning) status.stale = true;
    }
  }
  ++tick_index_;
  return statuses;
}

void ShardedMonitor::RunToCompletion(
    const std::function<void(double, const std::vector<SessionStatus>&)>&
        render) {
  if (session_homes_.empty()) return;
  RunTickSchedule(
      HorizonMs(), options_.shard_options,
      [&](double t) {
        auto statuses = Tick(t);
        if (render) render(t, statuses);
      },
      [this] { return AllSessionsDone(); });
}

ValidationReport ShardedMonitor::FinalCheck() {
  ValidationReport merged;
  for (Shard& shard : shards_) {
    merged.Merge(shard.service->FinalCheck());
  }
  return merged;
}

MonitorStats ShardedMonitor::stats() const {
  return MonitorAggregator::Merge(shard_stats());
}

std::vector<MonitorStats> ShardedMonitor::shard_stats() const {
  std::vector<MonitorStats> stats;
  stats.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    stats.push_back(shard.service->stats());
  }
  return stats;
}

const ClientStats& ShardedMonitor::session_client_stats(
    int session_id) const {
  const SessionHome& home = session_homes_[static_cast<size_t>(session_id)];
  return shards_[static_cast<size_t>(home.shard)]
      .service->session_client_stats(home.local_id);
}

}  // namespace lqs
