#ifndef LQS_MONITOR_SHARDED_MONITOR_H_
#define LQS_MONITOR_SHARDED_MONITOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "monitor/monitor_aggregator.h"
#include "monitor/monitor_service.h"
#include "monitor/session_router.h"

namespace lqs {

/// Knobs of the sharded monitor.
struct ShardedMonitorOptions {
  /// Number of MonitorService instances (each with its own ThreadPool).
  int num_shards = 4;
  /// Options applied to every shard's MonitorService.
  MonitorOptions shard_options;
  /// Real-time budget for one shard tick, in wall-clock ms. When > 0,
  /// admission control activates: a shard whose tick overruns the budget
  /// has its poll rate halved (divisor doubled, up to max_poll_divisor) —
  /// on skipped ticks its sessions serve the held view, marked stale,
  /// instead of queueing work the shard cannot absorb. A tick back under
  /// half the budget halves the divisor again. 0 disables backpressure
  /// (and keeps Tick output fully deterministic).
  double shard_tick_budget_ms = 0;
  /// Upper bound on the poll divisor: even a hopelessly overloaded shard
  /// still recomputes every max_poll_divisor-th tick, so sessions degrade
  /// — they never wedge.
  int max_poll_divisor = 8;
};

/// N MonitorService shards behind one monitor facade — the fleet-scale
/// layer (§2: progress must stay cheap enough to poll for *every* running
/// query). Sessions route to shards by consistent hashing on the session
/// name (SessionRouter), each shard ticks its sessions on its own
/// ThreadPool, and stats() merges per-shard MonitorStats through
/// MonitorAggregator.
///
/// Global session ids are dense in registration order across the whole
/// monitor; Tick() returns statuses indexed by global id regardless of
/// which shard computed them.
///
/// Shards are ticked sequentially on the driver thread. That keeps the
/// determinism contract of MonitorService intact end-to-end — with
/// backpressure disabled, output depends only on the registered sessions
/// and tick times, not on shard count or thread counts (the scale bench
/// self-checks this) — and it means per-shard wall times are disjoint, so
/// the aggregator may sum them.
///
/// Backpressure (shard_tick_budget_ms > 0) trades freshness for survival:
/// an overrunning shard serves held, stale-marked views on the ticks it
/// skips. Completion is exempt — once the timeline reaches the horizon
/// every shard ticks every time, so a degraded shard still finishes.
///
/// Threading: register/tick from one driver thread, same as
/// MonitorService. stats() is safe from any thread (it only reads the
/// shards' stats(), each behind its own stats_mu_), and so is
/// poll_divisor(): the backpressure state lives behind backpressure_mu_
/// (lock_rank::kShardedBackpressure), taken briefly around a shard tick and
/// never across one.
class ShardedMonitor {
 public:
  explicit ShardedMonitor(ShardedMonitorOptions options = {});

  /// Registers a trace-backed session; returns its global id. `plan`,
  /// `catalog` and `trace` must outlive the monitor.
  int RegisterSession(std::string name, const Plan* plan,
                      const Catalog* catalog, const ProfileTrace* trace,
                      double start_offset_ms,
                      const EstimatorOptions& estimator_options =
                          EstimatorOptions::Lqs());

  /// Registers an endpoint-backed session; returns its global id.
  int RegisterRemoteSession(std::string name, const Plan* plan,
                            const Catalog* catalog,
                            std::unique_ptr<SnapshotEndpoint> endpoint,
                            double start_offset_ms,
                            const PollingClientOptions& client_options = {},
                            const EstimatorOptions& estimator_options =
                                EstimatorOptions::Lqs());

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t session_count() const { return session_homes_.size(); }
  /// Shard a registered session landed on.
  int ShardOf(int session_id) const {
    return session_homes_[static_cast<size_t>(session_id)].shard;
  }
  const SessionRouter& router() const { return router_; }
  /// Current poll divisor of one shard (1 = every tick). Safe from any
  /// thread — a dashboard can watch admission control live.
  int poll_divisor(int shard) const LQS_EXCLUDES(backpressure_mu_) {
    MutexLock lock(&backpressure_mu_);
    return poll_divisors_[static_cast<size_t>(shard)];
  }

  /// Latest virtual completion time across all shards.
  double HorizonMs() const;
  bool AllSessionsDone() const;

  /// Ticks every due shard at `now_ms` (non-decreasing across calls) and
  /// returns statuses indexed by global session id, copied straight from
  /// the shards' status slots. Sessions on shards skipped by backpressure
  /// report their held status, running ones with `stale` set.
  std::vector<SessionStatus> Tick(double now_ms);

  /// Runs the whole timeline (same contract as
  /// MonitorService::RunToCompletion, driven by shard_options' tick knobs).
  void RunToCompletion(
      const std::function<void(double now_ms,
                               const std::vector<SessionStatus>&)>& render);

  /// Merged end-of-timeline invariant verdict across all shards.
  ValidationReport FinalCheck();

  /// Fleet-level aggregate (MonitorAggregator::Merge of shard_stats()).
  MonitorStats stats() const;
  /// Per-shard counters, indexed by shard id.
  std::vector<MonitorStats> shard_stats() const;

  /// Transport counters of one endpoint-backed session, by global id.
  const ClientStats& session_client_stats(int session_id) const;

 private:
  struct Shard {
    std::unique_ptr<MonitorService> service;
    /// Local session index -> global session id.
    std::vector<int> global_ids;
    /// Sessions the shard's most recent computed tick covered (0 before
    /// its first). On ticks backpressure skips, their slots are served as
    /// held, running ones marked stale; later registrations stay default
    /// until the shard next computes.
    size_t computed_sessions = 0;
  };

  struct SessionHome {
    int shard = 0;
    int local_id = 0;
  };

  /// Registration tail shared by both Register* calls: records that the
  /// session registered on `shard_id` as `local_id`; returns its global id.
  int RecordHome(int shard_id, int local_id);

  /// Doubles/halves `shard_index`'s divisor from its measured tick wall
  /// time (poll_divisors_ / last_tick_wall_ms_, both behind the lock).
  void AdjustBackpressure(int shard_index) LQS_REQUIRES(backpressure_mu_);

  const ShardedMonitorOptions options_;
  const SessionRouter router_;
  /// Driver-thread-only (registration and Tick happen on one thread; the
  /// shard services synchronize their own stats internally).
  // lqs-verify: guard-ok(driver-owned per the threading contract above)
  std::vector<Shard> shards_;
  /// Global session id -> (shard, local id).
  // lqs-verify: guard-ok(driver-owned per the threading contract above)
  std::vector<SessionHome> session_homes_;
  /// Ticks issued to the sharded monitor as a whole (divisor modulus).
  // lqs-verify: guard-ok(driver-owned per the threading contract above)
  uint64_t tick_index_ = 0;

  /// Guards the admission-control state so poll_divisor() can be sampled
  /// from any thread. Taken briefly before a shard tick (to read the
  /// divisor) and after it (to record the wall time and adjust) — never
  /// across the tick itself, which fans out on the shard's ThreadPool.
  mutable Mutex backpressure_mu_{lock_rank::kShardedBackpressure,
                                 "ShardedMonitor::backpressure_mu_"};
  /// Per-shard poll divisor (1 = every tick), indexed by shard id.
  std::vector<int> poll_divisors_ LQS_GUARDED_BY(backpressure_mu_);
  /// Per-shard wall time of the most recent computed tick, in ms.
  std::vector<double> last_tick_wall_ms_ LQS_GUARDED_BY(backpressure_mu_);
};

}  // namespace lqs

#endif  // LQS_MONITOR_SHARDED_MONITOR_H_
