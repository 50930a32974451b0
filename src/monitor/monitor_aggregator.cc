#include "monitor/monitor_aggregator.h"

#include <algorithm>

namespace lqs {

MonitorStats MonitorAggregator::Merge(
    const std::vector<MonitorStats>& shard_stats) {
  MonitorStats merged;
  for (const MonitorStats& s : shard_stats) {
    merged.sessions += s.sessions;
    merged.active += s.active;
    merged.waiting += s.waiting;
    merged.done += s.done;
    merged.ticks = std::max(merged.ticks, s.ticks);
    merged.estimators_cached += s.estimators_cached;
    merged.num_threads += s.num_threads;
    merged.estimate_latency_ms.Merge(s.estimate_latency_ms);
    merged.tick_latency_ms.Merge(s.tick_latency_ms);
    merged.last_tick_estimate_ms += s.last_tick_estimate_ms;
    merged.remote_sessions += s.remote_sessions;
    merged.degraded_sessions += s.degraded_sessions;
    merged.transport_polls += s.transport_polls;
    merged.transport_retries += s.transport_retries;
    merged.transport_failures += s.transport_failures;
    merged.decode_errors += s.decode_errors;
    merged.snapshots_accepted += s.snapshots_accepted;
    merged.duplicates_ignored += s.duplicates_ignored;
    merged.regressions_rejected += s.regressions_rejected;
    merged.stale_reports += s.stale_reports;
    merged.transport_bytes += s.transport_bytes;
    merged.deltas_applied += s.deltas_applied;
    merged.delta_resyncs += s.delta_resyncs;
    merged.request_id_mismatches += s.request_id_mismatches;
    merged.lp_bounds_sessions += s.lp_bounds_sessions;
    merged.bounds_lp_tightenings += s.bounds_lp_tightenings;
    merged.bounds_intersection_inversions += s.bounds_intersection_inversions;
  }
  merged.DeriveRates();
  return merged;
}

}  // namespace lqs
