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
    merged.reports_computed += s.reports_computed;
    merged.estimators_cached += s.estimators_cached;
    merged.num_threads += s.num_threads;
    merged.p50_estimate_latency_ms =
        std::max(merged.p50_estimate_latency_ms, s.p50_estimate_latency_ms);
    merged.p95_estimate_latency_ms =
        std::max(merged.p95_estimate_latency_ms, s.p95_estimate_latency_ms);
    merged.max_estimate_latency_ms =
        std::max(merged.max_estimate_latency_ms, s.max_estimate_latency_ms);
    merged.estimate_wall_ms += s.estimate_wall_ms;
    merged.last_tick_estimate_ms += s.last_tick_estimate_ms;
    merged.p50_tick_latency_ms =
        std::max(merged.p50_tick_latency_ms, s.p50_tick_latency_ms);
    merged.p95_tick_latency_ms =
        std::max(merged.p95_tick_latency_ms, s.p95_tick_latency_ms);
    merged.wall_ms += s.wall_ms;
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
  // Throughputs recompute from merged sums; averaging per-shard rates would
  // overweight idle shards.
  if (merged.wall_ms > 0) {
    merged.reports_per_sec = static_cast<double>(merged.reports_computed) /
                             (merged.wall_ms / 1000.0);
  }
  if (merged.estimate_wall_ms > 0) {
    merged.estimates_per_sec = static_cast<double>(merged.reports_computed) /
                               (merged.estimate_wall_ms / 1000.0);
  }
  return merged;
}

}  // namespace lqs
