#ifndef LQS_MONITOR_MONITOR_AGGREGATOR_H_
#define LQS_MONITOR_MONITOR_AGGREGATOR_H_

#include <vector>

#include "monitor/monitor_service.h"

namespace lqs {

/// Merges per-shard MonitorStats into one fleet view.
///
/// Merge semantics, by field class:
///  - event counters (polls, bytes, accepted/rejected, ...) and session
///    counts: summed;
///  - ticks: the maximum — shards tick the same shared timeline, so the
///    fleet has ticked as often as its most-ticked shard (backpressure may
///    hold individual shards below that);
///  - latency histograms: merged exactly (bucket counts, count, sum and
///    max add up), so fleet p50/p95 are the true quantiles over every
///    shard's samples;
///  - derived fields (reports, wall/estimate time, throughputs): recomputed
///    from the merged histograms by MonitorStats::DeriveRates — wall times
///    sum because the sharded monitor ticks shards sequentially on the
///    driver, and rates are never averaged from per-shard rates.
///
/// Concurrency: stateless (one static pure function over value snapshots),
/// so it is safe from any thread by construction and carries no `locks`
/// annotations.
class MonitorAggregator {
 public:
  static MonitorStats Merge(const std::vector<MonitorStats>& shard_stats);
};

}  // namespace lqs

#endif  // LQS_MONITOR_MONITOR_AGGREGATOR_H_
