// The traced run of the monitored-path benchmark: spans recorded in memory
// around the calls into each layer, standalone layer replays for the
// per-layer split, and the wire-codec replay.

#include <cstdio>
#include <string>
#include <utility>

#include "analysis/invariant_checker.h"
#include "bench.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"
#include "monitor/monitor_aggregator.h"
#include "remote/wire.h"

namespace lqsbench {

namespace {

/// Per-report spans are kept for every 16th session, so the span file of a
/// 10k-session run stays a few MB; the layer sums cover every report.
constexpr int kSpanSessionStride = 16;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// In-memory span store. Each span has a name, start, end and parent span
/// (-1 for a root), plus the (tick, session) id of the report it serves
/// (-1 where it serves a whole tick).
class SpanRecorder {
 public:
  enum Kind : uint8_t {
    kTick,
    kShardTick,
    kEndpointPoll,
    kStats,
    kReplay,
    kReplayClient,
    kReplayEstimate,
    kReplayCheck,
    kReplayBounds,
  };

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  int Add(Kind kind, int parent, int tick, int session, Clock::time_point start,
          Clock::time_point end) {
    spans_.push_back(Span{parent, tick, session, kind, Ns(start), Ns(end)});
    return static_cast<int>(spans_.size()) - 1;
  }
  void SetParent(int id, int parent) {
    spans_[static_cast<size_t>(id)].parent = parent;
  }
  void SetEnd(int id, Clock::time_point end) {
    spans_[static_cast<size_t>(id)].end_ns = Ns(end);
  }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tname\ttick\tsession\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%d\t%d\t%lld\t%lld\n", i, s.parent,
                   Name(s.kind), s.tick, s.session,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    int32_t parent;
    int32_t tick;
    int32_t session;
    uint8_t kind;
    int64_t start_ns;
    int64_t end_ns;
  };

  static const char* Name(uint8_t kind) {
    static const char* const kNames[] = {
        "tick",           "shard.tick",      "remote.endpoint_poll",
        "monitor.stats",  "replay",          "replay.remote.client_poll",
        "replay.lqs.estimate", "replay.analysis.check", "replay.lqs.bounds"};
    return kNames[kind];
  }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Standalone copy of one session's client and checker, polled and
/// estimated in lockstep with the monitor so each call can be timed alone.
struct Replica {
  /// Null for a local trace-backed session, which has no link.
  std::unique_ptr<lqs::PollingClient> client;
  std::unique_ptr<lqs::ProgressInvariantChecker> checker;
  lqs::ProgressEstimator::Workspace estimate_workspace;
  lqs::ProgressEstimator::Workspace checked_workspace;
  lqs::ProgressReport estimate_report;
  lqs::ProgressReport checked_report;
  bool retired = false;
};

}  // namespace

TracedRun RunTraced(const WorkloadSpec& spec, const Traces& traces,
                    const std::vector<SessionPlan>& plan, Inject inject,
                    const std::string& span_path) {
  TracedRun run;
  SpanRecorder spans(Clock::now());
  int current_tick = 0;
  // Endpoint spans are recorded inside the shard tick, before the shard
  // spans exist; their parents are fixed up after the tick.
  std::vector<std::pair<int, int>> pending;  // (span id, shard)
  EndpointTimer timer;
  timer.on_poll = [&](int session, int shard, Clock::time_point start,
                      Clock::time_point end) {
    if (session % kSpanSessionStride != 0) return;
    pending.emplace_back(spans.Add(SpanRecorder::kEndpointPoll, -1,
                                   current_tick, session, start, end),
                         shard);
  };
  Fleet fleet = RegisterFleet(spec, traces, plan, &timer, inject);
  run.register_s = fleet.register_s;
  lqs::ShardedMonitor* monitor = fleet.monitor.get();

  const lqs::EstimatorOptions options = PresetOptions(spec);
  std::vector<std::unique_ptr<lqs::ProgressEstimator>> estimators(
      traces.executed.size());
  std::vector<lqs::CardinalityBounds> bounds(traces.executed.size());
  std::vector<lqs::CardinalityBounds> bounds_scratch(traces.executed.size());
  std::vector<Replica> replicas(plan.size());
  EndpointTimer replica_timer;
  std::vector<double> prev_shard_wall(
      static_cast<size_t>(monitor->num_shards()), 0);
  std::vector<int> shard_span(prev_shard_wall.size(), -1);

  auto replay = [&](int tick, const std::vector<lqs::SessionStatus>& statuses) {
    const int root = spans.Add(SpanRecorder::kReplay, -1, tick, -1,
                               Clock::now(), Clock::now());
    for (size_t id = 0; id < statuses.size(); ++id) {
      const lqs::SessionStatus& s = statuses[id];
      Replica& rep = replicas[id];
      if (s.state == lqs::SessionState::kWaiting || rep.retired) continue;
      const int session = static_cast<int>(id);
      const bool traced = session % kSpanSessionStride == 0;
      const size_t query = static_cast<size_t>(plan[id].query);
      const Executed& e = traces.executed[query];
      if (estimators[query] == nullptr) {
        estimators[query] = std::make_unique<lqs::ProgressEstimator>(
            e.plan, e.catalog, options);
      }
      const lqs::ProgressEstimator& estimator = *estimators[query];
      if (rep.checker == nullptr) {
        std::unique_ptr<lqs::SnapshotEndpoint> endpoint =
            SessionEndpoint(spec, traces, plan, id, inject);
        if (endpoint != nullptr) {
          rep.client = std::make_unique<lqs::PollingClient>(
              std::make_unique<TimingEndpoint>(std::move(endpoint),
                                               &replica_timer, session, -1),
              ClientOptionsFor(spec, plan[id]));
        }
        rep.checker = std::make_unique<lqs::ProgressInvariantChecker>(
            &estimator, lqs::InvariantCheckerOptions());
      }
      if (rep.client != nullptr && !rep.client->complete()) {
        const double endpoint_before = replica_timer.ns;
        const auto c0 = Clock::now();
        const lqs::ClientView& view = rep.client->Poll(s.local_time_ms);
        const auto c1 = Clock::now();
        const double endpoint_ns = replica_timer.ns - endpoint_before;
        run.client_ns += NsBetween(c0, c1) - endpoint_ns;
        ++run.client_polls;
        if (traced) {
          spans.Add(SpanRecorder::kReplayClient, root, tick, session, c0, c1);
        }
        const double served = s.snapshot != nullptr ? s.snapshot->time_ms : -1;
        const double replayed =
            view.snapshot != nullptr ? view.snapshot->time_ms : -1;
        if (BitsOf(served) != BitsOf(replayed) || view.stale != s.stale) {
          ++run.replay_mismatches;
        }
      }
      if (s.state == lqs::SessionState::kRunning && s.snapshot != nullptr) {
        const lqs::ProfileSnapshot& snapshot = *s.snapshot;
        auto estimate = [&] {
          estimator.EstimateInto(snapshot, &rep.estimate_workspace,
                                 &rep.estimate_report);
        };
        auto checked = [&] {
          rep.checker->EstimateCheckedInto(snapshot, &rep.checked_workspace,
                                           &rep.checked_report);
        };
        // Whichever call runs second finds the snapshot in cache, so the
        // order alternates and the check's cost is the difference of means.
        const bool estimate_first = (tick + session) % 2 == 0;
        const auto t0 = Clock::now();
        estimate_first ? estimate() : checked();
        const auto t1 = Clock::now();
        estimate_first ? checked() : estimate();
        const auto t2 = Clock::now();
        lqs::ComputeBoundsPipelineInto(
            options.bounds_engine, *e.plan, *e.catalog, snapshot,
            &estimator.analysis(), estimator.analysis(), nullptr,
            &bounds[query], &bounds_scratch[query], nullptr);
        const auto t3 = Clock::now();
        const auto estimate_start = estimate_first ? t0 : t1;
        const auto estimate_end = estimate_first ? t1 : t2;
        const auto checked_start = estimate_first ? t1 : t0;
        const auto checked_end = estimate_first ? t2 : t1;
        run.estimate_ns += NsBetween(estimate_start, estimate_end);
        run.checked_ns += NsBetween(checked_start, checked_end);
        run.bounds_ns += NsBetween(t2, t3);
        ++run.estimates;
        if (BitsOf(rep.checked_report.query_progress) != BitsOf(s.progress) ||
            BitsOf(rep.estimate_report.query_progress) != BitsOf(s.progress)) {
          ++run.replay_mismatches;
        }
        if (traced) {
          spans.Add(SpanRecorder::kReplayEstimate, root, tick, session,
                    estimate_start, estimate_end);
          spans.Add(SpanRecorder::kReplayCheck, root, tick, session,
                    checked_start, checked_end);
          spans.Add(SpanRecorder::kReplayBounds, root, tick, session, t2, t3);
        }
      }
      if (s.state == lqs::SessionState::kDone) {
        rep = Replica();
        rep.retired = true;
      }
    }
    spans.SetEnd(root, Clock::now());
  };

  const TickHook hook = [&](int tick, double,
                            const std::vector<lqs::SessionStatus>& statuses,
                            Clock::time_point tick_start,
                            Clock::time_point tick_end) {
    const auto s0 = Clock::now();
    const std::vector<lqs::MonitorStats> shard_stats = monitor->shard_stats();
    const lqs::MonitorStats merged = lqs::MonitorAggregator::Merge(shard_stats);
    const auto s1 = Clock::now();
    (void)merged;
    run.stats_ms += MsBetween(s0, s1);
    ++run.stats_calls;

    // The facade ticks its shards one after another, so the shard spans
    // are laid end to end from the tick's start, each as long as that
    // shard's own measured Tick wall time.
    const int tick_span =
        spans.Add(SpanRecorder::kTick, -1, tick, -1, tick_start, tick_end);
    Clock::time_point cursor = tick_start;
    for (size_t shard = 0; shard < shard_stats.size(); ++shard) {
      const double wall = shard_stats[shard].wall_ms - prev_shard_wall[shard];
      prev_shard_wall[shard] = shard_stats[shard].wall_ms;
      run.shard_wall_ms += wall;
      const auto end =
          cursor + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(wall));
      shard_span[shard] = spans.Add(SpanRecorder::kShardTick, tick_span, tick,
                                    -1, cursor, end);
      cursor = end;
    }
    for (const auto& [id, shard] : pending) {
      spans.SetParent(id, shard_span[static_cast<size_t>(shard)]);
    }
    pending.clear();
    spans.Add(SpanRecorder::kStats, -1, tick, -1, s0, s1);
    replay(tick, statuses);
    current_tick = tick + 1;
  };

  run.timeline = RunTimeline(monitor, traces, plan, /*perturb_digest=*/false,
                             hook);
  run.endpoint_ns = timer.ns;
  run.endpoint_calls = timer.calls;
  run.spans = spans.size();
  if (!span_path.empty() && !spans.Write(span_path)) {
    std::fprintf(stderr, "lqsbench: could not write spans to %s\n",
                 span_path.c_str());
  }
  return run;
}

CodecCosts ReplayCodec(const Traces& traces,
                       const std::vector<SessionPlan>& plan) {
  std::vector<double> weight(traces.executed.size(), 0);
  for (const SessionPlan& p : plan) weight[static_cast<size_t>(p.query)] += 1;

  CodecCosts costs;
  double ops = 0;  // weighted snapshot pairs
  double kb = 0;   // weighted full-frame kilobytes
  for (size_t q = 0; q < traces.executed.size(); ++q) {
    if (weight[q] == 0) continue;
    const lqs::ProfileTrace& trace = traces.executed[q].trace;
    std::vector<const lqs::ProfileSnapshot*> seq;
    for (const lqs::ProfileSnapshot& s : trace.snapshots) seq.push_back(&s);
    seq.push_back(&trace.final_snapshot);
    if (seq.size() < 2) continue;
    const size_t pairs = seq.size() - 1;

    std::vector<lqs::PollResponse> responses(pairs);
    std::vector<lqs::SnapshotDelta> deltas(pairs);
    std::vector<std::string> full(pairs), delta_frames(pairs);
    for (size_t k = 0; k < pairs; ++k) {
      responses[k].has_snapshot = true;
      responses[k].snapshot = *seq[k + 1];
    }
    lqs::ProfileSnapshot applied;
    volatile uint32_t crc_sink = 0;  // the CRCs must be computed

    // Each operation runs over the whole trace as one timed loop.
    auto timed = [](auto&& body) {
      const auto t0 = Clock::now();
      body();
      return NsBetween(t0, Clock::now());
    };
    const double make_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        auto d = lqs::MakeSnapshotDelta(*seq[k], *seq[k + 1]);
        if (!d.ok()) {
          ++costs.errors;
          continue;
        }
        deltas[k] = std::move(d).value();
      }
    });
    const double encode_full_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        lqs::EncodePollResponse(responses[k], &full[k]);
      }
    });
    const double encode_delta_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        lqs::EncodeSnapshotDelta(deltas[k], &delta_frames[k]);
      }
    });
    const double decode_full_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        if (!lqs::DecodePollResponse(full[k]).ok()) ++costs.errors;
      }
    });
    const double decode_delta_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        if (!lqs::DecodeSnapshotDelta(delta_frames[k]).ok()) ++costs.errors;
      }
    });
    const double apply_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        if (!lqs::ApplySnapshotDelta(deltas[k], *seq[k], &applied).ok()) {
          ++costs.errors;
        }
      }
    });
    double bytes = 0;
    const double crc_ns = timed([&] {
      for (size_t k = 0; k < pairs; ++k) {
        crc_sink = crc_sink ^ lqs::WireCrc32(full[k].data(), full[k].size());
        bytes += static_cast<double>(full[k].size());
      }
    });

    const double w = weight[q];
    costs.delta_make_ns += w * make_ns;
    costs.encode_full_ns += w * encode_full_ns;
    costs.encode_delta_ns += w * encode_delta_ns;
    costs.decode_full_ns += w * decode_full_ns;
    costs.decode_delta_ns += w * decode_delta_ns;
    costs.delta_apply_ns += w * apply_ns;
    costs.crc_ns_per_kb += w * crc_ns;
    ops += w * static_cast<double>(pairs);
    kb += w * bytes / 1024.0;
  }
  if (ops > 0) {
    costs.delta_make_ns /= ops;
    costs.encode_full_ns /= ops;
    costs.encode_delta_ns /= ops;
    costs.decode_full_ns /= ops;
    costs.decode_delta_ns /= ops;
    costs.delta_apply_ns /= ops;
  }
  if (kb > 0) costs.crc_ns_per_kb /= kb;
  return costs;
}

}  // namespace lqsbench
