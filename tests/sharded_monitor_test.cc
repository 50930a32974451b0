// Behavior of the fleet-scale monitor layer (src/monitor/sharded_monitor.h,
// DESIGN.md §13):
//  - SessionRouter is deterministic, balanced at thousand-session scale, and
//    consistent: adding a shard moves only the keys the new shard captures;
//  - MonitorAggregator sums event counters, merges latency histograms
//    exactly (fleet quantiles over every shard's samples), and recomputes
//    throughput from merged sums;
//  - with backpressure off, a ShardedMonitor reaches exactly the same
//    per-session conclusions as one MonitorService over the same sessions
//    (the determinism contract extends across the shard seam);
//  - with a deliberately impossible tick budget, shards degrade (divisors
//    climb, held views are served stale) but every session still completes
//    and per-session progress stays monotone — degradation never wedges;
//  - RunToCompletion's tick loop is indexed, not accumulated: a tick width
//    that is inexact in binary must still land the final tick exactly on
//    the horizon instead of drifting past it;
//  - every field of every status on every tick of a mixed local/lossy
//    fleet matches a committed golden digest, for both monitors and any
//    thread count, backpressure's held/stale path included, and with a
//    dashboard thread sampling stats() and poll_divisor() meanwhile;
//  - counters are conserved: fleet transport totals equal the per-session
//    sums, state counts equal the returned vector's, and reports_computed
//    equals the estimated (tick, session) pairs.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "monitor/monitor_aggregator.h"
#include "monitor/monitor_service.h"
#include "monitor/session_router.h"
#include "monitor/sharded_monitor.h"
#include "optimizer/annotate.h"
#include "remote/endpoint.h"
#include "remote/fault_injection.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

std::string Key(int i) { return "session-" + std::to_string(i); }

TEST(SessionRouterTest, DeterministicAcrossInstances) {
  SessionRouter a(8);
  SessionRouter b(8);
  for (int i = 0; i < 1000; ++i) {
    const int shard = a.ShardFor(Key(i));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    EXPECT_EQ(shard, b.ShardFor(Key(i))) << Key(i);
  }
}

TEST(SessionRouterTest, BalancesThousandsOfSessions) {
  constexpr int kShards = 8;
  constexpr int kKeys = 8192;
  SessionRouter router(kShards);
  std::vector<int> counts(kShards, 0);
  for (int i = 0; i < kKeys; ++i) ++counts[router.ShardFor(Key(i))];
  const double mean = static_cast<double>(kKeys) / kShards;
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(counts[shard], 0) << "shard " << shard << " owns nothing";
    // 64 virtual nodes keep the ring smooth enough that no shard strays
    // past 2x/0.5x of the mean — the property that makes per-shard tick
    // budgets meaningful (one shard must not silently carry half the fleet).
    EXPECT_LT(counts[shard], 2.0 * mean) << "shard " << shard;
    EXPECT_GT(counts[shard], 0.5 * mean) << "shard " << shard;
  }
}

TEST(SessionRouterTest, AddingAShardOnlyMovesKeysToTheNewShard) {
  constexpr int kKeys = 8192;
  SessionRouter before(8);
  SessionRouter after(9);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const int old_shard = before.ShardFor(Key(i));
    const int new_shard = after.ShardFor(Key(i));
    if (new_shard != old_shard) {
      ++moved;
      // Consistent hashing: shards 0..7 contribute identical ring points in
      // both routers, so a key can only change home by being captured by
      // shard 8's new points — never by shuffling between old shards.
      EXPECT_EQ(new_shard, 8) << Key(i) << " moved " << old_shard << " -> "
                              << new_shard;
    }
  }
  // Roughly 1/9 of keys should move; well under the ~8/9 a hash%N reshard
  // would move, and more than zero (the new shard really takes load).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 4);
}

TEST(MonitorAggregatorTest, SumsCountersMergesLatencyExactly) {
  MonitorStats a;
  a.sessions = 3;
  a.done = 3;
  a.ticks = 10;
  for (int i = 0; i < 30; ++i) a.estimate_latency_ms.Add(0.2);  // 6 ms
  for (int i = 0; i < 10; ++i) a.tick_latency_ms.Add(10.0);     // 100 ms
  a.transport_bytes = 1000;
  a.deltas_applied = 7;
  MonitorStats b;
  b.sessions = 5;
  b.done = 5;
  b.ticks = 12;
  for (int i = 0; i < 60; ++i) b.estimate_latency_ms.Add(0.05);  // 3 ms
  for (int i = 0; i < 10; ++i) b.tick_latency_ms.Add(1.0);
  for (int i = 0; i < 2; ++i) b.tick_latency_ms.Add(45.0);  // 100 ms
  b.transport_bytes = 250;
  b.delta_resyncs = 2;

  MonitorStats merged = MonitorAggregator::Merge({a, b});
  EXPECT_EQ(merged.sessions, 8u);
  EXPECT_EQ(merged.done, 8u);
  // The fleet has ticked as often as its most-ticked shard.
  EXPECT_EQ(merged.ticks, 12u);
  EXPECT_EQ(merged.reports_computed, 90u);
  EXPECT_EQ(merged.transport_bytes, 1250u);
  EXPECT_EQ(merged.deltas_applied, 7u);
  EXPECT_EQ(merged.delta_resyncs, 2u);
  // Quantiles are over the union of both shards' samples, not the max of
  // the per-shard quantiles: 60 of the 90 estimates took 0.05 ms, so the
  // fleet p50 is b's value although a's p50 is four times larger, and the
  // p95 is a's. Of the 22 ticks, 10 took 1 ms, 10 took 10 ms and 2 took
  // 45 ms: rank floor(0.5 * 21) = 10 is a 10 ms tick and the p95 rank 19
  // is still one, though b alone would put its p95 at 45 ms.
  const double tolerance = LatencyHistogram::kRelativeError;
  EXPECT_NEAR(merged.p50_estimate_latency_ms(), 0.05, 0.05 * tolerance);
  EXPECT_NEAR(merged.p95_estimate_latency_ms(), 0.2, 0.2 * tolerance);
  EXPECT_DOUBLE_EQ(merged.max_estimate_latency_ms(), 0.2);
  EXPECT_NEAR(merged.p50_tick_latency_ms(), 10.0, 10.0 * tolerance);
  EXPECT_NEAR(merged.p95_tick_latency_ms(), 10.0, 10.0 * tolerance);
  EXPECT_GT(b.p95_tick_latency_ms(), 40.0);
  // Throughput recomputes from merged sums: 90 reports / 200 ms wall.
  EXPECT_DOUBLE_EQ(merged.wall_ms, 200.0);
  EXPECT_DOUBLE_EQ(merged.reports_per_sec, 90.0 / 0.2);
  // Estimator-only throughput likewise: 90 reports / 9 ms estimating.
  EXPECT_NEAR(merged.estimate_wall_ms, 9.0, 1e-12);
  EXPECT_NEAR(merged.estimates_per_sec, 90.0 / 0.009, 1e-6);
}

// The shape a max-of-percentiles merge gets wrong: one shard records 1000
// samples at 1 us, the other 10 at 1 ms. The true fleet p50 is 1 us; the
// larger of the two shard p50s is 1 ms.
TEST(MonitorAggregatorTest, MergedMedianIsTheFleetMedianNotTheWorstShard) {
  MonitorStats fast;
  MonitorStats slow;
  for (int i = 0; i < 1000; ++i) fast.estimate_latency_ms.Add(0.001);
  for (int i = 0; i < 10; ++i) slow.estimate_latency_ms.Add(1.0);
  const double worst_shard_p50 = std::max(fast.p50_estimate_latency_ms(),
                                          slow.p50_estimate_latency_ms());
  EXPECT_NEAR(worst_shard_p50, 1.0, LatencyHistogram::kRelativeError);

  const MonitorStats merged = MonitorAggregator::Merge({fast, slow});
  EXPECT_EQ(merged.reports_computed, 1010u);
  EXPECT_NEAR(merged.p50_estimate_latency_ms(), 0.001,
              0.001 * LatencyHistogram::kRelativeError);
  EXPECT_LT(merged.p50_estimate_latency_ms(), worst_shard_p50 / 100);
  EXPECT_DOUBLE_EQ(merged.max_estimate_latency_ms(), 1.0);
}

class ShardedMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  ExecutionResult Traced(const Plan& plan, double interval_ms = 2.0) {
    ExecOptions exec;
    exec.snapshot_interval_ms = interval_ms;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ShardedMonitorTest, MatchesSingleMonitorConclusions) {
  std::vector<Plan> plans;
  plans.push_back(Annotated(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1})));
  plans.push_back(Annotated(HashAgg(Scan("t_big"), {2}, {Count()})));
  plans.push_back(Annotated(Sort(Scan("t_big"), {2})));
  std::vector<ExecutionResult> traces;
  for (const Plan& plan : plans) traces.push_back(Traced(plan));

  constexpr int kSessions = 18;
  MonitorOptions monitor_options;
  monitor_options.ticks_per_horizon = 16;

  auto register_all = [&](auto& monitor) {
    for (int i = 0; i < kSessions; ++i) {
      const int id = monitor.RegisterSession(
          Key(i), &plans[static_cast<size_t>(i) % plans.size()],
          catalog_.get(), &traces[static_cast<size_t>(i) % traces.size()].trace,
          /*start_offset_ms=*/(i % 5) * 7.0);
      EXPECT_EQ(id, i) << "global ids must be dense in registration order";
    }
  };
  auto collect = [&](auto& monitor) {
    std::vector<SessionStatus> last;
    monitor.RunToCompletion(
        [&](double, const std::vector<SessionStatus>& statuses) {
          last = statuses;
        });
    return last;
  };

  MonitorService single(monitor_options);
  register_all(single);

  ShardedMonitorOptions sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.shard_options = monitor_options;
  ShardedMonitor sharded(sharded_options);
  register_all(sharded);
  EXPECT_EQ(sharded.num_shards(), 4);
  EXPECT_EQ(sharded.session_count(), static_cast<size_t>(kSessions));
  // The router spread the fleet: more than one shard is populated, and
  // ShardOf agrees with the router for every registered name.
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sharded.ShardOf(i), sharded.router().ShardFor(Key(i)));
    ++per_shard[static_cast<size_t>(sharded.ShardOf(i))];
  }
  EXPECT_GT(std::count_if(per_shard.begin(), per_shard.end(),
                          [](int n) { return n > 0; }),
            1);

  EXPECT_DOUBLE_EQ(sharded.HorizonMs(), single.HorizonMs());

  std::vector<SessionStatus> single_last = collect(single);
  std::vector<SessionStatus> sharded_last = collect(sharded);
  ASSERT_EQ(single_last.size(), sharded_last.size());
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sharded_last[static_cast<size_t>(i)].session_id, i);
    EXPECT_EQ(sharded_last[static_cast<size_t>(i)].state,
              SessionState::kDone);
    // Same session, same timeline, same estimator: identical conclusion no
    // matter which shard computed it.
    EXPECT_DOUBLE_EQ(sharded_last[static_cast<size_t>(i)].progress,
                     single_last[static_cast<size_t>(i)].progress)
        << "session " << i;
  }
  EXPECT_TRUE(single.AllSessionsDone());
  EXPECT_TRUE(sharded.AllSessionsDone());
  EXPECT_TRUE(single.FinalCheck().ok());
  EXPECT_TRUE(sharded.FinalCheck().ok());

  // With backpressure off every shard ticks every time, so the fleet
  // computed exactly as many reports as the single service.
  MonitorStats single_stats = single.stats();
  MonitorStats fleet = sharded.stats();
  EXPECT_EQ(fleet.reports_computed, single_stats.reports_computed);
  EXPECT_EQ(fleet.sessions, single_stats.sessions);
  EXPECT_EQ(fleet.done, single_stats.done);
  EXPECT_EQ(fleet.ticks, single_stats.ticks);
}

TEST_F(ShardedMonitorTest, BackpressureDegradesWithoutWedging) {
  Plan plan = Annotated(HashAgg(Scan("t_big"), {2}, {Count()}));
  ExecutionResult result = Traced(plan);

  ShardedMonitorOptions options;
  options.num_shards = 2;
  options.shard_options.ticks_per_horizon = 32;
  // A budget no real tick can meet: every computed tick overruns, so the
  // divisors climb to the cap and most ticks serve held views.
  options.shard_tick_budget_ms = 1e-7;
  options.max_poll_divisor = 4;
  ShardedMonitor monitor(options);
  constexpr int kSessions = 8;
  for (int i = 0; i < kSessions; ++i) {
    monitor.RegisterSession(Key(i), &plan, catalog_.get(), &result.trace,
                            /*start_offset_ms=*/i * 3.0);
  }

  uint64_t stale_statuses = 0;
  int max_divisor_seen = 1;
  std::vector<double> last_progress(kSessions, 0);
  monitor.RunToCompletion(
      [&](double now_ms, const std::vector<SessionStatus>& statuses) {
        for (int shard = 0; shard < monitor.num_shards(); ++shard) {
          max_divisor_seen =
              std::max(max_divisor_seen, monitor.poll_divisor(shard));
        }
        for (const SessionStatus& status : statuses) {
          if (status.stale) ++stale_statuses;
          // Held views repeat an earlier value; they never move backwards.
          EXPECT_GE(status.progress,
                    last_progress[static_cast<size_t>(status.session_id)])
              << "session " << status.session_id << " regressed at t="
              << now_ms;
          last_progress[static_cast<size_t>(status.session_id)] =
              status.progress;
        }
      });

  // Admission control really engaged...
  EXPECT_GT(max_divisor_seen, 1) << "impossible budget never tripped";
  EXPECT_GT(stale_statuses, 0u);
  // ...and degraded means degraded, not wedged: the at-horizon exemption
  // let every shard deliver its final reports.
  EXPECT_TRUE(monitor.AllSessionsDone());
  for (double progress : last_progress) EXPECT_DOUBLE_EQ(progress, 1.0);
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

TEST_F(ShardedMonitorTest, RemoteSessionsRouteAndAggregateTransportStats) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Traced(plan, /*interval_ms=*/4.0);

  ShardedMonitorOptions options;
  options.num_shards = 3;
  options.shard_options.ticks_per_horizon = 24;
  ShardedMonitor monitor(options);
  constexpr int kSessions = 9;
  for (int i = 0; i < kSessions; ++i) {
    LoopbackOptions loopback;
    loopback.serve_deltas = (i % 2 == 0);  // mix delta and full transports
    monitor.RegisterRemoteSession(
        Key(i), &plan, catalog_.get(),
        std::make_unique<LoopbackEndpoint>(&result.trace, loopback),
        /*start_offset_ms=*/i * 2.0);
  }
  monitor.RunToCompletion(nullptr);
  EXPECT_TRUE(monitor.AllSessionsDone());

  MonitorStats fleet = monitor.stats();
  EXPECT_EQ(fleet.remote_sessions, static_cast<size_t>(kSessions));
  EXPECT_EQ(fleet.done, static_cast<size_t>(kSessions));
  EXPECT_GT(fleet.transport_polls, 0u);
  EXPECT_GT(fleet.transport_bytes, 0u);
  EXPECT_GT(fleet.snapshots_accepted, 0u);
  // The delta-serving half of the fleet actually exercised the delta path,
  // and the per-session accessor reaches through the global id to the right
  // shard-local client.
  EXPECT_GT(fleet.deltas_applied, 0u);
  uint64_t bytes_across_sessions = 0;
  for (int i = 0; i < kSessions; ++i) {
    bytes_across_sessions += monitor.session_client_stats(i).bytes_received;
  }
  EXPECT_EQ(bytes_across_sessions, fleet.transport_bytes);
}

// --- Golden status digest and counter conservation over a mixed fleet ---

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

const ProgressReport* ReportOf(const SessionStatus& s) { return s.report; }

uint64_t MixVector(uint64_t h, const std::vector<double>* v) {
  h = Mix(h, v == nullptr ? 0 : v->size());
  if (v != nullptr) {
    for (double x : *v) h = Mix(h, Bits(x));
  }
  return h;
}

/// FNV-1a over every field of one status. A missing report hashes as four
/// empty vectors, the way an unestimated status's report always read.
uint64_t MixStatus(uint64_t h, const SessionStatus& s) {
  h = Mix(h, static_cast<uint64_t>(s.session_id));
  h = Mix(h, static_cast<uint64_t>(s.state));
  h = Mix(h, Bits(s.local_time_ms));
  h = Mix(h, Bits(s.progress));
  h = Mix(h, s.stale);
  h = Mix(h, Bits(s.staleness_ms));
  h = Mix(h, s.degraded);
  h = Mix(h, static_cast<uint64_t>(s.consecutive_failures));
  h = Mix(h, s.remote);
  h = Mix(h, s.snapshot == nullptr ? ~0ull : Bits(s.snapshot->time_ms));
  const ProgressReport* r = ReportOf(s);
  h = MixVector(h, r == nullptr ? nullptr : &r->operator_progress);
  h = MixVector(h, r == nullptr ? nullptr : &r->refined_rows);
  h = MixVector(h, r == nullptr ? nullptr : &r->pipeline_progress);
  h = MixVector(h, r == nullptr ? nullptr : &r->pipeline_weight);
  return h;
}

uint64_t MixTick(uint64_t h, double now_ms,
                 const std::vector<SessionStatus>& statuses) {
  h = Mix(h, Bits(now_ms));
  h = Mix(h, statuses.size());
  for (const SessionStatus& s : statuses) h = MixStatus(h, s);
  return h;
}

/// Even sessions read their trace locally; odd ones poll it as deltas over
/// a lossy link that drops, delays, duplicates and corrupts responses, with
/// kInterpolate filling the gaps. Sessions i and i + 6 share a start
/// offset, so arrival ties are broken by id. All estimate with lqs_lp.
class MixedFleetTest : public ShardedMonitorTest {
 protected:
  static constexpr double kTickMs = 2.0;
  static constexpr int kSessions = 12;

  void SetUp() override {
    ShardedMonitorTest::SetUp();
    ASSERT_TRUE(EstimatorOptions::PresetFromName("lqs_lp", &lqs_lp_));
    plans_.push_back(Annotated(HashAgg(
        HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
        {2}, {Count()})));
    plans_.push_back(Annotated(Sort(Scan("t_big"), {2})));
    for (const Plan& plan : plans_) traces_.push_back(Traced(plan, kTickMs));
  }

  template <typename Monitor>
  void Register(Monitor* monitor, int i, double offset_ms) {
    const size_t q = static_cast<size_t>(i) % plans_.size();
    if (i % 2 == 0) {
      monitor->RegisterSession(Key(i), &plans_[q], catalog_.get(),
                               &traces_[q].trace, offset_ms, lqs_lp_);
      return;
    }
    LoopbackOptions loopback;
    loopback.serve_deltas = true;
    FaultConfig faults;
    faults.drop_probability = 0.10;
    faults.delay_probability = 0.10;
    faults.max_delay_ms = 3 * kTickMs;
    faults.duplicate_probability = 0.05;
    faults.corrupt_probability = 0.02;
    faults.seed = 1000 + static_cast<uint64_t>(i);
    PollingClientOptions client;
    client.staleness_policy = StalenessPolicy::kInterpolate;
    client.jitter_seed = 77 + static_cast<uint64_t>(i);
    monitor->RegisterRemoteSession(
        Key(i), &plans_[q], catalog_.get(),
        std::make_unique<FaultInjectingEndpoint>(
            std::make_unique<LoopbackEndpoint>(&traces_[q].trace, loopback),
            faults),
        offset_ms, client, lqs_lp_);
  }

  template <typename Monitor>
  void RegisterFleet(Monitor* monitor) {
    for (int i = 0; i < kSessions; ++i) Register(monitor, i, (i % 6) * 3.0);
  }

  EstimatorOptions lqs_lp_;
  std::vector<Plan> plans_;
  std::vector<ExecutionResult> traces_;
};

// Digests of the fleet's full status stream. Recompute only for a change
// that is meant to alter served statuses, and say why in the change.
constexpr uint64_t kServiceGolden = 0xf43baebd576d4276ull;
constexpr uint64_t kShardedGolden = 0xd8a15430fa9d56b2ull;

TEST_F(MixedFleetTest, ServiceStatusStreamMatchesGolden) {
  for (int threads : {1, 4}) {
    MonitorOptions options;
    options.num_threads = threads;
    MonitorService monitor(options);
    RegisterFleet(&monitor);
    uint64_t h = 1469598103934665603ull;
    h = MixTick(h, kTickMs, monitor.Tick(kTickMs));
    // A late registration lands mid-way through the waiting queue.
    Register(&monitor, kSessions, 7.0);
    const double horizon = monitor.HorizonMs();
    for (int64_t i = 2;; ++i) {
      const double t = static_cast<double>(i) * kTickMs;
      h = MixTick(h, t, monitor.Tick(t));
      if (t >= horizon && monitor.AllSessionsDone()) break;
      ASSERT_LT(i, 2000) << "fleet never finished";
    }
    EXPECT_TRUE(monitor.FinalCheck().ok());
    EXPECT_EQ(h, kServiceGolden)
        << threads << " thread(s): got 0x" << std::hex << h;
  }
}

TEST_F(MixedFleetTest, ShardedStatusStreamUnderBackpressureMatchesGolden) {
  for (int threads : {1, 4}) {
    ShardedMonitorOptions options;
    options.num_shards = 3;
    options.shard_options.num_threads = threads;
    options.shard_options.tick_ms = kTickMs;
    // Every computed tick overruns this budget, so each shard's divisor
    // doubles on every tick it computes, up to the cap, whatever the
    // machine: the skipped ticks (held slots served stale) are fixed.
    options.shard_tick_budget_ms = 1e-9;
    ShardedMonitor monitor(options);
    RegisterFleet(&monitor);
    uint64_t h = 1469598103934665603ull;
    uint64_t stale = 0;
    monitor.RunToCompletion(
        [&](double t, const std::vector<SessionStatus>& statuses) {
          h = MixTick(h, t, statuses);
          for (const SessionStatus& s : statuses) stale += s.stale;
        });
    EXPECT_TRUE(monitor.AllSessionsDone());
    EXPECT_GT(stale, 0u);
    EXPECT_EQ(h, kShardedGolden)
        << threads << " thread(s): got 0x" << std::hex << h;
  }
}

// The dashboard-reader contract of sharded_monitor.h: stats() and
// poll_divisor() are safe from any thread while the driver registers and
// ticks. A reader thread samples both throughout a backpressured run (so
// the divisors really move); the samples must be coherent and the served
// statuses must still match the golden — reading never perturbs them.
// Under TSan (CI) any unsynchronized access on either path is a failure.
// The driver never waits on the reader mid-run: that handshake would order
// the reader's accesses before the driver's and hide a missing lock.
TEST_F(MixedFleetTest, ReaderThreadSamplesStatsWhileDriverTicks) {
  ShardedMonitorOptions options;
  options.num_shards = 3;
  options.shard_options.num_threads = 4;
  options.shard_options.tick_ms = kTickMs;
  options.shard_tick_budget_ms = 1e-9;
  ShardedMonitor monitor(options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> samples{0};
  std::atomic<uint64_t> incoherent{0};
  std::atomic<int> max_divisor_seen{1};
  std::thread reader([&] {
    uint64_t last_ticks = 0;
    uint64_t last_reports = 0;
    while (!stop.load()) {
      const MonitorStats stats = monitor.stats();
      const bool coherent =
          stats.ticks >= last_ticks && stats.reports_computed >= last_reports &&
          stats.sessions <= static_cast<size_t>(kSessions) &&
          stats.p50_estimate_latency_ms() <=
              stats.p95_estimate_latency_ms() &&
          stats.p95_estimate_latency_ms() <= stats.max_estimate_latency_ms();
      if (!coherent) incoherent.fetch_add(1);
      last_ticks = stats.ticks;
      last_reports = stats.reports_computed;
      for (int shard = 0; shard < options.num_shards; ++shard) {
        const int divisor = monitor.poll_divisor(shard);
        if (divisor < 1 || divisor > options.max_poll_divisor) {
          incoherent.fetch_add(1);
        }
        if (divisor > max_divisor_seen.load()) max_divisor_seen.store(divisor);
      }
      samples.fetch_add(1);
      std::this_thread::yield();
    }
  });

  RegisterFleet(&monitor);
  uint64_t h = 1469598103934665603ull;
  monitor.RunToCompletion(
      [&](double t, const std::vector<SessionStatus>& statuses) {
        h = MixTick(h, t, statuses);
        std::this_thread::yield();  // let the reader in between ticks
      });
  // Let the reader see the finished fleet too: with an impossible budget
  // every shard's divisor has climbed above 1 by then.
  const uint64_t after_run = samples.load();
  while (samples.load() < after_run + 2) std::this_thread::yield();
  stop.store(true);
  reader.join();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(max_divisor_seen.load(), 1) << "backpressure never engaged";
  EXPECT_TRUE(monitor.AllSessionsDone());
  EXPECT_EQ(h, kShardedGolden) << "got 0x" << std::hex << h;
}

/// Runs `monitor` to completion, checking on every tick that the published
/// state counts and reports_computed agree with a recount over the returned
/// statuses, and at the end that every transport counter equals the sum of
/// the per-session client counters (all zero for local sessions).
template <typename Monitor>
void ExpectCountersConserved(Monitor* monitor) {
  uint64_t estimated = 0;
  int ticks = 0;
  monitor->RunToCompletion(
      [&](double t, const std::vector<SessionStatus>& statuses) {
        ++ticks;
        size_t waiting = 0, active = 0, done = 0, degraded = 0;
        for (const SessionStatus& s : statuses) {
          switch (s.state) {
            case SessionState::kWaiting: ++waiting; break;
            case SessionState::kRunning: ++active; break;
            case SessionState::kDone: ++done; break;
          }
          if (s.degraded) ++degraded;
          if (s.state == SessionState::kRunning && s.report != nullptr) {
            ++estimated;
          }
        }
        const MonitorStats stats = monitor->stats();
        EXPECT_EQ(stats.waiting, waiting) << "t=" << t;
        EXPECT_EQ(stats.active, active) << "t=" << t;
        EXPECT_EQ(stats.done, done) << "t=" << t;
        EXPECT_EQ(stats.degraded_sessions, degraded) << "t=" << t;
        EXPECT_EQ(stats.reports_computed, estimated) << "t=" << t;
      });
  EXPECT_GT(ticks, 0);
  EXPECT_GT(estimated, 0u);
  EXPECT_TRUE(monitor->AllSessionsDone());

  ClientStats sum;
  for (size_t i = 0; i < monitor->session_count(); ++i) {
    const ClientStats& c = monitor->session_client_stats(static_cast<int>(i));
    sum.polls += c.polls;
    sum.retries += c.retries;
    sum.transport_failures += c.transport_failures;
    sum.decode_errors += c.decode_errors;
    sum.accepted += c.accepted;
    sum.duplicates_ignored += c.duplicates_ignored;
    sum.regressions_rejected += c.regressions_rejected;
    sum.stale_polls += c.stale_polls;
    sum.bytes_received += c.bytes_received;
    sum.deltas_applied += c.deltas_applied;
    sum.delta_resyncs += c.delta_resyncs;
    sum.request_id_mismatches += c.request_id_mismatches;
  }
  const MonitorStats stats = monitor->stats();
  EXPECT_EQ(stats.transport_polls, sum.polls);
  EXPECT_EQ(stats.transport_retries, sum.retries);
  EXPECT_EQ(stats.transport_failures, sum.transport_failures);
  EXPECT_EQ(stats.decode_errors, sum.decode_errors);
  EXPECT_EQ(stats.snapshots_accepted, sum.accepted);
  EXPECT_EQ(stats.duplicates_ignored, sum.duplicates_ignored);
  EXPECT_EQ(stats.regressions_rejected, sum.regressions_rejected);
  EXPECT_EQ(stats.stale_reports, sum.stale_polls);
  EXPECT_EQ(stats.transport_bytes, sum.bytes_received);
  EXPECT_EQ(stats.deltas_applied, sum.deltas_applied);
  EXPECT_EQ(stats.delta_resyncs, sum.delta_resyncs);
  EXPECT_EQ(stats.request_id_mismatches, sum.request_id_mismatches);
  // The lossy link really exercised the counters being conserved.
  EXPECT_GT(sum.retries, 0u);
  EXPECT_GT(sum.stale_polls, 0u);
  EXPECT_GT(sum.deltas_applied, 0u);
}

TEST_F(MixedFleetTest, ServiceCountersAreConserved) {
  MonitorOptions options;
  options.num_threads = 4;
  options.tick_ms = kTickMs;
  MonitorService monitor(options);
  RegisterFleet(&monitor);
  ExpectCountersConserved(&monitor);
}

TEST_F(MixedFleetTest, ShardedCountersAreConserved) {
  ShardedMonitorOptions options;
  options.num_shards = 3;
  options.shard_options.num_threads = 4;
  options.shard_options.tick_ms = kTickMs;
  ShardedMonitor monitor(options);
  RegisterFleet(&monitor);
  ExpectCountersConserved(&monitor);
}

// Regression test for the accumulated-tick drift bug. With tick_ms = 6.7 —
// inexact in binary — 3000 repeated additions accumulate to
// 20100.000000001135, which is past horizon + 1e-9, so the drifting loop
// skipped the final on-horizon tick and then issued an overtime tick
// *beyond* the horizon. The indexed loop computes t = i * tick with one
// rounding per tick: 3000 * 6.7 is exactly 20100.0.
TEST_F(ShardedMonitorTest, IndexedTickLoopHitsExactHorizon) {
  Plan plan = Annotated(Sort(Scan("t_small"), {0}));
  ExecutionResult result = Traced(plan);
  // Stretch the virtual timeline so the horizon is exactly 3000 ticks of
  // 6.7 ms. Counters are untouched; the session simply idles on its last
  // snapshot until the (much later) final one.
  result.trace.total_elapsed_ms = 20100.0;
  result.trace.final_snapshot.time_ms = 20100.0;
  const double horizon = 20100.0;

  MonitorOptions tick_options;
  tick_options.tick_ms = 6.7;
  tick_options.num_threads = 1;

  {
    MonitorService monitor(tick_options);
    monitor.RegisterSession("drift", &plan, catalog_.get(), &result.trace,
                            /*start_offset_ms=*/0);
    ASSERT_DOUBLE_EQ(monitor.HorizonMs(), horizon);
    std::vector<double> times;
    monitor.RunToCompletion(
        [&](double now_ms, const std::vector<SessionStatus>&) {
          times.push_back(now_ms);
        });
    ASSERT_EQ(times.size(), 3000u) << "final on-horizon tick was skipped";
    EXPECT_DOUBLE_EQ(times.back(), horizon);
    for (double t : times) {
      ASSERT_LE(t, horizon + 1e-9) << "tick drifted past the horizon";
    }
    EXPECT_TRUE(monitor.AllSessionsDone())
        << "session left for overtime ticks the horizon pass should cover";
  }

  {
    ShardedMonitorOptions options;
    options.num_shards = 2;
    options.shard_options = tick_options;
    ShardedMonitor monitor(options);
    monitor.RegisterSession("drift", &plan, catalog_.get(), &result.trace,
                            /*start_offset_ms=*/0);
    std::vector<double> times;
    monitor.RunToCompletion(
        [&](double now_ms, const std::vector<SessionStatus>&) {
          times.push_back(now_ms);
        });
    ASSERT_EQ(times.size(), 3000u);
    EXPECT_DOUBLE_EQ(times.back(), horizon);
    for (double t : times) ASSERT_LE(t, horizon + 1e-9);
    EXPECT_TRUE(monitor.AllSessionsDone());
  }
}

}  // namespace
}  // namespace testing
}  // namespace lqs
