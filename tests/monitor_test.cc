// MonitorService: session lifecycle on the shared timeline, the estimator
// cache, the zero-horizon guard (the old example's infinite loop), the
// determinism contract (1-thread and N-thread runs produce identical
// results), aggregate stats and the latency histograms behind them, and the
// ThreadPool underneath it all.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "common/stringf.h"
#include "monitor/latency_histogram.h"
#include "monitor/monitor_service.h"
#include "monitor/thread_pool.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  ExecutionResult Run(const Plan& plan, double interval_ms = 2.0) {
    ExecOptions exec;
    exec.snapshot_interval_ms = interval_ms;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(MonitorTest, SessionLifecycleOnSharedTimeline) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Run(plan);
  ASSERT_GT(result.duration_ms, 0);

  MonitorService monitor;
  const double offset = result.duration_ms * 2;
  monitor.RegisterSession("first", &plan, catalog_.get(), &result.trace, 0);
  monitor.RegisterSession("late", &plan, catalog_.get(), &result.trace,
                          offset);
  EXPECT_DOUBLE_EQ(monitor.HorizonMs(), offset + result.duration_ms);

  // Mid-flight of session 0: it is running, the late arrival still waits.
  auto statuses = monitor.Tick(result.duration_ms / 2);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].state, SessionState::kRunning);
  ASSERT_NE(statuses[0].snapshot, nullptr);
  EXPECT_GT(statuses[0].progress, 0.0);
  EXPECT_LE(statuses[0].progress, 1.0);
  EXPECT_EQ(statuses[1].state, SessionState::kWaiting);
  EXPECT_DOUBLE_EQ(statuses[1].progress, 0.0);
  EXPECT_LT(statuses[1].local_time_ms, 0.0);

  // After session 0 finished and session 1 started.
  statuses = monitor.Tick(offset + result.duration_ms / 2);
  EXPECT_EQ(statuses[0].state, SessionState::kDone);
  EXPECT_DOUBLE_EQ(statuses[0].progress, 1.0);
  EXPECT_EQ(statuses[1].state, SessionState::kRunning);

  // Horizon: everything done.
  statuses = monitor.Tick(monitor.HorizonMs());
  EXPECT_EQ(statuses[0].state, SessionState::kDone);
  EXPECT_EQ(statuses[1].state, SessionState::kDone);

  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.ticks, 3u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.active + stats.waiting + stats.done, stats.sessions);
  EXPECT_GT(stats.reports_computed, 0u);
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

TEST_F(MonitorTest, EstimatorCacheSharesAcrossSessionsPerPlanAndOptions) {
  Plan plan_a = Annotated(Scan("t_big"));
  Plan plan_b = Annotated(Scan("t_small"));
  ExecutionResult result_a = Run(plan_a);
  ExecutionResult result_b = Run(plan_b);

  MonitorService monitor;
  // 4 sessions over plan_a with identical options: one estimator.
  for (int i = 0; i < 4; ++i) {
    monitor.RegisterSession(StringF("a%d", i), &plan_a, catalog_.get(),
                            &result_a.trace, 10.0 * i);
  }
  EXPECT_EQ(monitor.stats().estimators_cached, 1u);
  // Same plan, different options: a second estimator.
  monitor.RegisterSession("a_tgn", &plan_a, catalog_.get(), &result_a.trace,
                          0, EstimatorOptions::TotalGetNext());
  EXPECT_EQ(monitor.stats().estimators_cached, 2u);
  // A different plan: a third.
  monitor.RegisterSession("b", &plan_b, catalog_.get(), &result_b.trace, 0);
  EXPECT_EQ(monitor.stats().estimators_cached, 3u);
  EXPECT_EQ(monitor.session_count(), 6u);

  monitor.RunToCompletion({});
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

TEST_F(MonitorTest, ZeroHorizonDoesNotLoopForever) {
  // Regression: all sessions empty => horizon == 0 => the old example's
  // `tick = horizon / 12; t += tick` never advanced. RunToCompletion must
  // terminate and still report the degenerate sessions as done.
  ProfileTrace empty;  // total_elapsed_ms == 0, no snapshots
  Plan plan = Annotated(Scan("t_small"));

  MonitorService monitor;
  monitor.RegisterSession("empty", &plan, catalog_.get(), &empty, 0);
  int renders = 0;
  std::vector<SessionStatus> last;
  monitor.RunToCompletion(
      [&](double t, const std::vector<SessionStatus>& statuses) {
        EXPECT_DOUBLE_EQ(t, 0.0);
        ++renders;
        last = statuses;
      });
  EXPECT_EQ(renders, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].state, SessionState::kDone);
  EXPECT_EQ(monitor.stats().ticks, 1u);
}

TEST_F(MonitorTest, NoSessionsTerminatesWithoutTicks) {
  MonitorService monitor;
  EXPECT_DOUBLE_EQ(monitor.HorizonMs(), 0.0);
  int renders = 0;
  monitor.RunToCompletion(
      [&](double, const std::vector<SessionStatus>&) { ++renders; });
  EXPECT_EQ(renders, 0);
  EXPECT_EQ(monitor.stats().ticks, 0u);
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

// The determinism contract: the full per-session report stream must be
// identical whatever the thread count. Render every status into one string
// (progress at full double precision) and compare serial vs parallel.
TEST_F(MonitorTest, OutputIdenticalAcrossThreadCounts) {
  Plan join = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  Plan sort = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult join_result = Run(join);
  ExecutionResult sort_result = Run(sort);

  auto run = [&](int threads) {
    MonitorOptions options;
    options.num_threads = threads;
    options.ticks_per_horizon = 16;
    MonitorService monitor(options);
    for (int i = 0; i < 8; ++i) {
      monitor.RegisterSession(StringF("j%d", i), &join, catalog_.get(),
                              &join_result.trace, 3.5 * i);
      monitor.RegisterSession(StringF("s%d", i), &sort, catalog_.get(),
                              &sort_result.trace, 2.5 * i);
    }
    std::string rendered;
    monitor.RunToCompletion(
        [&rendered](double t, const std::vector<SessionStatus>& statuses) {
          rendered += StringF("t=%.17g\n", t);
          for (const SessionStatus& s : statuses) {
            rendered += StringF("  %d state=%d p=%.17g", s.session_id,
                                static_cast<int>(s.state), s.progress);
            if (s.report != nullptr) {
              for (double op : s.report->operator_progress) {
                rendered += StringF(" %.17g", op);
              }
            }
            rendered += "\n";
          }
        });
    EXPECT_TRUE(monitor.FinalCheck().ok());
    return rendered;
  };

  const std::string serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(5));
}

TEST_F(MonitorTest, StatsLatenciesAndThroughputArePopulated) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Run(plan);
  MonitorService monitor;
  for (int i = 0; i < 3; ++i) {
    monitor.RegisterSession(StringF("q%d", i), &plan, catalog_.get(),
                            &result.trace, 5.0 * i);
  }
  monitor.RunToCompletion({});
  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.ticks, 12u);  // default ticks_per_horizon
  EXPECT_GT(stats.reports_computed, 0u);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.reports_per_sec, 0.0);
  EXPECT_GE(stats.p95_estimate_latency_ms(), stats.p50_estimate_latency_ms());
  EXPECT_GE(stats.max_estimate_latency_ms(), stats.p95_estimate_latency_ms());
  EXPECT_GE(stats.p95_tick_latency_ms(), stats.p50_tick_latency_ms());
  EXPECT_GE(stats.p50_estimate_latency_ms(), 0.0);
  // The derived totals are the histograms' own count and sums.
  EXPECT_EQ(stats.reports_computed, stats.estimate_latency_ms.count());
  EXPECT_EQ(stats.tick_latency_ms.count(), stats.ticks);
  EXPECT_DOUBLE_EQ(stats.wall_ms, stats.tick_latency_ms.sum());
  EXPECT_GT(stats.num_threads, 0);
}

/// Seeded latencies, log-uniform from 10 ns to 10 s, with zeros and a few
/// values past the histogram's top bucket mixed in.
std::vector<double> LatencyStream(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.02) {
      values.push_back(0);
    } else if (u < 0.025) {
      values.push_back(std::ldexp(1.0, LatencyHistogram::kMaxExponent) *
                       (1 + 100 * rng.NextDouble()));
    } else {
      values.push_back(1e-5 * std::pow(10.0, 9 * rng.NextDouble()));
    }
  }
  return values;
}

TEST(LatencyHistogramTest, QuantilesStayWithinRelativeErrorOfExactSort) {
  const double top = std::ldexp(1.0, LatencyHistogram::kMaxExponent);
  for (uint64_t seed : {1, 2, 3, 4}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{1000}, size_t{20000}}) {
      std::vector<double> values = LatencyStream(seed, n);
      LatencyHistogram h;
      double sum = 0;
      for (double v : values) {
        h.Add(v);
        sum += v;
      }
      std::sort(values.begin(), values.end());
      EXPECT_EQ(h.count(), n);
      EXPECT_DOUBLE_EQ(h.sum(), sum);
      EXPECT_DOUBLE_EQ(h.max(), values.back());
      EXPECT_DOUBLE_EQ(h.Quantile(1), h.max());
      for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                       0.999, 1.0}) {
        const double exact = values[static_cast<size_t>(
            q * static_cast<double>(n - 1))];
        const double got = h.Quantile(q);
        if (exact >= top) {
          EXPECT_DOUBLE_EQ(got, h.max()) << "q=" << q << " n=" << n;
        } else {
          EXPECT_LE(std::abs(got - exact),
                    LatencyHistogram::kRelativeError * exact * (1 + 1e-12))
              << "q=" << q << " n=" << n << " seed=" << seed
              << " exact=" << exact << " got=" << got;
        }
      }
    }
  }
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(LatencyHistogramTest, MergeEqualsOneHistogramOfBothStreams) {
  const std::vector<double> first = LatencyStream(11, 5000);
  const std::vector<double> second = LatencyStream(12, 300);
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  for (double v : first) {
    a.Add(v);
    both.Add(v);
  }
  for (double v : second) {
    b.Add(v);
    both.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.buckets(), both.buckets());
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  // Only the sum's rounding order differs.
  EXPECT_NEAR(a.sum(), both.sum(), 1e-9 * both.sum());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), both.Quantile(q)) << "q=" << q;
  }
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobsAndHandlesEdgeSizes) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, [&](size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0u);
  pool.ParallelFor(1, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 1u);
  // Many back-to-back jobs exercise the generation handshake.
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(37, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 1u + 50u * (36u * 37u / 2));
}

TEST(ThreadPoolTest, DefaultThreadCountIsBoundedAndPositive) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_LE(pool.num_threads(), 16);
}

// Shutdown regression (DESIGN.md §9 audit): destroying the pool immediately
// after ParallelFor returns races the destructor's shutdown_ handshake
// against workers that are still re-entering the wait (a slow waker can
// observe the generation bump only after the job has been retired). Churn
// that window repeatedly — exact-once index coverage and a clean join must
// hold every time; TSan covers the memory orders in CI.
TEST(ThreadPoolTest, ShutdownImmediatelyAfterQueuedJobsCompletes) {
  constexpr size_t kN = 128;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::atomic<int>> hits(kN);
    {
      ThreadPool pool(4);
      pool.ParallelFor(kN, [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }  // destructor runs while workers may still be waking from the job
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ShutdownWithNoJobsEverQueuedIsClean) {
  for (int iter = 0; iter < 10; ++iter) {
    ThreadPool pool(4);  // construct + immediately destroy: pure handshake
  }
}

// The other half of the audit: a destructor overlapping an in-flight
// ParallelFor used to be silent use-after-free territory; it now aborts
// with a diagnostic. The driver thread parks the job on a latch so the
// destructor deterministically observes current_job_ != nullptr.
TEST(ThreadPoolDeathTest, DestructionWithJobInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        std::atomic<bool> started{false};
        std::atomic<bool> release{false};
        auto* pool = new ThreadPool(2);
        std::thread driver([&] {
          pool->ParallelFor(8, [&](size_t) {
            started.store(true);
            while (!release.load()) std::this_thread::yield();
          });
        });
        while (!started.load()) std::this_thread::yield();
        delete pool;  // ParallelFor still blocked in the job: must abort
        release.store(true);
        driver.join();
      },
      "destroyed while a ParallelFor is still in flight");
}

}  // namespace
}  // namespace testing
}  // namespace lqs
