// Allocation audit for the workspace-reusing estimation engine: after the
// first (sizing) call, steady-state EstimateInto must perform ZERO heap
// allocations, for every preset, across a whole recorded trace. Enforced by
// overriding global operator new/delete with counting wrappers — every
// allocation anywhere in the process is observed, including ones hidden
// inside std::vector growth, std::string, or std::map on the hot path.
//
// The overrides forward to std::malloc/std::free, which sanitizers intercept
// below us, so this test runs unchanged under ASan/UBSan and TSan builds.
// Only allocations between StartCounting/StopCounting are charged; gtest's
// own bookkeeping outside the window is free.
//
// Each assertion below is PAIRED with an LQS_NOALLOC annotation in the
// headers via an `LQS_NOALLOC_PAIRED: <qualified-name>` marker comment.
// tools/lqs_verify cross-checks the two sets in both directions: deleting
// an annotation orphans the marker here, and deleting a marker (or the
// test) orphans the annotation — either way the static-analysis CI job
// fails, so the static contract and its runtime enforcement cannot drift
// apart silently.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "remote/endpoint.h"
#include "remote/polling_client.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

#if defined(__GNUC__) && !defined(__clang__)
// GCC flags std::free() on a pointer from our replacement operator new as
// mismatched; the pairing is correct by construction (the replacement
// forwards to std::malloc), so the diagnostic is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_new_calls{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

// Replacing these at global scope intercepts every new/delete in the
// process; each variant must be covered or a caller could slip past the
// counter (and mismatch the underlying allocator).
void* operator new(std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

struct AllocationWindow {
  AllocationWindow() {
    g_new_calls.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const {
    return g_new_calls.load(std::memory_order_relaxed);
  }
};

class EstimatorAllocTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(EstimatorAllocTest, SteadyStateEstimateIntoAllocatesNothing) {
  // Exercise every operator family the estimator special-cases: hash join
  // build/probe, hash aggregate (two-phase blocking), sort (semi-blocking),
  // and a columnstore scan (§4.7 segments) under a row-mode side.
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                            CsScan("t_big"), {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  // Preset list and labels come from the shared registry, so a preset
  // added there is automatically audited here.
  for (int p = 0; p < EstimatorOptions::kPresetCount; ++p) {
    struct NamedPreset {
      const char* name;
      EstimatorOptions options;
    };
    const NamedPreset preset{EstimatorOptions::PresetName(p),
                             EstimatorOptions::PresetByIndex(p)};
    ProgressEstimator estimator(&plan, catalog_.get(), preset.options);
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    // One sizing call: binds the workspace, grows every flat buffer and the
    // report vectors to this plan's shape. The FINAL snapshot maximizes the
    // observed counters, so no later snapshot can need more capacity.
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

    AllocationWindow window;
    for (const ProfileSnapshot& snap : result.trace.snapshots) {
      estimator.EstimateInto(snap, &workspace, &report);
    }
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
    // Runtime side of the static contract (src/lqs/estimator.h, bounds.h):
    // the presets walk every annotated estimation path — bounding_only
    // drives the Appendix-A derivation, lqs drives the §4.6 weight path.
    // The flat per-stage passes run inside every EstimateInto call.
    // LQS_NOALLOC_PAIRED: ProgressEstimator::EstimateInto
    // LQS_NOALLOC_PAIRED: ProgressEstimator::PipelineWeightsInto
    // LQS_NOALLOC_PAIRED: ProgressEstimator::ComputeFreezeMasks
    // LQS_NOALLOC_PAIRED: ProgressEstimator::PipelineAlphasInto
    // LQS_NOALLOC_PAIRED: ProgressEstimator::RefinePass
    // LQS_NOALLOC_PAIRED: ProgressEstimator::OperatorProgressInto
    // LQS_NOALLOC_PAIRED: DriverShare
    EXPECT_EQ(window.count(), 0u)
        << "preset " << preset.name << ": steady-state EstimateInto "
        << "performed heap allocations";
  }
}

TEST_F(EstimatorAllocTest, SteadyStateLpBoundEnginesAllocateNothing) {
  // Bounds-engine pipeline audit: the LpBound engine and the intersecting
  // dispatcher run per snapshot, so after the sizing call (which also grows
  // the workspace's second-engine scratch) a steady-state estimate under
  // bounds_engine = kLpBound / kIntersect must stay heap-free, exactly
  // like the Appendix-A default. The plan exercises the engine's join
  // degree caps (equijoin over base-table keys) plus filter/aggregate/sort
  // pass-through bounds.
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                            CsScan("t_big"), {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  for (BoundsEngineKind kind :
       {BoundsEngineKind::kLpBound, BoundsEngineKind::kIntersect}) {
    EstimatorOptions options = EstimatorOptions::Lqs();
    options.bounds_engine = kind;
    ProgressEstimator estimator(&plan, catalog_.get(), options);
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

    AllocationWindow window;
    for (const ProfileSnapshot& snap : result.trace.snapshots) {
      estimator.EstimateInto(snap, &workspace, &report);
    }
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
    // Runtime side of the static contract (src/lqs/bounds.h): kLpBound
    // drives the ℓp-norm derivation alone, kIntersect additionally runs
    // the Appendix-A engine and the per-node interval intersection.
    // Both engines share the one postorder pass.
    // LQS_NOALLOC_PAIRED: ComputeBoundsPipelineInto
    // LQS_NOALLOC_PAIRED: BoundsPass
    EXPECT_EQ(window.count(), 0u)
        << "bounds engine " << BoundsEngineName(kind)
        << ": steady-state EstimateInto performed heap allocations";
  }
}

TEST_F(EstimatorAllocTest, NonIncrementalEstimateIntoAlsoAllocatesNothing) {
  // incremental=false disables the freeze short-circuits and the hoisted
  // catalog statics but must NOT reintroduce per-call allocation: the bench
  // baseline measures recomputation cost, not allocator noise.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);

  EstimatorOptions options = EstimatorOptions::Lqs();
  options.incremental = false;
  ProgressEstimator estimator(&plan, catalog_.get(), options);
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

  AllocationWindow window;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    estimator.EstimateInto(snap, &workspace, &report);
  }
  EXPECT_EQ(window.count(), 0u);
}

TEST_F(EstimatorAllocTest, MonitorTickStaysWithinAllocationBudget) {
  // Monitor-layer audit of the same property, multi-session: after warmup
  // ticks have sized every session's workspace and report, a steady-state
  // Tick() may allocate only its RETURNED vector (plus thread-pool job
  // dispatch) — a constant, whatever the session count. Status slots,
  // reports and the running-set buffers are reused tick to tick, so one
  // allocation per session per tick anywhere on the path blows the budget
  // at 8 sessions and again, eightfold, at 64.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);

  constexpr uint64_t kPerTickBudget = 2;
  // The last arrival plus one snapshot interval: by then every session has
  // a snapshot to estimate from.
  const double warm_ms = 3.0 * 7 + exec.snapshot_interval_ms;
  for (size_t sessions : {size_t{8}, size_t{64}}) {
    MonitorService monitor;
    for (size_t i = 0; i < sessions; ++i) {
      monitor.RegisterSession("s" + std::to_string(i), &plan, catalog_.get(),
                              &result.trace,
                              3.0 * static_cast<double>(i % 8));
    }
    // Warmup ends past the last arrival, so every session has estimated
    // (sizing its workspace and report) before the window opens.
    constexpr int kWarmupTicks = 4;
    for (int i = 1; i <= kWarmupTicks; ++i) {
      (void)monitor.Tick(warm_ms * i / kWarmupTicks);
    }
    ASSERT_EQ(monitor.stats().waiting, 0u);
    // 80 measured ticks x 8 sessions = 640 estimate-latency samples land
    // in the stats record's fixed-bucket histograms (a grow-forever vector
    // here would charge reallocation against the budget; recording a
    // latency must not allocate at all).
    constexpr int kMeasuredTicks = 80;
    const double step = (monitor.HorizonMs() - warm_ms) / (kMeasuredTicks + 1);
    double now = warm_ms;
    AllocationWindow window;
    for (int i = 0; i < kMeasuredTicks; ++i) {
      now += step;
      (void)monitor.Tick(now);
    }
    // Runtime side of the static contract (src/monitor/monitor_service.h):
    // the measured ticks run the annotated due-set tick body and, inside
    // it, the annotated per-session body.
    // LQS_NOALLOC_PAIRED: MonitorService::Advance
    // LQS_NOALLOC_PAIRED: MonitorService::ComputeStatus
    EXPECT_LE(window.count(),
              kPerTickBudget * static_cast<uint64_t>(kMeasuredTicks))
        << sessions << " sessions: steady-state monitor ticks allocated "
        << window.count() / kMeasuredTicks << " times per tick";
  }
}

TEST_F(EstimatorAllocTest, MonitorStatsReadAllocatesNothing) {
  // A dashboard samples stats() on every refresh, so reading them must not
  // cost a heap allocation: the record is copied out under the lock and
  // its quantiles are bucket scans, never a sorted copy of the samples.
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  MonitorService monitor;
  for (int i = 0; i < 8; ++i) {
    monitor.RegisterSession("s" + std::to_string(i), &plan, catalog_.get(),
                            &result.trace, 1.5 * i);
  }
  monitor.RunToCompletion(nullptr);
  // The first read sizes this thread's lock-rank bookkeeping.
  ASSERT_GT(monitor.stats().reports_computed, 0u);

  double checksum = 0;
  AllocationWindow window;
  for (int i = 0; i < 100; ++i) {
    const MonitorStats stats = monitor.stats();
    checksum += stats.p50_estimate_latency_ms() +
                stats.p95_estimate_latency_ms() +
                stats.p95_tick_latency_ms() + stats.reports_per_sec;
  }
  // LQS_NOALLOC_PAIRED: MonitorService::stats
  EXPECT_EQ(window.count(), 0u);
  EXPECT_GT(checksum, 0.0);
}

TEST_F(EstimatorAllocTest, DeltaLoopbackClientAllocatesOnlyTheFramePerAttempt) {
  // Transport arm (src/remote/polling_client.h): a warm client over a
  // healthy delta loopback allocates exactly one buffer per attempt — the
  // frame the endpoint returns by value. The endpoint reuses its response
  // and delta, the client decodes into one response, reassembles into one
  // snapshot and rotates accepted snapshots by swapping, so nothing else on
  // the path may allocate per attempt. Polling at half the snapshot
  // interval under kInterpolate also walks the stale ticks (the empty
  // "nothing newer" answer, the interpolated view) and the periodic
  // keyframes.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 0.5;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 40u);

  LoopbackOptions loopback;
  loopback.serve_deltas = true;
  PollingClientOptions options;
  options.staleness_policy = StalenessPolicy::kInterpolate;
  PollingClient client(
      std::make_unique<LoopbackEndpoint>(&result.trace, loopback), options);

  const double horizon = result.trace.total_elapsed_ms;
  const double step = exec.snapshot_interval_ms / 2;
  // Warmup spans two keyframe cycles, so every buffer on the path has
  // held a full snapshot and a delta before the window opens. Every other
  // poll lands inside a snapshot interval and gets "nothing newer than
  // your ack", so two cycles take half the trace.
  const double warm_ms = horizon / 2;
  double now = 0;
  for (; now < warm_ms; now += step) (void)client.Poll(now);
  ASSERT_GT(client.stats().deltas_applied, 32u);

  const uint64_t attempts_before = client.stats().attempts;
  const uint64_t deltas_before = client.stats().deltas_applied;
  const uint64_t stale_before = client.stats().stale_polls;
  uint64_t allocations = 0;
  {
    AllocationWindow window;
    for (; now < horizon - step; now += step) (void)client.Poll(now);
    allocations = window.count();
  }
  const uint64_t attempts = client.stats().attempts - attempts_before;
  ASSERT_GT(client.stats().deltas_applied - deltas_before, 16u);
  ASSERT_GT(client.stats().stale_polls - stale_before, 0u);
  EXPECT_FALSE(client.complete());
  EXPECT_LE(allocations, attempts + 8)
      << allocations << " allocations over " << attempts << " attempts";
}

TEST_F(EstimatorAllocTest, MonitorTickOverRemoteDeltaSessionsStaysInBudget) {
  // The monitor-level view of the same bound: a steady-state Tick over
  // remote delta sessions may allocate its two per-tick buffers (the
  // returned vector and the pool dispatch) plus one frame per attempt.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 0.5;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 80u);

  constexpr uint64_t kPerTickBudget = 2;
  LoopbackOptions loopback;
  loopback.serve_deltas = true;
  const double trace_ms = result.trace.total_elapsed_ms;
  for (size_t sessions : {size_t{8}, size_t{64}}) {
    MonitorService monitor;
    for (size_t i = 0; i < sessions; ++i) {
      monitor.RegisterRemoteSession(
          "r" + std::to_string(i), &plan, catalog_.get(),
          std::make_unique<LoopbackEndpoint>(&result.trace, loopback),
          0.5 * static_cast<double>(i % 8));
    }
    auto total_attempts = [&monitor] {
      uint64_t total = 0;
      for (size_t i = 0; i < monitor.session_count(); ++i) {
        total += monitor.session_client_stats(static_cast<int>(i)).attempts;
      }
      return total;
    };
    // Warmup ticks once per snapshot interval through the first half of
    // the trace: past the last arrival and through at least two keyframe
    // cycles of every session, so each client and endpoint buffer is sized.
    double now = 0;
    for (; now < trace_ms / 2; now += exec.snapshot_interval_ms) {
      (void)monitor.Tick(now);
    }
    ASSERT_EQ(monitor.stats().waiting, 0u);

    // The window ends before the first session completes, so every
    // session polls on every measured tick.
    constexpr int kMeasuredTicks = 40;
    const double step = (trace_ms - 1.0 - now) / kMeasuredTicks;
    const uint64_t attempts_before = total_attempts();
    uint64_t allocations = 0;
    {
      AllocationWindow window;
      for (int i = 0; i < kMeasuredTicks; ++i) {
        now += step;
        (void)monitor.Tick(now);
      }
      allocations = window.count();
    }
    const uint64_t attempts = total_attempts() - attempts_before;
    ASSERT_GE(attempts, sessions * kMeasuredTicks);
    EXPECT_LE(allocations,
              kPerTickBudget * static_cast<uint64_t>(kMeasuredTicks) +
                  attempts)
        << sessions << " remote sessions: " << allocations
        << " allocations over " << kMeasuredTicks << " ticks and " << attempts
        << " attempts";
  }
}

TEST_F(EstimatorAllocTest, FreshEstimateAllocatesAsExpected) {
  // Sanity check on the instrument itself: the first EstimateInto against a
  // fresh workspace and report sizes both, so it MUST allocate. If this ever
  // reads zero the counting overrides are not linked in and the
  // zero-allocation tests above are vacuous.
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  auto result = MustExecute(plan, catalog_.get());
  ProgressEstimator estimator(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;

  AllocationWindow window;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_GT(window.count(), 0u);
  EXPECT_GT(report.query_progress, 0.99);
  // A repeat call reusing the workspace and report keeps their sized
  // buffers, so it must cost less than the first call's sizing.
  const uint64_t first_call = window.count();
  const double first_progress = report.query_progress;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_LT(window.count() - first_call, first_call);
  EXPECT_EQ(report.query_progress, first_progress);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
