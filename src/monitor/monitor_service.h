#ifndef LQS_MONITOR_MONITOR_SERVICE_H_
#define LQS_MONITOR_MONITOR_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "common/deterministic.h"
#include "common/mutex.h"
#include "common/noalloc.h"
#include "common/thread_annotations.h"
#include "dmv/query_profile.h"
#include "exec/plan.h"
#include "lqs/estimator.h"
#include "monitor/latency_histogram.h"
#include "monitor/thread_pool.h"
#include "remote/polling_client.h"
#include "storage/catalog.h"

namespace lqs {

/// Knobs of the multi-query monitor.
struct MonitorOptions {
  /// Worker threads computing per-session reports; <= 0 picks a hardware
  /// default. Output is identical for every value — see the determinism
  /// contract on MonitorService.
  int num_threads = 0;
  /// Ticks RunToCompletion spreads over the horizon when tick_ms is 0.
  int ticks_per_horizon = 12;
  /// Explicit tick spacing in virtual ms; 0 derives it from the horizon.
  double tick_ms = 0;
  /// Wrap every session in a ProgressInvariantChecker (the always-on <5%
  /// overhead configuration, DESIGN.md §7); violations surface in
  /// FinalCheck().
  bool check_invariants = true;
  InvariantCheckerOptions checker_options;
  /// Ticks RunToCompletion keeps issuing past the nominal horizon while
  /// remote sessions still await their final snapshot over a lossy link.
  /// Once exhausted, unfinished sessions are left degraded rather than
  /// looping forever (they surface in FinalCheck). Irrelevant for local
  /// trace-backed sessions, which are always done at the horizon.
  int max_overtime_ticks = 256;
};

/// The RunToCompletion schedule shared by MonitorService and
/// ShardedMonitor, for a monitor with at least one session. The tick width
/// is options.tick_ms, or the horizon over options.ticks_per_horizon.
/// Calls `tick(t)` at t = i * width for i = 1, 2, ... through `horizon_ms`,
/// then at the following marks while `all_done()` is false, for at most
/// options.max_overtime_ticks more. A zero width (every session empty)
/// ticks once at t = 0 instead of looping forever on `t += 0`.
void RunTickSchedule(double horizon_ms, const MonitorOptions& options,
                     const std::function<void(double now_ms)>& tick,
                     const std::function<bool()>& all_done);

enum class SessionState {
  kWaiting,  ///< shared timeline has not reached the session's arrival yet
  kRunning,
  kDone,
};

/// What the monitor knows about one session at one tick — the row a
/// dashboard renders under that query's window (§2.1).
struct SessionStatus {
  int session_id = -1;
  SessionState state = SessionState::kWaiting;
  /// Tick time on the session's own clock (now - start offset; negative
  /// while waiting).
  double local_time_ms = 0;
  /// The DMV poll the estimate was computed from (null while waiting, the
  /// final snapshot once done).
  const ProfileSnapshot* snapshot = nullptr;
  /// Full estimator output, owned by the session: non-null only on ticks
  /// that estimated (kRunning with a snapshot). Like `snapshot`, it stays
  /// valid until the next Tick of the service that produced it.
  const ProgressReport* report = nullptr;
  /// [0, 1]; 0 while waiting, 1 once done, report.query_progress otherwise.
  double progress = 0;

  // --- Transport condition (endpoint-backed sessions only) ---
  /// True when the session polls a SnapshotEndpoint instead of reading a
  /// local trace. The fields below stay at their defaults for local ones.
  bool remote = false;
  /// This tick's estimate came from a held/interpolated snapshot (no fresh
  /// data crossed the link this tick).
  bool stale = false;
  /// Age of the snapshot behind the estimate: tick time minus the accepted
  /// snapshot's own timestamp.
  double staleness_ms = 0;
  /// The session exhausted its consecutive-failure budget; it keeps being
  /// polled (degraded is recoverable) but its estimate may be arbitrarily
  /// old.
  bool degraded = false;
  int consecutive_failures = 0;
};

/// Aggregate counters across the life of one MonitorService — the one
/// record the service writes (at registration and after each tick's
/// barrier), publishes through stats() and MonitorAggregator merges.
struct MonitorStats {
  size_t sessions = 0;
  /// Session states as of the most recent tick.
  size_t active = 0;
  size_t waiting = 0;
  size_t done = 0;
  uint64_t ticks = 0;
  /// Distinct (plan, catalog, options) estimators built — the cache keeps
  /// this below the session count when sessions share a plan.
  size_t estimators_cached = 0;
  int num_threads = 0;
  /// Wall-clock latency of each EstimateInto (+ invariant checks) call —
  /// one sample per computed report.
  LatencyHistogram estimate_latency_ms;
  /// Wall-clock latency of each whole tick (all sessions, fan-out +
  /// barrier).
  LatencyHistogram tick_latency_ms;
  /// Sum of estimate latencies within the most recent tick — the per-tick
  /// estimation cost a dashboard would graph.
  double last_tick_estimate_ms = 0;

  // --- Remote transport aggregates (sum over endpoint-backed sessions) ---
  size_t remote_sessions = 0;
  /// Sessions currently in the degraded state (as of the last tick).
  size_t degraded_sessions = 0;
  uint64_t transport_polls = 0;
  uint64_t transport_retries = 0;
  /// Attempts lost to timeouts/drops at the transport level.
  uint64_t transport_failures = 0;
  /// Frames that arrived but failed framing/CRC/decode.
  uint64_t decode_errors = 0;
  uint64_t snapshots_accepted = 0;
  uint64_t duplicates_ignored = 0;
  uint64_t regressions_rejected = 0;
  /// Ticks on which a session served held/interpolated data.
  uint64_t stale_reports = 0;
  /// Wire bytes received across all remote sessions — the number the delta
  /// protocol drives down (bench/monitor_scale divides it out per session
  /// per second, full vs delta).
  uint64_t transport_bytes = 0;
  /// Snapshot deltas applied against acked bases, resyncs that fell back
  /// to a keyframe, and responses answering a different request_id than
  /// the one in flight (late/misrouted deliveries).
  uint64_t deltas_applied = 0;
  uint64_t delta_resyncs = 0;
  uint64_t request_id_mismatches = 0;

  // --- Bounds-engine aggregates (single-estimator sessions whose
  //     EstimatorOptions::bounds_engine is not the Appendix-A default) ---
  /// Sessions running a non-default bounding engine.
  size_t lp_bounds_sessions = 0;
  /// Nodes where the LpBound engine tightened the Appendix A upper bound,
  /// summed over the sessions' workspace counters.
  uint64_t bounds_lp_tightenings = 0;
  /// Inverted engine intersections resolved to the Appendix-A interval;
  /// nonzero means an engine produced an unsound interval somewhere — a
  /// red flag worth alerting on, hence surfaced here.
  uint64_t bounds_intersection_inversions = 0;

  // --- Derived from the histograms by DeriveRates() ---
  /// Progress reports computed (one per estimated session per tick).
  uint64_t reports_computed = 0;
  /// Total wall-clock time spent inside estimator calls and the resulting
  /// estimator-only throughput. Contrast with reports_per_sec, which
  /// divides by whole-tick wall time (fan-out, barrier and transport
  /// included).
  double estimate_wall_ms = 0;
  double estimates_per_sec = 0;
  /// Wall-clock time spent ticking and the resulting throughput.
  double wall_ms = 0;
  double reports_per_sec = 0;

  /// Fills the derived fields above from the histograms. stats() and
  /// MonitorAggregator::Merge both end with it, so a merged throughput is
  /// recomputed from merged sums, never averaged from per-shard rates.
  void DeriveRates();

  double p50_estimate_latency_ms() const {
    return estimate_latency_ms.Quantile(0.50);
  }
  double p95_estimate_latency_ms() const {
    return estimate_latency_ms.Quantile(0.95);
  }
  double max_estimate_latency_ms() const { return estimate_latency_ms.max(); }
  double p50_tick_latency_ms() const { return tick_latency_ms.Quantile(0.50); }
  double p95_tick_latency_ms() const { return tick_latency_ms.Quantile(0.95); }
};

/// Owns many concurrently-monitored query sessions and replays their DMV
/// traces against one shared virtual timeline — the reproduction of the LQS
/// front-end tracking "multiple, concurrently executing queries, each of
/// them being given their own dedicated window" (§2.1).
///
/// Each registered session pairs an executed query's trace with a start
/// offset on the shared timeline. Tick(t) computes a ProgressReport for
/// every session active at time t on a worker pool, one estimator call per
/// session; estimators are cached per distinct (plan, catalog, options) and
/// shared across sessions — safely, because estimators are const after
/// construction and every session drives EstimateInto through its own
/// private Workspace — while the per-session ProgressInvariantChecker state
/// stays private to its session.
///
/// Due set (DESIGN.md §8): a tick costs one ComputeStatus per *running*
/// session, not per registered one. Each session owns a persistent status
/// slot. Sessions wait in an arrival order sorted by start offset and are
/// admitted to the running set once the timeline reaches them; a session
/// that reaches kDone is retired — never polled or estimated again, its
/// transport and bounds counters folded into running totals once. Waiting
/// and retired slots only have their time fields advanced.
///
/// Determinism contract: results depend only on the registered sessions and
/// the tick times, never on options.num_threads or scheduling. Work is
/// computed in parallel into per-session slots and returned in session
/// registration order, so rendering the returned statuses produces
/// byte-identical output for 1 thread and N threads (bench/monitor_scale.cc
/// verifies this on every run).
///
/// Threading: register and tick from one driver thread (sessions_ and the
/// estimator cache are driver-only by design). The stats record is the
/// exception — it lives behind stats_mu_
/// (lock_rank::kMonitorStats), so stats() may be called from any thread
/// while the driver ticks, the way a dashboard thread samples a live
/// monitor. The discipline is compile-time checked via the annotations
/// below (DESIGN.md §9).
class MonitorService {
 public:
  explicit MonitorService(MonitorOptions options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Registers one monitored session and returns its id (dense, starting
  /// at 0). `plan`, `catalog` and `trace` must outlive the service.
  int RegisterSession(std::string name, const Plan* plan,
                      const Catalog* catalog, const ProfileTrace* trace,
                      double start_offset_ms,
                      const EstimatorOptions& estimator_options =
                          EstimatorOptions::Lqs());

  /// Registers a session whose snapshots arrive through `endpoint` — over
  /// the wire format, with the PollingClient's timeout/retry/backoff and
  /// duplicate/regression filtering between the link and the estimator
  /// (DESIGN.md §10). `plan` and `catalog` must outlive the service; the
  /// endpoint is owned by the session. The trace-backed RegisterSession
  /// above stays the in-process fast path: its sessions read the trace
  /// directly and are byte-identical to pre-transport behaviour.
  int RegisterRemoteSession(std::string name, const Plan* plan,
                            const Catalog* catalog,
                            std::unique_ptr<SnapshotEndpoint> endpoint,
                            double start_offset_ms,
                            const PollingClientOptions& client_options = {},
                            const EstimatorOptions& estimator_options =
                                EstimatorOptions::Lqs());

  /// Transport counters of one session (e.g. to inspect the fault mix a
  /// test injected); all zero for a local trace-backed session. Call it
  /// from the ticking thread — the client is session state, not behind
  /// stats_mu_.
  const ClientStats& session_client_stats(int session_id) const {
    static const ClientStats kLocal;
    const Session& session = sessions_[static_cast<size_t>(session_id)];
    return session.client != nullptr ? session.client->stats() : kLocal;
  }

  size_t session_count() const { return sessions_.size(); }
  const std::string& session_name(int session_id) const {
    return sessions_[static_cast<size_t>(session_id)].name;
  }

  /// Virtual time at which the last session finishes (0 when no session
  /// does any work). Remote sessions contribute their endpoint's advertised
  /// horizon; an endpoint that does not know one contributes nothing (its
  /// session completes during overtime ticks, see MonitorOptions).
  double HorizonMs() const;

  /// True when every session has reached kDone as of the last tick.
  bool AllSessionsDone() const;

  /// Advances the shared timeline to `now_ms` and brings every session's
  /// status slot up to date (see statuses()): admits the sessions the
  /// timeline reached, computes the running set, retires finished sessions
  /// and advances the time fields of the rest. Call with non-decreasing
  /// times — the invariant checkers require in-order replay.
  /// LQS_NOALLOC: the steady-state tick body. The running-set and latency
  /// buffers are reserved at registration, so it allocates only through
  /// ComputeStatus's annotated boundaries.
  LQS_NOALLOC void Advance(double now_ms) LQS_EXCLUDES(stats_mu_);

  /// Status slots as of the last Advance, indexed by session id; a session
  /// registered since then shows kWaiting. The reference (and each slot's
  /// `report`) stays valid until the next Advance or registration.
  const std::vector<SessionStatus>& statuses() const { return due_.slots; }

  /// Advance(now_ms), then a copy of statuses().
  std::vector<SessionStatus> Tick(double now_ms) LQS_EXCLUDES(stats_mu_);

  /// Runs the whole timeline: ticks from the first tick mark through the
  /// horizon, invoking `render` (may be empty) after each tick. A
  /// degenerate horizon of zero virtual ms — every session empty — renders
  /// a single t=0 tick instead of looping forever on a zero tick width.
  void RunToCompletion(
      const std::function<void(double now_ms,
                               const std::vector<SessionStatus>&)>& render);

  /// End-of-timeline invariant verdict: every violation accumulated during
  /// ticking plus each session's CheckFinal against its final snapshot.
  /// With check_invariants off, returns an empty (ok) report.
  ValidationReport FinalCheck();

  /// A copy of the published stats record with its derived fields filled
  /// in (MonitorStats::DeriveRates). Safe to call from any thread
  /// concurrently with the driver's Tick().
  /// LQS_NOALLOC: a dashboard samples it on every refresh.
  LQS_NOALLOC MonitorStats stats() const LQS_EXCLUDES(stats_mu_);

 private:
  struct Session {
    std::string name;
    const Plan* plan;
    const Catalog* catalog;
    /// Local sessions read this trace directly; null for remote sessions.
    const ProfileTrace* trace;
    double start_offset_ms;
    const ProgressEstimator* estimator;  // owned by estimator_cache_
    std::unique_ptr<ProgressInvariantChecker> checker;  // null if unchecked
    /// Remote sessions poll through this client; null for local sessions.
    /// Like `checker`, it is per-session mutable state: touched by exactly
    /// one pool worker per tick, ticks ordered by the ParallelFor barrier.
    std::unique_ptr<PollingClient> client;
    /// The report the status slot points at; heap-held so the pointer
    /// survives sessions_ growing, and reused across ticks so estimating
    /// into it allocates nothing once sized (same ownership as `checker`).
    std::unique_ptr<ProgressReport> report;
    /// Estimation scratch reused across ticks, bound to `estimator` on the
    /// first estimate. Estimators are shared across sessions via the cache,
    /// but each session owns its workspace — exactly the one-workspace-per-
    /// estimator-per-thread contract, because a session is touched by
    /// exactly one pool worker per tick and ticks are ordered by the
    /// ParallelFor barrier (the same ownership rule as `checker`/`client`).
    ProgressEstimator::Workspace workspace;
  };

  /// Cache key: estimator identity is the plan + catalog + the full option
  /// set, packed to an integer via EstimatorOptions::PackBits (all fields
  /// are flags, the bounds-engine selector and one threshold).
  using EstimatorKey = std::tuple<const Plan*, const Catalog*, uint64_t>;
  const ProgressEstimator* CachedEstimator(const Plan* plan,
                                           const Catalog* catalog,
                                           const EstimatorOptions& options);

  /// Registration shared by both Register* calls: builds the session (its
  /// cached estimator and, when enabled, its checker) around the caller's
  /// trace or client — exactly one is non-null — appends it with its
  /// waiting slot and grows the per-tick buffers to fit it.
  int AddSession(std::string name, const Plan* plan, const Catalog* catalog,
                 double start_offset_ms,
                 const EstimatorOptions& estimator_options,
                 const ProfileTrace* trace,
                 std::unique_ptr<PollingClient> client);

  /// Computes one running session's status at `now_ms` (runs on a pool
  /// worker), fully overwriting `*out`.
  /// LQS_NOALLOC: one call per running session per tick, fanned out across
  /// the pool by Advance(). Its deliberate allocation boundaries (workspace
  /// sizing, transport decode, violation reporting) are
  /// LQS_ALLOC_OK-annotated at their definitions; everything else must stay
  /// heap-free (tests/estimator_alloc_test.cc bounds the whole Tick at
  /// runtime).
  /// LQS_DETERMINISTIC: the session-ordered output (`*out`) depends only on
  /// the session's registered inputs and `now_ms`, never on threads or
  /// wall-clock time; the one sanctioned exception is `*latency_ms`, pure
  /// timing telemetry that feeds stats() and never the statuses (see the
  /// det-ok on LatencyClockNow in monitor_service.cc).
  LQS_NOALLOC LQS_DETERMINISTIC void ComputeStatus(size_t index, double now_ms,
                                                   SessionStatus* out,
                                                   double* latency_ms);
  /// Endpoint-backed arm of ComputeStatus: polls the session's client and
  /// estimates off whatever snapshot the link yielded.
  void ComputeRemoteStatus(Session* session, SessionStatus* out,
                           double* latency_ms);
  /// Shared estimate tail of the local and remote arms: dispatches to the
  /// checked / plain estimator against `out->snapshot` (must be non-null)
  /// and stamps `*latency_ms`. Inherits ComputeStatus's noalloc and
  /// determinism obligations transitively (it is only reachable from that
  /// root).
  void EstimateSession(Session* session, SessionStatus* out,
                       double* latency_ms);

  const MonitorOptions options_;
  /// Internally synchronized (owns its own kThreadPool lock); fanned out to
  /// by the driver, joined at the barrier before any state below is read.
  ThreadPool pool_;  // lqs-verify: guard-ok(internally synchronized pool)
  /// Driver-thread-only by the documented threading contract: registration
  /// and Tick() happen on one thread; pool workers touch disjoint per-
  /// session slots between fan-out and barrier. stats() never reads these —
  /// it reads the guarded stats_ record below.
  // lqs-verify: guard-ok(driver-owned; stats() reads guarded stats_)
  std::vector<Session> sessions_;
  // lqs-verify: guard-ok(driver-owned; stats() reads guarded stats_)
  std::map<EstimatorKey, std::unique_ptr<ProgressEstimator>> estimator_cache_;

  /// The per-session counters each tick sums over the fleet.
  struct SessionCounters {
    size_t degraded = 0;
    ClientStats transport;
    uint64_t lp_tightenings = 0;
    uint64_t lp_inversions = 0;

    /// Adds one session's counters as of its latest status.
    void Tally(const Session& session, const SessionStatus& status);
  };

  /// Due-set bookkeeping (DESIGN.md §8). Capacity for every registered
  /// session is reserved at registration, so Advance never grows a buffer.
  struct DueSet {
    /// One status slot per session, indexed by session id. Pool workers
    /// write the running sessions' slots between fan-out and barrier.
    std::vector<SessionStatus> slots;
    /// Start offsets by session id: the arrival sort key and the source of
    /// every waiting or retired slot's local_time_ms.
    std::vector<double> offsets;
    /// Session ids in arrival order. [0, admitted) are admitted; the rest
    /// wait sorted by (start offset, id), re-sorted by the first Advance
    /// after a registration.
    std::vector<uint32_t> arrivals;
    size_t admitted = 0;
    bool arrivals_sorted = true;
    /// Admitted sessions not yet done, in admission order, and one latency
    /// per running-set position.
    std::vector<uint32_t> running;
    std::vector<double> latencies;
    /// Sessions retired so far and their counters, folded in once at
    /// retirement (they never change afterwards).
    size_t retired = 0;
    SessionCounters retired_counters;
  };
  // lqs-verify: guard-ok(ticking-thread-owned; stats() reads stats_)
  DueSet due_;

  /// Guards the published stats record. The driver writes it at
  /// registration and once per tick after the ParallelFor barrier (never
  /// while holding the pool's lock — kMonitorStats < kThreadPool keeps even
  /// that nesting legal); any thread may copy it through stats(). Container
  /// sizes are written into it rather than read from sessions_ and the
  /// estimator cache, which are not readable mid-mutation from another
  /// thread. Its derived fields stay zero here; stats() fills them.
  mutable Mutex stats_mu_{lock_rank::kMonitorStats,
                          "MonitorService::stats_mu_"};
  MonitorStats stats_ LQS_GUARDED_BY(stats_mu_);
};

}  // namespace lqs

#endif  // LQS_MONITOR_MONITOR_SERVICE_H_
