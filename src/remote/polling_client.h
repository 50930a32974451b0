#ifndef LQS_REMOTE_POLLING_CLIENT_H_
#define LQS_REMOTE_POLLING_CLIENT_H_

#include <cstdint>
#include <memory>

#include "common/noalloc.h"
#include "common/rng.h"
#include "dmv/query_profile.h"
#include "remote/endpoint.h"
#include "remote/wire.h"

namespace lqs {

/// What the client does with a tick on which no fresh snapshot arrived.
enum class StalenessPolicy {
  /// Keep showing the last accepted snapshot (progress holds flat). The
  /// default: never fabricates counters, so downstream invariant checkers
  /// see only data the server actually produced.
  kHold,
  /// Extrapolate counters forward at the rate observed between the last two
  /// accepted snapshots, capped at one inter-snapshot gap. Progress keeps
  /// moving across short outages, at the cost of synthetic counters that a
  /// later real snapshot may land slightly below (the §5 revision metric
  /// treats such corrections as revisions, not errors).
  kInterpolate,
};

struct PollingClientOptions {
  /// Virtual-time budget for one attempt; a response arriving later than
  /// send + timeout_ms counts as timed out even if it carries bytes.
  double timeout_ms = 50;
  /// Attempts per Poll(): 1 initial + (max_attempts - 1) retries.
  int max_attempts = 4;
  /// Exponential backoff between failed attempts, on the virtual timeline:
  /// initial * multiplier^k, capped, then jittered by ±jitter_fraction with
  /// a deterministic seeded draw (all sessions seeded alike would otherwise
  /// retry in lockstep — the classic thundering herd).
  double backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 200;
  double jitter_fraction = 0.2;
  uint64_t jitter_seed = 1;
  /// Consecutive Poll() calls with no decodable response before the session
  /// is marked degraded. A single decodable response recovers it.
  int degrade_after_failures = 8;
  StalenessPolicy staleness_policy = StalenessPolicy::kHold;
};

enum class TransportHealth {
  kHealthy,
  /// The consecutive-failure budget is exhausted. The client keeps serving
  /// its last accepted snapshot and keeps polling — degraded is a surfaced
  /// state, not a terminal one — so the session never wedges the monitor.
  kDegraded,
};

/// What the monitor sees after one Poll(): the freshest usable snapshot plus
/// transport condition. `snapshot` points into client-owned storage and is
/// valid until the next Poll() on this client.
struct ClientView {
  const ProfileSnapshot* snapshot = nullptr;  ///< null before first accept
  /// The server declared the query complete and `snapshot` holds its final
  /// counters.
  bool query_complete = false;
  /// No fresh snapshot was accepted by this Poll() — `snapshot` is held (or
  /// interpolated) from earlier data.
  bool stale = false;
  /// now - (time of the last *accepted* snapshot); 0 before the first one.
  double staleness_ms = 0;
  TransportHealth health = TransportHealth::kHealthy;
  int consecutive_failures = 0;
};

/// Lifetime counters of one client, surfaced into MonitorStats.
struct ClientStats {
  uint64_t polls = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  /// Attempts that timed out or errored at the transport level.
  uint64_t transport_failures = 0;
  /// Attempts whose bytes arrived but failed framing/CRC/decode.
  uint64_t decode_errors = 0;
  /// Snapshots accepted (fresh, monotone).
  uint64_t accepted = 0;
  /// Redeliveries of the already-accepted snapshot (same timestamp).
  uint64_t duplicates_ignored = 0;
  /// Snapshots rejected as older than the last accepted one (reordered late
  /// deliveries), or carrying counters that went backwards.
  uint64_t regressions_rejected = 0;
  /// Poll() calls that ended with no decodable response at all.
  uint64_t failed_polls = 0;
  /// Poll() calls that served held/interpolated (stale) data.
  uint64_t stale_polls = 0;
  /// Wire bytes that arrived (decodable or not) — the transport cost the
  /// delta protocol exists to shrink.
  uint64_t bytes_received = 0;
  /// Deltas successfully applied to the acked base.
  uint64_t deltas_applied = 0;
  /// Deltas that could not be applied (base mismatch after a lost keyframe,
  /// or no base at all) — each one flips the next request to want_keyframe.
  uint64_t delta_resyncs = 0;
  /// Decodable responses whose request_id was not the one just sent: late
  /// or misrouted deliveries. They still flow through the recency filter
  /// (late deliveries are legitimate data), but are now observable.
  uint64_t request_id_mismatches = 0;

  /// Adds every counter of `other` (a fleet total over sessions).
  ClientStats& operator+=(const ClientStats& other);
};

/// Polls a SnapshotEndpoint on the virtual timeline with per-request
/// timeouts, bounded retries and seeded exponential backoff, and keeps the
/// estimation seam well-behaved over a lossy link:
///
///  - duplicates (same snapshot timestamp) are ignored;
///  - regressions (snapshot older than the last accepted one, or counters
///    running backwards) are rejected, so accepted snapshot timestamps are
///    strictly increasing — the monotone replay the invariant checkers
///    demand;
///  - an answer to the request just sent that brings nothing fresh (the
///    server's "nothing newer than your ack", a duplicate or a regression)
///    ends the tick's attempts: one DMV query per refresh, as in the
///    paper. Only a late delivery (request_id mismatch) keeps chasing, and
///    only timeouts and decode errors back off;
///  - on ticks with nothing fresh the last snapshot is held (or
///    interpolated, per StalenessPolicy) and flagged stale;
///  - the *served* view is additionally clamped so counters never move
///    backwards across consecutive Poll() calls: an interpolated view that
///    overshot reality is held flat until reality catches up, instead of
///    visibly regressing when the next real snapshot lands below it (§5
///    monotonicity). Completion is the exception — the final snapshot is
///    served as-is (it is the ground truth, and progress 1.0 dominates
///    every earlier value);
///  - snapshot deltas (wire.h) are reassembled against the last accepted
///    snapshot; any gap — unknown base, lost keyframe — makes the next
///    request demand a full keyframe instead of corrupting state;
///  - a consecutive-failure budget flips the session to kDegraded instead
///    of wedging it; one decodable response flips it back.
///
/// Concurrency audit (DESIGN.md §9-§10, checked by the `locks` rules in
/// §14): thread-compatible, deliberately mutex-free. One client belongs to
/// one monitor session; MonitorService computes a session on at most one
/// pool worker per tick and the ParallelFor barrier orders ticks, so no
/// lock is needed (the same ownership argument as the per-session
/// ProgressInvariantChecker). The immutable configuration below is const so
/// the compiler enforces the read-only half of that contract.
class PollingClient {
 public:
  PollingClient(std::unique_ptr<SnapshotEndpoint> endpoint,
                PollingClientOptions options = {});

  /// One monitor tick at virtual time `now_ms`. Calls must use
  /// non-decreasing times. The returned view (and its snapshot pointer) is
  /// valid until the next Poll().
  LQS_ALLOC_OK(
      "transport path: each attempt receives its frame by value from the "
      "endpoint (one allocation, the empty up-to-date answer included); "
      "decode, delta reassembly and acceptance reuse client-owned buffers "
      "once sized. tests/estimator_alloc_test.cc bounds a warm delta "
      "loopback client at attempts + 8 allocations and a monitor tick over "
      "remote delta sessions at 2 + attempts")
  const ClientView& Poll(double now_ms);

  /// Last view without polling again.
  const ClientView& view() const { return view_; }

  const ClientStats& stats() const { return stats_; }
  TransportHealth health() const { return view_.health; }
  bool complete() const { return complete_; }
  /// Final counters once the server declared the query complete; null
  /// before then.
  const ProfileSnapshot* final_snapshot() const {
    return complete_ ? &last_accepted_ : nullptr;
  }
  double KnownHorizonMs() const { return endpoint_->KnownHorizonMs(); }
  const SnapshotEndpoint& endpoint() const { return *endpoint_; }

 private:
  /// Applies the duplicate/regression filter to `*candidate`; on
  /// acceptance rotates the buffers by swapping (prev_ <- last_ <-
  /// candidate, and the old prev_ storage lands in `*candidate` for reuse)
  /// and returns true.
  bool MaybeAccept(ProfileSnapshot* candidate, bool query_complete);
  void BuildView(double now_ms, bool accepted_fresh, bool link_alive);
  void Interpolate(double now_ms);
  /// Clamps `source` against the previously served view (element-wise
  /// floor on monotone counters, sticky lifecycle flags) into served_ and
  /// points the view at it.
  void ServeClamped(const ProfileSnapshot& source);

  std::unique_ptr<SnapshotEndpoint> endpoint_;
  const PollingClientOptions options_;
  Rng jitter_rng_;
  ClientStats stats_;
  ClientView view_;

  uint64_t next_request_id_ = 1;
  bool have_snapshot_ = false;
  bool have_prev_ = false;
  ProfileSnapshot last_accepted_;
  ProfileSnapshot prev_accepted_;
  /// Every attempt's frame decodes into this one response, so its snapshot
  /// and delta buffers keep their capacity across polls.
  PollResponse decoded_;
  /// Delta reassembly target; rotated into last_accepted_ on acceptance.
  ProfileSnapshot reassembled_;
  /// Storage the view's snapshot pointer targets under kInterpolate.
  ProfileSnapshot interpolated_;
  /// Storage the view's snapshot pointer targets mid-run: the served view,
  /// clamped so no counter ever moves backwards across Poll() calls.
  ProfileSnapshot served_;
  bool have_served_ = false;
  /// Set when a delta could not be applied; the next request demands a
  /// full keyframe and this stays set until one (or any full snapshot)
  /// is accepted.
  bool need_keyframe_ = false;
  bool complete_ = false;
  int consecutive_failures_ = 0;
};

}  // namespace lqs

#endif  // LQS_REMOTE_POLLING_CLIENT_H_
