#ifndef LQS_REMOTE_ENDPOINT_H_
#define LQS_REMOTE_ENDPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "dmv/query_profile.h"
#include "remote/wire.h"

namespace lqs {

/// One poll request on the virtual timeline: "give me the freshest DMV
/// snapshot you hold, as of my clock `now_ms`". The deadline is the latest
/// virtual arrival the client will wait for before declaring the attempt
/// timed out (PollingClient sets it to now + timeout).
struct PollRequest {
  uint64_t request_id = 0;
  double now_ms = 0;
  double deadline_ms = 0;
  /// Delta protocol (DESIGN.md §13). `has_ack` says the client holds the
  /// snapshot whose bit-exact time is `ack_time_ms`; a delta-capable server
  /// may answer with a SnapshotDelta against that base instead of a full
  /// snapshot, and any server may answer "nothing newer than your ack" (an
  /// empty PollResponse) when it holds nothing fresher. A lost delta simply
  /// leaves the ack where it was — the server keeps diffing against the
  /// base the client actually holds.
  bool has_ack = false;
  double ack_time_ms = 0;
  /// Set after the client hit a delta it could not apply (base mismatch):
  /// demand a full keyframe regardless of ack state.
  bool want_keyframe = false;
};

/// Transport-level outcome of one poll attempt. `status` describes the
/// *link*, not the payload: ok means bytes arrived (they may still fail to
/// decode — a fault-injecting link can hand back damaged frames with an ok
/// status, exactly like a real socket). `frame` is one wire frame carrying a
/// PollResponse message; `arrival_ms` is the virtual time the bytes landed,
/// which the client compares against its deadline.
struct PollResult {
  Status status;
  std::string frame;
  double arrival_ms = 0;
};

/// Where snapshots come from — the seam between the monitor and the
/// (possibly remote) executor. Implementations speak *bytes*: every response
/// crosses the wire format even in-process, so the serialization path is
/// exercised by every remote session, and decorators (FaultInjectingEndpoint)
/// can damage frames the way a lossy link would.
///
/// Concurrency audit (DESIGN.md §9-§10): thread-compatible, not thread-safe.
/// One endpoint belongs to one PollingClient, which belongs to one monitor
/// session; MonitorService guarantees a session is computed by at most one
/// pool worker per tick, with the ParallelFor barrier ordering ticks. Do not
/// share an endpoint across sessions without adding a lock.
class SnapshotEndpoint {
 public:
  virtual ~SnapshotEndpoint() = default;

  /// Answers one poll. Stateful implementations may return responses to
  /// *earlier* requests (late deliveries) — the client filters on snapshot
  /// recency, and uses the request id only to tell a late delivery (keep
  /// chasing) from the server's current answer (stop this tick).
  virtual PollResult Poll(const PollRequest& request) = 0;

  /// Virtual time at which the monitored query completes, when the
  /// implementation knows it (trace-backed endpoints do); negative when
  /// unknown. Monitors use it to size the shared timeline.
  virtual double KnownHorizonMs() const { return -1; }
};

/// Server-side delta policy for trace-backed endpoints.
struct LoopbackOptions {
  /// Serve SnapshotDelta frames against the client's acknowledged base when
  /// the request carries one; full snapshots otherwise.
  bool serve_deltas = false;
  /// Every `keyframe_interval`-th consecutive delta is replaced by a full
  /// snapshot keyframe, bounding how long a client that lost its base can
  /// go before resyncing without a round trip. <= 0 disables periodic
  /// keyframes (resync then relies on want_keyframe).
  int keyframe_interval = 16;
};

/// In-process endpoint backed by an executed query's ProfileTrace — the
/// zero-latency, zero-loss baseline. Still round-trips every response
/// through the wire format, so a loopback session exercises the same
/// encode/decode path as a genuinely remote one. With
/// LoopbackOptions::serve_deltas it also implements the server half of the
/// delta protocol: diff against the acked base, keyframe on schedule or on
/// demand, always full for completion. In both modes a valid ack (a trace
/// snapshot's bit-exact time) with no newer snapshot behind it gets the
/// empty PollResponse, "nothing newer than your ack", unless the query is
/// complete or the request wants a keyframe; that answer does not count
/// toward the keyframe schedule.
///
/// The endpoint owns the response it encodes and reuses it across polls, so
/// the delta ops and the keyframe snapshot keep their capacity, and it
/// reserves each frame from the largest frame it has sent: a steady-state
/// poll allocates only the returned frame.
class LoopbackEndpoint : public SnapshotEndpoint {
 public:
  /// `trace` must outlive the endpoint.
  explicit LoopbackEndpoint(const ProfileTrace* trace,
                            LoopbackOptions options = {})
      : trace_(trace), options_(options) {}

  PollResult Poll(const PollRequest& request) override;
  double KnownHorizonMs() const override { return trace_->total_elapsed_ms; }

 private:
  const ProfileTrace* trace_;
  LoopbackOptions options_;
  /// Consecutive delta responses since the last full snapshot went out.
  int deltas_since_keyframe_ = 0;
  /// The response being encoded; every Poll rewrites the fields it sends.
  PollResponse response_;
  /// Capacity to reserve for the next frame (largest frame so far plus
  /// headroom for counters growing by a varint byte or two).
  size_t frame_size_hint_ = 0;
};

}  // namespace lqs

#endif  // LQS_REMOTE_ENDPOINT_H_
