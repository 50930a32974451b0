#include "remote/endpoint.h"

#include <algorithm>
#include <cstring>

namespace lqs {

namespace {

/// Bit-exact double identity (lint rule 3: no float == in estimator code —
/// and identity, not numeric equality, is what the delta protocol needs:
/// the ack names one specific snapshot, NaN-safe).
bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

}  // namespace

PollResult LoopbackEndpoint::Poll(const PollRequest& request) {
  PollResponse& response = response_;
  response.request_id = request.request_id;
  response.has_snapshot = false;
  response.query_complete = false;
  response.has_delta = false;
  const ProfileSnapshot* target = nullptr;
  bool complete = false;
  if (request.now_ms >= trace_->total_elapsed_ms) {
    // The query is done: every poll from here on returns the final
    // counters, flagged complete so the client can stop retrying.
    // Completion is always a full snapshot — the one message that must
    // never depend on state the client might have lost.
    target = &trace_->final_snapshot;
    complete = true;
  } else {
    target = trace_->SnapshotAtOrBefore(request.now_ms);
  }
  // The ack names a snapshot by bit-exact time; it is a valid base only if
  // this trace actually holds it (an ack from another query's timeline, or
  // one damaged in flight, falls back to a keyframe). Completion and a
  // keyframe demand never use it.
  const ProfileSnapshot* base = nullptr;
  if (target != nullptr && !complete && request.has_ack &&
      !request.want_keyframe) {
    base = trace_->SnapshotAtOrBefore(request.ack_time_ms);
    if (base != nullptr && !SameBits(base->time_ms, request.ack_time_ms)) {
      base = nullptr;
    }
  }
  // Nothing newer than the ack: the empty response says so and tells the
  // client to stop asking this tick. It is neither a delta nor a keyframe,
  // so the keyframe schedule does not move.
  const bool up_to_date = base != nullptr && target->time_ms <= base->time_ms;
  if (target != nullptr && !up_to_date) {
    const bool keyframe_due =
        options_.keyframe_interval > 0 &&
        deltas_since_keyframe_ + 1 >= options_.keyframe_interval;
    if (options_.serve_deltas && base != nullptr && !keyframe_due &&
        MakeSnapshotDeltaInto(*base, *target, &response.delta).ok()) {
      response.has_delta = true;
      ++deltas_since_keyframe_;
    } else {
      response.has_snapshot = true;
      response.query_complete = complete;
      response.snapshot = *target;
      deltas_since_keyframe_ = 0;
    }
  }
  PollResult result;
  result.frame.reserve(frame_size_hint_);
  EncodePollResponse(response, &result.frame);
  frame_size_hint_ =
      std::max(frame_size_hint_, result.frame.size() + result.frame.size() / 8);
  result.arrival_ms = request.now_ms;  // loopback delivers instantly
  return result;
}

}  // namespace lqs
