#include "remote/polling_client.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "remote/wire.h"

namespace lqs {

ClientStats& ClientStats::operator+=(const ClientStats& other) {
  polls += other.polls;
  attempts += other.attempts;
  retries += other.retries;
  transport_failures += other.transport_failures;
  decode_errors += other.decode_errors;
  accepted += other.accepted;
  duplicates_ignored += other.duplicates_ignored;
  regressions_rejected += other.regressions_rejected;
  failed_polls += other.failed_polls;
  stale_polls += other.stale_polls;
  bytes_received += other.bytes_received;
  deltas_applied += other.deltas_applied;
  delta_resyncs += other.delta_resyncs;
  request_id_mismatches += other.request_id_mismatches;
  return *this;
}

PollingClient::PollingClient(std::unique_ptr<SnapshotEndpoint> endpoint,
                             PollingClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      jitter_rng_(options.jitter_seed) {}

bool PollingClient::MaybeAccept(ProfileSnapshot* candidate,
                                bool query_complete) {
  const ProfileSnapshot& snapshot = *candidate;
  if (have_snapshot_) {
    if (snapshot.time_ms <= last_accepted_.time_ms) {
      // Same instant: a redelivered duplicate, harmless. Older: a reordered
      // late delivery that must not roll the estimator's view back.
      const double tolerance = 1e-9;
      if (std::abs(snapshot.time_ms - last_accepted_.time_ms) <= tolerance) {
        ++stats_.duplicates_ignored;
      } else {
        ++stats_.regressions_rejected;
      }
      return false;
    }
    // Counters running backwards at a newer timestamp mean the payload is
    // not a later observation of the same execution (a restarted server, a
    // misrouted response). DMV counters are monotone; reject.
    if (snapshot.operators.size() != last_accepted_.operators.size()) {
      ++stats_.regressions_rejected;
      return false;
    }
    for (size_t i = 0; i < snapshot.operators.size(); ++i) {
      if (snapshot.operators[i].row_count <
              last_accepted_.operators[i].row_count ||
          snapshot.operators[i].rebind_count <
              last_accepted_.operators[i].rebind_count) {
        ++stats_.regressions_rejected;
        return false;
      }
    }
    std::swap(prev_accepted_, last_accepted_);
    have_prev_ = true;
  }
  std::swap(last_accepted_, *candidate);
  have_snapshot_ = true;
  if (query_complete) complete_ = true;
  ++stats_.accepted;
  return true;
}

void PollingClient::Interpolate(double now_ms) {
  // Extrapolate counters at the rate observed between the last two accepted
  // snapshots, capped at one inter-snapshot gap so a long outage does not
  // run progress arbitrarily far ahead of reality.
  const double gap = last_accepted_.time_ms - prev_accepted_.time_ms;
  if (gap <= 0) {
    interpolated_ = last_accepted_;
    return;
  }
  const double ahead =
      std::min(now_ms - last_accepted_.time_ms, gap);
  if (ahead <= 0) {
    interpolated_ = last_accepted_;
    return;
  }
  const double f = ahead / gap;
  interpolated_ = last_accepted_;
  interpolated_.time_ms = last_accepted_.time_ms + ahead;
  for (size_t i = 0; i < interpolated_.operators.size(); ++i) {
    OperatorProfile& out = interpolated_.operators[i];
    const OperatorProfile& last = last_accepted_.operators[i];
    const OperatorProfile& prev = prev_accepted_.operators[i];
    auto lerp_u64 = [f](uint64_t newer, uint64_t older) -> uint64_t {
      return newer +
             static_cast<uint64_t>(
                 f * static_cast<double>(newer - std::min(newer, older)));
    };
    out.row_count = lerp_u64(last.row_count, prev.row_count);
    out.logical_read_count =
        lerp_u64(last.logical_read_count, prev.logical_read_count);
    out.segment_read_count =
        lerp_u64(last.segment_read_count, prev.segment_read_count);
    if (out.segment_total_count > 0) {
      out.segment_read_count =
          std::min(out.segment_read_count, out.segment_total_count);
    }
    out.cpu_time_ms += f * std::max(0.0, last.cpu_time_ms - prev.cpu_time_ms);
    out.io_time_ms += f * std::max(0.0, last.io_time_ms - prev.io_time_ms);
    // A synthetic snapshot must stay internally consistent: counters we
    // just advanced represent activity happening *now*, so the operator's
    // activity timestamp moves to the snapshot time — an operator whose
    // rows grew while last_active_ms sat in the past would contradict
    // itself (and time_ms) to any consumer of activity recency.
    const bool advanced = out.row_count != last.row_count ||
                          out.logical_read_count != last.logical_read_count ||
                          out.segment_read_count != last.segment_read_count;
    if (advanced && out.opened && !out.closed) {
      out.last_active_ms = interpolated_.time_ms;
    }
  }
}

void PollingClient::ServeClamped(const ProfileSnapshot& source) {
  if (!have_served_ || served_.operators.size() != source.operators.size()) {
    served_ = source;
    have_served_ = true;
    view_.snapshot = &served_;
    return;
  }
  // Element-wise monotone floor: the served view only ever moves forward.
  // When interpolation overshot reality, the next real snapshot lands
  // *below* the floor and the view holds flat until execution catches up —
  // a pause, not the backwards jump that violates §5 monotonicity.
  served_.time_ms = std::max(served_.time_ms, source.time_ms);
  for (size_t i = 0; i < served_.operators.size(); ++i) {
    OperatorProfile& s = served_.operators[i];
    const OperatorProfile& n = source.operators[i];
    // Monotone-by-contract counters and clocks: floor them.
    s.row_count = std::max(s.row_count, n.row_count);
    s.rebind_count = std::max(s.rebind_count, n.rebind_count);
    s.logical_read_count = std::max(s.logical_read_count, n.logical_read_count);
    s.segment_read_count = std::max(s.segment_read_count, n.segment_read_count);
    s.segment_total_count =
        std::max(s.segment_total_count, n.segment_total_count);
    s.cpu_time_ms = std::max(s.cpu_time_ms, n.cpu_time_ms);
    s.io_time_ms = std::max(s.io_time_ms, n.io_time_ms);
    s.last_active_ms = std::max(s.last_active_ms, n.last_active_ms);
    // Legitimately non-monotone fields pass through: the optimizer refines
    // estimates in both directions (§4), and totals can be re-learned.
    s.estimate_row_count = n.estimate_row_count;
    s.total_pages = n.total_pages;
    // One-shot timestamps are sticky once set (-1 means unset): a view in
    // which an operator un-opens would be nonsense.
    if (s.open_time_ms < 0) s.open_time_ms = n.open_time_ms;
    if (s.first_row_ms < 0) s.first_row_ms = n.first_row_ms;
    if (s.close_time_ms < 0) s.close_time_ms = n.close_time_ms;
    s.opened = s.opened || n.opened;
    s.closed = s.closed || n.closed;
    s.finished = s.finished || n.finished;
    s.has_pushed_predicate = n.has_pushed_predicate;
  }
  view_.snapshot = &served_;
}

void PollingClient::BuildView(double now_ms, bool accepted_fresh,
                              bool link_alive) {
  if (link_alive) {
    consecutive_failures_ = 0;
  } else {
    ++consecutive_failures_;
    ++stats_.failed_polls;
  }
  view_.consecutive_failures = consecutive_failures_;
  view_.health = consecutive_failures_ >= options_.degrade_after_failures
                     ? TransportHealth::kDegraded
                     : TransportHealth::kHealthy;
  view_.query_complete = complete_;
  view_.stale = have_snapshot_ && !accepted_fresh;
  if (!have_snapshot_) {
    view_.snapshot = nullptr;
    view_.staleness_ms = 0;
    return;
  }
  view_.staleness_ms = std::max(0.0, now_ms - last_accepted_.time_ms);
  if (view_.stale) ++stats_.stale_polls;
  if (complete_) {
    // The final snapshot is ground truth and progress 1.0 dominates every
    // earlier value, so it is served unclamped (an interpolated floor that
    // overshot must not outlive the query); the floor resets onto it.
    served_ = last_accepted_;
    have_served_ = true;
    view_.snapshot = &served_;
    return;
  }
  if (view_.stale &&
      options_.staleness_policy == StalenessPolicy::kInterpolate &&
      have_prev_) {
    Interpolate(now_ms);
    ServeClamped(interpolated_);
  } else {
    ServeClamped(last_accepted_);
  }
}

const ClientView& PollingClient::Poll(double now_ms) {
  if (complete_) {
    // The final snapshot is in hand; nothing fresher can exist. Serve it
    // without touching the link. accepted_fresh=true: final counters are
    // the current truth, not stale data.
    BuildView(now_ms, /*accepted_fresh=*/true, /*link_alive=*/true);
    return view_;
  }
  ++stats_.polls;
  bool accepted_fresh = false;
  bool link_alive = false;
  double attempt_time = now_ms;
  double backoff = options_.backoff_initial_ms;
  // Exponential backoff with deterministic jitter before a retry; virtual
  // time advances so the next attempt asks a later question. Each call
  // draws the jitter RNG exactly once.
  auto back_off = [&] {
    const double capped = std::min(backoff, options_.backoff_max_ms);
    const double jitter =
        1.0 + options_.jitter_fraction * (2.0 * jitter_rng_.NextDouble() - 1.0);
    attempt_time += std::max(0.0, capped * jitter);
    backoff *= options_.backoff_multiplier;
  };
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) ++stats_.retries;
    ++stats_.attempts;
    PollRequest request;
    request.request_id = next_request_id_++;
    request.now_ms = attempt_time;
    request.deadline_ms = attempt_time + options_.timeout_ms;
    // Delta protocol: acknowledge the snapshot we hold so a delta-capable
    // server can diff against it; after an unappliable delta, demand a
    // keyframe instead.
    request.has_ack = have_snapshot_;
    request.ack_time_ms = last_accepted_.time_ms;
    request.want_keyframe = need_keyframe_;
    PollResult result = endpoint_->Poll(request);
    const bool timed_out =
        !result.status.ok() || result.arrival_ms > request.deadline_ms;
    if (timed_out) {
      ++stats_.transport_failures;
      back_off();
      continue;
    }
    stats_.bytes_received += result.frame.size();
    if (!DecodePollResponseInto(result.frame, &decoded_).ok()) {
      // Bytes arrived damaged (truncated / bit-flipped / CRC). The decoder
      // contained the blast; retry as if the response were lost, but track
      // it separately — persistent decode errors mean version skew or a
      // broken link, not congestion.
      ++stats_.decode_errors;
      back_off();
      continue;
    }
    link_alive = true;
    const bool answers_request = decoded_.request_id == request.request_id;
    if (!answers_request) {
      // A response to a request other than the one just sent: a late
      // delivery surfacing from behind the link's queue, or a misroute.
      // Late deliveries are legitimate data, so the payload still goes
      // through the recency filter below — but the event is counted, so a
      // link that systematically answers the wrong question is visible.
      ++stats_.request_id_mismatches;
    }
    if (decoded_.has_delta) {
      Status applied =
          have_snapshot_
              ? ApplySnapshotDelta(decoded_.delta, last_accepted_,
                                   &reassembled_)
              : Status::NotFound("remote: delta with no base snapshot");
      if (applied.code() == Status::Code::kNotFound) {
        // Base mismatch: our ack raced a keyframe, or we never had a base.
        // State is untouched — demand a keyframe on the next request
        // instead of guessing.
        need_keyframe_ = true;
        ++stats_.delta_resyncs;
        continue;
      }
      if (!applied.ok()) {
        // Structurally invalid delta (operator count, bad index): the
        // frame passed CRC but the message is nonsense. Same treatment as
        // a decode error.
        ++stats_.decode_errors;
        back_off();
        continue;
      }
      ++stats_.deltas_applied;
      accepted_fresh = MaybeAccept(&reassembled_, decoded_.query_complete);
    } else if (decoded_.has_snapshot) {
      // A full snapshot always resynchronizes the delta protocol, accepted
      // or not — the server honored (or pre-empted) the keyframe demand.
      need_keyframe_ = false;
      accepted_fresh =
          MaybeAccept(&decoded_.snapshot, decoded_.query_complete);
    }
    // A fresh snapshot ends the tick. So does no news — an empty answer
    // ("nothing newer than your ack", or no DMV sample yet), a duplicate or
    // a regression — when it answers the request just sent: that is the
    // server's current state, and asking again this tick would only repeat
    // it. A late delivery says nothing about that state; the remaining
    // attempts chase what may sit behind it in the queue.
    if (accepted_fresh || answers_request) break;
  }
  BuildView(now_ms, accepted_fresh, link_alive);
  return view_;
}

}  // namespace lqs
