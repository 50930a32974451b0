// Behavior of the remote snapshot transport (src/remote/, DESIGN.md §10):
//  - LoopbackEndpoint answers polls from a trace and flags completion;
//  - PollingClient retries with exponential backoff on transport failures,
//    counts decode errors separately, filters duplicates and reordered
//    regressions so accepted snapshot timestamps are strictly increasing,
//    degrades (recoverably) after a consecutive-failure budget, and serves
//    held or interpolated data on stale ticks;
//  - the served view is clamped so counters never visibly regress, and
//    interpolation advances activity timestamps with the snapshot clock;
//  - snapshot deltas reassemble byte-exactly against the acked base, with
//    keyframe resync on any gap, and save most of the wire bytes;
//  - FaultInjectingEndpoint's drops/delays/duplicates/corruption never
//    wedge a session or break monotonicity;
//  - the ISSUE acceptance run: 64 monitored sessions over a lossy link
//    (drop=10%, delay up to 3 polling intervals, dup=5%, seeded) all
//    complete, each session's rendered snapshot timestamps are monotone,
//    and every final progress lands within 5 points of the fault-free run;
//  - an answer to the request just sent that brings nothing fresh (the
//    server's "nothing newer than your ack", a duplicate, a regression)
//    ends the tick's attempts; only late deliveries keep chasing, so the
//    lossy fleet retries for the link's faults and not for an idle server.

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "remote/endpoint.h"
#include "remote/fault_injection.h"
#include "remote/polling_client.h"
#include "remote/wire.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

// Endpoint that replays a scripted list of responses (then times out),
// recording every request it sees. Lets the tests pin down exact retry,
// filter and degradation behavior without probabilistic machinery.
class ScriptedEndpoint : public SnapshotEndpoint {
 public:
  using Step = std::function<PollResult(const PollRequest&)>;

  PollResult Poll(const PollRequest& request) override {
    requests.push_back(request);
    if (script.empty()) {
      PollResult timeout;
      timeout.status = Status::DeadlineExceeded("script exhausted");
      timeout.arrival_ms = request.deadline_ms;
      return timeout;
    }
    Step step = std::move(script.front());
    script.pop_front();
    return step(request);
  }

  std::deque<Step> script;
  std::vector<PollRequest> requests;
};

// One-operator snapshot at `time_ms` with `rows` output rows.
ProfileSnapshot TinySnapshot(double time_ms, uint64_t rows) {
  ProfileSnapshot snap;
  snap.time_ms = time_ms;
  snap.operators.resize(1);
  snap.operators[0].node_id = 0;
  snap.operators[0].row_count = rows;
  snap.operators[0].cpu_time_ms = time_ms;
  return snap;
}

// Like TinySnapshot, but the operator is visibly executing: opened, with
// activity-clock fields set the way the executor stamps them.
ProfileSnapshot ActiveSnapshot(double time_ms, uint64_t rows) {
  ProfileSnapshot snap = TinySnapshot(time_ms, rows);
  snap.operators[0].opened = true;
  snap.operators[0].open_time_ms = 1.0;
  snap.operators[0].last_active_ms = time_ms;
  return snap;
}

ScriptedEndpoint::Step Respond(ProfileSnapshot snap, bool complete = false) {
  return [snap, complete](const PollRequest& request) {
    PollResponse response;
    response.request_id = request.request_id;
    response.has_snapshot = true;
    response.query_complete = complete;
    response.snapshot = snap;
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  };
}

// Answers the request `age` requests before the one just sent (0: that
// request itself; more: a delivery surfacing late from behind the link's
// queue) with `snap`, or with the empty "no news" response when `snap` is
// null.
ScriptedEndpoint::Step Reply(const ProfileSnapshot* snap, uint64_t age) {
  PollResponse response;
  response.has_snapshot = snap != nullptr;
  if (snap != nullptr) response.snapshot = *snap;
  return [response, age](const PollRequest& request) mutable {
    response.request_id = request.request_id - age;
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  };
}

ScriptedEndpoint::Step TimeOut() {
  return [](const PollRequest& request) {
    PollResult result;
    result.status = Status::DeadlineExceeded("scripted timeout");
    result.arrival_ms = request.deadline_ms;
    return result;
  };
}

ScriptedEndpoint::Step Garbage() {
  return [](const PollRequest& request) {
    PollResult result;
    result.status = Status::OK();  // link looks fine; bytes are trash
    result.frame = "not a frame";
    result.arrival_ms = request.now_ms;
    return result;
  };
}

TEST(LoopbackEndpointTest, ServesTraceSnapshotsAndCompletion) {
  ProfileTrace trace;
  trace.snapshots = {TinySnapshot(10, 100), TinySnapshot(20, 200)};
  trace.final_snapshot = TinySnapshot(30, 300);
  trace.total_elapsed_ms = 30;
  LoopbackEndpoint endpoint(&trace);
  EXPECT_DOUBLE_EQ(endpoint.KnownHorizonMs(), 30.0);

  auto poll = [&endpoint](double now) {
    PollRequest request;
    request.now_ms = now;
    request.deadline_ms = now + 50;
    PollResult result = endpoint.Poll(request);
    EXPECT_TRUE(result.status.ok());
    auto response = DecodePollResponse(result.frame);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.value();
  };

  PollResponse early = poll(5);  // before the first DMV sample
  EXPECT_FALSE(early.has_snapshot);

  PollResponse mid = poll(12);
  ASSERT_TRUE(mid.has_snapshot);
  EXPECT_FALSE(mid.query_complete);
  EXPECT_DOUBLE_EQ(mid.snapshot.time_ms, 10.0);

  PollResponse done = poll(31);
  ASSERT_TRUE(done.has_snapshot);
  EXPECT_TRUE(done.query_complete);
  EXPECT_EQ(done.snapshot.operators[0].row_count, 300u);
}

// Four DMV samples, 10 ms apart, then completion at 50 ms.
ProfileTrace FourSampleTrace() {
  ProfileTrace trace;
  for (int i = 1; i <= 4; ++i) {
    trace.snapshots.push_back(
        TinySnapshot(i * 10.0, static_cast<uint64_t>(i) * 100));
  }
  trace.final_snapshot = TinySnapshot(50, 500);
  trace.total_elapsed_ms = 50;
  return trace;
}

// Sends one request to `endpoint` and decodes the answer.
PollResponse Ask(LoopbackEndpoint* endpoint, double now_ms, bool has_ack,
                 double ack_time_ms, bool want_keyframe = false) {
  PollRequest request;
  request.request_id = 7;
  request.now_ms = now_ms;
  request.deadline_ms = now_ms + 50;
  request.has_ack = has_ack;
  request.ack_time_ms = ack_time_ms;
  request.want_keyframe = want_keyframe;
  PollResult result = endpoint->Poll(request);
  EXPECT_TRUE(result.status.ok());
  auto response = DecodePollResponse(result.frame);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().request_id, 7u);
  return response.value();
}

bool IsEmpty(const PollResponse& response) {
  return !response.has_snapshot && !response.has_delta &&
         !response.query_complete;
}

TEST(LoopbackEndpointTest, UpToDateAckGetsNothingNewerInBothModes) {
  const ProfileTrace trace = FourSampleTrace();
  for (bool deltas : {false, true}) {
    SCOPED_TRACE(deltas ? "delta mode" : "full mode");
    LoopbackOptions options;
    options.serve_deltas = deltas;
    LoopbackEndpoint endpoint(&trace, options);
    // The client holds the 20 ms sample and the server has nothing newer.
    EXPECT_TRUE(IsEmpty(Ask(&endpoint, 24, true, 20)));
    // An ack ahead of the server's clock (a retry asked a later question
    // last tick) is not newer than what the server holds either.
    EXPECT_TRUE(IsEmpty(Ask(&endpoint, 24, true, 30)));
    // Once a newer sample exists the server sends it.
    PollResponse newer = Ask(&endpoint, 32, true, 20);
    EXPECT_EQ(newer.has_delta, deltas);
    EXPECT_EQ(newer.has_snapshot, !deltas);
  }
}

TEST(LoopbackEndpointTest, NothingNewerLeavesTheKeyframeScheduleAlone) {
  const ProfileTrace trace = FourSampleTrace();
  LoopbackOptions options;
  options.serve_deltas = true;
  options.keyframe_interval = 3;  // every third frame is a keyframe
  LoopbackEndpoint endpoint(&trace, options);
  EXPECT_TRUE(Ask(&endpoint, 12, false, 0).has_snapshot);  // first keyframe
  EXPECT_TRUE(Ask(&endpoint, 22, true, 10).has_delta);     // delta 1
  EXPECT_TRUE(IsEmpty(Ask(&endpoint, 24, true, 20)));      // not counted
  // Had the empty answer counted as a delta, this would be the keyframe.
  EXPECT_TRUE(Ask(&endpoint, 32, true, 20).has_delta);  // delta 2
  // Had it reset the schedule, this would still be a delta.
  EXPECT_TRUE(Ask(&endpoint, 42, true, 30).has_snapshot);  // keyframe
}

// The full-snapshot escapes win over "nothing newer", in both modes: an
// ack that names no sample of this trace (damaged in flight, or another
// query's timeline) is neither a delta base nor proof the client is up to
// date, a keyframe demand is always honored, and completion is always the
// full final snapshot.
TEST(LoopbackEndpointTest, FullSnapshotEscapesBeatNothingNewer) {
  const ProfileTrace trace = FourSampleTrace();
  for (bool deltas : {false, true}) {
    SCOPED_TRACE(deltas ? "delta mode" : "full mode");
    LoopbackOptions options;
    options.serve_deltas = deltas;
    LoopbackEndpoint endpoint(&trace, options);
    auto expect_full = [](const PollResponse& response, double time_ms) {
      ASSERT_TRUE(response.has_snapshot);
      EXPECT_FALSE(response.has_delta);
      EXPECT_DOUBLE_EQ(response.snapshot.time_ms, time_ms);
    };
    for (double ack : {15.0, 25.0, std::nextafter(20.0, 21.0)}) {
      SCOPED_TRACE(ack);
      expect_full(Ask(&endpoint, 24, true, ack), 20);
    }
    expect_full(Ask(&endpoint, 24, true, 20, /*want_keyframe=*/true), 20);
    for (double ack : {40.0, 60.0}) {
      PollResponse done = Ask(&endpoint, 55, true, ack);
      expect_full(done, 50);
      EXPECT_TRUE(done.query_complete);
    }
  }
}

TEST(PollingClientTest, AcceptsFreshHoldsStaleAndCompletes) {
  ProfileTrace trace;
  trace.snapshots = {TinySnapshot(10, 100), TinySnapshot(20, 200)};
  trace.final_snapshot = TinySnapshot(30, 300);
  trace.total_elapsed_ms = 30;
  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::make_unique<LoopbackEndpoint>(&trace), options);

  const ClientView& v0 = client.Poll(5);  // server has nothing yet
  EXPECT_EQ(v0.snapshot, nullptr);
  EXPECT_FALSE(v0.stale);
  EXPECT_EQ(client.stats().failed_polls, 0u) << "no data != link failure";

  const ClientView& v1 = client.Poll(12);
  ASSERT_NE(v1.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(v1.snapshot->time_ms, 10.0);
  EXPECT_FALSE(v1.stale);
  EXPECT_DOUBLE_EQ(v1.staleness_ms, 2.0);

  const uint64_t attempts_before = client.stats().attempts;
  const ClientView& v2 = client.Poll(14);  // nothing new on the server
  ASSERT_NE(v2.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(v2.snapshot->time_ms, 10.0);  // held
  EXPECT_TRUE(v2.stale);
  EXPECT_DOUBLE_EQ(v2.staleness_ms, 4.0);
  // The server answered "nothing newer than your ack" instead of resending
  // the 10 ms sample, so there was no duplicate to ignore.
  EXPECT_EQ(client.stats().attempts - attempts_before, 1u);
  EXPECT_EQ(client.stats().duplicates_ignored, 0u);

  const ClientView& v3 = client.Poll(35);
  ASSERT_NE(v3.snapshot, nullptr);
  EXPECT_TRUE(v3.query_complete);
  EXPECT_TRUE(client.complete());
  ASSERT_NE(client.final_snapshot(), nullptr);
  EXPECT_EQ(client.final_snapshot()->operators[0].row_count, 300u);

  // Post-completion polls are served from memory, not the link.
  uint64_t polls_before = client.stats().polls;
  const ClientView& v4 = client.Poll(40);
  EXPECT_TRUE(v4.query_complete);
  EXPECT_FALSE(v4.stale) << "final counters are current truth, not stale";
  EXPECT_EQ(client.stats().polls, polls_before);
}

TEST(PollingClientTest, RetriesWithMonotoneBackoffThenAccepts) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  endpoint->script.push_back(TimeOut());
  endpoint->script.push_back(TimeOut());
  endpoint->script.push_back(Respond(TinySnapshot(7, 70)));

  PollingClientOptions options;
  options.max_attempts = 4;
  options.backoff_initial_ms = 10;
  options.backoff_multiplier = 2.0;
  options.jitter_fraction = 0.2;
  PollingClient client(std::move(scripted), options);

  const ClientView& view = client.Poll(100);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 7.0);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().transport_failures, 2u);
  EXPECT_EQ(client.stats().accepted, 1u);
  EXPECT_EQ(view.consecutive_failures, 0);

  // The retries advanced virtual time by jittered exponential backoff:
  // attempt k+1 is at least (1 - jitter) * backoff_k after attempt k.
  ASSERT_EQ(endpoint->requests.size(), 3u);
  EXPECT_DOUBLE_EQ(endpoint->requests[0].now_ms, 100.0);
  double gap1 = endpoint->requests[1].now_ms - endpoint->requests[0].now_ms;
  double gap2 = endpoint->requests[2].now_ms - endpoint->requests[1].now_ms;
  EXPECT_GE(gap1, 10.0 * 0.8);
  EXPECT_LE(gap1, 10.0 * 1.2);
  EXPECT_GE(gap2, 20.0 * 0.8);
  EXPECT_LE(gap2, 20.0 * 1.2);
  // Every request respects its per-attempt deadline window.
  for (const PollRequest& r : endpoint->requests) {
    EXPECT_DOUBLE_EQ(r.deadline_ms - r.now_ms, options.timeout_ms);
  }
}

TEST(PollingClientTest, ArrivalPastDeadlineCountsAsTimeout) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back([](const PollRequest& request) {
    PollResult result;  // bytes arrive, but after the client stopped waiting
    EncodePollResponse(PollResponse{}, &result.frame);
    result.arrival_ms = request.deadline_ms + 1;
    return result;
  });
  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);
  client.Poll(0);
  EXPECT_EQ(client.stats().transport_failures, 1u);
  EXPECT_EQ(client.stats().failed_polls, 1u);
}

TEST(PollingClientTest, RejectsRegressionsAndIgnoresDuplicates) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));  // reordered
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));  // duplicate
  // Newer timestamp but counters ran backwards: not a later observation.
  scripted->script.push_back(Respond(TinySnapshot(25, 150)));
  scripted->script.push_back(Respond(TinySnapshot(30, 300)));

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);

  EXPECT_DOUBLE_EQ(client.Poll(21).snapshot->time_ms, 20.0);
  const ClientView& stale1 = client.Poll(22);
  EXPECT_DOUBLE_EQ(stale1.snapshot->time_ms, 20.0);  // regression filtered
  EXPECT_TRUE(stale1.stale);
  const ClientView& stale2 = client.Poll(23);
  EXPECT_DOUBLE_EQ(stale2.snapshot->time_ms, 20.0);  // duplicate filtered
  const ClientView& stale3 = client.Poll(26);
  EXPECT_DOUBLE_EQ(stale3.snapshot->time_ms, 20.0);  // counter regression
  const ClientView& fresh = client.Poll(31);
  EXPECT_DOUBLE_EQ(fresh.snapshot->time_ms, 30.0);
  EXPECT_FALSE(fresh.stale);

  EXPECT_EQ(client.stats().accepted, 2u);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
  EXPECT_EQ(client.stats().regressions_rejected, 2u);
}

TEST(PollingClientTest, RetryChasesFreshDataBehindStaleDelivery) {
  // First attempt of the poll yields a reordered stale response to an
  // earlier request; the retry budget is spent chasing, and the second
  // attempt lands the fresh one.
  auto scripted = std::make_unique<ScriptedEndpoint>();
  const ProfileSnapshot stale = TinySnapshot(10, 100);
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  scripted->script.push_back(Reply(&stale, 1));             // stale first
  scripted->script.push_back(Respond(TinySnapshot(30, 300)));  // then fresh

  PollingClientOptions options;
  options.max_attempts = 2;
  PollingClient client(std::move(scripted), options);
  client.Poll(21);
  const ClientView& view = client.Poll(31);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 30.0);
  EXPECT_FALSE(view.stale);
  EXPECT_EQ(client.stats().regressions_rejected, 1u);
}

TEST(PollingClientTest, LateEmptyOrStaleDeliveryStillChases) {
  // Late deliveries say nothing about the server's current state: an empty
  // answer and a duplicate of the held sample, both to earlier requests,
  // leave the remaining attempts chasing, and the third lands fresh data.
  auto scripted = std::make_unique<ScriptedEndpoint>();
  const ProfileSnapshot held = TinySnapshot(20, 200);
  scripted->script.push_back(Respond(held));
  scripted->script.push_back(Reply(nullptr, 1));
  scripted->script.push_back(Reply(&held, 2));
  scripted->script.push_back(Respond(TinySnapshot(30, 300)));

  PollingClientOptions options;
  options.max_attempts = 3;
  PollingClient client(std::move(scripted), options);
  client.Poll(21);
  const ClientView& view = client.Poll(31);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 30.0);
  EXPECT_FALSE(view.stale);
  EXPECT_EQ(client.stats().attempts, 4u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().request_id_mismatches, 2u);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
}

TEST(PollingClientTest, CurrentNoNewsAnswerEndsTheTick) {
  // Answers to the request just sent that bring nothing fresh — a
  // duplicate, a regression, an empty response — are the server's current
  // state: asking again this tick would only repeat them.
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  endpoint->script.push_back(Respond(TinySnapshot(20, 200)));
  endpoint->script.push_back(Respond(TinySnapshot(20, 200)));  // duplicate
  endpoint->script.push_back(Respond(TinySnapshot(10, 100)));  // regression
  endpoint->script.push_back(Reply(nullptr, 0));          // empty

  PollingClientOptions options;
  options.max_attempts = 4;
  PollingClient client(std::move(scripted), options);
  client.Poll(21);
  for (double now : {22.0, 23.0, 24.0}) {
    const ClientView& view = client.Poll(now);
    ASSERT_NE(view.snapshot, nullptr);
    EXPECT_TRUE(view.stale);
    EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 20.0);
  }
  EXPECT_EQ(client.stats().attempts, 4u) << "one attempt per tick";
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
  EXPECT_EQ(client.stats().regressions_rejected, 1u);
  EXPECT_EQ(client.stats().failed_polls, 0u);
  EXPECT_EQ(endpoint->requests.size(), 4u);
}

TEST(PollingClientTest, DeltaTickInsideOneDmvIntervalMakesOneAttempt) {
  // The paper's client issues one DMV query per refresh. A delta loopback
  // client polled twice inside one 10 ms sampling interval gets "nothing
  // newer than your ack" on the second tick and stops there, even with
  // retries to spare.
  const ProfileTrace trace = FourSampleTrace();
  LoopbackOptions loopback;
  loopback.serve_deltas = true;
  PollingClientOptions options;
  options.max_attempts = 4;
  PollingClient client(std::make_unique<LoopbackEndpoint>(&trace, loopback),
                       options);
  ASSERT_FALSE(client.Poll(21).stale);  // keyframe at 20 ms

  const ClientStats before = client.stats();
  const ClientView& view = client.Poll(25);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_TRUE(view.stale);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 20.0);
  EXPECT_EQ(client.stats().attempts - before.attempts, 1u);
  EXPECT_EQ(client.stats().retries - before.retries, 0u);
  EXPECT_EQ(client.stats().duplicates_ignored, 0u);
  EXPECT_EQ(client.stats().deltas_applied, before.deltas_applied);

  // The next interval's sample arrives as a delta on the first attempt.
  const ClientView& next = client.Poll(31);
  EXPECT_FALSE(next.stale);
  EXPECT_DOUBLE_EQ(next.snapshot->time_ms, 30.0);
  EXPECT_EQ(client.stats().deltas_applied, before.deltas_applied + 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(PollingClientTest, DecodeErrorsDegradeThenOneResponseRecovers) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  for (int i = 0; i < 3; ++i) endpoint->script.push_back(Garbage());

  PollingClientOptions options;
  options.max_attempts = 1;
  options.degrade_after_failures = 3;
  PollingClient client(std::move(scripted), options);

  EXPECT_EQ(client.Poll(1).health, TransportHealth::kHealthy);
  EXPECT_EQ(client.Poll(2).health, TransportHealth::kHealthy);
  const ClientView& degraded = client.Poll(3);
  EXPECT_EQ(degraded.health, TransportHealth::kDegraded);
  EXPECT_EQ(degraded.consecutive_failures, 3);
  EXPECT_EQ(client.stats().decode_errors, 3u);
  EXPECT_EQ(client.stats().transport_failures, 0u)
      << "damaged bytes are decode errors, not transport failures";

  // Degraded is recoverable: one decodable response resets the budget.
  endpoint->script.push_back(Respond(TinySnapshot(4, 40)));
  const ClientView& recovered = client.Poll(4);
  EXPECT_EQ(recovered.health, TransportHealth::kHealthy);
  EXPECT_EQ(recovered.consecutive_failures, 0);
  ASSERT_NE(recovered.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(recovered.snapshot->time_ms, 4.0);
}

TEST(PollingClientTest, HoldPolicyNeverFabricatesCounters) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  PollingClientOptions options;
  options.max_attempts = 1;  // script exhaustion -> timeouts afterwards
  PollingClient client(std::move(scripted), options);
  client.Poll(11);
  client.Poll(21);
  const ClientView& held = client.Poll(35);
  ASSERT_NE(held.snapshot, nullptr);
  EXPECT_TRUE(held.stale);
  EXPECT_DOUBLE_EQ(held.snapshot->time_ms, 20.0);
  EXPECT_EQ(held.snapshot->operators[0].row_count, 200u);
  EXPECT_DOUBLE_EQ(held.staleness_ms, 15.0);
}

TEST(PollingClientTest, InterpolatePolicyExtrapolatesCappedAtOneGap) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  PollingClientOptions options;
  options.max_attempts = 1;
  options.staleness_policy = StalenessPolicy::kInterpolate;
  PollingClient client(std::move(scripted), options);
  client.Poll(11);
  client.Poll(21);

  // Halfway into the observed 10 ms gap: counters advance at the observed
  // rate (100 rows / 10 ms).
  const ClientView& mid = client.Poll(25);
  ASSERT_NE(mid.snapshot, nullptr);
  EXPECT_TRUE(mid.stale);
  EXPECT_DOUBLE_EQ(mid.snapshot->time_ms, 25.0);
  EXPECT_EQ(mid.snapshot->operators[0].row_count, 250u);

  // Far past the gap: extrapolation is capped at one gap's worth, so a long
  // outage cannot run progress arbitrarily ahead of reality.
  const ClientView& capped = client.Poll(60);
  ASSERT_NE(capped.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(capped.snapshot->time_ms, 30.0);
  EXPECT_EQ(capped.snapshot->operators[0].row_count, 300u);
}

// Regression test for the served-view clamp (§5 monotonicity). Under
// kInterpolate the client extrapolates past the last accepted snapshot; a
// late real snapshot that lands *below* the extrapolation is still accepted
// (it is genuinely newer data), but the SERVED view must not visibly run
// counters backwards. Pre-fix, the view dropped from the 300-row
// extrapolation to the 210-row reality — a dashboard watching this session
// saw progress regress.
TEST(PollingClientTest, ServedViewNeverRegressesAfterInterpolationOvershoot) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  endpoint->script.push_back(Respond(TinySnapshot(10, 100)));
  endpoint->script.push_back(Respond(TinySnapshot(20, 200)));
  endpoint->script.push_back(TimeOut());
  endpoint->script.push_back(Respond(TinySnapshot(25, 210)));  // late reality

  PollingClientOptions options;
  options.max_attempts = 1;
  options.staleness_policy = StalenessPolicy::kInterpolate;
  PollingClient client(std::move(scripted), options);

  client.Poll(11);
  client.Poll(21);
  // Outage tick: extrapolated one full gap ahead (the cap), 300 rows at 30.
  const ClientView& outage = client.Poll(30);
  ASSERT_NE(outage.snapshot, nullptr);
  EXPECT_TRUE(outage.stale);
  EXPECT_DOUBLE_EQ(outage.snapshot->time_ms, 30.0);
  EXPECT_EQ(outage.snapshot->operators[0].row_count, 300u);

  // The 25 ms / 210-row snapshot passes the accept filter (newer than 20,
  // counters >= 200) — but the served view holds the 300-row floor instead
  // of regressing.
  const ClientView& caught = client.Poll(31);
  ASSERT_NE(caught.snapshot, nullptr);
  EXPECT_FALSE(caught.stale);
  EXPECT_EQ(client.stats().accepted, 3u);
  EXPECT_GE(caught.snapshot->time_ms, 30.0);
  EXPECT_EQ(caught.snapshot->operators[0].row_count, 300u)
      << "served counters ran backwards after the overshoot";
  EXPECT_DOUBLE_EQ(caught.staleness_ms, 6.0)
      << "staleness is measured against the accepted snapshot, not the floor";

  // Once reality passes the floor, the view moves again.
  endpoint->script.push_back(Respond(TinySnapshot(40, 400)));
  const ClientView& moving = client.Poll(41);
  ASSERT_NE(moving.snapshot, nullptr);
  EXPECT_EQ(moving.snapshot->operators[0].row_count, 400u);
  EXPECT_DOUBLE_EQ(moving.snapshot->time_ms, 40.0);
}

// The interpolated snapshot must look self-consistent to the estimator: an
// operator whose counters were advanced is active *now*, so its activity
// clock moves with the interpolation instead of freezing at the last real
// snapshot (which would make the operator look idle for the whole outage).
TEST(PollingClientTest, InterpolationAdvancesActivityTimestamps) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(ActiveSnapshot(10, 100)));
  scripted->script.push_back(Respond(ActiveSnapshot(20, 200)));

  PollingClientOptions options;
  options.max_attempts = 1;
  options.staleness_policy = StalenessPolicy::kInterpolate;
  PollingClient client(std::move(scripted), options);
  client.Poll(11);
  client.Poll(21);

  const ClientView& mid = client.Poll(25);  // script exhausted -> timeout
  ASSERT_NE(mid.snapshot, nullptr);
  EXPECT_TRUE(mid.stale);
  EXPECT_DOUBLE_EQ(mid.snapshot->time_ms, 25.0);
  EXPECT_EQ(mid.snapshot->operators[0].row_count, 250u);
  EXPECT_DOUBLE_EQ(mid.snapshot->operators[0].last_active_ms, 25.0)
      << "an advancing operator's activity clock must follow interpolation";

  // Capped extrapolation keeps the invariant too: activity never leads the
  // snapshot's own clock.
  const ClientView& capped = client.Poll(60);
  ASSERT_NE(capped.snapshot, nullptr);
  for (const OperatorProfile& op : capped.snapshot->operators) {
    EXPECT_LE(op.last_active_ms, capped.snapshot->time_ms);
  }
  EXPECT_DOUBLE_EQ(capped.snapshot->operators[0].last_active_ms, 30.0);
}

TEST(PollingClientTest, CountsRequestIdMismatchesButKeepsLateData) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  // First response answers some other request id — a late or misrouted
  // delivery. The payload is real data and still flows through the recency
  // filter; the mismatch is counted, not fatal.
  endpoint->script.push_back([](const PollRequest& request) {
    PollResponse response;
    response.request_id = request.request_id + 1000;
    response.has_snapshot = true;
    response.snapshot = TinySnapshot(10, 100);
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  });
  endpoint->script.push_back(Respond(TinySnapshot(20, 200)));

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);

  const ClientView& first = client.Poll(11);
  ASSERT_NE(first.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(first.snapshot->time_ms, 10.0);
  EXPECT_EQ(client.stats().request_id_mismatches, 1u);
  EXPECT_EQ(client.stats().accepted, 1u);
  EXPECT_EQ(client.stats().decode_errors, 0u)
      << "a mismatched id is not a decode failure";

  client.Poll(21);
  EXPECT_EQ(client.stats().request_id_mismatches, 1u);
  EXPECT_EQ(client.stats().accepted, 2u);
}

TEST(FaultInjectionTest, DelayedDeliveriesSurfaceAsRequestIdMismatches) {
  ProfileTrace trace;
  for (int i = 1; i <= 20; ++i) {
    trace.snapshots.push_back(
        TinySnapshot(i * 10.0, static_cast<uint64_t>(i) * 100));
  }
  trace.final_snapshot = TinySnapshot(210, 2100);
  trace.total_elapsed_ms = 210;

  FaultConfig faults;
  faults.delay_probability = 0.5;
  faults.max_delay_ms = 25.0;
  faults.seed = 11;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&trace), faults);
  const FaultStats& fault_stats = lossy->fault_stats();

  PollingClientOptions options;
  options.timeout_ms = 5.0;
  options.max_attempts = 2;
  PollingClient client(std::move(lossy), options);
  double t = 0;
  for (int tick = 0; tick < 512 && !client.complete(); ++tick, t += 5.0) {
    client.Poll(t);
  }
  EXPECT_TRUE(client.complete());
  ASSERT_GT(fault_stats.late_delivered, 0u);
  // A delayed frame answers a request that has long since been retired, so
  // its request_id cannot match the one in flight.
  EXPECT_GT(client.stats().request_id_mismatches, 0u);
}

// The delta transport is invisible to the consumer: a client fed deltas
// (with periodic keyframes) serves byte-identical views to a client fed
// full snapshots, while receiving a fraction of the bytes.
TEST(PollingClientTest, DeltaTransportMatchesFullTransportAndSavesBytes) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 4u);

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient full_client(std::make_unique<LoopbackEndpoint>(&result.trace),
                            options);
  LoopbackOptions delta_serving;
  delta_serving.serve_deltas = true;
  delta_serving.keyframe_interval = 8;
  PollingClient delta_client(
      std::make_unique<LoopbackEndpoint>(&result.trace, delta_serving),
      options);

  double t = 0;
  for (int tick = 0; tick < 4096; ++tick, t += 2.0) {
    const ClientView& full_view = full_client.Poll(t);
    const ClientView& delta_view = delta_client.Poll(t);
    ASSERT_EQ(full_view.snapshot == nullptr, delta_view.snapshot == nullptr)
        << "t=" << t;
    if (full_view.snapshot != nullptr) {
      std::string full_bytes, delta_bytes;
      EncodeSnapshot(*full_view.snapshot, &full_bytes);
      EncodeSnapshot(*delta_view.snapshot, &delta_bytes);
      ASSERT_EQ(full_bytes, delta_bytes)
          << "served views diverged at t=" << t;
      EXPECT_EQ(full_view.query_complete, delta_view.query_complete);
    }
    if (full_client.complete() && delta_client.complete()) break;
  }
  ASSERT_TRUE(full_client.complete());
  ASSERT_TRUE(delta_client.complete());

  const ClientStats& full_stats = full_client.stats();
  const ClientStats& delta_stats = delta_client.stats();
  EXPECT_EQ(delta_stats.accepted, full_stats.accepted);
  EXPECT_GT(delta_stats.deltas_applied, 0u);
  EXPECT_EQ(delta_stats.delta_resyncs, 0u) << "lossless link never resyncs";
  EXPECT_EQ(full_stats.deltas_applied, 0u);
  EXPECT_GT(full_stats.bytes_received, 0u);
  // The headline property (the bench quantifies the exact ratio at scale):
  // the same accepted snapshots cost a fraction of the wire bytes.
  EXPECT_LT(delta_stats.bytes_received * 2, full_stats.bytes_received)
      << "delta=" << delta_stats.bytes_received
      << " full=" << full_stats.bytes_received;
}

// Deltas over a lossy link: lost and delayed responses force base
// mismatches; every one must resolve through the want_keyframe resync path
// — never corrupt reassembled state, never wedge the session.
TEST(FaultInjectionTest, DeltaTransportResyncsUnderLossAndStaysExact) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(HashAgg(Scan("t_big"), {2}, {Count()}), *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 4u);

  FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.delay_probability = 0.3;
  faults.max_delay_ms = 10.0;
  faults.duplicate_probability = 0.1;
  faults.seed = 17;
  LoopbackOptions delta_serving;
  delta_serving.serve_deltas = true;
  delta_serving.keyframe_interval = 8;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&result.trace, delta_serving),
      faults);

  PollingClientOptions options;
  options.timeout_ms = 3.0;
  options.max_attempts = 2;
  options.backoff_initial_ms = 1.0;
  PollingClient client(std::move(lossy), options);

  double last_seen = -1;
  double t = 0;
  for (int tick = 0; tick < 4096 && !client.complete(); ++tick, t += 2.0) {
    const ClientView& view = client.Poll(t);
    if (view.snapshot != nullptr) {
      EXPECT_GE(view.snapshot->time_ms, last_seen) << "t=" << t;
      last_seen = view.snapshot->time_ms;
    }
  }
  EXPECT_TRUE(client.complete()) << "delta session wedged under faults";
  ASSERT_NE(client.final_snapshot(), nullptr);
  // Byte-exact reassembly survived the fault mix: the final state equals
  // the trace's final snapshot bit for bit.
  std::string reassembled, truth;
  EncodeSnapshot(*client.final_snapshot(), &reassembled);
  EncodeSnapshot(result.trace.final_snapshot, &truth);
  EXPECT_EQ(reassembled, truth);
  EXPECT_GT(client.stats().deltas_applied, 0u);
  EXPECT_GT(client.stats().delta_resyncs, 0u)
      << "fault mix never forced a keyframe resync — weaken the faults or "
         "reseed so the resync path is actually exercised";
}

// A lossy link over a genuinely executed trace: whatever the fault mix does,
// the view's snapshot timestamps never move backwards and the client reaches
// the final snapshot (possibly after the nominal horizon).
TEST(FaultInjectionTest, SingleSessionStaysMonotoneAndCompletes) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 3u);

  FaultConfig faults;
  faults.drop_probability = 0.3;
  faults.delay_probability = 0.3;
  faults.max_delay_ms = 15.0;
  faults.duplicate_probability = 0.2;
  faults.corrupt_probability = 0.2;
  faults.seed = 42;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&result.trace), faults);
  const FaultStats& fault_stats = lossy->fault_stats();

  PollingClientOptions options;
  options.timeout_ms = 5.0;
  options.max_attempts = 3;
  options.backoff_initial_ms = 2.0;
  options.backoff_max_ms = 10.0;
  PollingClient client(std::move(lossy), options);

  double last_seen = -1;
  double t = 0;
  for (int tick = 0; tick < 4096 && !client.complete(); ++tick, t += 5.0) {
    const ClientView& view = client.Poll(t);
    if (view.snapshot != nullptr) {
      EXPECT_GE(view.snapshot->time_ms, last_seen) << "tick t=" << t;
      last_seen = view.snapshot->time_ms;
    }
  }
  EXPECT_TRUE(client.complete()) << "session wedged under fault injection";
  ASSERT_NE(client.final_snapshot(), nullptr);
  EXPECT_EQ(client.final_snapshot()->operators[0].row_count,
            result.trace.final_snapshot.operators[0].row_count);
  // The fault mix actually exercised every channel.
  EXPECT_GT(fault_stats.dropped, 0u);
  EXPECT_GT(fault_stats.delayed + fault_stats.late_delivered, 0u);
  EXPECT_GT(fault_stats.duplicated, 0u);
  EXPECT_GT(fault_stats.corrupted, 0u);
  EXPECT_GT(client.stats().decode_errors, 0u);
  EXPECT_GT(client.stats().transport_failures, 0u);
}

// The ISSUE acceptance run. 64 sessions over lossy links (drop=10%, delay up
// to 3 polling intervals, dup=5%, per-session seeds) against the identical
// fault-free setup:
//  - RunToCompletion leaves no session wedged (all reach kDone);
//  - each session's rendered snapshot timestamps are monotone;
//  - every session's final progress is within 5 points of fault-free.
TEST(RemoteMonitorTest, SixtyFourLossySessionsCompleteCloseToFaultFree) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  constexpr double kIntervalMs = 5.0;

  std::vector<Plan> plans;
  plans.push_back(MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog));
  plans.push_back(MustFinalize(
      HashAgg(Scan("t_big"), {2}, {Count()}), *catalog));
  plans.push_back(MustFinalize(Sort(Scan("t_big"), {2}), *catalog));
  plans.push_back(MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 50)), *catalog));
  std::vector<ExecutionResult> traces;
  for (Plan& plan : plans) {
    ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
    ExecOptions exec;
    exec.snapshot_interval_ms = kIntervalMs;
    traces.push_back(MustExecute(plan, catalog.get(), exec));
    ASSERT_GT(traces.back().trace.snapshots.size(), 2u);
  }

  constexpr int kSessions = 64;
  PollingClientOptions client_options;
  client_options.timeout_ms = kIntervalMs;  // delays can outlive the wait
  client_options.max_attempts = 3;
  client_options.backoff_initial_ms = 1.0;
  client_options.backoff_max_ms = 4.0;

  // Runs the same 64-session layout over `make_endpoint`; returns final
  // progress per session after asserting completion and monotonicity.
  auto run = [&](const std::function<std::unique_ptr<SnapshotEndpoint>(
                     const ProfileTrace*, int)>& make_endpoint) {
    MonitorOptions monitor_options;
    monitor_options.num_threads = 4;
    monitor_options.ticks_per_horizon = 24;
    MonitorService monitor(monitor_options);
    for (int i = 0; i < kSessions; ++i) {
      const ExecutionResult& result = traces[i % traces.size()];
      PollingClientOptions per_session = client_options;
      per_session.jitter_seed = 1000 + static_cast<uint64_t>(i);
      std::string name = "q";
      name += std::to_string(i);
      monitor.RegisterRemoteSession(
          std::move(name), &plans[i % plans.size()], catalog.get(),
          make_endpoint(&result.trace, i),
          /*start_offset_ms=*/(i % 8) * 2 * kIntervalMs, per_session);
    }

    std::vector<double> last_snapshot_time(kSessions, -1);
    std::vector<double> final_progress(kSessions, 0);
    monitor.RunToCompletion(
        [&](double now_ms, const std::vector<SessionStatus>& statuses) {
          for (const SessionStatus& status : statuses) {
            EXPECT_TRUE(status.remote);
            final_progress[status.session_id] = status.progress;
            if (status.snapshot == nullptr) continue;
            EXPECT_GE(status.snapshot->time_ms,
                      last_snapshot_time[status.session_id])
                << "session " << status.session_id << " regressed at t="
                << now_ms;
            last_snapshot_time[status.session_id] = status.snapshot->time_ms;
          }
        });
    EXPECT_TRUE(monitor.AllSessionsDone()) << "a session wedged";
    MonitorStats stats = monitor.stats();
    EXPECT_EQ(stats.remote_sessions, static_cast<size_t>(kSessions));
    EXPECT_EQ(stats.done, static_cast<size_t>(kSessions));
    // No unfinished-session issues in the final verdict.
    ValidationReport report = monitor.FinalCheck();
    for (const ValidationIssue& issue : report.issues()) {
      EXPECT_NE(issue.check, "remote_session_incomplete")
          << issue.ToString();
    }
    return std::make_pair(final_progress, stats);
  };

  auto fault_free = run([](const ProfileTrace* trace, int) {
    return std::make_unique<LoopbackEndpoint>(trace);
  });

  FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.delay_probability = 0.25;
  faults.max_delay_ms = 3 * kIntervalMs;
  faults.duplicate_probability = 0.05;
  auto lossy = run([&faults](const ProfileTrace* trace, int session) {
    FaultConfig config = faults;
    config.seed = 100 + static_cast<uint64_t>(session);
    return std::make_unique<FaultInjectingEndpoint>(
        std::make_unique<LoopbackEndpoint>(trace), config);
  });

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_NEAR(lossy.first[i], fault_free.first[i], 0.05)
        << "session " << i << " finished too far from fault-free";
  }
  // The lossy run really was lossy, and the transport aggregates surfaced
  // it: retries happened, snapshots were accepted, nothing degraded by the
  // end of the run.
  EXPECT_GT(lossy.second.transport_failures, 0u);
  EXPECT_GT(lossy.second.transport_retries, 0u);
  EXPECT_GT(lossy.second.snapshots_accepted, 0u);
  EXPECT_GT(lossy.second.stale_reports, 0u);
  EXPECT_EQ(lossy.second.degraded_sessions, 0u);
  EXPECT_EQ(fault_free.second.transport_failures, 0u);
  EXPECT_EQ(fault_free.second.decode_errors, 0u);
}

// 64 delta sessions over the lossy_delta_1k benchmark's link (drop 10%,
// delay 10% up to 3 sampling intervals, dup 5%, corrupt 2%; the default
// 50 ms timeout outlasts every delay), ticked once per DMV sampling
// interval. Retries exist to recover from the link's faults, not to re-ask
// a server that has nothing newer than the client's ack: every retry
// follows a lost or damaged response, a resync or a late delivery, and
// there are far fewer retries than polls. (The acceptance run's link above
// fails about a quarter of all attempts, so its link-driven retries alone
// come to about 0.5 per poll.)
TEST(RemoteMonitorTest, SixtyFourLossyDeltaSessionsRetryOnlyForTheLink) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  constexpr double kIntervalMs = 5.0;
  std::vector<Plan> plans;
  plans.push_back(MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog));
  plans.push_back(MustFinalize(
      HashAgg(Scan("t_big"), {2}, {Count()}), *catalog));
  plans.push_back(MustFinalize(Sort(Scan("t_big"), {2}), *catalog));
  plans.push_back(MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 50)), *catalog));
  std::vector<ExecutionResult> traces;
  for (Plan& plan : plans) {
    ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
    ExecOptions exec;
    exec.snapshot_interval_ms = kIntervalMs;
    traces.push_back(MustExecute(plan, catalog.get(), exec));
  }

  MonitorOptions monitor_options;
  monitor_options.num_threads = 4;
  monitor_options.tick_ms = kIntervalMs;
  MonitorService monitor(monitor_options);
  LoopbackOptions loopback;
  loopback.serve_deltas = true;
  for (int i = 0; i < 64; ++i) {
    PollingClientOptions client;
    client.max_attempts = 4;
    client.staleness_policy = StalenessPolicy::kInterpolate;
    client.jitter_seed = 1000 + static_cast<uint64_t>(i);
    FaultConfig faults;
    faults.drop_probability = 0.10;
    faults.delay_probability = 0.10;
    faults.max_delay_ms = 3 * kIntervalMs;
    faults.duplicate_probability = 0.05;
    faults.corrupt_probability = 0.02;
    faults.seed = 100 + static_cast<uint64_t>(i);
    const size_t q = static_cast<size_t>(i) % plans.size();
    monitor.RegisterRemoteSession(
        "q" + std::to_string(i), &plans[q], catalog.get(),
        std::make_unique<FaultInjectingEndpoint>(
            std::make_unique<LoopbackEndpoint>(&traces[q].trace, loopback),
            faults),
        /*start_offset_ms=*/(i % 8) * 2 * kIntervalMs, client);
  }
  monitor.RunToCompletion(nullptr);
  ASSERT_TRUE(monitor.AllSessionsDone());
  const MonitorStats stats = monitor.stats();
  ASSERT_GT(stats.transport_polls, 0u);
  EXPECT_GT(stats.transport_retries, 0u) << "the faults never forced a retry";
  EXPECT_LE(stats.transport_retries,
            stats.transport_failures + stats.decode_errors +
                stats.delta_resyncs + stats.request_id_mismatches)
      << "a retry followed a current answer that brought no news";
  EXPECT_LT(static_cast<double>(stats.transport_retries),
            0.3 * static_cast<double>(stats.transport_polls))
      << stats.transport_retries << " retries over " << stats.transport_polls
      << " polls; failures " << stats.transport_failures << ", decode errors "
      << stats.decode_errors << ", duplicates " << stats.duplicates_ignored
      << ", regressions " << stats.regressions_rejected << ", late "
      << stats.request_id_mismatches;
}

// Local trace-backed sessions and remote loopback sessions of the same
// query agree on completion and final progress — the transport seam does
// not change what the monitor concludes.
TEST(RemoteMonitorTest, LoopbackSessionMatchesLocalSessionConclusions) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(HashAgg(Scan("t_big"), {2}, {Count()}), *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);

  MonitorService monitor;
  int local = monitor.RegisterSession("local", &plan, catalog.get(),
                                      &result.trace, /*start_offset_ms=*/0);
  int remote = monitor.RegisterRemoteSession(
      "remote", &plan, catalog.get(),
      std::make_unique<LoopbackEndpoint>(&result.trace),
      /*start_offset_ms=*/0);

  std::vector<SessionStatus> last;
  monitor.RunToCompletion(
      [&](double, const std::vector<SessionStatus>& statuses) {
        last = statuses;
      });
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[local].state, SessionState::kDone);
  EXPECT_EQ(last[remote].state, SessionState::kDone);
  EXPECT_FALSE(last[local].remote);
  EXPECT_TRUE(last[remote].remote);
  EXPECT_DOUBLE_EQ(last[local].progress, last[remote].progress);
  EXPECT_TRUE(monitor.FinalCheck().ok());
  const ClientStats& stats = monitor.session_client_stats(remote);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_EQ(stats.transport_failures, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
