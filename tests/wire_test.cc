// Wire-format contract (src/remote/wire.h, DESIGN.md §10):
//  - decode→re-encode is byte-identical for every message type, including
//    every snapshot of randomized traces with adversarial field values (the
//    property the fault-tolerant client leans on: an accepted snapshot is
//    exactly what the server serialized, bit-for-bit doubles included);
//  - frames are self-delimiting: WireFrameSize/WireFrameType split a
//    concatenated stream without decoding payloads;
//  - every decoder is total: truncation at *every* prefix length, a flip of
//    *every* bit, wrong magic/version/type, trailing bytes and garbage all
//    return a clean non-OK Status — never a crash, never an out-of-bounds
//    read (the sanitizer CI jobs run this file under ASan/UBSan).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "optimizer/annotate.h"
#include "remote/wire.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

// Fills one operator row with adversarial values: large counters that need
// full varint width, negative sentinel times, doubles whose bit patterns
// must survive exactly, and occasional zeros to exercise the short paths.
OperatorProfile RandomProfile(Rng& rng, int node_id) {
  OperatorProfile p;
  p.node_id = node_id;
  p.parent_node_id = static_cast<int>(rng.NextInRange(-1, node_id));
  p.op_type = static_cast<OpType>(
      rng.NextBelow(static_cast<uint64_t>(OpType::kNumOpTypes)));
  // Counters spanning 1..10 varint bytes.
  p.row_count = rng.Next() >> (rng.NextBelow(64));
  p.rebind_count = rng.Next() >> (rng.NextBelow(64));
  p.logical_read_count = rng.Next() >> (rng.NextBelow(64));
  p.segment_read_count = rng.NextBelow(1000);
  p.segment_total_count = p.segment_read_count + rng.NextBelow(1000);
  p.total_pages = rng.Next() >> (rng.NextBelow(64));
  p.estimate_row_count = rng.NextDouble() * 1e12;
  p.open_time_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.cpu_time_ms = rng.NextDouble() * 1e5;
  p.io_time_ms = rng.NextDouble() * 1e5;
  p.last_active_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.first_row_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.close_time_ms = rng.NextBool(0.5) ? -1.0 : rng.NextDouble() * 1e6;
  p.opened = rng.NextBool(0.8);
  p.closed = rng.NextBool(0.3);
  p.finished = rng.NextBool(0.3);
  p.has_pushed_predicate = rng.NextBool(0.2);
  return p;
}

ProfileSnapshot RandomSnapshot(Rng& rng, double time_ms) {
  ProfileSnapshot snap;
  snap.time_ms = time_ms;
  size_t ops = 1 + rng.NextBelow(12);
  for (size_t i = 0; i < ops; ++i) {
    snap.operators.push_back(RandomProfile(rng, static_cast<int>(i)));
  }
  return snap;
}

ProfileTrace RandomTrace(Rng& rng) {
  ProfileTrace trace;
  size_t count = rng.NextBelow(8);  // zero-snapshot traces are legal
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += rng.NextDouble() * 100;
    trace.snapshots.push_back(RandomSnapshot(rng, t));
  }
  t += rng.NextDouble() * 100;
  trace.final_snapshot = RandomSnapshot(rng, t);
  trace.total_elapsed_ms = t;
  return trace;
}

TEST(WireTest, SnapshotRoundTripsByteIdentical) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    ProfileSnapshot snap = RandomSnapshot(rng, rng.NextDouble() * 1e6);
    std::string frame;
    EncodeSnapshot(snap, &frame);

    auto decoded = DecodeSnapshot(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Spot-check semantic equality...
    ASSERT_EQ(decoded.value().operators.size(), snap.operators.size());
    EXPECT_EQ(decoded.value().time_ms, snap.time_ms);
    for (size_t i = 0; i < snap.operators.size(); ++i) {
      EXPECT_EQ(decoded.value().operators[i].row_count,
                snap.operators[i].row_count);
      EXPECT_EQ(decoded.value().operators[i].open_time_ms,
                snap.operators[i].open_time_ms);
    }
    // ...then the full property: re-encoding reproduces the exact bytes.
    std::string reencoded;
    EncodeSnapshot(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded) << "seed=" << seed;
  }
}

// Sends `snapshot` both ways the monitored path can: as a Snapshot frame
// and as the snapshot arm of a PollResponse. Each must decode to the same
// snapshot and re-encode to the same bytes.
void ExpectSnapshotRoundTrips(const ProfileSnapshot& snapshot,
                              bool query_complete,
                              const std::string& context) {
  std::string frame;
  EncodeSnapshot(snapshot, &frame);
  auto decoded = DecodeSnapshot(frame);
  ASSERT_TRUE(decoded.ok()) << context << ": " << decoded.status().ToString();
  ASSERT_EQ(decoded.value().operators.size(), snapshot.operators.size())
      << context;
  EXPECT_EQ(decoded.value().time_ms, snapshot.time_ms) << context;
  std::string reencoded;
  EncodeSnapshot(decoded.value(), &reencoded);
  EXPECT_EQ(frame, reencoded) << context;

  PollResponse response;
  response.request_id = 1;
  response.has_snapshot = true;
  response.query_complete = query_complete;
  response.snapshot = snapshot;
  std::string poll_frame;
  EncodePollResponse(response, &poll_frame);
  auto polled = DecodePollResponse(poll_frame);
  ASSERT_TRUE(polled.ok()) << context << ": " << polled.status().ToString();
  EXPECT_EQ(polled.value().query_complete, query_complete) << context;
  std::string snapshot_bytes;
  EncodeSnapshot(polled.value().snapshot, &snapshot_bytes);
  EXPECT_EQ(frame, snapshot_bytes) << context;
  std::string poll_reencoded;
  EncodePollResponse(polled.value(), &poll_reencoded);
  EXPECT_EQ(poll_frame, poll_reencoded) << context;
}

TEST(WireTest, TraceRoundTripsByteIdenticalProperty) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    ProfileTrace trace = RandomTrace(rng);
    for (size_t i = 0; i < trace.snapshots.size(); ++i) {
      ExpectSnapshotRoundTrips(trace.snapshots[i], /*query_complete=*/false,
                               "seed=" + std::to_string(seed) +
                                   " snapshot#" + std::to_string(i));
    }
    ExpectSnapshotRoundTrips(trace.final_snapshot, /*query_complete=*/true,
                             "seed=" + std::to_string(seed) + " final");
  }
}

TEST(WireTest, ExecutedTraceRoundTripsByteIdentical) {
  // Not just synthetic data: a trace produced by the real executor survives
  // the wire unchanged too.
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 2u);

  for (size_t i = 0; i < result.trace.snapshots.size(); ++i) {
    ExpectSnapshotRoundTrips(result.trace.snapshots[i],
                             /*query_complete=*/false,
                             "snapshot#" + std::to_string(i));
  }
  ExpectSnapshotRoundTrips(result.trace.final_snapshot,
                           /*query_complete=*/true, "final");

  // The received final snapshot carries the true cardinalities.
  std::string frame;
  EncodeSnapshot(result.trace.final_snapshot, &frame);
  auto decoded = DecodeSnapshot(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().operators[0].row_count,
            result.trace.TrueCardinality(0));
}

TEST(WireTest, PollResponseRoundTripsWithAndWithoutSnapshot) {
  Rng rng(7);
  PollResponse with;
  with.request_id = 0xDEADBEEFCAFEull;
  with.has_snapshot = true;
  with.query_complete = true;
  with.snapshot = RandomSnapshot(rng, 123.5);

  PollResponse without;
  without.request_id = 2;

  for (const PollResponse& msg : {with, without}) {
    std::string frame;
    EncodePollResponse(msg, &frame);
    auto decoded = DecodePollResponse(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().request_id, msg.request_id);
    EXPECT_EQ(decoded.value().has_snapshot, msg.has_snapshot);
    EXPECT_EQ(decoded.value().query_complete, msg.query_complete);
    std::string reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded);
  }
}

TEST(WireTest, FrameStreamSplitsByDeclaredSize) {
  Rng rng(11);
  std::string stream;
  const ProfileSnapshot base = RandomSnapshot(rng, 1.0);
  EncodeSnapshot(base, &stream);
  size_t first_end = stream.size();
  ProfileSnapshot next = base;
  next.time_ms = 2.0;
  next.operators[0].row_count += 1;
  auto delta = MakeSnapshotDelta(base, next);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EncodeSnapshotDelta(delta.value(), &stream);
  size_t second_end = stream.size();
  PollResponse resp;
  resp.request_id = 9;
  EncodePollResponse(resp, &stream);

  std::string_view rest = stream;
  auto size1 = WireFrameSize(rest);
  ASSERT_TRUE(size1.ok());
  EXPECT_EQ(size1.value(), first_end);
  auto type1 = WireFrameType(rest.substr(0, size1.value()));
  ASSERT_TRUE(type1.ok());
  EXPECT_EQ(type1.value(), WireType::kSnapshot);

  rest.remove_prefix(size1.value());
  auto size2 = WireFrameSize(rest);
  ASSERT_TRUE(size2.ok());
  EXPECT_EQ(size2.value(), second_end - first_end);
  EXPECT_EQ(WireFrameType(rest.substr(0, size2.value())).value(),
            WireType::kSnapshotDelta);

  rest.remove_prefix(size2.value());
  auto size3 = WireFrameSize(rest);
  ASSERT_TRUE(size3.ok());
  EXPECT_EQ(size3.value(), rest.size());
  EXPECT_EQ(WireFrameType(rest).value(), WireType::kPollResponse);
}

TEST(WireTest, EveryTruncationFailsCleanly) {
  Rng rng(3);
  std::string frame;
  EncodeSnapshot(RandomSnapshot(rng, 42.0), &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view prefix(frame.data(), len);
    auto decoded = DecodeSnapshot(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len << " decoded";
    // A truncated buffer must also be reported as incomplete by the framer
    // (it cannot contain a whole frame).
    EXPECT_FALSE(WireFrameSize(prefix).ok()) << "prefix length " << len;
  }
  // The untruncated frame still decodes — the loop above did not depend on
  // a broken encoder.
  EXPECT_TRUE(DecodeSnapshot(frame).ok());
}

TEST(WireTest, EveryBitFlipFailsCleanly) {
  Rng rng(5);
  ProfileSnapshot snap = RandomSnapshot(rng, 17.25);
  std::string frame;
  EncodeSnapshot(snap, &frame);
  std::string reference = frame;
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      auto decoded = DecodeSnapshot(damaged);
      EXPECT_FALSE(decoded.ok())
          << "flip of byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
  EXPECT_EQ(frame, reference);
  EXPECT_TRUE(DecodeSnapshot(frame).ok());
}

TEST(WireTest, PayloadDamageReportsDataLoss) {
  // Damage past the header is a CRC failure and must carry kDataLoss — the
  // code retry policy keys on (discard payload, do not trust any field).
  Rng rng(9);
  std::string frame;
  EncodeSnapshot(RandomSnapshot(rng, 1.0), &frame);
  ASSERT_GT(frame.size(), kWireHeaderSize);
  std::string damaged = frame;
  damaged[kWireHeaderSize] = static_cast<char>(damaged[kWireHeaderSize] ^ 0x40);
  auto decoded = DecodeSnapshot(damaged);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Status::Code::kDataLoss)
      << decoded.status().ToString();
}

TEST(WireTest, HeaderChecksRejectForeignAndFutureFrames) {
  Rng rng(13);
  std::string frame;
  EncodeSnapshot(RandomSnapshot(rng, 1.0), &frame);

  std::string wrong_magic = frame;
  wrong_magic[0] = 'X';
  EXPECT_EQ(DecodeSnapshot(wrong_magic).status().code(),
            Status::Code::kInvalidArgument);

  std::string future_version = frame;
  future_version[2] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(DecodeSnapshot(future_version).status().code(),
            Status::Code::kUnimplemented);

  // Right frame, wrong decoder: a snapshot is not a poll response.
  EXPECT_EQ(DecodePollResponse(frame).status().code(),
            Status::Code::kInvalidArgument);

  // Trailing bytes break the exactly-one-frame contract.
  std::string trailing = frame + '\0';
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());
}

TEST(WireTest, UnknownMessageTypesAreRejected) {
  // Type bytes outside WireType, including the reserved 1 and 3, on frames
  // that are otherwise intact: right magic, version, length and CRC (the
  // CRC covers only the payload, so patching the type byte keeps it valid).
  Rng rng(17);
  const ProfileSnapshot base = RandomSnapshot(rng, 1.0);
  ProfileSnapshot next = base;
  next.time_ms = 2.0;
  next.operators[0].row_count += 1;
  auto delta = MakeSnapshotDelta(base, next);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  PollResponse response;
  response.request_id = 3;
  response.has_snapshot = true;
  response.snapshot = base;
  std::vector<std::string> frames(3);
  EncodeSnapshot(base, &frames[0]);
  EncodePollResponse(response, &frames[1]);
  EncodeSnapshotDelta(delta.value(), &frames[2]);

  for (int type : {0, 1, 3, 6, 255}) {
    for (const std::string& valid : frames) {
      std::string frame = valid;
      frame[3] = static_cast<char>(type);
      const std::string context = "type byte " + std::to_string(type);
      ASSERT_TRUE(WireFrameSize(frame).ok()) << context;
      auto type_or = WireFrameType(frame);
      ASSERT_FALSE(type_or.ok()) << context;
      EXPECT_EQ(type_or.status().code(), Status::Code::kInvalidArgument)
          << context;
      EXPECT_NE(type_or.status().message().find("unknown message type"),
                std::string::npos)
          << context << ": " << type_or.status().ToString();
      EXPECT_EQ(DecodeSnapshot(frame).status().code(),
                Status::Code::kInvalidArgument)
          << context;
      EXPECT_EQ(DecodePollResponse(frame).status().code(),
                Status::Code::kInvalidArgument)
          << context;
      EXPECT_EQ(DecodeSnapshotDelta(frame).status().code(),
                Status::Code::kInvalidArgument)
          << context;
    }
  }
}

TEST(WireTest, GarbageInputsFailWithoutCrashing) {
  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeSnapshotDelta("LQ").ok());
  EXPECT_FALSE(DecodePollResponse(std::string(kWireHeaderSize, '\0')).ok());
  EXPECT_FALSE(WireFrameSize("").ok());
  EXPECT_FALSE(WireFrameType("L").ok());
  Rng rng(21);
  for (int i = 0; i < 64; ++i) {
    std::string garbage(rng.NextBelow(200), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.NextBelow(256));
    // Any status is fine; surviving the bytes is the property.
    (void)DecodeSnapshot(garbage);       // lqs-verify: status-ok(fuzz loop)
    (void)DecodePollResponse(garbage);   // lqs-verify: status-ok(fuzz loop)
    (void)DecodeSnapshotDelta(garbage);  // lqs-verify: status-ok(fuzz loop)
    (void)WireFrameSize(garbage);        // lqs-verify: status-ok(fuzz loop)
  }
}

TEST(WireTest, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(WireCrc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(WireCrc32("", 0), 0x00000000u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(WireCrc32(fox.data(), fox.size()), 0x414FA339u);
  const std::string zeros(32, '\x00');
  EXPECT_EQ(WireCrc32(zeros.data(), zeros.size()), 0x190A55ADu);
  const std::string ones(32, '\xFF');
  EXPECT_EQ(WireCrc32(ones.data(), ones.size()), 0xFF6CAB0Bu);
}

// The textbook bit-at-a-time CRC-32 (reflected polynomial 0xEDB88320,
// init and xorout 0xFFFFFFFF): no tables, nothing shared with WireCrc32.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..1024 from each of the 8 start offsets: covers the
  // 8-byte main loop, every tail length and unaligned loads.
  Rng rng(2024);
  std::vector<uint8_t> buffer(1024 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextBelow(256));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* start = buffer.data() + align;
      ASSERT_EQ(WireCrc32(start, len), BitwiseCrc32(start, len))
          << "align=" << align << " len=" << len;
    }
  }
}

// Advances a copy of `base` the way a running query would: same shape, some
// counters grow, some doubles move, some lifecycle flags flip. Leaving
// fields untouched (often the whole operator) exercises the presence bitmap
// and the absent-operator path of the delta codec.
ProfileSnapshot MutateTowards(Rng& rng, const ProfileSnapshot& base,
                              double time_ms) {
  ProfileSnapshot next = base;
  next.time_ms = time_ms;
  for (OperatorProfile& op : next.operators) {
    if (rng.NextBool(0.3)) continue;  // operator entirely unchanged
    if (rng.NextBool(0.7)) op.row_count += rng.NextBelow(100000);
    if (rng.NextBool(0.5)) op.logical_read_count += rng.NextBelow(5000);
    if (rng.NextBool(0.3)) op.rebind_count += rng.NextBelow(4);
    if (rng.NextBool(0.3)) op.segment_read_count += rng.NextBelow(8);
    if (rng.NextBool(0.2)) op.total_pages += rng.NextBelow(512);
    if (rng.NextBool(0.5)) op.cpu_time_ms += rng.NextDouble() * 50;
    if (rng.NextBool(0.4)) op.io_time_ms += rng.NextDouble() * 50;
    if (rng.NextBool(0.5)) op.last_active_ms = time_ms;
    if (rng.NextBool(0.2)) op.estimate_row_count = rng.NextDouble() * 1e9;
    if (rng.NextBool(0.3) && !op.opened) {
      op.opened = true;
      op.open_time_ms = time_ms;
    }
    if (rng.NextBool(0.1) && op.opened && !op.closed) {
      op.closed = true;
      op.close_time_ms = time_ms;
    }
  }
  return next;
}

TEST(WireTest, DeltaReassemblyIsByteExactOnRandomizedPairs) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    ProfileSnapshot base = RandomSnapshot(rng, rng.NextDouble() * 1e5);
    ProfileSnapshot target =
        MutateTowards(rng, base, base.time_ms + 1 + rng.NextDouble() * 100);

    auto delta = MakeSnapshotDelta(base, target);
    ASSERT_TRUE(delta.ok()) << "seed=" << seed << ": "
                            << delta.status().ToString();

    // The delta frame round-trips byte-identically like every other frame.
    std::string frame;
    EncodeSnapshotDelta(delta.value(), &frame);
    EXPECT_EQ(WireFrameType(frame).value(), WireType::kSnapshotDelta);
    auto decoded = DecodeSnapshotDelta(frame);
    ASSERT_TRUE(decoded.ok()) << "seed=" << seed << ": "
                              << decoded.status().ToString();
    std::string reencoded;
    EncodeSnapshotDelta(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded) << "seed=" << seed;

    // The property the client leans on: applying the decoded delta to the
    // base reproduces the target bit-for-bit — the reassembled snapshot is
    // indistinguishable (under EncodeSnapshot) from a full-snapshot send.
    ProfileSnapshot reassembled;
    ASSERT_OK(ApplySnapshotDelta(decoded.value(), base, &reassembled));
    std::string full_target, full_reassembled;
    EncodeSnapshot(target, &full_target);
    EncodeSnapshot(reassembled, &full_reassembled);
    EXPECT_EQ(full_target, full_reassembled) << "seed=" << seed;
  }
}

TEST(WireTest, DeltaCarriesOnlyChangedOperatorsAndShrinksTheFrame) {
  Rng rng(31);
  // A realistically wide plan (10 operators) — the size claim below is
  // about unchanged operators costing nothing, so the snapshot must
  // actually have some.
  ProfileSnapshot base;
  base.time_ms = 1000.0;
  for (int i = 0; i < 10; ++i) {
    base.operators.push_back(RandomProfile(rng, i));
  }
  // Only operator 0 advances; every other operator must be absent from the
  // delta, and the frame must be much smaller than the full snapshot.
  ProfileSnapshot target = base;
  target.time_ms = 1010.0;
  target.operators[0].row_count += 42;
  target.operators[0].cpu_time_ms += 1.5;

  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta.value().ops.size(), 1u);
  EXPECT_EQ(delta.value().ops[0].index, 0u);
  EXPECT_EQ(delta.value().ops[0].changed,
            static_cast<uint32_t>(kDeltaRowCount) | kDeltaCpuTime);
  EXPECT_EQ(delta.value().ops[0].row_count_delta, 42);

  std::string delta_frame, full_frame;
  EncodeSnapshotDelta(delta.value(), &delta_frame);
  EncodeSnapshot(target, &full_frame);
  EXPECT_LT(delta_frame.size() * 3, full_frame.size())
      << "steady-state delta should be a small fraction of a full snapshot";

  // An identical pair deltas to "nothing changed": header-only payload.
  ProfileSnapshot same = base;
  same.time_ms = base.time_ms;
  auto empty = MakeSnapshotDelta(base, same);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().ops.empty());
  ProfileSnapshot out;
  ASSERT_OK(ApplySnapshotDelta(empty.value(), base, &out));
  std::string a, b;
  EncodeSnapshot(base, &a);
  EncodeSnapshot(out, &b);
  EXPECT_EQ(a, b);
}

TEST(WireTest, DeltaAgainstWrongBaseIsNotFound) {
  Rng rng(37);
  ProfileSnapshot base = RandomSnapshot(rng, 500.0);
  ProfileSnapshot target = MutateTowards(rng, base, 510.0);
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok());

  // The client lost the acked base (e.g. it accepted a newer one since):
  // bit-exact time identity fails, and the caller takes the resync path.
  ProfileSnapshot other_base = base;
  other_base.time_ms = base.time_ms + 1.0;
  ProfileSnapshot out;
  Status status = ApplySnapshotDelta(delta.value(), other_base, &out);
  EXPECT_EQ(status.code(), Status::Code::kNotFound) << status.ToString();

  // Structural mismatch is a different failure: the delta cannot possibly
  // describe this plan, acked or not.
  ProfileSnapshot fewer_ops = base;
  fewer_ops.operators.pop_back();
  if (!delta.value().ops.empty()) {
    status = ApplySnapshotDelta(delta.value(), fewer_ops, &out);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << status.ToString();
  }
}

TEST(WireTest, DeltaRefusesStructurallyMismatchedPairs) {
  Rng rng(41);
  ProfileSnapshot base = RandomSnapshot(rng, 100.0);

  ProfileSnapshot extra_op = base;
  extra_op.time_ms = 110.0;
  extra_op.operators.push_back(RandomProfile(
      rng, static_cast<int>(extra_op.operators.size())));
  EXPECT_EQ(MakeSnapshotDelta(base, extra_op).status().code(),
            Status::Code::kInvalidArgument);

  ProfileSnapshot retyped = base;
  retyped.time_ms = 110.0;
  retyped.operators[0].node_id += 100;
  EXPECT_EQ(MakeSnapshotDelta(base, retyped).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(WireTest, DeltaFrameSurvivesTruncationAndBitFlips) {
  Rng rng(43);
  ProfileSnapshot base = RandomSnapshot(rng, 900.0);
  ProfileSnapshot target = MutateTowards(rng, base, 930.0);
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok());
  std::string frame;
  EncodeSnapshotDelta(delta.value(), &frame);

  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view prefix(frame.data(), len);
    EXPECT_FALSE(DecodeSnapshotDelta(prefix).ok())
        << "prefix length " << len << " decoded";
  }
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_FALSE(DecodeSnapshotDelta(damaged).ok())
          << "flip of byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
  EXPECT_TRUE(DecodeSnapshotDelta(frame).ok());
}

TEST(WireTest, PollResponseDeltaArmRoundTripsByteIdentical) {
  Rng rng(47);
  ProfileSnapshot base = RandomSnapshot(rng, 60.0);
  ProfileSnapshot target = MutateTowards(rng, base, 75.0);
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok());

  PollResponse msg;
  msg.request_id = 77;
  msg.has_delta = true;
  msg.delta = delta.value();

  std::string frame;
  EncodePollResponse(msg, &frame);
  auto decoded = DecodePollResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, 77u);
  EXPECT_FALSE(decoded.value().has_snapshot);
  ASSERT_TRUE(decoded.value().has_delta);
  EXPECT_EQ(decoded.value().delta.ops.size(), delta.value().ops.size());
  std::string reencoded;
  EncodePollResponse(decoded.value(), &reencoded);
  EXPECT_EQ(frame, reencoded);

  // The reassembly chain works through the response envelope too.
  ProfileSnapshot out;
  ASSERT_OK(ApplySnapshotDelta(decoded.value().delta, base, &out));
  std::string full_target, full_out;
  EncodeSnapshot(target, &full_target);
  EncodeSnapshot(out, &full_out);
  EXPECT_EQ(full_target, full_out);
}

// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, const std::string& bytes) {
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// Every frame kind the wire carries, built from executed TPC-H traces and
// seeded MutateTowards pairs: Snapshot frames, PollResponse frames (full,
// delta, empty and complete) and SnapshotDelta frames.
std::vector<std::string> GoldenCorpus() {
  std::vector<std::string> frames;
  auto add_snapshot = [&frames](const ProfileSnapshot& snapshot) {
    EncodeSnapshot(snapshot, &frames.emplace_back());
  };
  auto add_response = [&frames](const PollResponse& response) {
    EncodePollResponse(response, &frames.emplace_back());
  };
  auto add_delta = [&frames, &add_response](const SnapshotDelta& delta,
                                            uint64_t request_id) {
    EncodeSnapshotDelta(delta, &frames.emplace_back());
    PollResponse response;
    response.request_id = request_id;
    response.has_delta = true;
    response.delta = delta;
    add_response(response);
  };

  TpchOptions tpch;
  tpch.scale = 0.05;
  StatusOr<Workload> workload = MakeTpchWorkload(tpch);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  if (!workload.ok()) return frames;
  EXPECT_TRUE(AnnotateWorkload(&workload.value(), OptimizerOptions{}).ok());
  ExecOptions exec;
  exec.snapshot_interval_ms = 1.0;
  uint64_t request_id = 0;
  constexpr size_t kQueries = 8;
  for (size_t q = 0; q < kQueries && q < workload->queries.size(); ++q) {
    StatusOr<ExecutionResult> run = ExecuteQuery(
        workload->queries[q].plan, workload->catalog.get(), exec);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) continue;
    const ProfileTrace& trace = run->trace;
    PollResponse empty;
    empty.request_id = ++request_id;
    add_response(empty);
    for (size_t i = 0; i < trace.snapshots.size(); ++i) {
      const ProfileSnapshot& snapshot = trace.snapshots[i];
      add_snapshot(snapshot);
      PollResponse full;
      full.request_id = ++request_id;
      full.has_snapshot = true;
      full.snapshot = snapshot;
      add_response(full);
      if (i > 0) {
        StatusOr<SnapshotDelta> delta =
            MakeSnapshotDelta(trace.snapshots[i - 1], snapshot);
        EXPECT_TRUE(delta.ok()) << delta.status().ToString();
        if (delta.ok()) add_delta(delta.value(), ++request_id);
      }
    }
    PollResponse complete;
    complete.request_id = ++request_id;
    complete.has_snapshot = true;
    complete.query_complete = true;
    complete.snapshot = trace.final_snapshot;
    add_response(complete);
  }

  for (uint64_t seed = 1; seed <= 96; ++seed) {
    Rng rng(seed);
    const ProfileSnapshot base = RandomSnapshot(rng, rng.NextDouble() * 1e5);
    const ProfileSnapshot target =
        MutateTowards(rng, base, base.time_ms + 1 + rng.NextDouble() * 100);
    add_snapshot(target);
    StatusOr<SnapshotDelta> delta = MakeSnapshotDelta(base, target);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    if (delta.ok()) add_delta(delta.value(), seed << 40);
  }
  return frames;
}

TEST(WireTest, GoldenCorpusPinsEveryFrameByte) {
  // Pins every frame byte: a change to any CRC, varint or header field
  // changes the digest. The constant was computed with the byte-at-a-time
  // table CRC, so it also ties the slicing-by-8 CRC to that output.
  constexpr uint64_t kGoldenDigest = 0xD24C1AA274E6B882ull;
  const std::vector<std::string> frames = GoldenCorpus();
  ASSERT_GE(frames.size(), 800u);
  uint64_t digest = 0xCBF29CE484222325ull;
  for (const std::string& frame : frames) digest = Fnv1a(digest, frame);
  EXPECT_EQ(digest, kGoldenDigest)
      << std::hex << "digest 0x" << digest << " over " << std::dec
      << frames.size() << " frames";
}

TEST(WireTest, MakeSnapshotDeltaIntoMatchesFreshDeltaUnderReuse) {
  // One delta reused across pairs of different shapes must come out exactly
  // as the fresh-delta wrapper builds it, and the same-object short cut
  // must equal the full scan against an identical copy.
  SnapshotDelta reused;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const ProfileSnapshot base = RandomSnapshot(rng, rng.NextDouble() * 1e5);
    const ProfileSnapshot target =
        MutateTowards(rng, base, base.time_ms + 1 + rng.NextDouble() * 100);
    ASSERT_OK(MakeSnapshotDeltaInto(base, target, &reused));
    StatusOr<SnapshotDelta> fresh = MakeSnapshotDelta(base, target);
    ASSERT_TRUE(fresh.ok());
    std::string reused_frame, fresh_frame;
    EncodeSnapshotDelta(reused, &reused_frame);
    EncodeSnapshotDelta(fresh.value(), &fresh_frame);
    EXPECT_EQ(reused_frame, fresh_frame) << "seed=" << seed;

    ASSERT_OK(MakeSnapshotDeltaInto(target, target, &reused));
    EXPECT_TRUE(reused.ops.empty()) << "seed=" << seed;
    const ProfileSnapshot copy = target;
    std::string self_frame, copy_frame;
    EncodeSnapshotDelta(reused, &self_frame);
    EncodeSnapshotDelta(MakeSnapshotDelta(copy, target).value(), &copy_frame);
    EXPECT_EQ(self_frame, copy_frame) << "seed=" << seed;

    ProfileSnapshot wider = target;
    wider.operators.push_back(wider.operators.back());
    EXPECT_EQ(MakeSnapshotDeltaInto(base, wider, &reused).ToString(),
              MakeSnapshotDelta(base, wider).status().ToString());
  }
}

TEST(WireTest, DecodePollResponseIntoMatchesFreshDecodeUnderReuse) {
  // One response reused across full, delta, empty and complete frames of
  // varying width: each decode re-encodes to the frame it came from, and a
  // damaged frame fails with the very Status the fresh decoder returns.
  Rng rng(53);
  PollResponse reused;
  for (uint64_t i = 0; i < 64; ++i) {
    PollResponse msg;
    msg.request_id = i + 1;
    const ProfileSnapshot base = RandomSnapshot(rng, 10.0 * (i + 1));
    switch (i % 4) {
      case 0:
        msg.has_snapshot = true;
        msg.snapshot = base;
        break;
      case 1:
        msg.has_delta = true;
        msg.delta =
            MakeSnapshotDelta(base, MutateTowards(rng, base, base.time_ms + 5))
                .value();
        break;
      case 2:
        break;  // nothing yet
      default:
        msg.has_snapshot = true;
        msg.query_complete = true;
        msg.snapshot = base;
        break;
    }
    std::string frame;
    EncodePollResponse(msg, &frame);
    ASSERT_OK(DecodePollResponseInto(frame, &reused));
    StatusOr<PollResponse> fresh = DecodePollResponse(frame);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(reused.request_id, fresh->request_id);
    EXPECT_EQ(reused.has_snapshot, fresh->has_snapshot);
    EXPECT_EQ(reused.has_delta, fresh->has_delta);
    EXPECT_EQ(reused.query_complete, fresh->query_complete);
    std::string reencoded;
    EncodePollResponse(reused, &reencoded);
    EXPECT_EQ(reencoded, frame) << "frame #" << i;

    std::string damaged = frame;
    const size_t byte = rng.NextBelow(damaged.size());
    damaged[byte] = static_cast<char>(static_cast<uint8_t>(damaged[byte]) ^
                                      (1u << rng.NextBelow(8)));
    const Status into = DecodePollResponseInto(damaged, &reused);
    EXPECT_FALSE(into.ok()) << "frame #" << i;
    EXPECT_EQ(into.ToString(), DecodePollResponse(damaged).status().ToString())
        << "frame #" << i;
  }
}

}  // namespace
}  // namespace testing
}  // namespace lqs
