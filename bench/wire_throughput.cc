// Wire-format throughput benchmark: encodes and decodes the DMV snapshot
// stream of the TPC-DS / TPC-H bench workloads the way the monitored path
// ships it, one PollResponse frame per snapshot plus a SnapshotDelta frame
// against the previous snapshot, and reports sustained encode/decode
// bandwidth (decoding into a fresh response, and into one reused response
// the way PollingClient does), CRC-32 bandwidth, delta cost and frame sizes
// — the serialization cost a remote monitor pays per 500 ms poll
// (DESIGN.md §10). The trailing "BENCH {...}" JSON line is the
// machine-readable result (scripts/bench.sh collects it); its "machine"
// field names the core count and compiler the numbers came from.
//
//   $ ./build/bench/wire_throughput
//
// Every run also re-verifies the round-trip contract on the real traces:
// decode(encode(x)) re-encodes byte-identically, and every delta reassembles
// the exact snapshot it encodes, or the benchmark fails.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "remote/wire.h"
#include "workload/workload.h"

using namespace lqs;         // NOLINT: bench code
using namespace lqs::bench;  // NOLINT

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  TpcdsOptions ds;
  ds.scale = 0.2;
  auto wds = MakeTpcdsWorkload(ds);
  TpchOptions h;
  h.scale = 0.2;
  auto wh = MakeTpchWorkload(h);
  if (!wds.ok() || !wh.ok()) {
    std::fprintf(stderr, "workload construction failed\n");
    return 1;
  }
  OptimizerOptions oo;
  oo.selectivity_error = kBenchSelectivityError;
  if (!AnnotateWorkload(&wds.value(), oo).ok() ||
      !AnnotateWorkload(&wh.value(), oo).ok()) {
    return 1;
  }

  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;
  std::vector<ProfileTrace> traces;
  size_t snapshot_count = 0;
  size_t operator_rows = 0;
  for (Workload* w : {&wds.value(), &wh.value()}) {
    for (const WorkloadQuery& q : w->queries) {
      auto result = ExecuteQuery(q.plan, w->catalog.get(), exec);
      if (!result.ok()) continue;
      for (const ProfileSnapshot& s : result.value().trace.snapshots) {
        snapshot_count++;
        operator_rows += s.operators.size();
      }
      traces.push_back(std::move(result.value().trace));
    }
  }
  if (traces.empty() || snapshot_count == 0) {
    std::fprintf(stderr, "no traces produced\n");
    return 1;
  }

  // The frames the monitored path sends: one full PollResponse per
  // snapshot, and a delta against the previous snapshot of the same trace.
  std::vector<PollResponse> responses;
  responses.reserve(snapshot_count);
  for (const ProfileTrace& trace : traces) {
    for (const ProfileSnapshot& snap : trace.snapshots) {
      PollResponse response;
      response.request_id = responses.size() + 1;
      response.has_snapshot = true;
      response.snapshot = snap;
      responses.push_back(std::move(response));
    }
  }

  // Correctness first: every frame survives the wire byte-identically,
  // decoded fresh and into one reused response alike.
  std::vector<std::string> response_frames;
  response_frames.reserve(snapshot_count);
  size_t snapshot_bytes = 0;
  PollResponse reused;
  for (const PollResponse& response : responses) {
    std::string frame;
    EncodePollResponse(response, &frame);
    auto decoded = DecodePollResponse(frame);
    if (!decoded.ok()) {
      std::fprintf(stderr, "decode failed: %s\n",
                   decoded.status().ToString().c_str());
      return 1;
    }
    std::string reencoded, reused_reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    if (!DecodePollResponseInto(frame, &reused).ok()) {
      std::fprintf(stderr, "decode into a reused response failed\n");
      return 1;
    }
    EncodePollResponse(reused, &reused_reencoded);
    if (reencoded != frame || reused_reencoded != frame) {
      std::fprintf(stderr, "poll response round trip not byte-identical\n");
      return 1;
    }
    snapshot_bytes += frame.size();
    response_frames.push_back(std::move(frame));
  }
  size_t delta_bytes = 0;
  size_t delta_count = 0;
  for (const ProfileTrace& trace : traces) {
    for (size_t i = 1; i < trace.snapshots.size(); ++i) {
      const ProfileSnapshot& base = trace.snapshots[i - 1];
      auto delta = MakeSnapshotDelta(base, trace.snapshots[i]);
      if (!delta.ok()) {
        std::fprintf(stderr, "delta failed: %s\n",
                     delta.status().ToString().c_str());
        return 1;
      }
      std::string frame;
      EncodeSnapshotDelta(delta.value(), &frame);
      auto decoded = DecodeSnapshotDelta(frame);
      ProfileSnapshot reassembled;
      if (!decoded.ok() ||
          !ApplySnapshotDelta(decoded.value(), base, &reassembled).ok()) {
        std::fprintf(stderr, "delta decode or apply failed\n");
        return 1;
      }
      std::string reencoded, target, rebuilt;
      EncodeSnapshotDelta(decoded.value(), &reencoded);
      EncodeSnapshot(trace.snapshots[i], &target);
      EncodeSnapshot(reassembled, &rebuilt);
      if (reencoded != frame || rebuilt != target) {
        std::fprintf(stderr, "delta round trip not byte-identical\n");
        return 1;
      }
      delta_bytes += frame.size();
      ++delta_count;
    }
  }
  if (delta_count == 0) {
    std::fprintf(stderr, "no consecutive snapshots to delta\n");
    return 1;
  }

  // Encode bandwidth: re-serialize the whole response stream until enough
  // wall time has accumulated for a stable rate.
  const double kMinSeconds = 0.3;
  size_t encode_bytes = 0;
  size_t encode_frames = 0;
  auto start = std::chrono::steady_clock::now();
  std::string scratch;
  do {
    for (const PollResponse& response : responses) {
      scratch.clear();
      EncodePollResponse(response, &scratch);
      encode_bytes += scratch.size();
      ++encode_frames;
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double encode_seconds = SecondsSince(start);

  // Delta cost: make and encode each snapshot's delta against its
  // predecessor, as the endpoint does for an acknowledged base.
  size_t delta_frames = 0;
  start = std::chrono::steady_clock::now();
  do {
    for (const ProfileTrace& trace : traces) {
      for (size_t i = 1; i < trace.snapshots.size(); ++i) {
        auto delta =
            MakeSnapshotDelta(trace.snapshots[i - 1], trace.snapshots[i]);
        if (!delta.ok()) {
          std::fprintf(stderr, "delta failed mid-benchmark\n");
          return 1;
        }
        scratch.clear();
        EncodeSnapshotDelta(delta.value(), &scratch);
        ++delta_frames;
      }
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double delta_seconds = SecondsSince(start);

  // Decode bandwidth over the pre-encoded frames.
  size_t decode_bytes = 0;
  size_t decode_frames = 0;
  start = std::chrono::steady_clock::now();
  do {
    for (const std::string& frame : response_frames) {
      auto decoded = DecodePollResponse(frame);
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed mid-benchmark\n");
        return 1;
      }
      decode_bytes += frame.size();
      ++decode_frames;
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double decode_seconds = SecondsSince(start);

  // Reuse mode: the same frames decoded into one response, as the client
  // does every attempt, so the buffers keep their capacity.
  size_t reuse_bytes = 0;
  start = std::chrono::steady_clock::now();
  do {
    for (const std::string& frame : response_frames) {
      if (!DecodePollResponseInto(frame, &reused).ok()) {
        std::fprintf(stderr, "reuse decode failed mid-benchmark\n");
        return 1;
      }
      reuse_bytes += frame.size();
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double reuse_seconds = SecondsSince(start);

  // CRC bandwidth over the same frames (the check every decode runs).
  size_t crc_bytes = 0;
  uint32_t crc_sink = 0;
  start = std::chrono::steady_clock::now();
  do {
    for (const std::string& frame : response_frames) {
      crc_sink += WireCrc32(frame.data(), frame.size());
      crc_bytes += frame.size();
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double crc_seconds = SecondsSince(start);

  const double mb = 1024.0 * 1024.0;
  const double encode_mb_per_sec = encode_bytes / mb / encode_seconds;
  const double decode_mb_per_sec = decode_bytes / mb / decode_seconds;
  const double decode_reuse_mb_per_sec = reuse_bytes / mb / reuse_seconds;
  const double crc_mb_per_s = crc_bytes / mb / crc_seconds;
  const double delta_ns_per_snapshot =
      delta_seconds * 1e9 / static_cast<double>(delta_frames);
  const double bytes_per_snapshot =
      static_cast<double>(snapshot_bytes) / static_cast<double>(snapshot_count);
  const double bytes_per_operator_row =
      static_cast<double>(snapshot_bytes) / static_cast<double>(operator_rows);
  const double delta_bytes_per_snapshot =
      static_cast<double>(delta_bytes) / static_cast<double>(delta_count);
  // In-memory footprint of the same data, for a wire-compression ratio.
  const double inmemory_bytes =
      static_cast<double>(operator_rows) * sizeof(OperatorProfile);

  std::printf("wire_throughput: %zu traces, %zu snapshots, %zu operator rows\n",
              traces.size(), snapshot_count, operator_rows);
  std::printf("  encode %.1f MB/s (%zu frames), decode %.1f MB/s (%zu frames)\n",
              encode_mb_per_sec, encode_frames, decode_mb_per_sec,
              decode_frames);
  std::printf("  decode into a reused response %.1f MB/s, crc32 %.1f MB/s "
              "(sum %08x)\n",
              decode_reuse_mb_per_sec, crc_mb_per_s,
              static_cast<unsigned>(crc_sink));
  std::printf("  delta make+encode %.0f ns/snapshot (%zu frames)\n",
              delta_ns_per_snapshot, delta_frames);
  std::printf("  %.1f bytes/snapshot, %.1f bytes/operator-row, %.2fx vs "
              "in-memory; delta %.1f bytes/snapshot\n",
              bytes_per_snapshot, bytes_per_operator_row,
              inmemory_bytes / static_cast<double>(snapshot_bytes),
              delta_bytes_per_snapshot);

  std::printf(
      "BENCH {\"bench\":\"wire_throughput\",\"traces\":%zu,"
      "\"snapshots\":%zu,\"operator_rows\":%zu,"
      "\"encode_mb_per_sec\":%.1f,\"decode_mb_per_sec\":%.1f,"
      "\"decode_reuse_mb_per_sec\":%.1f,\"crc_mb_per_s\":%.1f,"
      "\"delta_ns_per_snapshot\":%.0f,"
      "\"bytes_per_snapshot\":%.1f,\"bytes_per_operator_row\":%.1f,"
      "\"delta_bytes_per_snapshot\":%.1f,"
      "\"roundtrip_byte_identical\":true,"
      "\"machine\":%s}\n",
      traces.size(), snapshot_count, operator_rows, encode_mb_per_sec,
      decode_mb_per_sec, decode_reuse_mb_per_sec, crc_mb_per_s,
      delta_ns_per_snapshot, bytes_per_snapshot, bytes_per_operator_row,
      delta_bytes_per_snapshot, MachineJson().c_str());
  return 0;
}
