#include "monitor/session_router.h"

#include <algorithm>
#include <string>

namespace lqs {

uint64_t SessionRouter::Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Murmur3's 64-bit finalizer. FNV-1a mixes each byte with one multiply, which
// leaves the high bits of short, similar keys ("shard-3#17", "session-42")
// badly avalanched — and ring position keys on the *full* 64-bit value, so
// raw FNV clusters the ring points and skews shard load by several fold
// (tests/sharded_monitor_test.cc pins the balance this finalizer restores).
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

SessionRouter::SessionRouter(int num_shards)
    : num_shards_(std::max(1, num_shards)) {
  ring_.reserve(static_cast<size_t>(num_shards_) *
                static_cast<size_t>(kVirtualNodes));
  std::string point_key;
  for (int shard = 0; shard < num_shards_; ++shard) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      point_key.clear();
      point_key += "shard-";
      point_key += std::to_string(shard);
      point_key += '#';
      point_key += std::to_string(v);
      ring_.push_back(RingPoint{Avalanche(Fnv1a(point_key)), shard});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              // Tie-break on shard id so the ring order is total and
              // placement never depends on sort stability.
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int SessionRouter::ShardFor(std::string_view session_key) const {
  const uint64_t hash = Avalanche(Fnv1a(session_key));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const RingPoint& point, uint64_t h) { return point.hash < h; });
  if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
  return it->shard;
}

}  // namespace lqs
