#ifndef LQS_MONITOR_SESSION_ROUTER_H_
#define LQS_MONITOR_SESSION_ROUTER_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace lqs {

/// Consistent session → shard hashing for the sharded monitor.
///
/// Each shard contributes kVirtualNodes points to a 64-bit hash ring; a
/// session key routes to the shard owning the first ring point at or after
/// the key's hash (wrapping). Two properties the plain `hash % N` scheme
/// lacks:
///
///  - *Stability*: changing the shard count from N to N+1 remaps only the
///    keys that land on the new shard's ring points (~1/(N+1) of them),
///    instead of nearly all keys. A fleet monitor resharding under load
///    must not stampede every session's state to a new home at once.
///  - *Balance*: virtual nodes smooth the variance of random ring
///    placement; with 64 per shard the heaviest shard carries
///    within a few percent of the mean at thousand-session scale
///    (tests/sharded_monitor_test.cc pins this).
///
/// Hashing is FNV-1a 64 over the key bytes, passed through a 64-bit
/// avalanche finalizer (Murmur3's) before placement — FNV alone leaves the
/// high bits of short keys under-mixed, and ring position keys on the full
/// 64-bit value. Both are deterministic across runs and platforms, so
/// session placement (and therefore every downstream per-shard number) is
/// reproducible.
///
/// Concurrency: immutable after construction (the ring is built in the
/// constructor and never touched again), so ShardFor is safe from any
/// thread with no lock — which is why the sharded monitor's `locks`
/// annotations never mention this class.
class SessionRouter {
 public:
  /// Ring points per shard.
  static constexpr int kVirtualNodes = 64;

  explicit SessionRouter(int num_shards);

  /// Shard in [0, num_shards) owning `session_key`.
  int ShardFor(std::string_view session_key) const;

  int num_shards() const { return num_shards_; }

  /// FNV-1a 64-bit hash of `bytes` (exposed for tests).
  static uint64_t Fnv1a(std::string_view bytes);

 private:
  struct RingPoint {
    uint64_t hash;
    int shard;
  };

  const int num_shards_;
  std::vector<RingPoint> ring_;  // sorted by hash; frozen after the ctor
};

}  // namespace lqs

#endif  // LQS_MONITOR_SESSION_ROUTER_H_
