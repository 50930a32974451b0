#ifndef LQS_MONITOR_LATENCY_HISTOGRAM_H_
#define LQS_MONITOR_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace lqs {

/// Latency distribution in ms over a fixed log-linear bucket layout
/// (HdrHistogram-style): every power of two from 2^kMinExponent to
/// 2^kMaxExponent ms (about 1 ns to 17 min) is split into kSubBuckets
/// equal-width buckets, plus one underflow bucket (0 and anything below
/// 2^kMinExponent) and one overflow bucket.
///
/// A bucket reads back as its midpoint, so a quantile is within
/// kRelativeError (2^-4) of the recorded sample it stands for. Quantiles
/// that land in the underflow bucket read 0, ones past the top read max().
///
/// Why this shape: the whole stream is kept in O(kBuckets) memory with no
/// sampling, Add() is O(1) with no allocation or RNG (safe inside the
/// monitor's per-tick allocation budget, tests/estimator_alloc_test.cc),
/// Quantile() scans the buckets without copying or sorting, and Merge()
/// is exact: adding bucket counts gives the histogram of the combined
/// stream, so fleet quantiles are true quantiles over every shard's
/// samples.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 20;
  static constexpr size_t kBuckets =
      2 + static_cast<size_t>(kMaxExponent - kMinExponent) * kSubBuckets;
  /// Half a bucket's width over its lower edge.
  static constexpr double kRelativeError = 1.0 / (2 * kSubBuckets);

  /// Records one latency; `ms` is expected finite and non-negative.
  void Add(double ms) {
    ++buckets_[BucketOf(ms)];
    ++count_;
    sum_ += ms;
    max_ = std::max(max_, ms);
  }

  /// Folds `other` in: afterwards this is the histogram of both streams.
  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Largest recorded value, exact; 0 when empty.
  double max() const { return max_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// The sample of rank floor(q * (count - 1)) in sorted order, to within
  /// kRelativeError; q is clamped to [0, 1], Quantile(1) is max(), and an
  /// empty histogram reads 0.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const double clamped = std::min(1.0, std::max(0.0, q));
    const uint64_t rank =
        static_cast<uint64_t>(clamped * static_cast<double>(count_ - 1));
    if (rank + 1 >= count_) return max_;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen > rank) {
        return b + 1 == kBuckets ? max_ : std::min(Midpoint(b), max_);
      }
    }
    return max_;
  }

 private:
  static size_t BucketOf(double ms) {
    if (!(ms >= std::ldexp(1.0, kMinExponent))) return 0;  // also NaN
    if (ms >= std::ldexp(1.0, kMaxExponent)) return kBuckets - 1;  // and inf
    int exponent;
    // ms = mantissa * 2^exponent with mantissa in [0.5, 1); both the
    // scaling and the subtraction below are exact in binary.
    const double mantissa = std::frexp(ms, &exponent);
    const int octave = exponent - 1 - kMinExponent;
    const int sub = static_cast<int>((2 * mantissa - 1) * kSubBuckets);
    return 1 + static_cast<size_t>(octave) * kSubBuckets +
           static_cast<size_t>(sub);
  }

  /// Midpoint of a resolved bucket; 0 for underflow.
  static double Midpoint(size_t bucket) {
    if (bucket == 0) return 0;
    const size_t index = bucket - 1;
    const int octave = static_cast<int>(index / kSubBuckets);
    const double sub = static_cast<double>(index % kSubBuckets);
    return std::ldexp(1 + (sub + 0.5) / kSubBuckets, octave + kMinExponent);
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

}  // namespace lqs

#endif  // LQS_MONITOR_LATENCY_HISTOGRAM_H_
