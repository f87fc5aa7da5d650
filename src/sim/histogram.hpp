// Log-bucketed latency histogram with percentile queries, and the exact
// quantile of a raw sample.
//
// Thread-safe recording via per-bucket atomics so concurrent simulated
// threads can record without a lock on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/check.hpp"
#include "sim/time.hpp"

namespace dpc::sim {

/// Exact floor-rank quantile of a sample: the element of rank
/// floor(q * (n - 1)) in sorted order, q in [0, 1]. Code that keeps raw
/// samples uses this; Histogram's bucketed percentile is for registry
/// instruments.
inline std::int64_t quantile(std::vector<std::int64_t> v, double q) {
  DPC_CHECK(!v.empty() && q >= 0.0 && q <= 1.0);
  const auto rank =
      static_cast<std::size_t>(static_cast<double>(v.size() - 1) * q);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Latency histogram with ~4% relative bucket resolution covering
/// [1 ns, ~18 hours]. Buckets are (base-2 exponent, 1/16 sub-bucket) pairs.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;     // sub-buckets per octave
  static constexpr int kOctaves = 46;            // 2^46 ns ≈ 19.5 hours
  static constexpr int kBuckets = kOctaves * kSub;

  Histogram() = default;
  // Histograms are shared by reference between worker threads; copying a
  // live histogram would tear, so forbid it.
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(Nanos v);
  void record_n(Nanos v, std::uint64_t n);

  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }
  Nanos min() const;
  Nanos max() const;
  /// Arithmetic mean of recorded values: exact (a running sum), rounded
  /// toward zero.
  Nanos mean() const;
  /// p in [0,100]. Returns the upper edge of the bucket containing the
  /// p-th percentile sample, clamped to [min(), max()] so no quantile lies
  /// outside the recorded values.
  Nanos percentile(double p) const;

  void merge(const Histogram& other);
  void reset();

 private:
  static int bucket_index(std::int64_t ns);
  static std::int64_t bucket_upper(int idx);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::int64_t> sum_{0};  // exact sum of recorded ns
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

}  // namespace dpc::sim
