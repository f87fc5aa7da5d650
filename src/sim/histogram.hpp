// Log-bucketed latency histogram with percentile queries.
//
// Thread-safe recording via per-bucket atomics so concurrent simulated
// threads can record without a lock on the hot path.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>

#include "sim/time.hpp"

namespace dpc::sim {

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
