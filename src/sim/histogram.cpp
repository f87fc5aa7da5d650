#include "sim/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/check.hpp"

namespace dpc::sim {

int Histogram::bucket_index(std::int64_t ns) {
  if (ns < 1) ns = 1;
  const auto u = static_cast<std::uint64_t>(ns);
  // Values below 2^kSubBits get exact buckets (indices 0..kSub-1 are free:
  // the log-spaced scheme only starts at octave kSubBits).
  if (u < kSub) return static_cast<int>(u);
  const int octave = 63 - std::countl_zero(u);
  if (octave >= kOctaves) return kBuckets - 1;
  // Sub-bucket: top kSubBits bits below the leading one.
  const int sub = static_cast<int>((u >> (octave - kSubBits)) & (kSub - 1));
  return octave * kSub + sub;
}

std::int64_t Histogram::bucket_upper(int idx) {
  if (idx < kSub) return idx;  // exact small-value bucket
  const int octave = idx / kSub;
  const int sub = idx % kSub;
  if (octave >= 62) return INT64_MAX;
  const std::int64_t base = std::int64_t{1} << octave;
  return base + (base >> kSubBits) * (sub + 1) - 1;
}

void Histogram::record(Nanos v) { record_n(v, 1); }

void Histogram::record_n(Nanos v, std::uint64_t n) {
  if (n == 0) return;
  const int idx = bucket_index(v.ns);
  buckets_[static_cast<std::size_t>(idx)].fetch_add(n,
                                                    std::memory_order_relaxed);
  total_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v.ns * static_cast<std::int64_t>(n),
                 std::memory_order_relaxed);
  // min/max via CAS loops; contention here is cold relative to recording.
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v.ns < cur &&
         !min_.compare_exchange_weak(cur, v.ns, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v.ns > cur &&
         !max_.compare_exchange_weak(cur, v.ns, std::memory_order_relaxed)) {
  }
}

Nanos Histogram::min() const {
  const auto m = min_.load(std::memory_order_relaxed);
  return Nanos{m == INT64_MAX ? 0 : m};
}

Nanos Histogram::max() const {
  const auto m = max_.load(std::memory_order_relaxed);
  return Nanos{m == INT64_MIN ? 0 : m};
}

Nanos Histogram::mean() const {
  const std::uint64_t n = count();
  if (n == 0) return Nanos{0};
  return Nanos{sum_.load(std::memory_order_relaxed) /
               static_cast<std::int64_t>(n)};
}

Nanos Histogram::percentile(double p) const {
  DPC_CHECK(p >= 0.0 && p <= 100.0);
  const std::uint64_t n = count();
  if (n == 0) return Nanos{0};
  // Nearest-rank: the smallest value with at least ceil(p/100·n) samples at
  // or below it.
  auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (target == 0) target = 1;
  if (target > n) target = n;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (seen >= target) {
      return Nanos{std::clamp(bucket_upper(i), min().ns, max().ns)};
    }
  }
  return max();
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const auto c = other.buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (c != 0)
      buckets_[static_cast<std::size_t>(i)].fetch_add(
          c, std::memory_order_relaxed);
  }
  total_.fetch_add(other.total_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  const auto omin = other.min_.load(std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (omin < cur &&
         !min_.compare_exchange_weak(cur, omin, std::memory_order_relaxed)) {
  }
  const auto omax = other.max_.load(std::memory_order_relaxed);
  cur = max_.load(std::memory_order_relaxed);
  while (omax > cur &&
         !max_.compare_exchange_weak(cur, omax, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

}  // namespace dpc::sim
