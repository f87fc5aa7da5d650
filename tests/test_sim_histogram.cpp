#include "sim/histogram.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace dpc::sim {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean().ns, 0);
  EXPECT_EQ(h.percentile(50).ns, 0);
  EXPECT_EQ(h.min().ns, 0);
  EXPECT_EQ(h.max().ns, 0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(micros(10));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min().ns, 10000);
  EXPECT_EQ(h.max().ns, 10000);
  // Bucket resolution is ~1/16 of an octave.
  EXPECT_NEAR(static_cast<double>(h.mean().ns), 10000.0, 10000.0 / 16);
  EXPECT_NEAR(static_cast<double>(h.percentile(50).ns), 10000.0,
              10000.0 / 8);
}

TEST(Histogram, PercentileOrdering) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(micros(i));
  const auto p10 = h.percentile(10);
  const auto p50 = h.percentile(50);
  const auto p99 = h.percentile(99);
  EXPECT_LT(p10.ns, p50.ns);
  EXPECT_LT(p50.ns, p99.ns);
  EXPECT_NEAR(static_cast<double>(p50.ns), 500e3, 50e3);
  EXPECT_NEAR(static_cast<double>(p99.ns), 990e3, 99e3);
}

TEST(Histogram, MeanOfUniform) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(micros(100));
  EXPECT_NEAR(static_cast<double>(h.mean().ns), 100e3, 100e3 / 16);
}

TEST(Histogram, MinMaxTracked) {
  Histogram h;
  h.record(nanos(7));
  h.record(millis(3));
  h.record(micros(42));
  EXPECT_EQ(h.min().ns, 7);
  EXPECT_EQ(h.max().ns, 3000000);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.record_n(micros(1), 99);
  h.record_n(micros(1000), 1);
  EXPECT_EQ(h.count(), 100u);
  // p50 should sit at the small value.
  EXPECT_LT(h.percentile(50).ns, 2000);
  EXPECT_GT(h.percentile(99.9).ns, 900000);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.record(micros(10));
  b.record(micros(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min().ns, 10000);
  EXPECT_EQ(a.max().ns, 1000000);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(micros(5));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max().ns, 0);
}

TEST(Histogram, ConcurrentRecording) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) h.record(micros(i % 100 + 1));
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Each thread records 100 full cycles of 1..100 µs: mean 50.5 µs.
  EXPECT_EQ(h.mean().ns, 50500);
}

TEST(Histogram, ZeroAndNegativeClampToOne) {
  Histogram h;
  h.record(nanos(0));
  h.record(nanos(-5));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.percentile(100).ns, 2);
}

TEST(Histogram, MeanIsExactAndQuantilesStayWithinMinMax) {
  // Two samples in one ~4 KiB-wide bucket [90112, 94207]: a bucket-midpoint
  // mean (92160) would fall below the min and the bucket's upper edge above
  // the max.
  Histogram h;
  h.record(nanos(93467));
  h.record_n(nanos(94000), 3);
  EXPECT_EQ(h.mean().ns, (93467 + 3 * 94000) / 4);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.percentile(p).ns, h.min().ns) << "p" << p;
    EXPECT_LE(h.percentile(p).ns, h.max().ns) << "p" << p;
  }
  EXPECT_EQ(h.percentile(100).ns, 94000);

  // merge() folds the exact sum; reset() clears it.
  Histogram other;
  other.record(micros(1));
  h.merge(other);
  EXPECT_EQ(h.mean().ns, (93467 + 3 * 94000 + 1000) / 5);
  h.reset();
  h.record(nanos(10));
  EXPECT_EQ(h.mean().ns, 10);
}

class HistogramAccuracy : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramAccuracy, RelativeErrorBounded) {
  // Property: any recorded value's bucket upper edge is within ~7% above it.
  Histogram h;
  const std::int64_t v = GetParam();
  h.record(nanos(v));
  const auto p100 = h.percentile(100);
  EXPECT_GE(p100.ns, v);
  EXPECT_LE(static_cast<double>(p100.ns),
            static_cast<double>(v) * 1.08 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramAccuracy,
                         ::testing::Values(1, 3, 17, 100, 999, 4096, 65537,
                                           1000000, 88000, 123456789,
                                           999999999999LL));

}  // namespace
}  // namespace dpc::sim
