#include "cache/policy.hpp"

#include <gtest/gtest.h>

namespace dpc::cache {
namespace {

std::vector<PageStatus> make_status(std::initializer_list<PageStatus> l) {
  return {l};
}

TEST(ClockEviction, PicksOnlyCleanPages) {
  ClockEviction clock;
  const auto status =
      make_status({PageStatus::kDirty, PageStatus::kClean, PageStatus::kFree,
                   PageStatus::kClean, PageStatus::kInvalid});
  std::vector<std::uint32_t> victims;
  clock.pick_victims(status, 10, victims);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(ClockEviction, HandRotatesAcrossCalls) {
  ClockEviction clock;
  std::vector<PageStatus> status(8, PageStatus::kClean);
  std::vector<std::uint32_t> first, second;
  clock.pick_victims(status, 3, first);
  clock.pick_victims(status, 3, second);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(second[0], 3u);  // continues where the hand stopped
}

TEST(ClockEviction, RespectsWantLimit) {
  ClockEviction clock;
  std::vector<PageStatus> status(100, PageStatus::kClean);
  std::vector<std::uint32_t> victims;
  clock.pick_victims(status, 7, victims);
  EXPECT_EQ(victims.size(), 7u);
}

TEST(ClockEviction, EmptyStatusNoVictims) {
  ClockEviction clock;
  std::vector<std::uint32_t> victims;
  clock.pick_victims({}, 5, victims);
  EXPECT_TRUE(victims.empty());
}

TEST(SequentialPrefetcher, RampWindowGrows) {
  SequentialPrefetcher pf(64);
  EXPECT_EQ(pf.on_miss(1, 0).pages, 0u);  // first touch
  const auto a2 = pf.on_miss(1, 1);
  ASSERT_GT(a2.pages, 0u);
  EXPECT_EQ(a2.start_lpn, 2u);
  // The advised window is consumed as hits; the next *miss* lands right
  // after it and must continue (and grow) the stream.
  const auto a3 = pf.on_miss(1, a2.start_lpn + a2.pages);
  EXPECT_GE(a3.pages, a2.pages);  // exponential ramp
  // Window capped at the maximum.
  SequentialPrefetcher::Advice last = a3;
  std::uint64_t next = a3.start_lpn + a3.pages;
  for (int i = 0; i < 10; ++i) {
    last = pf.on_miss(1, next);
    next = last.start_lpn + last.pages;
  }
  EXPECT_LE(last.pages, 64u);
  EXPECT_EQ(last.pages, 64u);
}

TEST(SequentialPrefetcher, OnHitExtendsNearWindowEnd) {
  SequentialPrefetcher pf(64);
  pf.on_miss(1, 0);
  const auto a = pf.on_miss(1, 1);  // prefetched [2, 2+w)
  ASSERT_GT(a.pages, 0u);
  // Hit early in the window: no extension yet.
  EXPECT_EQ(pf.on_hit(1, a.start_lpn).pages, 0u);
  // Hit in the trailing half: asynchronous extension from the window end.
  const auto ext = pf.on_hit(1, a.start_lpn + a.pages - 1);
  ASSERT_GT(ext.pages, 0u);
  EXPECT_EQ(ext.start_lpn, a.start_lpn + a.pages);
  // Unknown stream: nothing.
  EXPECT_EQ(pf.on_hit(99, 5).pages, 0u);
}

TEST(SequentialPrefetcher, BreakResetsRun) {
  SequentialPrefetcher pf(64);
  pf.on_miss(1, 0);
  ASSERT_GT(pf.on_miss(1, 1).pages, 0u);
  EXPECT_EQ(pf.on_miss(1, 1000).pages, 0u);  // jump breaks the stream
  EXPECT_GT(pf.on_miss(1, 1001).pages, 0u);  // new stream re-forms
}

TEST(SequentialPrefetcher, StreamsPerInodeIndependent) {
  SequentialPrefetcher pf(64);
  pf.on_miss(1, 0);
  pf.on_miss(2, 50);
  EXPECT_GT(pf.on_miss(1, 1).pages, 0u);
  EXPECT_GT(pf.on_miss(2, 51).pages, 0u);
}

TEST(SequentialPrefetcher, LruEvictsColdStreams) {
  SequentialPrefetcher pf(64, /*tracked_streams=*/2);
  pf.on_miss(1, 0);
  pf.on_miss(2, 0);
  pf.on_miss(3, 0);  // evicts inode 1's stream
  // Inode 1 must restart from scratch: its next sequential miss is a
  // first-touch again.
  EXPECT_EQ(pf.on_miss(1, 1).pages, 0u);
}

TEST(SequentialPrefetcher, ResetForgetsEverything) {
  SequentialPrefetcher pf(64);
  pf.on_miss(1, 0);
  pf.reset();
  EXPECT_EQ(pf.on_miss(1, 1).pages, 0u);
}

}  // namespace
}  // namespace dpc::cache
