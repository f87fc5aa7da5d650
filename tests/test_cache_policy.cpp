#include "cache/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

namespace dpc::cache {
namespace {

std::vector<PageStatus> make_status(std::initializer_list<PageStatus> l) {
  return {l};
}

/// Serves `status` a chunk at a time, as the control plane's meta DMA does,
/// and counts the chunks read.
struct ChunkReader {
  const std::vector<PageStatus>& status;
  int reads = 0;
  auto fn() {
    return [this](std::uint32_t first, std::span<PageStatus> out) {
      EXPECT_LE(out.size(), ClockEviction::kChunk);
      EXPECT_LE(first + out.size(), status.size());
      ++reads;
      std::copy_n(status.begin() + first, out.size(), out.begin());
    };
  }
};

std::vector<std::uint32_t> pick(ClockEviction& clock,
                                const std::vector<PageStatus>& status,
                                std::uint32_t want, int* reads = nullptr) {
  ChunkReader reader{status};
  std::vector<std::uint32_t> victims;
  clock.pick_victims(static_cast<std::uint32_t>(status.size()), want,
                     reader.fn(), victims);
  if (reads != nullptr) *reads = reader.reads;
  return victims;
}

TEST(ClockEviction, PicksOnlyCleanPages) {
  ClockEviction clock;
  const auto status =
      make_status({PageStatus::kDirty, PageStatus::kClean, PageStatus::kFree,
                   PageStatus::kClean, PageStatus::kInvalid});
  const auto victims = pick(clock, status, 10);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(ClockEviction, HandRotatesAcrossCalls) {
  ClockEviction clock;
  std::vector<PageStatus> status(8, PageStatus::kClean);
  const auto first = pick(clock, status, 3);
  const auto second = pick(clock, status, 3);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(second[0], 3u);  // continues where the hand stopped
}

TEST(ClockEviction, RespectsWantLimit) {
  ClockEviction clock;
  std::vector<PageStatus> status(100, PageStatus::kClean);
  EXPECT_EQ(pick(clock, status, 7).size(), 7u);
}

TEST(ClockEviction, EmptyStatusNoVictims) {
  ClockEviction clock;
  int reads = -1;
  EXPECT_TRUE(pick(clock, {}, 5, &reads).empty());
  EXPECT_EQ(reads, 0);
}

// The chunked sweep reads only as far past the hand as its victims need:
// one chunk when the first one holds them, whatever the meta-area size.
TEST(ClockEviction, ReadsChunksOnlyUntilVictimsFound) {
  for (const std::uint32_t total : {256u, 4096u, 65536u}) {
    ClockEviction clock;
    std::vector<PageStatus> status(total, PageStatus::kClean);
    int reads = 0;
    EXPECT_EQ(pick(clock, status, 32, &reads).size(), 32u);
    EXPECT_EQ(reads, 1) << total;
  }
  // Dirt in front of the hand: the sweep reads on into the chunk that
  // holds the first clean page, and no further.
  ClockEviction clock;
  std::vector<PageStatus> status(1024, PageStatus::kDirty);
  status[300] = PageStatus::kClean;
  int reads = 0;
  EXPECT_EQ(pick(clock, status, 1, &reads),
            std::vector<std::uint32_t>{300});
  EXPECT_EQ(reads, 3);
}

// Same victims, in the same order, as one sweep over a whole-meta status
// snapshot — including the hand's wrap and a sweep that runs dry.
TEST(ClockEviction, MatchesWholeSnapshotSweep) {
  std::mt19937 rng(7);
  for (const std::uint32_t total : {1u, 127u, 128u, 300u, 1000u}) {
    std::vector<PageStatus> status(total);
    ClockEviction clock;
    std::uint32_t hand = 0;  // the reference sweep's cursor
    for (int round = 0; round < 40; ++round) {
      for (auto& st : status)
        st = static_cast<PageStatus>(rng() % 4);
      const std::uint32_t want = rng() % 200;
      std::vector<std::uint32_t> expect;
      std::uint32_t left = want;
      for (std::uint32_t scanned = 0; left > 0 && scanned < total;
           ++scanned) {
        if (status[hand] == PageStatus::kClean) {
          expect.push_back(hand);
          --left;
        }
        hand = (hand + 1) % total;
      }
      EXPECT_EQ(pick(clock, status, want), expect)
          << "total " << total << " round " << round;
    }
  }
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
