#include "cache/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

namespace dpc::cache {
namespace {

std::vector<SweepSlot> unreferenced(std::initializer_list<PageStatus> l) {
  std::vector<SweepSlot> slots;
  for (const PageStatus st : l) slots.push_back({st, false});
  return slots;
}

/// Serves `slots` a chunk at a time, as the control plane's meta and
/// accessed-word DMAs do, clears the bits the sweep spares (as its fetch-ands
/// do), and counts the chunks read.
struct ChunkReader {
  std::vector<SweepSlot>& slots;
  int reads = 0;
  std::vector<std::uint32_t> spared;
  auto read() {
    return [this](std::uint32_t first, std::span<SweepSlot> out) {
      EXPECT_LE(out.size(), ClockEviction::kChunk);
      EXPECT_LE(first + out.size(), slots.size());
      ++reads;
      std::copy_n(slots.begin() + first, out.size(), out.begin());
    };
  }
  auto spare() {
    return [this](std::span<const std::uint32_t> entries) {
      EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
      for (const std::uint32_t i : entries) {
        EXPECT_EQ(slots[i].status, PageStatus::kClean) << i;
        EXPECT_TRUE(slots[i].referenced) << i;
        slots[i].referenced = false;
        spared.push_back(i);
      }
    };
  }
};

std::vector<std::uint32_t> pick(ClockEviction& clock,
                                std::vector<SweepSlot>& slots,
                                std::uint32_t want, int* reads = nullptr,
                                std::vector<std::uint32_t>* spared = nullptr) {
  ChunkReader reader{slots, 0, {}};
  std::vector<std::uint32_t> victims;
  clock.pick_victims(static_cast<std::uint32_t>(slots.size()), want,
                     reader.read(), reader.spare(), victims);
  if (reads != nullptr) *reads = reader.reads;
  if (spared != nullptr) *spared = reader.spared;
  return victims;
}

/// What the control plane does to a victim: the entry goes free.
void evict_all(std::vector<SweepSlot>& slots,
               const std::vector<std::uint32_t>& victims) {
  for (const std::uint32_t i : victims) slots[i].status = PageStatus::kFree;
}

TEST(ClockEviction, PicksOnlyCleanPages) {
  ClockEviction clock;
  auto slots =
      unreferenced({PageStatus::kDirty, PageStatus::kClean, PageStatus::kFree,
                    PageStatus::kClean, PageStatus::kInvalid});
  const auto victims = pick(clock, slots, 10);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(ClockEviction, HandRotatesAcrossCalls) {
  ClockEviction clock;
  std::vector<SweepSlot> slots(8, {PageStatus::kClean, false});
  const auto first = pick(clock, slots, 3);
  const auto second = pick(clock, slots, 3);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(second[0], 3u);  // continues where the hand stopped
}

TEST(ClockEviction, RespectsWantLimit) {
  ClockEviction clock;
  std::vector<SweepSlot> slots(100, {PageStatus::kClean, false});
  EXPECT_EQ(pick(clock, slots, 7).size(), 7u);
}

TEST(ClockEviction, EmptyStatusNoVictims) {
  ClockEviction clock;
  std::vector<SweepSlot> slots;
  int reads = -1;
  EXPECT_TRUE(pick(clock, slots, 5, &reads).empty());
  EXPECT_EQ(reads, 0);
}

// A referenced clean page is spared once and loses its bit; when the hand
// comes round again it is a victim, unless the host referenced it again.
TEST(ClockEviction, ReferencedCleanPageGetsOneSecondChance) {
  ClockEviction clock;
  std::vector<SweepSlot> slots{{PageStatus::kClean, true},
                               {PageStatus::kClean, false},
                               {PageStatus::kClean, true},
                               {PageStatus::kClean, false},
                               {PageStatus::kClean, true}};
  std::vector<std::uint32_t> spared;
  auto victims = pick(clock, slots, 2, nullptr, &spared);
  EXPECT_EQ(victims, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(spared, (std::vector<std::uint32_t>{0, 2}));
  evict_all(slots, victims);
  slots[2].referenced = true;  // the host hits page 2 again
  victims = pick(clock, slots, 2, nullptr, &spared);
  // The hand resumes at 4 (spared: its first pass), then wraps to 0.
  EXPECT_EQ(spared, (std::vector<std::uint32_t>{4, 2}));
  EXPECT_EQ(victims, (std::vector<std::uint32_t>{0, 4}));
}

// The hand clears only the bits of the entries it actually passes: a sweep
// that stops mid-chunk leaves the rest of the chunk's referenced pages, and
// every later chunk's, marked.
TEST(ClockEviction, OnlyPassedEntriesLoseTheirBit) {
  ClockEviction clock;
  std::vector<SweepSlot> slots(300, {PageStatus::kClean, true});
  slots[10].referenced = false;
  slots[11].referenced = false;
  std::vector<std::uint32_t> spared;
  EXPECT_EQ(pick(clock, slots, 2, nullptr, &spared),
            (std::vector<std::uint32_t>{10, 11}));
  ASSERT_EQ(spared.size(), 10u);
  for (std::uint32_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(slots[i].referenced, i >= 12) << i;
}

// Every clean page referenced: the first lap spares (and clears) them all,
// the second finds the victims, and no entry is picked twice.
TEST(ClockEviction, AllReferencedSweepStillReturnsVictims) {
  ClockEviction clock;
  std::vector<SweepSlot> slots(300, {PageStatus::kClean, true});
  slots[7].status = PageStatus::kDirty;
  std::vector<std::uint32_t> spared;
  EXPECT_EQ(pick(clock, slots, 3, nullptr, &spared),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(spared.size(), 299u);
  EXPECT_TRUE(slots[7].referenced);  // not clean: passed over, bit kept

  // Nothing spared, nothing to revisit: a cache of dirty pages costs one
  // lap of chunk reads, not two.
  ClockEviction dirty;
  std::vector<SweepSlot> all_dirty(300, {PageStatus::kDirty, true});
  int reads = 0;
  EXPECT_TRUE(pick(dirty, all_dirty, 3, &reads).empty());
  EXPECT_EQ(reads, 3);

  // One unreferenced page ahead of referenced ones: it is the first lap's
  // victim, and the second lap passes it by.
  ClockEviction fresh;
  std::vector<SweepSlot> four{{PageStatus::kClean, false},
                              {PageStatus::kClean, true},
                              {PageStatus::kClean, true},
                              {PageStatus::kClean, true}};
  EXPECT_EQ(pick(fresh, four, 10), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// The chunked sweep reads only as far past the hand as its victims need:
// one chunk when the first one holds them, whatever the meta-area size.
TEST(ClockEviction, ReadsChunksOnlyUntilVictimsFound) {
  for (const std::uint32_t total : {256u, 4096u, 65536u}) {
    ClockEviction clock;
    std::vector<SweepSlot> slots(total, {PageStatus::kClean, false});
    int reads = 0;
    EXPECT_EQ(pick(clock, slots, 32, &reads).size(), 32u);
    EXPECT_EQ(reads, 1) << total;
  }
  // Dirt in front of the hand: the sweep reads on into the chunk that
  // holds the first clean page, and no further.
  ClockEviction clock;
  std::vector<SweepSlot> slots(1024, {PageStatus::kDirty, false});
  slots[300].status = PageStatus::kClean;
  int reads = 0;
  EXPECT_EQ(pick(clock, slots, 1, &reads), std::vector<std::uint32_t>{300});
  EXPECT_EQ(reads, 3);
}

// Same victims, in the same order, and the same bits cleared, as a
// second-chance sweep over a whole-meta snapshot that takes a second lap
// only after sparing a page — including the hand's wrap, referenced pages,
// and a sweep that runs dry.
TEST(ClockEviction, MatchesWholeSnapshotSweep) {
  std::mt19937 rng(7);
  for (const std::uint32_t total : {1u, 127u, 128u, 300u, 1000u}) {
    std::vector<SweepSlot> slots(total);
    ClockEviction clock;
    std::uint32_t hand = 0;  // the reference sweep's cursor
    for (int round = 0; round < 40; ++round) {
      for (auto& slot : slots)
        slot = {static_cast<PageStatus>(rng() % 4), rng() % 2 == 0};
      const std::uint32_t want = rng() % 200;
      std::vector<SweepSlot> expect_slots = slots;
      std::vector<std::uint32_t> expect;
      std::uint32_t left = want;
      bool spared_any = false;
      for (std::uint32_t scanned = 0;
           left > 0 && scanned < (spared_any ? 2 : 1) * total; ++scanned) {
        SweepSlot& slot = expect_slots[hand];
        const bool picked =
            std::find(expect.begin(), expect.end(), hand) != expect.end();
        if (!picked && slot.status == PageStatus::kClean) {
          if (slot.referenced) {
            slot.referenced = false;
            spared_any = true;
          } else {
            expect.push_back(hand);
            --left;
          }
        }
        hand = (hand + 1) % total;
      }
      EXPECT_EQ(pick(clock, slots, want), expect)
          << "total " << total << " round " << round;
      for (std::uint32_t i = 0; i < total; ++i)
        ASSERT_EQ(slots[i].referenced, expect_slots[i].referenced)
            << "total " << total << " round " << round << " entry " << i;
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
