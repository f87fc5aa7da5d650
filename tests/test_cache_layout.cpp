#include "cache/layout.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/check.hpp"

namespace dpc::cache {
namespace {

TEST(CacheLayout, HeaderInitialized) {
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  CacheGeometry geo{256, 16};
  CacheLayout layout(geo, alloc);

  EXPECT_EQ(host.load<std::uint32_t>(
                layout.header_field(HeaderOffsets::kPageSize)),
            4096u);
  EXPECT_EQ(
      host.load<std::uint32_t>(layout.header_field(HeaderOffsets::kMode)),
      1u);  // write cache
  EXPECT_EQ(
      host.load<std::uint32_t>(layout.header_field(HeaderOffsets::kTotal)),
      256u);
  EXPECT_EQ(
      host.load<std::uint32_t>(layout.header_field(HeaderOffsets::kFree)),
      256u);
  EXPECT_EQ(layout.entries_per_bucket(), 16u);
}

TEST(CacheLayout, BucketListsLinkTheirEntries) {
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  CacheGeometry geo{64, 8};
  CacheLayout layout(geo, alloc);

  for (std::uint32_t b = 0; b < geo.buckets; ++b) {
    std::uint32_t idx = layout.bucket_head_entry(b);
    std::set<std::uint32_t> seen;
    while (idx != kEndOfList) {
      EXPECT_TRUE(seen.insert(idx).second) << "cycle in bucket " << b;
      const auto e = host.load<CacheEntry>(layout.entry_off(idx));
      EXPECT_EQ(static_cast<PageStatus>(e.status), PageStatus::kFree);
      idx = e.next;
    }
    EXPECT_EQ(seen.size(), layout.entries_per_bucket());
  }
}

TEST(CacheLayout, EntryAndPageCorrespond) {
  // §3.3: "finding the position of the cache entry is equivalent to
  // locating the cache page" — entry i ↔ page i, both computable.
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  CacheGeometry geo{128, 8};
  CacheLayout layout(geo, alloc);
  for (std::uint32_t i : {0u, 1u, 64u, 127u}) {
    EXPECT_EQ(layout.entry_off(i) - layout.entry_off(0),
              std::uint64_t{i} * sizeof(CacheEntry));
    EXPECT_EQ(layout.page_off(i) - layout.page_off(0),
              std::uint64_t{i} * kPageSize);
    EXPECT_EQ(layout.page_off(i) % kPageSize, 0u);
  }
  EXPECT_THROW(layout.entry_off(128), dpc::CheckFailure);
}

TEST(CacheLayout, HashCoversAllBuckets) {
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  CacheGeometry geo{256, 32};
  CacheLayout layout(geo, alloc);
  std::set<std::uint32_t> buckets;
  for (std::uint64_t ino = 1; ino <= 8; ++ino)
    for (std::uint64_t lpn = 0; lpn < 64; ++lpn)
      buckets.insert(layout.bucket_of(ino, lpn));
  EXPECT_EQ(buckets.size(), 32u);  // all buckets reachable
  // Deterministic.
  EXPECT_EQ(layout.bucket_of(7, 9), layout.bucket_of(7, 9));
}

TEST(CacheLayout, GeometryValidation) {
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  // Buckets must divide pages evenly (§3.3: equal-sized buckets).
  CacheGeometry bad{100, 32};
  EXPECT_THROW(CacheLayout(bad, alloc), dpc::CheckFailure);
  CacheGeometry no_buckets{64, 0};
  EXPECT_THROW(CacheLayout(no_buckets, alloc), dpc::CheckFailure);
}

TEST(CacheLayout, ReadLockWordEncoding) {
  EXPECT_EQ(read_lock_word(1) & 3u,
            static_cast<std::uint32_t>(LockState::kRead));
  EXPECT_TRUE(is_read_locked(read_lock_word(5)));
  EXPECT_EQ(read_lock_holders(read_lock_word(5)), 5u);
  EXPECT_FALSE(is_read_locked(0));
  EXPECT_FALSE(is_read_locked(static_cast<std::uint32_t>(LockState::kWrite)));
}

TEST(CacheLayout, FootprintAccounts) {
  pcie::MemoryRegion host("host", 64 << 20);
  pcie::RegionAllocator alloc(host);
  CacheGeometry geo{1024, 64};
  CacheLayout layout(geo, alloc);
  // At least pages + meta.
  EXPECT_GE(layout.footprint(),
            1024ull * 4096 + 1024ull * sizeof(CacheEntry));
}

// One sizing formula: the layout occupies exactly footprint_for(geo), and
// the dirty and accessed bitmaps (one bit per entry each) sit, in that
// order, between the meta and data areas.
TEST(CacheLayout, FootprintMatchesFormula) {
  for (const CacheGeometry geo : {CacheGeometry{1, 1}, CacheGeometry{64, 8},
                                  CacheGeometry{1000, 10}}) {
    pcie::MemoryRegion host("host", 8 << 20);
    pcie::RegionAllocator alloc(host);
    alloc.alloc(100);  // an unaligned cursor: the block aligns itself
    CacheLayout layout(geo, alloc);
    EXPECT_EQ(layout.footprint(), CacheLayout::footprint_for(geo));
    EXPECT_EQ(alloc.used(), layout.header_off() + layout.footprint());
    EXPECT_EQ(layout.page_off(geo.total_pages - 1) + kPageSize,
              alloc.used());
    const std::uint32_t words = layout.bitmap_words();
    EXPECT_EQ(words, (geo.total_pages + 31) / 32);
    EXPECT_GE(layout.dirty_word_off(0),
              layout.entry_off(geo.total_pages - 1) + sizeof(CacheEntry));
    EXPECT_LE(layout.dirty_word_off(words - 1) + 4,
              layout.accessed_word_off(0));
    EXPECT_LE(layout.accessed_word_off(words - 1) + 4, layout.page_off(0));
    for (std::uint32_t w = 0; w < words; ++w) {
      EXPECT_EQ(host.load<std::uint32_t>(layout.dirty_word_off(w)), 0u);
      EXPECT_EQ(host.load<std::uint32_t>(layout.accessed_word_off(w)), 0u);
    }
  }
}

}  // namespace
}  // namespace dpc::cache
