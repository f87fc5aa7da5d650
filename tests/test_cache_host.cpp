#include "cache/host_plane.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "sim/rng.hpp"

namespace dpc::cache {
namespace {

struct HostPlaneFixture : ::testing::Test {
  HostPlaneFixture()
      : host("host", 64 << 20),
        alloc(host),
        layout(CacheGeometry{64, 8}, alloc),
        plane(host, layout) {}

  std::vector<std::byte> page(std::uint8_t fill) {
    return std::vector<std::byte>(4096, static_cast<std::byte>(fill));
  }

  pcie::MemoryRegion host;
  pcie::RegionAllocator alloc;
  CacheLayout layout;
  HostCachePlane plane;
};

TEST_F(HostPlaneFixture, MissThenWriteThenHit) {
  std::vector<std::byte> out(4096);
  EXPECT_FALSE(plane.read(1, 0, out));
  EXPECT_EQ(plane.stats().read_misses.load(), 1u);

  ASSERT_EQ(plane.write(1, 0, page(0xAB)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(plane.free_pages(), 63u);

  ASSERT_TRUE(plane.read(1, 0, out));
  EXPECT_EQ(out[0], std::byte{0xAB});
  EXPECT_EQ(plane.stats().read_hits.load(), 1u);
}

TEST_F(HostPlaneFixture, OverwriteSamePageReusesEntry) {
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(1, 0, page(2)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(plane.free_pages(), 63u);  // still one entry used
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(1, 0, out));
  EXPECT_EQ(out[0], std::byte{2});
}

TEST_F(HostPlaneFixture, DistinctKeysDistinctPages) {
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(1, 1, page(2)), HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(2, 0, page(3)), HostCachePlane::WriteResult::kOk);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(1, 0, out));
  EXPECT_EQ(out[0], std::byte{1});
  ASSERT_TRUE(plane.read(2, 0, out));
  EXPECT_EQ(out[0], std::byte{3});
}

TEST_F(HostPlaneFixture, WriteMarksDirtyStatus) {
  ASSERT_EQ(plane.write(9, 7, page(5)), HostCachePlane::WriteResult::kOk);
  const auto bucket = layout.bucket_of(9, 7);
  bool found = false;
  for (std::uint32_t i = layout.bucket_head_entry(bucket);
       i < layout.bucket_head_entry(bucket) + layout.entries_per_bucket();
       ++i) {
    const auto e = host.load<CacheEntry>(layout.entry_off(i));
    if (e.inode == 9 && e.lpn == 7 &&
        static_cast<PageStatus>(e.status) == PageStatus::kDirty) {
      found = true;
      EXPECT_EQ(e.lock, 0u);  // released after the write
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HostPlaneFixture, BucketFullRaisesNeedEvict) {
  // Fill one bucket completely (8 entries per bucket): pick lpns that hash
  // to the same bucket.
  const auto target = layout.bucket_of(1, 0);
  std::vector<std::uint64_t> same_bucket;
  for (std::uint64_t lpn = 0; same_bucket.size() < 9; ++lpn) {
    if (layout.bucket_of(1, lpn) == target) same_bucket.push_back(lpn);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(plane.write(1, same_bucket[i], page(1)),
              HostCachePlane::WriteResult::kOk)
        << i;
  }
  EXPECT_EQ(plane.write(1, same_bucket[8], page(1)),
            HostCachePlane::WriteResult::kNoFreeEntry);
  EXPECT_EQ(plane.stats().write_stalls.load(), 1u);
  EXPECT_EQ(host.atomic_u32(layout.header_field(HeaderOffsets::kNeedEvict))
                .load(),
            1u);
}

TEST_F(HostPlaneFixture, FillCleanDoesNotClobberDirty) {
  ASSERT_EQ(plane.write(3, 3, page(7)), HostCachePlane::WriteResult::kOk);
  plane.fill_clean(3, 3, page(8));  // must keep the dirty copy
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(3, 3, out));
  EXPECT_EQ(out[0], std::byte{7});
}

TEST_F(HostPlaneFixture, FillCleanInsertsCleanCopy) {
  plane.fill_clean(4, 4, page(9));
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(4, 4, out));
  EXPECT_EQ(out[0], std::byte{9});
  EXPECT_EQ(plane.free_pages(), 63u);
}

TEST_F(HostPlaneFixture, InvalidateFreesEntry) {
  ASSERT_EQ(plane.write(5, 5, page(1)), HostCachePlane::WriteResult::kOk);
  EXPECT_TRUE(plane.invalidate(5, 5));
  EXPECT_FALSE(plane.invalidate(5, 5));
  EXPECT_EQ(plane.free_pages(), 64u);
  std::vector<std::byte> out(4096);
  EXPECT_FALSE(plane.read(5, 5, out));
}

TEST_F(HostPlaneFixture, InvalidateAboveDropsTail) {
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
    ASSERT_EQ(plane.write(6, lpn, page(1)), HostCachePlane::WriteResult::kOk);
  const auto freed = plane.invalidate_above(6, 3);
  EXPECT_EQ(freed, 5u);
  std::vector<std::byte> out(4096);
  EXPECT_TRUE(plane.read(6, 2, out));
  EXPECT_FALSE(plane.read(6, 3, out));
}

TEST_F(HostPlaneFixture, PartialPageWriteZeroPads) {
  std::vector<std::byte> half(2048, std::byte{0xCC});
  ASSERT_EQ(plane.write(7, 0, half), HostCachePlane::WriteResult::kOk);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(7, 0, out));
  EXPECT_EQ(out[2047], std::byte{0xCC});
  EXPECT_EQ(out[2048], std::byte{0});
}

TEST_F(HostPlaneFixture, ConcurrentWritersAndReaders) {
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([this, t, &mismatches] {
      sim::Rng rng(static_cast<std::uint64_t>(t));
      std::vector<std::byte> out(4096);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t ino = 1 + rng.next_below(4);
        const std::uint64_t lpn = rng.next_below(8);
        if (rng.next_bool(0.5)) {
          // Value encodes identity so torn pages are detectable.
          const auto fill = static_cast<std::uint8_t>(ino * 16 + lpn);
          (void)plane.write(ino, lpn,
                            std::vector<std::byte>(4096,
                                                   static_cast<std::byte>(fill)));
        } else if (plane.read(ino, lpn, out)) {
          const auto expect = static_cast<std::byte>(ino * 16 + lpn);
          for (std::size_t k = 0; k < out.size(); ++k) {
            if (out[k] != expect) {
              ++mismatches;
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  // Page-level locking must make every observed page internally consistent.
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dpc::cache
