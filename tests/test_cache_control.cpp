#include "cache/control_plane.hpp"
#include "cache/host_plane.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

namespace dpc::cache {
namespace {

/// In-memory backend that records flushed pages.
class MapBackend final : public CacheBackend {
 public:
  bool read_page(std::uint64_t inode, std::uint64_t lpn,
                 std::span<std::byte> dst, sim::Nanos&) override {
    std::lock_guard lock(mu_);
    const auto it = pages_.find({inode, lpn});
    if (it == pages_.end()) return false;
    std::copy(it->second.begin(), it->second.end(), dst.begin());
    return true;
  }
  bool write_page(std::uint64_t inode, std::uint64_t lpn,
                  std::span<const std::byte> src, sim::Nanos&) override {
    std::lock_guard lock(mu_);
    pages_[{inode, lpn}].assign(src.begin(), src.end());
    return true;
  }

  std::size_t count() const {
    std::lock_guard lock(mu_);
    return pages_.size();
  }
  std::optional<std::byte> first_byte(std::uint64_t inode,
                                      std::uint64_t lpn) const {
    std::lock_guard lock(mu_);
    const auto it = pages_.find({inode, lpn});
    if (it == pages_.end()) return std::nullopt;
    return it->second[0];
  }
  void preload(std::uint64_t inode, std::uint64_t lpn, std::byte fill) {
    std::lock_guard lock(mu_);
    pages_[{inode, lpn}].assign(4096, fill);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::byte>>
      pages_;
};

struct ControlFixture : ::testing::Test {
  ControlFixture()
      : host("host", 64 << 20),
        alloc(host),
        dpu("dpu", 1 << 20),
        dma(host, dpu),
        layout(CacheGeometry{64, 8}, alloc),
        plane(host, layout),
        ctl(dma, layout, backend, ControlPlaneConfig{4, 8}) {}

  std::vector<std::byte> page(std::uint8_t fill) {
    return std::vector<std::byte>(4096, static_cast<std::byte>(fill));
  }

  pcie::MemoryRegion host;
  pcie::RegionAllocator alloc;
  pcie::MemoryRegion dpu;
  pcie::DmaEngine dma;
  CacheLayout layout;
  HostCachePlane plane;
  MapBackend backend;
  DpuCacheControl ctl;
};

TEST_F(ControlFixture, FlushWritesDirtyPagesToBackend) {
  ASSERT_EQ(plane.write(1, 0, page(0xAA)), HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(1, 1, page(0xBB)), HostCachePlane::WriteResult::kOk);
  const auto res = ctl.flush_pass();
  EXPECT_EQ(res.pages, 2);
  EXPECT_GT(res.cost.ns, 0);
  EXPECT_EQ(backend.count(), 2u);
  EXPECT_EQ(backend.first_byte(1, 0), std::byte{0xAA});
  EXPECT_EQ(backend.first_byte(1, 1), std::byte{0xBB});
  EXPECT_EQ(ctl.stats().dif_checksums, 2u);  // DIF ran per page

  // Pages are now clean: host hits still work, second flush is a no-op.
  std::vector<std::byte> out(4096);
  EXPECT_TRUE(plane.read(1, 0, out));
  EXPECT_EQ(ctl.flush_pass().pages, 0);
}

// DIF has no off switch: a page damaged in DPU DRAM after the pull never
// reaches the backend, stays dirty, and the next pass flushes the intact
// host copy.
TEST_F(ControlFixture, FlushDifBlocksCorruptedPull) {
  fault::FaultInjector fi;
  DpuCacheControl guarded(dma, layout, backend, ControlPlaneConfig{4, 8},
                          nullptr, &fi);
  ASSERT_EQ(plane.write(1, 0, page(0xCC)), HostCachePlane::WriteResult::kOk);
  fi.arm(kFaultFlushCorruptPage, 1.0);
  EXPECT_EQ(guarded.flush_pass().pages, 0);
  EXPECT_EQ(guarded.stats().dif_checksums, 1u);
  EXPECT_EQ(guarded.stats().flush_integrity_fails, 1u);
  EXPECT_EQ(backend.count(), 0u);

  fi.disarm(kFaultFlushCorruptPage);
  EXPECT_EQ(guarded.flush_pass().pages, 1);
  EXPECT_EQ(guarded.stats().flush_integrity_fails, 1u);
  std::vector<std::byte> out(4096);
  sim::Nanos cost{};
  ASSERT_TRUE(backend.read_page(1, 0, out, cost));
  EXPECT_EQ(out, page(0xCC));
}

TEST_F(ControlFixture, FlushUsesPcieAtomicsForLocks) {
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  const auto atomics_before = dma.counters().ops(pcie::DmaClass::kAtomic);
  ctl.flush_pass();
  // Read-lock acquire + status update + unlock ≥ 3 atomics.
  EXPECT_GE(dma.counters().ops(pcie::DmaClass::kAtomic), atomics_before + 3);
}

TEST_F(ControlFixture, EvictReclaimsCleanOnly) {
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(1, 1, page(2)), HostCachePlane::WriteResult::kOk);
  // Evicting before flush reclaims nothing (both dirty).
  EXPECT_EQ(ctl.evict(64).pages, 0);
  ctl.flush_pass();
  const auto res = ctl.evict(64);
  EXPECT_EQ(res.pages, 2);
  EXPECT_EQ(plane.free_pages(), 64u);
}

TEST_F(ControlFixture, PollServicesNeedEvictFlag) {
  // Fill one bucket to trigger the flag.
  const auto target = layout.bucket_of(1, 0);
  std::vector<std::uint64_t> lpns;
  for (std::uint64_t lpn = 0; lpns.size() < 9; ++lpn)
    if (layout.bucket_of(1, lpn) == target) lpns.push_back(lpn);
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_EQ(plane.write(1, lpns[i], page(1)),
              HostCachePlane::WriteResult::kOk);
  ASSERT_EQ(plane.write(1, lpns[8], page(1)),
            HostCachePlane::WriteResult::kNoFreeEntry);

  EXPECT_GT(ctl.poll(), 0);  // flushes + evicts
  // Flag acknowledged and retry succeeds.
  EXPECT_EQ(host.atomic_u32(layout.header_field(HeaderOffsets::kNeedEvict))
                .load(),
            0u);
  EXPECT_EQ(plane.write(1, lpns[8], page(1)),
            HostCachePlane::WriteResult::kOk);
}

TEST_F(ControlFixture, PrefetchPopulatesCleanPages) {
  backend.preload(9, 0, std::byte{0x10});
  backend.preload(9, 1, std::byte{0x11});
  backend.preload(9, 2, std::byte{0x12});
  const auto res = ctl.prefetch(9, 0, 3);
  EXPECT_EQ(res.pages, 3);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(9, 1, out));
  EXPECT_EQ(out[0], std::byte{0x11});
  EXPECT_EQ(plane.free_pages(), 61u);
  // Prefetched pages are clean: nothing to flush.
  EXPECT_EQ(ctl.flush_pass().pages, 0);
}

TEST_F(ControlFixture, PrefetchSkipsPresentAndMissing) {
  backend.preload(9, 0, std::byte{1});
  ASSERT_EQ(plane.write(9, 0, page(0xFF)), HostCachePlane::WriteResult::kOk);
  // Page 0 cached (dirty), page 1 absent in backend.
  const auto res = ctl.prefetch(9, 0, 2);
  EXPECT_EQ(res.pages, 0);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(plane.read(9, 0, out));
  EXPECT_EQ(out[0], std::byte{0xFF});  // dirty copy untouched
}

TEST_F(ControlFixture, OnReadMissLearnsSequentialStream) {
  for (std::uint64_t lpn = 0; lpn < 32; ++lpn)
    backend.preload(5, lpn, static_cast<std::byte>(lpn));
  // First miss: no prefetch yet. Second sequential miss: window opens.
  EXPECT_EQ(ctl.on_read_miss(5, 0).pages, 0);
  const auto res = ctl.on_read_miss(5, 1);
  EXPECT_GT(res.pages, 0);
  EXPECT_GT(ctl.stats().pages_prefetched, 0u);
  std::vector<std::byte> out(4096);
  EXPECT_TRUE(plane.read(5, 2, out));  // prefetched ahead of the reader
}

TEST_F(ControlFixture, RandomMissesNeverPrefetch) {
  for (std::uint64_t lpn = 0; lpn < 64; ++lpn)
    backend.preload(5, lpn, std::byte{1});
  EXPECT_EQ(ctl.on_read_miss(5, 10).pages, 0);
  EXPECT_EQ(ctl.on_read_miss(5, 3).pages, 0);
  EXPECT_EQ(ctl.on_read_miss(5, 40).pages, 0);
  EXPECT_EQ(ctl.stats().pages_prefetched, 0u);
}

TEST_F(ControlFixture, ConcurrentHostWritesDuringFlusher) {
  // The §3.3 consistency scenario: host writers mutate pages while the DPU
  // flushes. Locks must keep every flushed page internally consistent.
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ctl.flush_pass();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([this, t] {
      for (int i = 0; i < 500; ++i) {
        const auto fill =
            static_cast<std::uint8_t>((t * 500 + i) % 251 + 1);
        while (plane.write(static_cast<std::uint64_t>(t), 0, page(fill)) !=
               HostCachePlane::WriteResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  flusher.join();
  ctl.flush_pass();  // final flush

  // Backend holds each inode's page with a uniform fill (no torn pages) —
  // and it must be the *last* value written.
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto fb = backend.first_byte(t, 0);
    ASSERT_TRUE(fb.has_value());
    const auto expect =
        static_cast<std::byte>((static_cast<int>(t) * 500 + 499) % 251 + 1);
    EXPECT_EQ(*fb, expect) << "inode " << t;
  }
}

TEST_F(ControlFixture, HostReadersNeverBlockFlushIndefinitely) {
  ASSERT_EQ(plane.write(2, 2, page(0x77)), HostCachePlane::WriteResult::kOk);
  // A host reader holds a read lock; the flusher's read lock can share it.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<std::byte> out(4096);
    while (!stop.load()) plane.read(2, 2, out);
  });
  int flushed = 0;
  for (int i = 0; i < 100 && flushed == 0; ++i)
    flushed = ctl.flush_pass().pages;
  stop.store(true);
  reader.join();
  EXPECT_EQ(flushed, 1);
}

// The host publishes each clean→dirty transition as one bitmap bit; a pass
// drains the bits it read into the DPU's dirty index and clears them.
TEST_F(ControlFixture, DrainMovesDirtyBitsIntoIndex) {
  const auto bit_set = [&](std::uint64_t ino, std::uint64_t lpn) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      const auto e = host.load<CacheEntry>(layout.entry_off(i));
      if (e.status != static_cast<std::uint32_t>(PageStatus::kFree) &&
          e.inode == ino && e.lpn == lpn)
        return (host.load<std::uint32_t>(layout.dirty_word_off(i / 32)) >>
                (i % 32)) & 1u;
    }
    ADD_FAILURE() << "page not cached";
    return 0u;
  };
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(bit_set(1, 0), 1u);
  EXPECT_EQ(ctl.flush_pass(0).pages, 0);  // drains, flushes nothing
  EXPECT_EQ(bit_set(1, 0), 0u);
  // Rewriting a dirty page is no transition: no bit, still indexed.
  ASSERT_EQ(plane.write(1, 0, page(2)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(bit_set(1, 0), 0u);
  sim::Nanos cost{};
  EXPECT_EQ(ctl.dirty_pages(1, cost), 1);
  EXPECT_EQ(ctl.flush_pass().pages, 1);
  EXPECT_EQ(backend.first_byte(1, 0), std::byte{2});
  EXPECT_EQ(ctl.dirty_pages(1, cost), 0);
  // Clean again, so the next write is a transition and sets the bit.
  ASSERT_EQ(plane.write(1, 0, page(3)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(bit_set(1, 0), 1u);
}

// An indexed entry that the host frees and another file reuses moves to
// that file in the index: neither inode's flush or count sees the other's
// page.
TEST_F(ControlFixture, DirtyIndexFollowsEntryReuse) {
  const std::uint32_t bucket = layout.bucket_of(1, 0);
  std::uint64_t lpn2 = 0;
  while (layout.bucket_of(2, lpn2) != bucket) ++lpn2;
  ASSERT_EQ(plane.write(1, 0, page(1)), HostCachePlane::WriteResult::kOk);
  sim::Nanos cost{};
  ASSERT_EQ(ctl.dirty_pages(1, cost), 1);  // drained: indexed under inode 1
  ASSERT_TRUE(plane.invalidate(1, 0));
  // The bucket's first free entry is the one inode 1 just gave up.
  ASSERT_EQ(plane.write(2, lpn2, page(2)), HostCachePlane::WriteResult::kOk);
  EXPECT_EQ(ctl.dirty_pages(1, cost), 0);
  EXPECT_EQ(ctl.flush_inode(1).pages, 0);
  EXPECT_EQ(ctl.dirty_pages(2, cost), 1);
  EXPECT_EQ(ctl.flush_inode(2).pages, 1);
  EXPECT_EQ(backend.first_byte(2, lpn2), std::byte{2});
  EXPECT_FALSE(backend.first_byte(1, 0).has_value());
}

// A hot set smaller than the cache, read over and over while a cold stream
// passes through once, stays resident: its hits mark it referenced, so the
// sweep evicts the cold pages, which were read once, instead of the hot ones
// in slot order. Each access is served the way the fs-adapter serves a
// buffered read: a host hit, or a miss filled clean.
TEST(ControlPlaneReplacement, HotSetSurvivesColdStream) {
  const CacheGeometry geo{256, 16};
  pcie::MemoryRegion host("host", CacheLayout::footprint_for(geo) + kPageSize);
  pcie::RegionAllocator alloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::DmaEngine dma(host, dpu);
  CacheLayout layout(geo, alloc);
  HostCachePlane plane(host, layout);
  MapBackend backend;
  DpuCacheControl ctl(dma, layout, backend, ControlPlaneConfig{16, 32});
  const std::vector<std::byte> data(4096, std::byte{7});
  std::vector<std::byte> out(4096);
  const auto access = [&](std::uint64_t ino, std::uint64_t lpn) {
    if (plane.read(ino, lpn, out)) return true;
    plane.fill_clean(ino, lpn, data);
    return false;
  };
  constexpr std::uint64_t kHot = 64;
  constexpr std::uint64_t kCold = 4096;  // 16 times the cache
  for (std::uint64_t lpn = 0; lpn < kHot; ++lpn) access(1, lpn);
  std::mt19937 rng(3);
  int hot_reads = 0;
  int hot_hits = 0;
  for (std::uint64_t cold = 0; cold < kCold; cold += 2) {
    access(2, cold);
    access(2, cold + 1);
    for (int k = 0; k < 2; ++k) {
      ++hot_reads;
      hot_hits += access(1, rng() % kHot) ? 1 : 0;
    }
    ctl.poll();
  }
  EXPECT_GE(hot_hits, hot_reads * 95 / 100)
      << hot_hits << " of " << hot_reads << " hot reads hit";
  EXPECT_GT(ctl.stats().pages_evicted, 0u);
  EXPECT_GT(ctl.stats().second_chances, 0u);
}

// Pages the prefetcher read ahead are published referenced: the sweep
// evicts the clean pages the host filled around them, and they are still
// cached for the reader that comes after it.
TEST_F(ControlFixture, PrefetchedUnreadPagesSurviveOneSweep) {
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
    backend.preload(9, lpn, std::byte{0x42});
  ASSERT_EQ(ctl.prefetch(9, 0, 8).pages, 8);
  // Fill the rest of the cache with pages read once.
  for (std::uint64_t lpn = 0; plane.free_pages() > 0; ++lpn)
    plane.fill_clean(3, lpn, page(3));
  EXPECT_EQ(ctl.evict(8).pages, 8);
  std::vector<std::byte> out(4096);
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(plane.read(9, lpn, out)) << lpn;
    EXPECT_EQ(out[0], std::byte{0x42});
  }
}

// Eviction reads the meta area a chunk at a time from the clock hand: on a
// cache full of clean pages, one batch of victims costs one chunk DMA, one
// DMA of the accessed-bitmap words covering the chunk (kChunk / 8 bytes) and
// a probe per victim, whatever the cache size.
TEST(ControlPlaneScaling, EvictReadsOneChunkAtEverySize) {
  constexpr std::uint32_t kBatch = 32;
  std::optional<sim::Nanos> first_cost;
  for (const std::uint32_t pages : {256u, 4096u, 65536u}) {
    const CacheGeometry geo{pages, pages / 16};
    pcie::MemoryRegion host("host",
                            CacheLayout::footprint_for(geo) + kPageSize);
    pcie::RegionAllocator alloc(host);
    pcie::MemoryRegion dpu("dpu", 1 << 20);
    pcie::DmaEngine dma(host, dpu);
    CacheLayout layout(geo, alloc);
    MapBackend backend;
    DpuCacheControl ctl(dma, layout, backend, ControlPlaneConfig{16, kBatch});
    // Every entry clean, none free.
    for (std::uint32_t i = 0; i < pages; ++i) {
      auto e = host.load<CacheEntry>(layout.entry_off(i));
      e.status = static_cast<std::uint32_t>(PageStatus::kClean);
      e.inode = 1;
      e.lpn = i;
      host.store(layout.entry_off(i), e);
    }
    host.store<std::uint32_t>(layout.header_field(HeaderOffsets::kFree), 0);

    const auto desc_ops = dma.counters().ops(pcie::DmaClass::kDescriptor);
    const auto desc_bytes = dma.counters().bytes(pcie::DmaClass::kDescriptor);
    const auto res = ctl.evict(kBatch);
    EXPECT_EQ(res.pages, static_cast<int>(kBatch)) << pages;
    EXPECT_EQ(dma.counters().ops(pcie::DmaClass::kDescriptor) - desc_ops,
              2u + kBatch)
        << pages;
    EXPECT_EQ(dma.counters().bytes(pcie::DmaClass::kDescriptor) - desc_bytes,
              (ClockEviction::kChunk + kBatch) * sizeof(CacheEntry) +
                  ClockEviction::kChunk / 8)
        << pages;
    if (!first_cost) first_cost = res.cost;
    EXPECT_EQ(res.cost.ns, first_cost->ns) << pages;
  }
}

}  // namespace
}  // namespace dpc::cache
