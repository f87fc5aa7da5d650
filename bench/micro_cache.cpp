// Micro-benchmarks of the hybrid cache's real data structures: host-plane
// hit/insert paths (the latencies behind Fig. 8's buffered numbers), the
// PCIe-atomic lock protocol, the DPU flush pass, and the plain page-cache
// baseline for comparison.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "cache/control_plane.hpp"
#include "cache/host_plane.hpp"
#include "cache/page_cache.hpp"

namespace {

using namespace dpc;
using namespace dpc::cache;

struct NullBackend final : CacheBackend {
  bool read_page(std::uint64_t, std::uint64_t, std::span<std::byte> dst,
                 sim::Nanos&) override {
    std::fill(dst.begin(), dst.end(), std::byte{0x11});
    return true;
  }
  bool write_page(std::uint64_t, std::uint64_t, std::span<const std::byte>,
                  sim::Nanos&) override {
    return true;
  }
};

struct Rig {
  Rig()
      : host("host", 256 << 20),
        alloc(host),
        dpu("dpu", 1 << 20),
        dma(host, dpu),
        layout(CacheGeometry{4096, CacheMode::kWrite, 4096, 256}, alloc),
        plane(host, layout),
        ctl(dma, layout, backend, std::make_unique<ClockEviction>()) {}

  pcie::MemoryRegion host;
  pcie::RegionAllocator alloc;
  pcie::MemoryRegion dpu;
  pcie::DmaEngine dma;
  CacheLayout layout;
  HostCachePlane plane;
  NullBackend backend;
  DpuCacheControl ctl;
};

void BM_HostCacheHitRead(benchmark::State& state) {
  Rig rig;
  std::vector<std::byte> page(4096, std::byte{1});
  rig.plane.write(1, 0, page);
  std::vector<std::byte> out(4096);
  for (auto _ : state) benchmark::DoNotOptimize(rig.plane.read(1, 0, out));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_HostCacheHitRead)
    DPC_BENCH_PIN(dpc::bench::kItersFast);

void BM_HostCacheWriteAbsorb(benchmark::State& state) {
  Rig rig;
  std::vector<std::byte> page(4096, std::byte{2});
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    // Cycle over a working set smaller than the cache: pure absorbs.
    benchmark::DoNotOptimize(rig.plane.write(1, lpn++ % 2048, page));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_HostCacheWriteAbsorb)
    DPC_BENCH_PIN(dpc::bench::kItersFast);

void BM_HostCacheMissLookup(benchmark::State& state) {
  Rig rig;
  std::vector<std::byte> out(4096);
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.plane.read(99, lpn++, out));
  }
}
BENCHMARK(BM_HostCacheMissLookup)
    DPC_BENCH_PIN(dpc::bench::kItersFast);

void BM_DpuFlushPassPerPage(benchmark::State& state) {
  Rig rig;
  std::vector<std::byte> page(4096, std::byte{3});
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint64_t lpn = 0; lpn < 256; ++lpn)
      rig.plane.write(1, lpn, page);
    state.ResumeTiming();
    benchmark::DoNotOptimize(rig.ctl.flush_pass());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_DpuFlushPassPerPage)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_DpuPrefetchPerPage(benchmark::State& state) {
  Rig rig;
  std::uint64_t base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.ctl.prefetch(7, base, 64));
    base += 64;
    if (base > 3000) {
      state.PauseTiming();
      for (std::uint64_t lpn = 0; lpn < base; ++lpn)
        rig.plane.invalidate(7, lpn);
      base = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_DpuPrefetchPerPage)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_PcieAtomicLockUnlock(benchmark::State& state) {
  Rig rig;
  sim::Nanos cost{};
  for (auto _ : state) {
    const auto r = rig.dma.atomic_cas_host(rig.layout.bucket_lock_off(0), 0, 1);
    benchmark::DoNotOptimize(r.success);
    rig.dma.atomic_swap_host(rig.layout.bucket_lock_off(0), 0);
  }
  (void)cost;
}
BENCHMARK(BM_PcieAtomicLockUnlock)
    DPC_BENCH_PIN(dpc::bench::kItersFast);

void BM_PageCacheHit(benchmark::State& state) {
  PageCache pc(4096, 4096);
  std::vector<std::byte> page(4096, std::byte{4});
  auto noop = [](std::uint64_t, std::uint64_t, std::span<const std::byte>) {};
  pc.write(1, 0, page, noop);
  std::vector<std::byte> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc.read(1, 0, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_PageCacheHit)
    DPC_BENCH_PIN(dpc::bench::kItersFast);

}  // namespace
