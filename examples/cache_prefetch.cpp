// The hybrid cache at work (§3.3): buffered writes absorbed in host memory
// and flushed by the DPU control plane, then a sequential scan accelerated
// by the DPU's readahead — watch the hit rate climb as the prefetcher
// learns the stream.
//
//   $ ./cache_prefetch
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/dpc_system.hpp"

int main() {
  using namespace dpc;

  core::DpcOptions opts;
  opts.cache_geo = {2048, 128};  // 8 MB
  core::DpcSystem dpc(opts);
  dpc.start_dpu();

  const auto f = dpc.create(kvfs::kRootIno, "dataset.bin");
  std::vector<std::byte> block(8192);
  for (std::size_t i = 0; i < block.size(); ++i)
    block[i] = static_cast<std::byte>(i & 0xFF);

  // Phase 1 — buffered writes: absorbed by the host-resident data plane,
  // drained asynchronously by the DPU flusher.
  constexpr int kBlocks = 2048;  // 16 MB, 2x the cache
  for (int i = 0; i < kBlocks; ++i)
    dpc.write(f.ino, static_cast<std::uint64_t>(i) * block.size(), block,
              /*direct=*/false);
  dpc.fsync(f.ino);
  const auto* cs = dpc.cache_stats();
  const auto* ctl = dpc.control_stats();
  std::cout << "phase 1 (buffered writes): " << cs->writes_cached.load()
            << " pages absorbed in host memory, " << ctl->pages_flushed
            << " flushed to the KV store by the DPU ("
            << ctl->dif_checksums << " DIF checksums), "
            << cs->write_stalls.load() << " stalls\n";

  // Phase 2 — cold sequential scan: the DPU prefetcher detects the stream
  // and pulls pages into host memory ahead of the reader.
  std::vector<std::byte> out(block.size());
  const auto h0 = cs->read_hits.load();
  const auto m0 = cs->read_misses.load();
  int window_hits = 0;
  std::cout << "\nphase 2 (sequential scan) hit rate per 256-op window:\n";
  for (int i = 0; i < kBlocks; ++i) {
    const auto io = dpc.read(
        f.ino, static_cast<std::uint64_t>(i) * block.size(), out, false);
    window_hits += io.cache_hit ? 1 : 0;
    if ((i + 1) % 256 == 0) {
      std::cout << "  ops " << std::setw(4) << i - 254 << "–" << std::setw(4)
                << i + 1 << ": " << std::fixed << std::setprecision(1)
                << 100.0 * window_hits / 256 << "% hits\n";
      window_hits = 0;
    }
  }
  const auto hits = cs->read_hits.load() - h0;
  const auto misses = cs->read_misses.load() - m0;
  std::cout << "scan total: " << hits << " hits / " << misses
            << " misses (" << std::setprecision(1)
            << 100.0 * static_cast<double>(hits) /
                   static_cast<double>(hits + misses)
            << "%), " << ctl->pages_prefetched
            << " pages prefetched by the DPU\n";

  // Phase 3 — the same scan again: now everything the cache kept is free.
  const auto atomics =
      dpc.dma_counters().ops(pcie::DmaClass::kAtomic);
  std::cout << "\nPCIe atomics spent on lock words so far: " << atomics
            << " (the §3.3 concurrency-control protocol)\n";

  dpc.stop_dpu();
  return 0;
}
