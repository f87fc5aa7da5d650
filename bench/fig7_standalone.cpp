// Reproduces Fig. 7: standalone file service — local Ext4 vs KVFS — 8 KB
// random read/write with DIRECT_IO on big files: (a) latency, (b) IOPS,
// (c) host CPU usage, swept over 1…256 client threads.
//
// Phase 1 (functional): runs the real workload against the real Ext4like
// (over the SSD model) and the real DPC stack (nvme-fs → IO_Dispatch →
// KVFS → KV store) to verify byte-correct behaviour and to *measure* the
// per-op device/transport profile (SSD block ops per op, DMA transactions
// per op).
// Phase 2 (timing): those measured profiles plus the Table-1 calibration
// become MVA station demands; the closed network is solved per thread
// count. Paper anchors: Ext4 read/write 779/1009 µs at 256 threads; KVFS
// 363/410 µs; KVFS IOPS scales to ~128 threads (DPU 100 %); Ext4 stops
// scaling past 32 (SSD-bound); Ext4 CPU > 90 % at 256 threads, KVFS < 20 %.
#include <iostream>

#include "bench_common.hpp"
#include "core/dpc_system.hpp"
#include "hostfs/ext4like.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace {

using namespace dpc;
using namespace dpc::sim;

constexpr std::uint32_t kIoSize = 8 * 1024;
constexpr std::uint64_t kFileSize = 256ULL << 20;  // functional-phase file

struct MeasuredProfiles {
  double ext4_dev_ops_read = 0;   // SSD block ops per 8K read
  double ext4_dev_ops_write = 0;
  double dpc_dma_ops = 0;         // link transactions per 8K op
  double dpc_wire_bytes = 0;
};

MeasuredProfiles run_functional() {
  MeasuredProfiles m;
  Rng rng(1);
  std::vector<std::byte> buf(kIoSize);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));

  // --- Ext4 over the SSD model ---
  ssd::SsdModel disk;
  hostfs::Ext4likeOptions eopts;
  eopts.total_blocks = 1 << 18;  // 1 GB device for the functional phase
  hostfs::Ext4like ext4(disk, eopts);
  const auto ino = ext4.create(hostfs::kRootIno, "big", 0644).value;
  WorkloadGen wgen({Pattern::kRandWrite, kIoSize, kFileSize / 4}, 0);
  std::uint32_t dev_writes = 0, dev_reads = 0;
  constexpr int kOps = 200;
  for (int i = 0; i < kOps; ++i) {
    const auto op = wgen.next();
    dev_writes += ext4.write(ino, op.offset, buf, true).cost.dev_writes;
  }
  WorkloadGen rgen({Pattern::kRandRead, kIoSize, kFileSize / 4}, 0);
  for (int i = 0; i < kOps; ++i) {
    const auto op = rgen.next();
    std::vector<std::byte> out(kIoSize);
    dev_reads += ext4.read(ino, op.offset, out, true).cost.dev_reads;
  }
  m.ext4_dev_ops_write = static_cast<double>(dev_writes) / kOps;
  m.ext4_dev_ops_read = static_cast<double>(dev_reads) / kOps;

  // --- KVFS through the full DPC stack ---
  core::DpcOptions dopts;
  dopts.queues = 2;
  dopts.queue_depth = 8;
  dopts.max_io = 64 * 1024;
  dopts.with_dfs = false;
  core::DpcSystem sys(dopts);
  const auto kino = sys.create(kvfs::kRootIno, "big").ino;
  WorkloadGen kgen({Pattern::kRandWrite, kIoSize, kFileSize / 4}, 0);
  sys.dma_counters().reset();
  for (int i = 0; i < kOps; ++i) {
    const auto op = kgen.next();
    sys.write(kino, op.offset, buf, /*direct=*/true);
  }
  WorkloadGen krgen({Pattern::kRandRead, kIoSize, kFileSize / 4}, 0);
  for (int i = 0; i < kOps; ++i) {
    const auto op = krgen.next();
    std::vector<std::byte> out(kIoSize);
    sys.read(kino, op.offset, out, /*direct=*/true);
  }
  const auto& c = sys.dma_counters();
  m.dpc_dma_ops = static_cast<double>(c.ops(pcie::DmaClass::kDescriptor) +
                                      c.ops(pcie::DmaClass::kData)) /
                  (2.0 * kOps);
  m.dpc_wire_bytes =
      static_cast<double>(c.bytes(pcie::DmaClass::kData)) / (2.0 * kOps);
  bench::emit_metrics_json(sys.metrics(), "fig7_standalone");
  return m;
}

/// The direct KVFS network over the measured link profile.
bench::DirectPoint measured_kvfs(bool write, const MeasuredProfiles& m,
                                 int threads) {
  return bench::direct_kvfs(write, m.dpc_dma_ops,
                            static_cast<std::uint64_t>(m.dpc_wire_bytes),
                            threads);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline(
      "Fig. 7 — standalone service: local Ext4 vs KVFS (8K random, DIO)",
      "crossover past 64 threads; Ext4 779/1009 us and >90% CPU at 256; "
      "KVFS 363/410 us, <20% host CPU, DPU saturates ~128 threads");

  const auto m = run_functional();
  std::cout << "measured per-op profiles: ext4 " << m.ext4_dev_ops_read
            << " blk-reads / " << m.ext4_dev_ops_write
            << " blk-writes; dpc " << m.dpc_dma_ops << " DMAs, "
            << m.dpc_wire_bytes << " wire bytes\n\n";

  for (const bool write : {false, true}) {
    sim::Table t({"threads", "ext4 lat(us)", "kvfs lat(us)", "ext4 IOPS",
                  "kvfs IOPS", "ext4 host-cpu%", "kvfs host-cpu%",
                  "kvfs dpu-cpu%"});
    for (const int n : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
      const auto e = bench::direct_ext4(write, kIoSize, n);
      const auto k = measured_kvfs(write, m, n);
      t.add_row({std::to_string(n), sim::Table::fmt(e.lat_us),
                 sim::Table::fmt(k.lat_us), sim::Table::fmt_si(e.iops),
                 sim::Table::fmt_si(k.iops), sim::Table::fmt(e.host_cpu_pct),
                 sim::Table::fmt(k.host_cpu_pct),
                 sim::Table::fmt(k.dpu_cpu_pct)});
    }
    std::cout << (write ? "-- 8K random write --\n" : "-- 8K random read --\n");
    bench::print_table(t, args);
  }

  // Headline comparison at 256 threads.
  const auto er = bench::direct_ext4(false, kIoSize, 256);
  const auto kr = measured_kvfs(false, m, 256);
  const auto ew = bench::direct_ext4(true, kIoSize, 256);
  const auto kw = measured_kvfs(true, m, 256);
  std::cout << "paper @256: ext4 779/1009 us, kvfs 363/410 us\n"
            << "model @256: ext4 " << sim::Table::fmt(er.lat_us, 0) << "/"
            << sim::Table::fmt(ew.lat_us, 0) << " us, kvfs "
            << sim::Table::fmt(kr.lat_us, 0) << "/"
            << sim::Table::fmt(kw.lat_us, 0) << " us\n"
            << "CPU savings @>=64 threads (read/write): "
            << sim::Table::fmt(100.0 * (er.host_cpu_pct - kr.host_cpu_pct) /
                                   er.host_cpu_pct,
                               0)
            << "% / "
            << sim::Table::fmt(100.0 * (ew.host_cpu_pct - kw.host_cpu_pct) /
                                   ew.host_cpu_pct,
                               0)
            << "%  (paper: 86% / 65%)\n";
  return 0;
}
