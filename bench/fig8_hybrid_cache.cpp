// Reproduces Fig. 8: contribution of caching to random IOPS — direct vs
// buffered — for local Ext4 (kernel page cache) and KVFS (the hybrid cache
// with its DPU-offloaded control plane), plus the §4.2 prefetch claim:
// "we actively prefetch data for sequential reads, boosting read IOPS by
// 100x with a single thread and 3x with 32 threads".
//
// Phase 1 (functional): drives the real hybrid cache — host data plane,
// PCIe-atomic locks, DPU flusher and sequential prefetcher — and the real
// kernel-style page cache, measuring hit rates, absorbed writes, flush
// traffic and prefetch volume.
// Phase 2 (timing): measured rates parameterize the MVA models from Fig. 7;
// buffered paths add the flush / prefetch pipeline stations.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/dpc_system.hpp"
#include "hostfs/ext4like.hpp"
#include "sim/mva.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace {

using namespace dpc;
using namespace dpc::sim;

constexpr std::uint32_t kIoSize = 8 * 1024;
constexpr std::uint64_t kFileSize = 64ULL << 20;

struct Rates {
  double kvfs_write_absorb = 0;   // buffered writes absorbed by host cache
  double kvfs_flush_pages_per_op = 0;
  double kvfs_rand_read_hit = 0;  // with 90/10 locality
  double kvfs_seq_read_hit = 0;   // with DPU prefetch
  double prefetch_overfetch = 1;  // pages prefetched per page consumed
  double ext4_rand_read_hit = 0;
  double ext4_write_absorb = 0;
};

Rates run_functional() {
  Rates r;
  std::vector<std::byte> buf(kIoSize, std::byte{0x3C});

  // ---------- KVFS / hybrid cache ----------
  {
    core::DpcOptions o;
    o.queues = 2;
    o.queue_depth = 8;
    o.max_io = 64 * 1024;
    o.with_dfs = false;
    o.cache_geo = {4096, 256};  // 16 MB
    core::DpcSystem sys(o);
    sys.start_dpu();
    const auto ino = sys.create(kvfs::kRootIno, "f").ino;
    sys.write(ino, kFileSize - kIoSize, buf, true);  // size the file

    // Buffered random writes, 90% to a 10% hot region (fits the cache).
    WorkloadSpec wspec{Pattern::kRandWrite, kIoSize, kFileSize, 1, 0.7,
                       0.9, 0.1, 7};
    WorkloadGen wgen(wspec, 0);
    constexpr int kOps = 4000;
    int absorbed = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto op = wgen.next();
      const auto res = sys.write(ino, op.offset, buf, false);
      absorbed += res.cache_hit ? 1 : 0;
    }
    sys.fsync(ino);
    r.kvfs_write_absorb = static_cast<double>(absorbed) / kOps;
    r.kvfs_flush_pages_per_op =
        static_cast<double>(sys.control_stats()->pages_flushed) / kOps;

    // Buffered random reads over the same locality.
    WorkloadGen rgen({Pattern::kRandRead, kIoSize, kFileSize, 1, 0.7, 0.9,
                      0.1, 8},
                     1);
    const auto hits0 = sys.cache_stats()->read_hits.load();
    const auto miss0 = sys.cache_stats()->read_misses.load();
    std::vector<std::byte> out(kIoSize);
    for (int i = 0; i < kOps; ++i) {
      const auto op = rgen.next();
      sys.read(ino, op.offset, out, false);
    }
    const auto hits = sys.cache_stats()->read_hits.load() - hits0;
    const auto miss = sys.cache_stats()->read_misses.load() - miss0;
    r.kvfs_rand_read_hit =
        static_cast<double>(hits) / static_cast<double>(hits + miss);

    // Sequential reads: the DPU prefetcher should carry nearly all of them.
    const auto f2 = sys.create(kvfs::kRootIno, "seq").ino;
    std::vector<std::byte> big(1 << 20, std::byte{0x5A});
    for (int mb = 0; mb < 64; ++mb)
      sys.write(f2, static_cast<std::uint64_t>(mb) << 20, big, true);
    const auto h0 = sys.cache_stats()->read_hits.load();
    const auto m0 = sys.cache_stats()->read_misses.load();
    const auto pf0 = sys.control_stats()->pages_prefetched.load();
    const int seq_ops = (64 << 20) / static_cast<int>(kIoSize);
    for (int i = 0; i < seq_ops; ++i)
      sys.read(f2, static_cast<std::uint64_t>(i) * kIoSize, out, false);
    const auto sh = sys.cache_stats()->read_hits.load() - h0;
    const auto sm = sys.cache_stats()->read_misses.load() - m0;
    const auto pf = sys.control_stats()->pages_prefetched - pf0;
    r.kvfs_seq_read_hit =
        static_cast<double>(sh) / static_cast<double>(sh + sm);
    const double pages_consumed = seq_ops * (kIoSize / 4096.0);
    r.prefetch_overfetch =
        pf > 0 ? static_cast<double>(pf) / pages_consumed : 1.0;
    sys.stop_dpu();
    bench::emit_metrics_json(sys.metrics(), "fig8_hybrid_cache");
  }

  // ---------- Ext4 / kernel page cache ----------
  {
    ssd::SsdModel disk;
    hostfs::Ext4likeOptions o;
    o.total_blocks = 1 << 16;
    o.page_cache_pages = 4096;  // 16 MB
    hostfs::Ext4like ext4(disk, o);
    const auto ino = ext4.create(hostfs::kRootIno, "f", 0644).value;
    WorkloadSpec wspec{Pattern::kRandWrite, kIoSize, kFileSize, 1, 0.7,
                       0.9, 0.1, 9};
    WorkloadGen wgen(wspec, 0);
    constexpr int kOps = 4000;
    std::uint32_t dev_writes = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto op = wgen.next();
      dev_writes += ext4.write(ino, op.offset, buf, false).cost.dev_writes;
    }
    // Absorption = fraction of data-block writes the cache swallowed.
    r.ext4_write_absorb =
        1.0 - std::min(1.0, static_cast<double>(dev_writes) / (kOps * 2.0));

    WorkloadGen rgen({Pattern::kRandRead, kIoSize, kFileSize, 1, 0.7, 0.9,
                      0.1, 10},
                     1);
    const auto h0 = ext4.page_cache().hits();
    const auto m0 = ext4.page_cache().misses();
    std::vector<std::byte> out(kIoSize);
    for (int i = 0; i < kOps; ++i) {
      const auto op = rgen.next();
      ext4.read(ino, op.offset, out, false);
    }
    const auto h = ext4.page_cache().hits() - h0;
    const auto m = ext4.page_cache().misses() - m0;
    r.ext4_rand_read_hit =
        static_cast<double>(h) / static_cast<double>(h + m);
  }
  return r;
}

// ---- timing models -------------------------------------------------------

/// Buffered path: hit fraction h served by the host cache; misses pay the
/// direct path. The prefetch-fill (reads) / flush-drain (writes) pipeline
/// runs *asynchronously* on the DPU, so it never appears in the reader's
/// response time — it only caps sustainable throughput.
double buffered_kvfs_iops(bool write, double hit, double flush_pages_per_op,
                          double overfetch, int threads) {
  using namespace sim::calib;
  const double miss = 1.0 - hit;
  auto scale = [&](Nanos d, double f) {
    return Nanos{static_cast<std::int64_t>(static_cast<double>(d.ns) * f)};
  };

  // Foreground (response-path) network: cache hits + the rare miss.
  ClosedNetwork net;
  const Nanos host{static_cast<std::int64_t>(
      static_cast<double>((kSyscallVfs + kHostCacheHitOp).ns) +
      miss * static_cast<double>((kFsAdapterOp + kHostNvmeCompletion +
                                  kHostDataPathOp)
                                     .ns))};
  net.add_queueing("host-cpu", kHostHwThreads, host);
  net.add_queueing("dma-engines", kPcieDmaEngines, scale(kDmaSetup * 4, miss));
  net.add_queueing("pcie-wire", 1, scale(pcie_wire_demand(kIoSize, write), miss));
  net.add_queueing("dpu-cores", kDpuCores,
                   scale(write ? kDpuKvfsWriteOp : kDpuKvfsReadOp, miss));
  net.add_delay("kv-access",
                scale(write ? kKvWriteLatency : kKvReadLatency, miss));
  double x = net.solve(threads).throughput_ops;

  // Background pipeline capacity: every consumed page crosses
  // KV ↔ DPU ↔ host-cache exactly once.
  const double pipeline_pages =
      write ? flush_pages_per_op : overfetch * (kIoSize / 4096.0);
  if (pipeline_pages > 0) {
    const double bytes = pipeline_pages * 4096.0;
    const double kv_gbps = (write ? kKvWriteGBps : kKvReadGBps) *
                           (write ? 1.0 : kPrefetchKvEfficiency);
    const double kv_wire_us = bytes / (kv_gbps * 1e9) * 1e6;
    const double pcie_us =
        static_cast<double>(pcie_wire_demand(
                                static_cast<std::uint64_t>(bytes), !write)
                                .ns) /
        1e3;
    const double dpu_us =
        static_cast<double>(
            scale(write ? kDpuFlushPage : kDpuPrefetchPage, pipeline_pages)
                .ns) /
        1e3 / kDpuCores;
    const double cap =
        1e6 / std::max({kv_wire_us, pcie_us, dpu_us, 1e-9});
    x = std::min(x, cap);
  }
  return x;
}

double buffered_ext4_iops(bool write, double hit_or_absorb, int threads) {
  using namespace sim::calib;
  const double miss = 1.0 - hit_or_absorb;
  ClosedNetwork net;
  net.add_queueing("host-cpu", kHostHwThreads,
                   kExt4KernelOp + (write ? kExt4WriteContentionPerThread
                                          : kExt4ReadContentionPerThread) *
                                       threads);
  const auto svc = ssd::SsdModel::random_service(!write, kIoSize);
  net.add_queueing("ssd", ssd::SsdModel::channels(!write),
                   Nanos{static_cast<std::int64_t>(
                       static_cast<double>(svc.ns) * miss)});
  return net.solve(threads).throughput_ops;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline(
      "Fig. 8 — hybrid cache contribution to random IOPS",
      "buffered >> direct for both systems; DPU prefetch boosts sequential "
      "reads 100x @1 thread, 3x @32 threads");

  const auto r = run_functional();
  std::cout << "measured: kvfs write-absorb " << sim::Table::fmt(100 * r.kvfs_write_absorb)
            << "%, flush " << sim::Table::fmt(r.kvfs_flush_pages_per_op, 2)
            << " pages/op, rand-read hit " << sim::Table::fmt(100 * r.kvfs_rand_read_hit)
            << "%, seq-read hit " << sim::Table::fmt(100 * r.kvfs_seq_read_hit)
            << "%, overfetch " << sim::Table::fmt(r.prefetch_overfetch, 2)
            << "; ext4 rand-read hit " << sim::Table::fmt(100 * r.ext4_rand_read_hit)
            << "%, write-absorb " << sim::Table::fmt(100 * r.ext4_write_absorb)
            << "%\n\n";

  sim::Table t({"system", "workload", "threads", "direct IOPS",
                "buffered IOPS", "speedup"});
  for (const int n : {1, 32}) {
    {
      const double d = bench::direct_ext4(false, kIoSize, n).iops;
      const double b = buffered_ext4_iops(false, r.ext4_rand_read_hit, n);
      t.add_row({"ext4", "rand-read", std::to_string(n),
                 sim::Table::fmt_si(d), sim::Table::fmt_si(b),
                 sim::Table::fmt(b / d, 1) + "x"});
    }
    {
      const double d = bench::direct_ext4(true, kIoSize, n).iops;
      const double b = buffered_ext4_iops(true, r.ext4_write_absorb, n);
      t.add_row({"ext4", "rand-write", std::to_string(n),
                 sim::Table::fmt_si(d), sim::Table::fmt_si(b),
                 sim::Table::fmt(b / d, 1) + "x"});
    }
    {
      const double d = bench::direct_kvfs(false, 4, kIoSize, n).iops;
      const double b = buffered_kvfs_iops(false, r.kvfs_rand_read_hit, 0,
                                          r.prefetch_overfetch, n);
      t.add_row({"kvfs", "rand-read", std::to_string(n),
                 sim::Table::fmt_si(d), sim::Table::fmt_si(b),
                 sim::Table::fmt(b / d, 1) + "x"});
    }
    {
      const double d = bench::direct_kvfs(true, 4, kIoSize, n).iops;
      const double b = buffered_kvfs_iops(true, r.kvfs_write_absorb,
                                          r.kvfs_flush_pages_per_op,
                                          r.prefetch_overfetch, n);
      t.add_row({"kvfs", "rand-write", std::to_string(n),
                 sim::Table::fmt_si(d), sim::Table::fmt_si(b),
                 sim::Table::fmt(b / d, 1) + "x"});
    }
  }
  bench::print_table(t, args);

  std::cout << "-- sequential read with DPU prefetch (the 100x / 3x claim) "
               "--\n";
  sim::Table t2({"threads", "direct IOPS", "prefetched IOPS", "speedup",
                 "paper"});
  for (const int n : {1, 32}) {
    const double d = bench::direct_kvfs(false, 4, kIoSize, n).iops;
    const double b = buffered_kvfs_iops(false, r.kvfs_seq_read_hit, 0,
                                        r.prefetch_overfetch, n);
    t2.add_row({std::to_string(n), sim::Table::fmt_si(d),
                sim::Table::fmt_si(b), sim::Table::fmt(b / d, 1) + "x",
                n == 1 ? "100x" : "3x"});
  }
  bench::print_table(t2, args);
  return 0;
}
