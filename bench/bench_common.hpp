// Shared plumbing for the figure/table reproduction binaries: flag parsing
// (--csv emits machine-readable rows), headline printing, the demand
// helpers that turn measured op counts into MVA station demands, and the
// direct-path networks Figs. 7 and 8 share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/calib.hpp"
#include "sim/check.hpp"
#include "sim/mva.hpp"
#include "sim/table.hpp"
#include "sim/time.hpp"
#include "ssd/ssd.hpp"

namespace dpc::bench {

struct BenchArgs {
  bool csv = false;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) args.csv = true;
    }
    return args;
  }
};

inline void print_table(const sim::Table& t, const BenchArgs& args) {
  if (args.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  std::cout << '\n';
}

inline void headline(const std::string& title, const std::string& paper_ref) {
  std::cout << "=== " << title << " ===\n"
            << "    reproduces: " << paper_ref << "\n\n";
}

/// Writes the registry snapshot to BENCH_<name>.json in the working
/// directory so every figure bench leaves a machine-readable metrics trail
/// (counters + p50/p95/p99 of each latency histogram) next to its table.
inline void emit_metrics_json(const obs::Registry& reg,
                              const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  reg.to_json(out);
  out << '\n';
  std::cout << "[metrics] wrote " << path << '\n';
}

/// Modelled cost of `dma_ops` link transactions moving `bytes` of payload:
/// per-transaction setup plus the wire time. Used to convert measured DMA
/// counters into per-op transport demands.
inline sim::Nanos dma_transport_cost(std::uint64_t dma_ops,
                                     std::uint64_t bytes) {
  return sim::calib::kDmaSetup * static_cast<std::int64_t>(dma_ops) +
         sim::calib::pcie_transfer(bytes);
}

/// One thread count's point on a direct-path MVA curve.
struct DirectPoint {
  double iops = 0;
  double lat_us = 0;
  double host_cpu_pct = 0;  // of all kHostHwThreads
  double dpu_cpu_pct = 0;
};

/// Local Ext4 with DIRECT_IO, `io_bytes` random ops: the host kernel stack
/// (per-op work plus the lock/run-queue contention term that grows with
/// concurrency — the paper's "disk I/O contention and scheduling" at 256
/// threads) in front of the SSD, where the block layer merges an op's
/// contiguous data blocks into one device op.
inline DirectPoint direct_ext4(bool write, std::uint32_t io_bytes,
                               int threads) {
  using namespace sim::calib;
  sim::ClosedNetwork net;
  const sim::Nanos host =
      kExt4KernelOp + (write ? kExt4WriteContentionPerThread
                             : kExt4ReadContentionPerThread) *
                          threads;
  const int hcpu = net.add_queueing("host-cpu", kHostHwThreads, host);
  net.add_queueing("ssd", ssd::SsdModel::channels(/*is_read=*/!write),
                   ssd::SsdModel::random_service(!write, io_bytes));
  const auto res = net.solve(threads);
  DirectPoint p;
  p.iops = res.throughput_ops;
  p.lat_us = res.response.us();
  p.host_cpu_pct = 100.0 * res.utilization[static_cast<std::size_t>(hcpu)];
  return p;
}

/// KVFS with DIRECT_IO through nvme-fs: host fs-adapter, the link (`dma_ops`
/// transactions and `wire_bytes` of payload per op), IO_Dispatch + KVFS on
/// the DPU cores, and the disaggregated KV backend (high latency, deeply
/// parallel). No per-thread scheduling penalty: host threads park on their
/// own queue pairs, and the paper shows KVFS scaling to 128 threads and
/// flat-lining at DPU saturation, not declining.
inline DirectPoint direct_kvfs(bool write, double dma_ops,
                               std::uint64_t wire_bytes, int threads) {
  using namespace sim::calib;
  sim::ClosedNetwork net;
  const sim::Nanos host = kSyscallVfs + kFsAdapterOp + kHostNvmeCompletion +
                          kHostDataPathOp;
  const int hcpu = net.add_queueing("host-cpu", kHostHwThreads, host);
  net.add_queueing("dma-engines", kPcieDmaEngines,
                   sim::Nanos{static_cast<std::int64_t>(
                       static_cast<double>(kDmaSetup.ns) * dma_ops)});
  net.add_queueing("pcie-wire", 1, pcie_wire_demand(wire_bytes, write));
  const int dcpu = net.add_queueing("dpu-cores", kDpuCores,
                                    write ? kDpuKvfsWriteOp : kDpuKvfsReadOp);
  net.add_queueing("kv-servers", kKvServers, kKvServerOp);
  net.add_delay("kv-access", write ? kKvWriteLatency : kKvReadLatency);
  const auto res = net.solve(threads);
  DirectPoint p;
  p.iops = res.throughput_ops;
  p.lat_us = res.response.us();
  p.host_cpu_pct = 100.0 * res.utilization[static_cast<std::size_t>(hcpu)];
  p.dpu_cpu_pct = 100.0 * res.utilization[static_cast<std::size_t>(dcpu)];
  return p;
}

}  // namespace dpc::bench
