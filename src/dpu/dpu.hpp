// The DPU device model — Huawei QingTian-class, per Table 1: 24 cores,
// 32 GB DRAM, off-path architecture (a general-purpose CPU beside the NP
// cores; we model the CPU complex the offloaded file stacks run on).
//
// Functionally it owns the DPU MemoryRegion (BAR/doorbell space + scratch)
// and a pool of worker threads that poll the transport queues. For timing,
// it exposes the per-op service demands and the scheduling-overhead rule
// the paper observes (throughput peaks at 32 client threads, §4.1).
#pragma once

#include <cstdint>
#include <memory>

#include "pcie/memory.hpp"
#include "sim/calib.hpp"
#include "sim/time.hpp"

namespace dpc::dpu {

class Dpu {
 public:
  Dpu();

  static int cores() { return sim::calib::kDpuCores; }
  pcie::MemoryRegion& bar() { return bar_; }
  pcie::RegionAllocator& bar_alloc() { return bar_alloc_; }

  /// Extra per-op demand caused by scheduling once the offered concurrency
  /// exceeds the sweet spot ("threads that exceed the number of physical
  /// cores bring extra scheduling overheads", §4.1).
  static sim::Nanos sched_overhead(int client_threads);

 private:
  pcie::MemoryRegion bar_;
  pcie::RegionAllocator bar_alloc_;
};

}  // namespace dpc::dpu
