// Calibration constants for the DPC reproduction (single source of truth).
//
// These model the testbed in Table 1 of the paper:
//   CPU   : Intel Xeon Gold 6230R — 26 physical cores / 52 threads
//   DPU   : Huawei QingTian — 24 TaiShan cores @ 2.0 GHz, 32 GB DRAM
//   PCIe  : 3.0 x16 (~15.7 GB/s effective)
//   SSD   : Huawei ES3600P V5 — 88 µs read / 14 µs write latency
//
// Every figure/table bench derives its station demands from these constants
// plus op counts *measured* from the functional layer (DMA counts, KV ops,
// MDS hops). Changing a constant here consistently moves every experiment,
// which is the point: the reproduction is one parameterized model, not a
// per-figure curve fit. See DESIGN.md §5.1.
#pragma once

#include "sim/time.hpp"

namespace dpc::sim::calib {

// ---------------------------------------------------------------- host CPU
inline constexpr int kHostPhysicalCores = 26;
inline constexpr int kHostHwThreads = 52;

/// Host-side cost of one syscall + VFS dispatch (entering the kernel,
/// fdtable/lookup, copying the iovec).
inline constexpr Nanos kSyscallVfs = micros(1.0);

/// fs-adapter per-op cost: hash the <inode,lpn>, build an nvme-fs SQE, ring
/// the doorbell. Deliberately small — the adapter replaces FUSE's queueing.
inline constexpr Nanos kFsAdapterOp = micros(0.9);

/// FUSE layer per-op cost in the DPFS baseline: request transform, FUSE queue
/// insertion, wakeups ("the structure of the FUSE queue is overburdened").
inline constexpr Nanos kFuseLayerOp = micros(10.0);

/// Host-side completion handling of one nvme-fs command (CQE reap, copyout,
/// context wakeup).
inline constexpr Nanos kHostNvmeCompletion = micros(2.0);
/// Completion handling on the virtio path (used-ring reap + eventfd wakeup
/// through the FUSE session loop).
inline constexpr Nanos kVirtioCompletion = micros(8.0);
/// Extra host-side work on virtio read returns (mapping + copy of the
/// returned pages into the user buffer) — why the paper's virtio read
/// latency (36.5 us) exceeds its write latency (34 us).
inline constexpr Nanos kVirtioReadReturnExtra = micros(2.5);

// ------------------------------------------------------------------- PCIe
/// Effective PCIe 3.0 x16 payload bandwidth (paper: "around 15.7GB/s").
inline constexpr double kPcieGBps = 15.7;

/// Fixed cost of one DMA descriptor round (doorbell, TLP setup, completion).
/// Calibrated jointly with the host/DPU demands so that the 4-DMA nvme-fs
/// write lands at ~26.6 µs and the 11-DMA virtio write at ~34 µs (Fig. 6).
inline constexpr Nanos kDmaSetup = micros(1.15);

/// One PCIe atomic (CAS / fetch-add) round trip, used by the hybrid-cache
/// lock protocol.
inline constexpr Nanos kPcieAtomic = micros(0.85);

/// Independent DMA engines able to run setup phases concurrently (payload
/// wire time still serializes on the link itself).
inline constexpr int kPcieDmaEngines = 8;

/// Transfer time of `bytes` over the PCIe link (payload only).
constexpr Nanos pcie_transfer(std::uint64_t bytes) {
  return Nanos{static_cast<std::int64_t>(
      static_cast<double>(bytes) / (kPcieGBps * 1e9) * 1e9)};
}

/// Direction-dependent link efficiency under sustained load (TLP header +
/// flow-control overhead is larger for host→DPU reads-by-the-device than
/// for DPU→host posted writes). Calibrated against the §4.1 bandwidth
/// paragraph (nvme-fs 14.3 GB/s write, 15.1 GB/s read of 15.7 raw).
inline constexpr double kPcieUpEfficiency = 0.911;   // host → DPU
inline constexpr double kPcieDownEfficiency = 0.962; // DPU → host
constexpr Nanos pcie_wire_demand(std::uint64_t bytes, bool host_to_dpu) {
  const double eff = host_to_dpu ? kPcieUpEfficiency : kPcieDownEfficiency;
  return Nanos{static_cast<std::int64_t>(
      static_cast<double>(bytes) / (kPcieGBps * eff * 1e9) * 1e9)};
}

// -------------------------------------------------------------------- DPU
inline constexpr int kDpuCores = 24;

/// DPU-side per-op cost for the *virtual client* used in the raw transmission
/// test (parse SQE, touch in-memory data, post CQE).
inline constexpr Nanos kDpuVirtualClientOp = micros(11.8);
/// Extra DPU work on the write path (buffer accounting for inbound data).
inline constexpr Nanos kDpuVirtualClientWriteExtra = micros(6.0);

/// DPFS-HAL per-op *CPU* cost (descriptor-chain walk, FUSE decode, reply
/// dispatch). Single HAL thread — this is the virtio single-queue
/// bottleneck that caps DPFS throughput.
inline constexpr Nanos kDpfsHalOp = micros(1.3);
/// The virtio-fs data path stages payloads through bounce buffers; its
/// effective copy bandwidth caps DPFS sequential throughput (§4.1:
/// virtio-fs reaches only 5.1/6.3 GB/s where nvme-fs saturates PCIe).
inline constexpr double kVirtioBounceReadGBps = 6.45;
inline constexpr double kVirtioBounceWriteGBps = 5.17;

/// Scheduling penalty per runnable context beyond the sweet spot: the paper
/// sees peak throughput at 32 threads and attributes the decline to
/// scheduling overhead once threads exceed the DPU's 24 cores.
inline constexpr int kDpuSchedSweetSpot = 32;
inline constexpr Nanos kDpuSchedPenaltyPerThread = micros(0.5);
/// The single DPFS-HAL thread degrades multiplicatively as runnable
/// contexts pile onto the DPU cores (it gets preempted instead of queued).
inline constexpr double kHalSchedFactorPerThread = 0.02;

/// KVFS per-op DPU work for an 8 KB I/O: IO_Dispatch, KVFS mapping lookup,
/// KV request framing, completion. Sized so the DPU saturates near 128
/// client threads (Fig. 7: "CPU usage of DPU reaches 100%" at 128 threads,
/// read latency 363 us and write 410 us at 256 threads).
inline constexpr Nanos kDpuKvfsReadOp = micros(34.0);
inline constexpr Nanos kDpuKvfsWriteOp = micros(38.5);
/// Host-side per-data-op work beyond syscall+adapter+completion: user-buffer
/// copy and submission-slot management on the nvme-fs data path.
inline constexpr Nanos kHostDataPathOp = micros(6.0);

/// DFS-client-on-DPU per-op work (forwarding table, delegation checks,
/// stripe bookkeeping). Reads reassemble the stripe from shard replies on
/// the DPU cores; the write path pushes shards out pipelined with EC on the
/// hardware engine, so its core time is lower.
inline constexpr Nanos kDpuDfsReadOp = micros(55.0);
inline constexpr Nanos kDpuDfsWriteOp = micros(22.0);
/// NFS-compatibility shim the DPC host side still runs per op.
inline constexpr Nanos kNfsCompatShim = micros(2.0);

// -------------------------------------------------------------------- SSD
/// Huawei ES3600P V5 (Table 1).
inline constexpr Nanos kSsdReadLat = micros(88.0);
inline constexpr Nanos kSsdWriteLat = micros(14.0);
/// Channel parallelism: bounds random IOPS (read ~364 K, write ~285 K) so
/// Ext4 stops scaling past 32 threads (Fig. 7) and hits 779/1009 µs @ 256.
inline constexpr int kSsdReadChannels = 32;
inline constexpr int kSsdWriteChannels = 4;
inline constexpr double kSsdSeqReadGBps = 3.05;
inline constexpr double kSsdSeqWriteGBps = 2.05;

// --------------------------------------------------------------- NVM / PMEM
/// Byte-addressable persistent memory on the DPU (Optane-DC/CXL-PM class),
/// used as the write-ahead durability tier in front of the SSD/KV path
/// (NVLog-style). Read/write latencies are DRAM-class; persistence costs an
/// explicit flush+fence (CLWB+SFENCE-class) charged per ordering point, not
/// per store.
inline constexpr Nanos kNvmReadLat = micros(0.30);
inline constexpr Nanos kNvmWriteLat = micros(0.35);
/// One persistence barrier: flush the written lines out of the volatile
/// hierarchy and order them before the next store (CLWB + SFENCE).
inline constexpr Nanos kNvmPersistFence = micros(0.50);
/// Sustained streaming bandwidth of the PMEM DIMMs (write-constrained).
inline constexpr double kNvmGBps = 2.0;
/// Default capacity of the NVM write-ahead log ring.
inline constexpr std::uint64_t kNvmLogBytes = 16ull << 20;

constexpr Nanos nvm_transfer(std::uint64_t bytes) {
  return Nanos{static_cast<std::int64_t>(
      static_cast<double>(bytes) / (kNvmGBps * 1e9) * 1e9)};
}
/// Full modelled cost of persisting `bytes` to the log: media write +
/// streaming transfer + one persistence fence.
constexpr Nanos nvm_persist_cost(std::uint64_t bytes) {
  return kNvmWriteLat + nvm_transfer(bytes) + kNvmPersistFence;
}

// ----------------------------------------------------------- Ext4 baseline
/// Per-op kernel work of the Ext4 + block-layer stack (bio assembly, blk-mq,
/// interrupt handling, extent lookup).
inline constexpr Nanos kExt4KernelOp = micros(5.5);
/// Contention term: lock and run-queue pressure per concurrent sync thread.
/// The paper measures >90% of the whole host busy at 256 threads and blames
/// "disk I/O contention and scheduling"; this reproduces that slope. Reads
/// hold inode/extent locks across the long 88 us device access, so their
/// contention term is steeper than the 14 us write path's.
inline constexpr Nanos kExt4ReadContentionPerThread = micros(0.55);
inline constexpr Nanos kExt4WriteContentionPerThread = micros(0.28);

// ------------------------------------------------------ sequential streams
/// Host kernel cost per 1 MB of sequential Ext4 I/O (bio splitting, page
/// cache copies, readahead bookkeeping). Calibrated against Table 2's
/// single-thread 1.8 / 1.6 GB/s.
inline constexpr Nanos kExt4SeqHostPerMBRead = micros(238.0);
inline constexpr Nanos kExt4SeqHostPerMBWrite = micros(167.0);
/// Host / DPU per-1MB costs of the KVFS sequential path (Table 2: 5.0 /
/// 3.1 GB/s single-thread; the write side packages 8 KB big-file blocks).
inline constexpr Nanos kKvfsSeqHostPerMB = micros(4.0);
inline constexpr Nanos kKvfsSeqDpuPerMBRead = micros(4.0);
inline constexpr Nanos kKvfsSeqDpuPerMBWrite = micros(40.0);

// ------------------------------------------------ disaggregated KV backend
/// One-way network hop to the KV cluster / data servers (RoCE-class).
inline constexpr Nanos kNetHop = micros(8.0);
/// Aggregate caps of the disaggregated KV store (Table 2 discussion: the
/// standalone bandwidth "is limited by the read/write performance of our
/// disaggregated KV store").
inline constexpr double kKvReadGBps = 7.7;
inline constexpr double kKvWriteGBps = 5.1;
/// Server-side cost of one KV op.
inline constexpr Nanos kKvServerOp = micros(9.0);
inline constexpr int kKvServers = 16;
/// End-to-end access latency of the disaggregated KV cluster (network +
/// server-side media), deeply parallel -> modelled as pure delay. This is
/// why KVFS loses to local Ext4 at low concurrency (Fig. 7) but scales past
/// it once the local SSD saturates.
inline constexpr Nanos kKvReadLatency = micros(100.0);
inline constexpr Nanos kKvWriteLatency = micros(80.0);
/// Streaming efficiency of the KV store under many concurrent prefetch
/// streams (readahead requests interleave and partially defeat the
/// server-side sequentiality).
inline constexpr double kPrefetchKvEfficiency = 0.65;
/// DPU work to prefetch one 4K page into the hybrid cache (bucket walk,
/// locks, page push).
inline constexpr Nanos kDpuPrefetchPage = micros(2.5);
/// DPU work to flush one dirty 4K page (scan share, locks, DIF, KV put).
inline constexpr Nanos kDpuFlushPage = micros(6.0);
/// Host-side cost of a cache-hit read / absorbed write (hash, lock, copy).
inline constexpr Nanos kHostCacheHitOp = micros(0.55);

// ------------------------------------------------------------ failure model
/// Modelled deadline charged per KV attempt that times out / fast-fails:
/// the client waits this long before declaring the attempt dead.
inline constexpr Nanos kKvOpTimeout = micros(500.0);
/// Modelled deadline charged for an nvme-fs command the host had to abort
/// (per lost attempt). Real hosts use multi-second NVMe timeouts; the model
/// uses 1 ms so chaos benches stay in a realistic latency regime.
inline constexpr Nanos kNvmeCommandTimeout = millis(1.0);

constexpr Nanos kv_read_transfer(std::uint64_t bytes) {
  return Nanos{static_cast<std::int64_t>(
      static_cast<double>(bytes) / (kKvReadGBps * 1e9) * 1e9)};
}
constexpr Nanos kv_write_transfer(std::uint64_t bytes) {
  return Nanos{static_cast<std::int64_t>(
      static_cast<double>(bytes) / (kKvWriteGBps * 1e9) * 1e9)};
}

// -------------------------------------------------------------- DFS backend
/// MDS request service time (metadata lookup / update at the server).
inline constexpr Nanos kMdsOp = micros(18.0);
/// Extra hop cost when the entry MDS must forward to the home MDS.
inline constexpr Nanos kMdsForward = micros(14.0);
/// Server-side data handling when the MDS proxies the I/O path for a
/// standard client (receive, consolidate, move payload to/from the data
/// servers) — the load the client-side DIO optimization removes.
inline constexpr Nanos kMdsProxyPerOp = micros(35.0);
/// Data-server service time for an 8 KB chunk.
inline constexpr Nanos kDataServerOp = micros(16.0);
inline constexpr int kMdsServers = 4;
inline constexpr int kDataServers = 8;
/// NVMe channels per data server (internal parallelism).
inline constexpr int kDataServerChannels = 8;
/// Aggregate DFS backend bandwidth caps.
inline constexpr double kDfsReadGBps = 9.0;
inline constexpr double kDfsWriteGBps = 6.5;

// ------------------------------------------------------- host client stacks
/// Standard NFS client per-op host CPU: the kernel NFS/RPC/TCP stack for an
/// 8 KB operation.
inline constexpr Nanos kNfsClientOp = micros(55.0);
/// Optimized host client per-op host CPU on top of NFS: EC calculation,
/// metadata-view routing, delegation bookkeeping, DIO path. This is the
/// "datacenter tax" Fig. 1 measures (4–6× more CPU cores than standard NFS).
inline constexpr Nanos kOptClientExtraOp = micros(35.0);
/// EC compute per byte on the host (RS(4,2) over GF(2^8), table-driven).
inline constexpr double kHostEcNsPerByte = 0.45;
/// The DPU's hardware-assisted EC engine per byte.
inline constexpr double kDpuEcNsPerByte = 0.18;

}  // namespace dpc::sim::calib
