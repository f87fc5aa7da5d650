// Raw host↔DPU transmission harnesses for the §4.1 evaluation.
//
// The paper measures nvme-fs vs virtio-fs with "a virtual client in DPU
// that responds to the requests from I/O dispatch with in-memory data", so
// the measured latency is pure transport. These two harnesses build that
// setup over the counting DmaEngine: an NVMe queue-pair path with an echo
// handler, and a single-queue virtio-fs path with an echo FUSE handler.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dpu/dpu.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/tgt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pcie/dma.hpp"
#include "sim/thread_annotations.hpp"
#include "virtio/virtio_fs.hpp"

namespace dpc::core {

/// nvme-fs raw harness: N queue pairs, each with its own INI/TGT, handler =
/// virtual client (reads are served from a DPU-resident pattern buffer,
/// writes are swallowed after the payload DMA).
class NvmeRawHarness {
 public:
  struct Options {
    int queues = 8;
    std::uint16_t depth = 32;
    std::uint32_t max_io = 1 << 20;
  };
  explicit NvmeRawHarness(const Options& opts);

  /// One synchronous raw write of `len` bytes on queue `q`; returns the
  /// DPU-visible payload echo correctness and accumulates DMA counters.
  /// `done`, when given, receives the command's completion (one submission,
  /// never retried), so a caller can say why an op failed.
  bool do_write(int q, std::span<const std::byte> payload,
                nvme::Completion* done = nullptr);
  /// One synchronous raw read of `len` bytes on queue `q` into `dst`.
  bool do_read(int q, std::span<std::byte> dst,
               nvme::Completion* done = nullptr);

  /// Drains queue `q` on the "DPU" (call from a DPU worker or inline).
  int pump(int q);

  int queues() const { return static_cast<int>(qps_.size()); }
  pcie::DmaCounters& counters() { return dma_->counters(); }
  nvme::IniDriver& ini(int q) { return *inis_[static_cast<std::size_t>(q)]; }
  nvme::TgtDriver& tgt(int q) { return *tgts_[static_cast<std::size_t>(q)]; }
  /// Harness-wide metrics: nvme.ini/tgt counters + trace/… histograms.
  obs::Registry& metrics() { return registry_; }

 private:
  Options opts_;
  obs::Registry registry_;  // before the drivers that resolve instruments
  std::vector<std::unique_ptr<obs::QueueTraces>> qtraces_;
  std::unique_ptr<pcie::MemoryRegion> host_mem_;
  std::unique_ptr<pcie::RegionAllocator> host_alloc_;
  std::unique_ptr<dpu::Dpu> dpu_;
  std::unique_ptr<pcie::DmaEngine> dma_;
  std::vector<std::unique_ptr<nvme::QueuePair>> qps_;
  std::vector<std::unique_ptr<nvme::IniDriver>> inis_;
  std::vector<std::unique_ptr<nvme::TgtDriver>> tgts_;
  std::vector<std::unique_ptr<sim::AnnotatedMutex>> pump_mu_;  // TGT is 1-consumer
  std::vector<std::byte> pattern_;  // DPU-resident data served to reads
};

/// virtio-fs raw harness: one queue, one DPFS-HAL (the single-thread,
/// single-queue limitation the paper describes), echo FUSE handler.
class VirtioRawHarness {
 public:
  struct Options {
    std::uint16_t queue_size = 512;
    std::uint16_t request_slots = 64;
    std::uint32_t max_io = 1 << 20;
  };
  explicit VirtioRawHarness(const Options& opts);

  bool do_write(std::span<const std::byte> payload);
  bool do_read(std::span<std::byte> dst);
  int pump();

  pcie::DmaCounters& counters() { return dma_->counters(); }
  virtio::VirtioFsGuest& guest() { return *guest_; }
  virtio::DpfsHal& hal() { return *hal_; }

 private:
  Options opts_;
  std::unique_ptr<pcie::MemoryRegion> host_mem_;
  std::unique_ptr<pcie::RegionAllocator> host_alloc_;
  std::unique_ptr<dpu::Dpu> dpu_;
  std::unique_ptr<pcie::DmaEngine> dma_;
  std::unique_ptr<virtio::VirtqueueLayout> layout_;
  std::unique_ptr<virtio::VirtioFsGuest> guest_;
  std::unique_ptr<virtio::DpfsHal> hal_;
  sim::AnnotatedMutex pump_mu_{"virtio.pump",
                               sim::LockRank::kSystem};  // 1-thread HAL
  std::vector<std::byte> pattern_;
};

}  // namespace dpc::core
