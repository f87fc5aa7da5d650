// DpfsSystem — the DPFS baseline (§2 M2): host FUSE layer → single
// virtio-fs queue → single DPFS-HAL thread on the DPU → the same KVFS
// backend DPC uses. Functionally equivalent to DpcSystem's standalone
// service, but every request pays the FUSE framing and the 11-DMA virtio
// data path, and all requests serialize behind one HAL thread — the
// comparison of Fig. 6.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dpu/dpu.hpp"
#include "dpu/worker_pool.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"
#include "pcie/dma.hpp"
#include "sim/thread_annotations.hpp"
#include "virtio/virtio_fs.hpp"

namespace dpc::core {

struct DpfsOptions {
  std::uint16_t queue_size = 512;
  std::uint16_t request_slots = 64;
  std::uint32_t max_io = 1 << 20;
};

/// Result of one DPFS call (mirrors core::Io for easy comparison).
struct DpfsIo {
  int err = 0;
  std::uint64_t ino = 0;
  std::uint32_t bytes = 0;
  bool ok() const { return err == 0; }
};

class DpfsSystem {
 public:
  explicit DpfsSystem(const DpfsOptions& opts = {});
  ~DpfsSystem();
  DpfsSystem(const DpfsSystem&) = delete;
  DpfsSystem& operator=(const DpfsSystem&) = delete;

  /// Starts the single DPFS-HAL thread; without it host calls pump inline.
  void start_hal();
  void stop_hal();

  DpfsIo lookup(std::uint64_t parent, const std::string& name);
  DpfsIo create(std::uint64_t parent, const std::string& name,
                std::uint32_t mode = 0644);
  DpfsIo mkdir(std::uint64_t parent, const std::string& name,
               std::uint32_t mode = 0755);
  DpfsIo unlink(std::uint64_t parent, const std::string& name);
  DpfsIo getattr(std::uint64_t ino, kvfs::Attr* attr_out = nullptr);
  DpfsIo readdir(std::uint64_t dir, std::vector<kvfs::DirEntry>* out);
  DpfsIo rename(std::uint64_t old_parent, const std::string& old_name,
                std::uint64_t new_parent, const std::string& new_name);
  DpfsIo read(std::uint64_t ino, std::uint64_t offset,
              std::span<std::byte> dst);
  DpfsIo write(std::uint64_t ino, std::uint64_t offset,
               std::span<const std::byte> src);
  DpfsIo fsync(std::uint64_t ino);

  const pcie::DmaCounters& dma_counters() const { return dma_->counters(); }
  pcie::DmaCounters& dma_counters() { return dma_->counters(); }
  kvfs::Kvfs& kvfs() { return *kvfs_; }

 private:
  struct Reply {
    std::int32_t error = 0;
    std::vector<std::byte> payload;
  };
  Reply call(virtio::FuseOpcode op, std::uint64_t nodeid,
             std::span<const std::byte> arg, std::span<const std::byte> data,
             std::uint32_t data_out_cap);
  int pump();

  DpfsOptions opts_;
  std::unique_ptr<pcie::MemoryRegion> host_mem_;
  std::unique_ptr<pcie::RegionAllocator> host_alloc_;
  std::unique_ptr<dpu::Dpu> dpu_;
  std::unique_ptr<pcie::DmaEngine> dma_;
  std::unique_ptr<virtio::VirtqueueLayout> layout_;
  std::unique_ptr<virtio::VirtioFsGuest> guest_;
  std::unique_ptr<virtio::DpfsHal> hal_;
  sim::AnnotatedMutex pump_mu_{"dpfs.pump", sim::LockRank::kSystem};

  std::unique_ptr<kv::KvStore> kv_store_;
  std::unique_ptr<kv::RemoteKv> remote_kv_;
  std::unique_ptr<kvfs::Kvfs> kvfs_;

  std::unique_ptr<dpu::WorkerPool> hal_thread_;
  std::atomic<bool> hal_running_{false};
};

}  // namespace dpc::core
