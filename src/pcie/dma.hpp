// Counting DMA engine + PCIe atomics for the simulated host↔DPU link.
//
// Every transfer between the host MemoryRegion and the DPU MemoryRegion goes
// through DmaEngine, which (a) actually moves the bytes, (b) counts the
// operation per class, and (c) returns the modelled link cost. The per-class
// counters are what back Fig. 2(b) vs Fig. 4 of the paper: virtio-fs needs
// 11 DMA operations for an 8 KB write where nvme-fs needs 4 — in this repo
// those numbers are read off these counters after running the real ring
// protocols.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "pcie/memory.hpp"
#include "sim/calib.hpp"
#include "sim/time.hpp"

namespace dpc::pcie {

enum class DmaDir : std::uint8_t {
  kHostToDpu,
  kDpuToHost,
};

/// Classification of link transactions, for per-figure accounting.
enum class DmaClass : std::uint8_t {
  kDescriptor,  ///< ring/descriptor reads and writes (SQE, CQE, virtq desc)
  kData,        ///< user payload pages
  kDoorbell,    ///< MMIO doorbell / notification writes
  kAtomic,      ///< PCIe atomic (hybrid cache lock words)
  kCount_,
};

struct DmaCounters {
  struct PerClass {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  std::array<PerClass, static_cast<std::size_t>(DmaClass::kCount_)> per_class;

  std::uint64_t ops(DmaClass c) const {
    return per_class[static_cast<std::size_t>(c)].ops.load(
        std::memory_order_relaxed);
  }
  std::uint64_t bytes(DmaClass c) const {
    return per_class[static_cast<std::size_t>(c)].bytes.load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_ops() const;
  std::uint64_t total_bytes() const;
  void reset();
};

/// The host↔DPU link. Owns both memory regions' traffic accounting; the
/// regions themselves are owned by the device models (host, DPU).
class DmaEngine {
 public:
  DmaEngine(MemoryRegion& host, MemoryRegion& dpu);

  MemoryRegion& host() { return *host_; }
  MemoryRegion& dpu() { return *dpu_; }

  /// Moves `n` bytes; returns the modelled transfer cost (setup + payload).
  sim::Nanos transfer(DmaDir dir, std::uint64_t src_off, std::uint64_t dst_off,
                      std::size_t n, DmaClass cls);

  /// Moves bytes between a region and a local (same-side) buffer — models a
  /// device-initiated DMA read/write of host memory where the other endpoint
  /// is device-internal SRAM/DRAM not represented as a region.
  sim::Nanos read_host(std::uint64_t host_off, std::span<std::byte> dst,
                       DmaClass cls);
  sim::Nanos write_host(std::uint64_t host_off, std::span<const std::byte> src,
                        DmaClass cls);

  /// MMIO doorbell write (host → DPU), 4 bytes, counted as kDoorbell.
  sim::Nanos doorbell(std::uint64_t dpu_off, std::uint32_t value);

  /// Accounts for a link transaction whose bytes were moved through an
  /// atomic_ref (publication words such as ring indices and CQE phase
  /// words need atomic ordering, which memcpy-based transfer() can't give).
  /// Counts one op of `cls` and returns the modelled cost.
  sim::Nanos note_transaction(DmaClass cls, std::size_t bytes);

  /// PCIe atomic CAS on a host-resident 32-bit word, as used by the hybrid
  /// cache lock protocol. Returns {success, cost}.
  struct AtomicResult {
    bool success = false;
    std::uint32_t observed = 0;
    sim::Nanos cost{};
  };
  AtomicResult atomic_cas_host(std::uint64_t host_off, std::uint32_t expected,
                               std::uint32_t desired);
  /// PCIe atomic unconditional swap (used for lock release).
  AtomicResult atomic_swap_host(std::uint64_t host_off, std::uint32_t desired);
  /// PCIe atomic fetch-add.
  std::uint32_t atomic_fadd_host(std::uint64_t host_off, std::uint32_t delta);
  /// PCIe atomic fetch-and; `observed` is the word before the AND.
  AtomicResult atomic_and_host(std::uint64_t host_off, std::uint32_t mask);
  /// PCIe atomic fetch-or; `observed` is the word before the OR.
  AtomicResult atomic_or_host(std::uint64_t host_off, std::uint32_t bits);

  const DmaCounters& counters() const { return counters_; }
  DmaCounters& counters() { return counters_; }

 private:
  void count(DmaClass cls, std::size_t bytes);
  static sim::Nanos cost_of(std::size_t bytes);

  MemoryRegion* host_;
  MemoryRegion* dpu_;
  DmaCounters counters_;
};

/// RAII snapshot for measuring the DMA ops consumed by a code section.
class DmaScope {
 public:
  explicit DmaScope(const DmaCounters& counters)
      : counters_(&counters),
        start_ops_(counters.total_ops()),
        start_bytes_(counters.total_bytes()) {}

  std::uint64_t ops() const { return counters_->total_ops() - start_ops_; }
  std::uint64_t bytes() const {
    return counters_->total_bytes() - start_bytes_;
  }

 private:
  const DmaCounters* counters_;
  std::uint64_t start_ops_;
  std::uint64_t start_bytes_;
};

}  // namespace dpc::pcie
