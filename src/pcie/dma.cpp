#include "pcie/dma.hpp"

#include "sim/schedhook.hpp"

namespace dpc::pcie {

std::uint64_t DmaCounters::total_ops() const {
  std::uint64_t sum = 0;
  for (const auto& pc : per_class)
    sum += pc.ops.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t DmaCounters::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& pc : per_class)
    sum += pc.bytes.load(std::memory_order_relaxed);
  return sum;
}

void DmaCounters::reset() {
  for (auto& pc : per_class) {
    pc.ops.store(0, std::memory_order_relaxed);
    pc.bytes.store(0, std::memory_order_relaxed);
  }
}

DmaEngine::DmaEngine(MemoryRegion& host, MemoryRegion& dpu)
    : host_(&host), dpu_(&dpu) {}

void DmaEngine::count(DmaClass cls, std::size_t bytes) {
  auto& pc = counters_.per_class[static_cast<std::size_t>(cls)];
  pc.ops.fetch_add(1, std::memory_order_relaxed);
  pc.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

sim::Nanos DmaEngine::cost_of(std::size_t bytes) {
  return sim::calib::kDmaSetup + sim::calib::pcie_transfer(bytes);
}

sim::Nanos DmaEngine::transfer(DmaDir dir, std::uint64_t src_off,
                               std::uint64_t dst_off, std::size_t n,
                               DmaClass cls) {
  sim::schedhook::point("pcie.dma");
  if (dir == DmaDir::kHostToDpu) {
    auto src = host_->bytes(src_off, n);
    dpu_->write(dst_off, src);
  } else {
    auto src = dpu_->bytes(src_off, n);
    host_->write(dst_off, src);
  }
  count(cls, n);
  return cost_of(n);
}

sim::Nanos DmaEngine::read_host(std::uint64_t host_off,
                                std::span<std::byte> dst, DmaClass cls) {
  sim::schedhook::point("pcie.dma_read");
  host_->read(host_off, dst);
  count(cls, dst.size());
  return cost_of(dst.size());
}

sim::Nanos DmaEngine::write_host(std::uint64_t host_off,
                                 std::span<const std::byte> src,
                                 DmaClass cls) {
  sim::schedhook::point("pcie.dma_write");
  host_->write(host_off, src);
  count(cls, src.size());
  return cost_of(src.size());
}

sim::Nanos DmaEngine::doorbell(std::uint64_t dpu_off, std::uint32_t value) {
  sim::schedhook::point("pcie.doorbell");
  dpu_->atomic_u32(dpu_off).store(value, std::memory_order_release);
  count(DmaClass::kDoorbell, sizeof(value));
  return sim::calib::kDmaSetup;  // posted MMIO write: setup cost only
}

sim::Nanos DmaEngine::note_transaction(DmaClass cls, std::size_t bytes) {
  count(cls, bytes);
  return cost_of(bytes);
}

DmaEngine::AtomicResult DmaEngine::atomic_cas_host(std::uint64_t host_off,
                                                   std::uint32_t expected,
                                                   std::uint32_t desired) {
  auto word = host_->atomic_u32(host_off);
  std::uint32_t exp = expected;
  const bool ok =
      word.compare_exchange_strong(exp, desired, std::memory_order_acq_rel);
  count(DmaClass::kAtomic, sizeof(std::uint32_t));
  return {ok, exp, sim::calib::kPcieAtomic};
}

DmaEngine::AtomicResult DmaEngine::atomic_swap_host(std::uint64_t host_off,
                                                    std::uint32_t desired) {
  auto word = host_->atomic_u32(host_off);
  const std::uint32_t old =
      word.exchange(desired, std::memory_order_acq_rel);
  count(DmaClass::kAtomic, sizeof(std::uint32_t));
  return {true, old, sim::calib::kPcieAtomic};
}

std::uint32_t DmaEngine::atomic_fadd_host(std::uint64_t host_off,
                                          std::uint32_t delta) {
  auto word = host_->atomic_u32(host_off);
  const std::uint32_t old =
      word.fetch_add(delta, std::memory_order_acq_rel);
  count(DmaClass::kAtomic, sizeof(std::uint32_t));
  return old;
}

DmaEngine::AtomicResult DmaEngine::atomic_and_host(std::uint64_t host_off,
                                                   std::uint32_t mask) {
  auto word = host_->atomic_u32(host_off);
  const std::uint32_t old = word.fetch_and(mask, std::memory_order_acq_rel);
  count(DmaClass::kAtomic, sizeof(std::uint32_t));
  return {true, old, sim::calib::kPcieAtomic};
}

DmaEngine::AtomicResult DmaEngine::atomic_or_host(std::uint64_t host_off,
                                                  std::uint32_t bits) {
  auto word = host_->atomic_u32(host_off);
  const std::uint32_t old = word.fetch_or(bits, std::memory_order_acq_rel);
  count(DmaClass::kAtomic, sizeof(std::uint32_t));
  return {true, old, sim::calib::kPcieAtomic};
}

}  // namespace dpc::pcie
