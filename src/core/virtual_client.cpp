#include "core/virtual_client.hpp"

#include <cstring>
#include <thread>

#include "sim/check.hpp"

namespace dpc::core {

namespace {
constexpr std::uint64_t page_round(std::uint64_t n) {
  return (n + 4095) / 4096 * 4096;
}

std::vector<std::byte> make_pattern(std::size_t n) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::byte>((i * 131) & 0xFF);
  return p;
}
}  // namespace

NvmeRawHarness::NvmeRawHarness(const Options& opts)
    : opts_(opts), pattern_(make_pattern(opts.max_io)) {
  const std::uint64_t slot = page_round(opts.max_io) * 2 + 2 * 4096;
  const std::size_t host_size =
      static_cast<std::size_t>(opts.queues) * opts.depth * slot +
      static_cast<std::size_t>(opts.queues) * opts.depth * 96 + (4 << 20);
  host_mem_ = std::make_unique<pcie::MemoryRegion>("host-raw", host_size);
  host_alloc_ = std::make_unique<pcie::RegionAllocator>(*host_mem_);
  dpu_ = std::make_unique<dpu::Dpu>();
  dma_ = std::make_unique<pcie::DmaEngine>(*host_mem_, dpu_->bar());

  // Virtual client: "responds to the requests from I/O dispatch with
  // in-memory data" (§4.1).
  auto handler = [this](const nvme::NvmeFsCmd& cmd,
                        std::span<const std::byte> wpayload,
                        std::span<std::byte> rpayload) {
    nvme::HandlerResult r;
    if (cmd.write_len > 0) {
      // Touch the payload so the compiler can't elide the DMA'd bytes.
      volatile std::uint8_t sink = 0;
      sink = static_cast<std::uint8_t>(wpayload[0]);
      (void)sink;
      r.result = cmd.write_len;
    }
    if (cmd.read_len > 0) {
      DPC_CHECK(cmd.read_len <= pattern_.size());
      std::memcpy(rpayload.data(), pattern_.data(), cmd.read_len);
      r.read_bytes = cmd.read_len;
      r.result = cmd.read_len;
    }
    return r;
  };

  for (int q = 0; q < opts.queues; ++q) {
    nvme::QpConfig qc;
    qc.qid = static_cast<std::uint16_t>(q);
    qc.depth = opts.depth;
    qc.max_write = opts.max_io;
    qc.max_read = opts.max_io;
    qps_.push_back(std::make_unique<nvme::QueuePair>(qc, *host_alloc_,
                                                     dpu_->bar_alloc()));
    qtraces_.push_back(
        std::make_unique<obs::QueueTraces>(registry_, opts.depth));
    inis_.push_back(std::make_unique<nvme::IniDriver>(*dma_, *qps_.back(),
                                                      qtraces_.back().get()));
    tgts_.push_back(std::make_unique<nvme::TgtDriver>(
        *dma_, *qps_.back(), handler, qtraces_.back().get()));
    pump_mu_.push_back(std::make_unique<sim::AnnotatedMutex>(
        "virtual.pump", sim::LockRank::kSystem));
  }
}

bool NvmeRawHarness::do_write(int q, std::span<const std::byte> payload,
                              nvme::Completion* done) {
  nvme::IniDriver& ini = *inis_[static_cast<std::size_t>(q)];
  nvme::IniDriver::Request r(/*tenant=*/0);  // single-tenant harness
  r.inline_op = nvme::InlineOp::kWrite;
  r.write_data = payload;
  const auto sub = ini.submit(r);
  for (;;) {
    if (auto c = ini.try_take(sub.cid)) {
      const bool ok = c->status == nvme::Status::kSuccess &&
                      c->result == payload.size();
      ini.release(sub.cid);
      if (done != nullptr) *done = *c;
      return ok;
    }
    pump(q);
    std::this_thread::yield();
  }
}

bool NvmeRawHarness::do_read(int q, std::span<std::byte> dst,
                             nvme::Completion* done) {
  nvme::IniDriver& ini = *inis_[static_cast<std::size_t>(q)];
  nvme::IniDriver::Request r(/*tenant=*/0);  // single-tenant harness
  r.inline_op = nvme::InlineOp::kRead;
  r.read_data_cap = static_cast<std::uint32_t>(dst.size());
  const auto sub = ini.submit(r);
  for (;;) {
    if (auto c = ini.try_take(sub.cid)) {
      bool ok = c->status == nvme::Status::kSuccess &&
                c->result == dst.size();
      if (ok) {
        auto payload = ini.read_payload(sub.cid, dst.size());
        std::memcpy(dst.data(), payload.data(), dst.size());
      }
      ini.release(sub.cid);
      if (done != nullptr) *done = *c;
      return ok;
    }
    pump(q);
    std::this_thread::yield();
  }
}

int NvmeRawHarness::pump(int q) {
  sim::LockGuard lock(*pump_mu_[static_cast<std::size_t>(q)]);
  return tgts_[static_cast<std::size_t>(q)]->process_available(64).processed;
}

// ----------------------------------------------------------------- virtio

VirtioRawHarness::VirtioRawHarness(const Options& opts)
    : opts_(opts), pattern_(make_pattern(opts.max_io)) {
  const std::size_t host_size =
      static_cast<std::size_t>(opts.request_slots) *
          (page_round(opts.max_io) * 2 + 4096) +
      (4 << 20);
  host_mem_ = std::make_unique<pcie::MemoryRegion>("host-virtio", host_size);
  host_alloc_ = std::make_unique<pcie::RegionAllocator>(*host_mem_);
  dpu_ = std::make_unique<dpu::Dpu>();
  dma_ = std::make_unique<pcie::DmaEngine>(*host_mem_, dpu_->bar());

  layout_ = std::make_unique<virtio::VirtqueueLayout>(
      opts.queue_size, *host_alloc_, dpu_->bar_alloc());
  virtio::VirtioFsConfig cfg;
  cfg.queue_size = opts.queue_size;
  cfg.request_slots = opts.request_slots;
  cfg.max_data = opts.max_io;
  guest_ = std::make_unique<virtio::VirtioFsGuest>(*dma_, *layout_,
                                                   *host_alloc_, cfg);

  auto handler = [this](const virtio::FuseInHeader& hdr,
                        std::span<const std::byte> payload,
                        std::span<std::byte> reply) {
    virtio::FuseHandlerResult r;
    switch (static_cast<virtio::FuseOpcode>(hdr.opcode)) {
      case virtio::FuseOpcode::kWrite: {
        const auto win =
            virtio::read_pod<virtio::FuseWriteIn>(payload);
        virtio::FuseWriteOut out{win.size, 0};
        std::memcpy(reply.data(), &out, sizeof(out));
        r.payload_bytes = sizeof(out);
        return r;
      }
      case virtio::FuseOpcode::kRead: {
        const auto rin = virtio::read_pod<virtio::FuseReadIn>(payload);
        DPC_CHECK(rin.size <= pattern_.size());
        DPC_CHECK(rin.size <= reply.size());
        std::memcpy(reply.data(), pattern_.data(), rin.size);
        r.payload_bytes = rin.size;
        return r;
      }
      default:
        r.error = -38;  // ENOSYS
        return r;
    }
  };
  hal_ = std::make_unique<virtio::DpfsHal>(*dma_, *layout_, handler,
                                           opts.max_io);
}

bool VirtioRawHarness::do_write(std::span<const std::byte> payload) {
  virtio::FuseWriteIn win;
  win.size = static_cast<std::uint32_t>(payload.size());
  const auto sub = guest_->submit(virtio::FuseOpcode::kWrite, 1,
                                  std::as_bytes(std::span{&win, 1}), payload,
                                  sizeof(virtio::FuseWriteOut));
  virtio::FuseReplyView reply;
  while (!guest_->try_wait(sub.ticket, &reply)) {
    pump();
    std::this_thread::yield();
  }
  const bool ok = reply.error == 0;
  guest_->release(sub.ticket);
  return ok;
}

bool VirtioRawHarness::do_read(std::span<std::byte> dst) {
  virtio::FuseReadIn rin;
  rin.size = static_cast<std::uint32_t>(dst.size());
  const auto sub =
      guest_->submit(virtio::FuseOpcode::kRead, 1,
                     std::as_bytes(std::span{&rin, 1}), {},
                     static_cast<std::uint32_t>(dst.size()));
  virtio::FuseReplyView reply;
  while (!guest_->try_wait(sub.ticket, &reply)) {
    pump();
    std::this_thread::yield();
  }
  bool ok = reply.error == 0 && reply.payload.size() >= dst.size();
  if (ok) std::memcpy(dst.data(), reply.payload.data(), dst.size());
  guest_->release(sub.ticket);
  return ok;
}

int VirtioRawHarness::pump() {
  sim::LockGuard lock(pump_mu_);
  return hal_->process_available(64).processed;
}

}  // namespace dpc::core
