#include "core/dpfs_system.hpp"

#include "core/fileproto.hpp"

#include <cerrno>
#include <cstring>
#include <thread>

#include "sim/check.hpp"

namespace dpc::core {

namespace {
constexpr std::uint64_t page_round(std::uint64_t n) {
  return (n + 4095) / 4096 * 4096;
}

std::string_view name_view(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}
}  // namespace

DpfsSystem::DpfsSystem(const DpfsOptions& opts) : opts_(opts) {
  const std::size_t host_size =
      static_cast<std::size_t>(opts.request_slots) *
          (page_round(opts.max_io) * 2 + 4096) +
      (8 << 20);
  host_mem_ = std::make_unique<pcie::MemoryRegion>("host-dpfs", host_size);
  host_alloc_ = std::make_unique<pcie::RegionAllocator>(*host_mem_);
  dpu_ = std::make_unique<dpu::Dpu>();
  dma_ = std::make_unique<pcie::DmaEngine>(*host_mem_, dpu_->bar());

  kv_store_ = std::make_unique<kv::KvStore>();
  remote_kv_ = std::make_unique<kv::RemoteKv>(*kv_store_);
  kvfs_ = std::make_unique<kvfs::Kvfs>(*remote_kv_);

  layout_ = std::make_unique<virtio::VirtqueueLayout>(
      opts.queue_size, *host_alloc_, dpu_->bar_alloc());
  virtio::VirtioFsConfig cfg;
  cfg.queue_size = opts.queue_size;
  cfg.request_slots = opts.request_slots;
  cfg.max_data = opts.max_io;
  guest_ = std::make_unique<virtio::VirtioFsGuest>(*dma_, *layout_,
                                                   *host_alloc_, cfg);

  // DPFS-FUSE: translate FUSE requests onto KVFS (the "file system
  // backend" role of DPFS-FUSE in Fig. 2(a)).
  auto handler = [this](const virtio::FuseInHeader& hdr,
                        std::span<const std::byte> payload,
                        std::span<std::byte> reply) {
    virtio::FuseHandlerResult r;
    const auto op = static_cast<virtio::FuseOpcode>(hdr.opcode);
    switch (op) {
      case virtio::FuseOpcode::kLookup: {
        auto res = kvfs_->lookup(hdr.nodeid, name_view(payload));
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        std::memcpy(reply.data(), &res.value, sizeof(res.value));
        r.payload_bytes = sizeof(res.value);
        return r;
      }
      case virtio::FuseOpcode::kCreate:
      case virtio::FuseOpcode::kMkdir: {
        const auto mode = virtio::read_pod<std::uint32_t>(payload);
        const auto name = name_view(payload.subspan(sizeof(mode)));
        auto res = op == virtio::FuseOpcode::kCreate
                       ? kvfs_->create(hdr.nodeid, name, mode)
                       : kvfs_->mkdir(hdr.nodeid, name, mode);
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        std::memcpy(reply.data(), &res.value, sizeof(res.value));
        r.payload_bytes = sizeof(res.value);
        return r;
      }
      case virtio::FuseOpcode::kUnlink: {
        auto res = kvfs_->unlink(hdr.nodeid, name_view(payload));
        r.error = -res.err;
        return r;
      }
      case virtio::FuseOpcode::kGetattr: {
        auto res = kvfs_->getattr(hdr.nodeid);
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        std::memcpy(reply.data(), &res.value, sizeof(res.value));
        r.payload_bytes = sizeof(res.value);
        return r;
      }
      case virtio::FuseOpcode::kRead: {
        const auto rin = virtio::read_pod<virtio::FuseReadIn>(payload);
        DPC_CHECK(rin.size <= reply.size());
        auto res = kvfs_->read(hdr.nodeid, rin.offset,
                               reply.first(rin.size));
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        r.payload_bytes = res.value;
        return r;
      }
      case virtio::FuseOpcode::kWrite: {
        const auto win = virtio::read_pod<virtio::FuseWriteIn>(payload);
        const auto data = payload.subspan(sizeof(win), win.size);
        auto res = kvfs_->write(hdr.nodeid, win.offset, data);
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        virtio::FuseWriteOut out{res.value, 0};
        std::memcpy(reply.data(), &out, sizeof(out));
        r.payload_bytes = sizeof(out);
        return r;
      }
      case virtio::FuseOpcode::kFsync: {
        auto res = kvfs_->fsync(hdr.nodeid);
        r.error = -res.err;
        return r;
      }
      case virtio::FuseOpcode::kReaddir: {
        auto res = kvfs_->readdir(hdr.nodeid);
        if (!res.ok()) {
          r.error = -res.err;
          return r;
        }
        FileResponse resp;
        resp.entries = std::move(res.value);
        const auto enc = resp.encode();
        DPC_CHECK(enc.size() <= reply.size());
        std::memcpy(reply.data(), enc.data(), enc.size());
        r.payload_bytes = static_cast<std::uint32_t>(enc.size());
        return r;
      }
      case virtio::FuseOpcode::kRename: {
        // arg = new-parent nodeid; data = oldname '\0' newname.
        const auto new_parent = virtio::read_pod<std::uint64_t>(payload);
        const auto names = payload.subspan(sizeof(new_parent));
        const auto* base = reinterpret_cast<const char*>(names.data());
        const std::string_view joined(base, names.size());
        const auto nul = joined.find('\0');
        if (nul == std::string_view::npos) {
          r.error = -EINVAL;
          return r;
        }
        auto res = kvfs_->rename(hdr.nodeid, joined.substr(0, nul),
                                 new_parent, joined.substr(nul + 1));
        r.error = -res.err;
        return r;
      }
      default:
        r.error = -ENOSYS;
        return r;
    }
  };
  hal_ = std::make_unique<virtio::DpfsHal>(*dma_, *layout_, handler,
                                           opts.max_io);
}

DpfsSystem::~DpfsSystem() { stop_hal(); }

void DpfsSystem::start_hal() {
  if (hal_running_.load(std::memory_order_acquire)) return;
  hal_thread_ = std::make_unique<dpu::WorkerPool>();
  hal_thread_->add_poller([this] {
    sim::LockGuard lock(pump_mu_);
    return hal_->process_available(64).processed;
  });
  // "DPFS can only employ a single DPFS-HAL thread" — exactly one worker.
  hal_thread_->start(1);
  hal_running_.store(true, std::memory_order_release);
}

void DpfsSystem::stop_hal() {
  if (!hal_running_.load(std::memory_order_acquire)) return;
  hal_running_.store(false, std::memory_order_release);
  hal_thread_.reset();
}

int DpfsSystem::pump() {
  sim::LockGuard lock(pump_mu_);
  return hal_->process_available(64).processed;
}

DpfsSystem::Reply DpfsSystem::call(virtio::FuseOpcode op, std::uint64_t nodeid,
                                   std::span<const std::byte> arg,
                                   std::span<const std::byte> data,
                                   std::uint32_t data_out_cap) {
  const auto sub = guest_->submit(op, nodeid, arg, data, data_out_cap);
  const bool hal = hal_running_.load(std::memory_order_acquire);
  virtio::FuseReplyView view;
  while (!guest_->try_wait(sub.ticket, &view)) {
    if (!hal)
      pump();
    else
      std::this_thread::yield();
  }
  Reply reply;
  reply.error = view.error;
  reply.payload.assign(view.payload.begin(), view.payload.end());
  guest_->release(sub.ticket);
  return reply;
}

DpfsIo DpfsSystem::lookup(std::uint64_t parent, const std::string& name) {
  const auto reply =
      call(virtio::FuseOpcode::kLookup, parent, {},
           std::as_bytes(std::span{name.data(), name.size()}), 16);
  DpfsIo io;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  DPC_CHECK(reply.payload.size() >= sizeof(std::uint64_t));
  std::memcpy(&io.ino, reply.payload.data(), sizeof(io.ino));
  return io;
}

DpfsIo DpfsSystem::create(std::uint64_t parent, const std::string& name,
                          std::uint32_t mode) {
  std::vector<std::byte> arg(sizeof(mode));
  std::memcpy(arg.data(), &mode, sizeof(mode));
  const auto reply =
      call(virtio::FuseOpcode::kCreate, parent, arg,
           std::as_bytes(std::span{name.data(), name.size()}), 16);
  DpfsIo io;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  std::memcpy(&io.ino, reply.payload.data(), sizeof(io.ino));
  return io;
}

DpfsIo DpfsSystem::mkdir(std::uint64_t parent, const std::string& name,
                         std::uint32_t mode) {
  std::vector<std::byte> arg(sizeof(mode));
  std::memcpy(arg.data(), &mode, sizeof(mode));
  const auto reply =
      call(virtio::FuseOpcode::kMkdir, parent, arg,
           std::as_bytes(std::span{name.data(), name.size()}), 16);
  DpfsIo io;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  std::memcpy(&io.ino, reply.payload.data(), sizeof(io.ino));
  return io;
}

DpfsIo DpfsSystem::unlink(std::uint64_t parent, const std::string& name) {
  const auto reply =
      call(virtio::FuseOpcode::kUnlink, parent, {},
           std::as_bytes(std::span{name.data(), name.size()}), 0);
  DpfsIo io;
  io.err = -reply.error;
  return io;
}

DpfsIo DpfsSystem::getattr(std::uint64_t ino, kvfs::Attr* attr_out) {
  const auto reply = call(virtio::FuseOpcode::kGetattr, ino, {}, {},
                          sizeof(kvfs::Attr));
  DpfsIo io;
  io.ino = ino;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  if (attr_out) {
    DPC_CHECK(reply.payload.size() >= sizeof(kvfs::Attr));
    std::memcpy(attr_out, reply.payload.data(), sizeof(kvfs::Attr));
  }
  return io;
}

DpfsIo DpfsSystem::readdir(std::uint64_t dir,
                           std::vector<kvfs::DirEntry>* out) {
  DPC_CHECK(out != nullptr);
  const auto reply =
      call(virtio::FuseOpcode::kReaddir, dir, {}, {}, opts_.max_io);
  DpfsIo io;
  io.ino = dir;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  *out = FileResponse::decode(reply.payload).entries;
  return io;
}

DpfsIo DpfsSystem::rename(std::uint64_t old_parent,
                          const std::string& old_name,
                          std::uint64_t new_parent,
                          const std::string& new_name) {
  std::vector<std::byte> arg(sizeof(new_parent));
  std::memcpy(arg.data(), &new_parent, sizeof(new_parent));
  std::string names = old_name;
  names.push_back('\0');
  names += new_name;
  const auto reply =
      call(virtio::FuseOpcode::kRename, old_parent, arg,
           std::as_bytes(std::span{names.data(), names.size()}), 0);
  DpfsIo io;
  io.err = -reply.error;
  return io;
}

DpfsIo DpfsSystem::read(std::uint64_t ino, std::uint64_t offset,
                        std::span<std::byte> dst) {
  virtio::FuseReadIn rin;
  rin.offset = offset;
  rin.size = static_cast<std::uint32_t>(dst.size());
  const auto reply = call(virtio::FuseOpcode::kRead, ino,
                          std::as_bytes(std::span{&rin, 1}), {},
                          static_cast<std::uint32_t>(dst.size()));
  DpfsIo io;
  io.ino = ino;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  io.bytes = static_cast<std::uint32_t>(reply.payload.size());
  std::memcpy(dst.data(), reply.payload.data(),
              std::min(dst.size(), reply.payload.size()));
  if (io.bytes < dst.size())
    std::memset(dst.data() + io.bytes, 0, dst.size() - io.bytes);
  return io;
}

DpfsIo DpfsSystem::write(std::uint64_t ino, std::uint64_t offset,
                         std::span<const std::byte> src) {
  virtio::FuseWriteIn win;
  win.offset = offset;
  win.size = static_cast<std::uint32_t>(src.size());
  const auto reply =
      call(virtio::FuseOpcode::kWrite, ino,
           std::as_bytes(std::span{&win, 1}), src,
           sizeof(virtio::FuseWriteOut));
  DpfsIo io;
  io.ino = ino;
  if (reply.error != 0) {
    io.err = -reply.error;
    return io;
  }
  virtio::FuseWriteOut out{};
  DPC_CHECK(reply.payload.size() >= sizeof(out));
  std::memcpy(&out, reply.payload.data(), sizeof(out));
  io.bytes = out.size;
  return io;
}

DpfsIo DpfsSystem::fsync(std::uint64_t ino) {
  const auto reply = call(virtio::FuseOpcode::kFsync, ino, {}, {}, 0);
  DpfsIo io;
  io.ino = ino;
  io.err = -reply.error;
  return io;
}

}  // namespace dpc::core
