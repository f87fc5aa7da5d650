#include "core/io_dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "nvm/wal.hpp"
#include "sim/check.hpp"

namespace dpc::core {

namespace {
nvme::HandlerResult fs_error(int err) {
  nvme::HandlerResult r;
  r.status = nvme::Status::kFsError;
  r.result = static_cast<std::uint32_t>(err);
  return r;
}
}  // namespace

IoDispatch::IoDispatch(kvfs::Kvfs& fs, dfs::DfsClient* dfs_client,
                       cache::DpuCacheControl* cache_ctl,
                       obs::Registry* registry, dpu::QosManager* qos,
                       nvm::WriteAheadLog* wal)
    : fs_(&fs),
      dfs_(dfs_client),
      cache_ctl_(cache_ctl),
      qos_(qos),
      wal_(wal),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      stats_(*registry_),
      backend_cost_hist_(&registry_->histogram("dispatch/backend_cost_ns")) {}

nvme::CommandHandler IoDispatch::handler() {
  return [this](const nvme::NvmeFsCmd& cmd,
                std::span<const std::byte> wpayload,
                std::span<std::byte> rpayload) {
    return handle(cmd, wpayload, rpayload);
  };
}

void IoDispatch::charge(sim::Nanos backend_cost) {
  stats_.backend_ns.fetch_add(static_cast<std::uint64_t>(backend_cost.ns),
                              std::memory_order_relaxed);
  stats_.ops.fetch_add(1, std::memory_order_relaxed);
  backend_cost_hist_->record(backend_cost);
}

sim::Nanos IoDispatch::mean_backend_cost() const {
  const auto ops = stats_.ops.load(std::memory_order_relaxed);
  if (ops == 0) return sim::Nanos{0};
  return sim::Nanos{static_cast<std::int64_t>(
      stats_.backend_ns.load(std::memory_order_relaxed) / ops)};
}

nvme::HandlerResult IoDispatch::handle(const nvme::NvmeFsCmd& cmd,
                                       std::span<const std::byte> wpayload,
                                       std::span<std::byte> rpayload) {
  if (qos_ != nullptr) qos_->count_op(cmd.tenant);
  if (cmd.target == nvme::DispatchTarget::kDistributed) {
    stats_.dfs_ops.fetch_add(1, std::memory_order_relaxed);
    if (dfs_ == nullptr) return fs_error(ENOSYS);
    if (cmd.inline_op == nvme::InlineOp::kNone)
      return handle_header(cmd, wpayload, rpayload);
    return handle_dfs_inline(cmd, wpayload, rpayload);
  }
  if (cmd.inline_op == nvme::InlineOp::kNone)
    return handle_header(cmd, wpayload, rpayload);
  return handle_standalone_inline(cmd, wpayload, rpayload);
}

nvme::HandlerResult IoDispatch::handle_standalone_inline(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  nvme::HandlerResult r;
  switch (cmd.inline_op) {
    case nvme::InlineOp::kRead: {
      stats_.inline_reads.fetch_add(1, std::memory_order_relaxed);
      auto res = fs_->read(cmd.inode, cmd.offset, rpayload, cmd.tenant);
      charge(res.cost);
      if (!res.ok()) return fs_error(res.err);
      r.result = res.value;
      r.read_bytes = res.value;
      r.backend_cost = res.cost + sim::calib::kDpuKvfsReadOp;
      // Teach the prefetcher about this miss as ONE event spanning the
      // request's cache pages (per-page reporting would make every 8K
      // random read look like a 2-page sequential stream).
      if (cache_ctl_ != nullptr) {
        const std::uint64_t first = cmd.offset / 4096;
        const std::uint64_t last =
            (cmd.offset + std::max(1u, res.value) - 1) / 4096;
        cache_ctl_->on_read_miss(cmd.inode, first,
                                 static_cast<std::uint32_t>(last - first + 1),
                                 cmd.tenant);
      }
      return r;
    }
    case nvme::InlineOp::kWrite: {
      stats_.inline_writes.fetch_add(1, std::memory_order_relaxed);
      auto res = fs_->write(cmd.inode, cmd.offset, wpayload, cmd.tenant);
      charge(res.cost);
      if (!res.ok()) return fs_error(res.err);
      r.result = res.value;
      r.backend_cost = res.cost + sim::calib::kDpuKvfsWriteOp;
      return r;
    }
    case nvme::InlineOp::kFsync: {
      stats_.inline_other.fetch_add(1, std::memory_order_relaxed);
      // Fast path: persist the inode's dirty pages to the NVM write-ahead
      // log and ack at NVM persistence — the background flusher drains them
      // to the KV/SSD path afterwards. Any hiccup (degraded log, host
      // writer holding a page lock, NVM fault mid-pass) falls through to
      // the synchronous flush below; an acked fsync is durable either way.
      if (wal_ != nullptr && cache_ctl_ != nullptr) {
        if (!wal_->degraded()) {
          auto logres = cache_ctl_->wal_log_pass(cmd.inode);
          if (logres.complete) {
            // Existence check (attr-cache cheap): fsync of a deleted ino
            // must still say ENOENT, fast path or not.
            auto at = fs_->getattr(cmd.inode);
            const sim::Nanos total = logres.cost + at.cost;
            if (at.err == ENOENT) {
              charge(total);
              return fs_error(ENOENT);
            }
            if (at.ok()) {
              charge(total);
              r.backend_cost = total;
              stats_.wal_fast_acks.fetch_add(1, std::memory_order_relaxed);
              return r;
            }
            // Transient attr failure: fall through to the synchronous path.
          }
        }
        // Degraded log, unloggable page, or attr hiccup: this fsync takes
        // the synchronous rung of the ladder.
        stats_.wal_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
      // Push this inode's dirty hybrid-cache pages down first, then barrier
      // the store.
      sim::Nanos sync_cost{};
      if (cache_ctl_ != nullptr) {
        const auto& cstats = cache_ctl_->stats();
        const std::uint64_t fails_before =
            cstats.flush_fails.load() + cstats.flush_integrity_fails.load();
        sync_cost += cache_ctl_->flush_inode(cmd.inode).cost;
        // A failed flush re-queues the page dirty; fsync must NOT report
        // success while such pages of this inode remain dirty — the bytes
        // are not durable yet. (Pages re-dirtied by a concurrent writer
        // after the pass are the *next* fsync's problem; only a pass that
        // actually failed writes turns leftover dirt into EIO.)
        const std::uint64_t fails_after =
            cstats.flush_fails.load() + cstats.flush_integrity_fails.load();
        if (fails_after != fails_before &&
            cache_ctl_->dirty_pages(cmd.inode, sync_cost) > 0) {
          charge(sync_cost);
          return fs_error(EIO);
        }
      }
      auto res = fs_->fsync(cmd.inode);
      charge(sync_cost + res.cost);
      if (!res.ok()) return fs_error(res.err);
      r.backend_cost = sync_cost + res.cost;
      return r;
    }
    case nvme::InlineOp::kTruncate: {
      stats_.inline_other.fetch_add(1, std::memory_order_relaxed);
      auto res = fs_->truncate(cmd.inode, cmd.offset);
      charge(res.cost);
      if (!res.ok()) return fs_error(res.err);
      return r;
    }
    case nvme::InlineOp::kNone:
      break;
  }
  return fs_error(EINVAL);
}

nvme::HandlerResult IoDispatch::handle_header(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  stats_.header_ops.fetch_add(1, std::memory_order_relaxed);
  DPC_CHECK(cmd.write_hdr_len > 0 && cmd.write_hdr_len <= wpayload.size());
  const FileRequest req = FileRequest::decode(wpayload.first(cmd.write_hdr_len));

  FileResponse resp;
  sim::Nanos backend{};
  sim::Nanos dpu_cpu{};  // the offloaded DFS client's compute
  if (cmd.target == nvme::DispatchTarget::kDistributed) {
    // Path-based DFS namespace ops.
    dfs::IoResult io;
    switch (req.op) {
      case FileOp::kCreate:
        io = dfs_->create(req.name, req.aux);
        break;
      case FileOp::kOpen:
      case FileOp::kResolve:
      case FileOp::kLookup:
        io = dfs_->open(req.name);
        break;
      case FileOp::kUnlink:
        io = dfs_->remove(req.name);
        break;
      case FileOp::kGetattr:
        io = dfs_->stat(req.parent);
        break;
      default:
        return fs_error(ENOSYS);
    }
    backend = io.prof.latency();
    dpu_cpu = io.prof.dpu_cpu;
    resp.err = io.err;
    resp.ino = io.ino;
  } else {
    switch (req.op) {
      case FileOp::kLookup: {
        auto res = fs_->lookup(req.parent, req.name);
        backend = res.cost;
        resp.err = res.err;
        resp.ino = res.value;
        break;
      }
      case FileOp::kCreate: {
        auto res = fs_->create(req.parent, req.name, req.mode);
        backend = res.cost;
        resp.err = res.err;
        resp.ino = res.value;
        break;
      }
      case FileOp::kMkdir: {
        auto res = fs_->mkdir(req.parent, req.name, req.mode);
        backend = res.cost;
        resp.err = res.err;
        resp.ino = res.value;
        break;
      }
      case FileOp::kUnlink: {
        auto res = fs_->unlink(req.parent, req.name);
        backend = res.cost;
        resp.err = res.err;
        break;
      }
      case FileOp::kRmdir: {
        auto res = fs_->rmdir(req.parent, req.name);
        backend = res.cost;
        resp.err = res.err;
        break;
      }
      case FileOp::kRename: {
        auto res = fs_->rename(req.parent, req.name, req.aux, req.name2);
        backend = res.cost;
        resp.err = res.err;
        break;
      }
      case FileOp::kGetattr: {
        auto res = fs_->getattr(req.parent);
        backend = res.cost;
        resp.err = res.err;
        if (res.ok()) {
          resp.attr = res.value;
          resp.ino = res.value.ino;
        }
        break;
      }
      case FileOp::kReaddir: {
        auto res = fs_->readdir(req.parent);
        backend = res.cost;
        resp.err = res.err;
        resp.entries = std::move(res.value);
        break;
      }
      case FileOp::kResolve: {
        auto res = fs_->resolve(req.name);
        backend = res.cost;
        resp.err = res.err;
        resp.ino = res.value;
        break;
      }
      case FileOp::kLink: {
        auto res = fs_->link(req.parent, req.aux, req.name);
        backend = res.cost;
        resp.err = res.err;
        break;
      }
      case FileOp::kSymlink: {
        auto res = fs_->symlink(req.name2, req.parent, req.name);
        backend = res.cost;
        resp.err = res.err;
        resp.ino = res.value;
        break;
      }
      case FileOp::kReadlink: {
        auto res = fs_->readlink(req.parent);
        backend = res.cost;
        resp.err = res.err;
        if (res.ok()) resp.entries.push_back({std::move(res.value), 0});
        break;
      }
      case FileOp::kOpen:
        return fs_error(ENOSYS);
    }
  }
  charge(backend);
  if (resp.err != 0)
    stats_.errors.fetch_add(1, std::memory_order_relaxed);

  const auto enc = resp.encode();
  DPC_CHECK_MSG(enc.size() <= rpayload.size(),
                "FileResponse (" << enc.size()
                                 << "B) exceeds read buffer capacity "
                                 << rpayload.size());
  std::memcpy(rpayload.data(), enc.data(), enc.size());
  nvme::HandlerResult r;
  r.read_bytes = static_cast<std::uint32_t>(enc.size());
  r.result = static_cast<std::uint32_t>(enc.size());
  r.backend_cost = dpu_cpu + backend;
  return r;
}

nvme::HandlerResult IoDispatch::handle_dfs_inline(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  nvme::HandlerResult r;
  switch (cmd.inline_op) {
    case nvme::InlineOp::kRead: {
      auto io = dfs_->read(cmd.inode, cmd.offset, rpayload);
      charge(io.prof.latency());
      if (!io.ok()) return fs_error(io.err);
      r.result = io.bytes;
      r.read_bytes = io.bytes;
      r.backend_cost = io.prof.dpu_cpu + io.prof.latency();
      return r;
    }
    case nvme::InlineOp::kWrite: {
      auto io = dfs_->write(cmd.inode, cmd.offset, wpayload);
      charge(io.prof.latency());
      if (!io.ok()) return fs_error(io.err);
      r.result = io.bytes;
      r.backend_cost = io.prof.dpu_cpu + io.prof.latency();
      return r;
    }
    default:
      return fs_error(ENOSYS);
  }
}

}  // namespace dpc::core
