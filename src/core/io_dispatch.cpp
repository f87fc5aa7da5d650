#include "core/io_dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "nvm/wal.hpp"
#include "sim/check.hpp"

namespace dpc::core {

IoDispatch::IoDispatch(kvfs::Kvfs& fs, dfs::DfsClient* dfs_client,
                       cache::DpuCacheControl* cache_ctl,
                       obs::Registry& registry, dpu::QosManager* qos,
                       nvm::WriteAheadLog* wal)
    : fs_(&fs),
      dfs_(dfs_client),
      cache_ctl_(cache_ctl),
      qos_(qos),
      wal_(wal),
      stats_(registry),
      backend_cost_hist_(&registry.histogram("dispatch/backend_cost_ns")) {}

nvme::CommandHandler IoDispatch::handler() {
  return [this](const nvme::NvmeFsCmd& cmd,
                std::span<const std::byte> wpayload,
                std::span<std::byte> rpayload) {
    return handle(cmd, wpayload, rpayload);
  };
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
  Outcome o;
  if (cmd.target == nvme::DispatchTarget::kDistributed) {
    stats_.dfs_ops.fetch_add(1, std::memory_order_relaxed);
    if (dfs_ == nullptr)
      o.err = ENOSYS;
    else if (cmd.inline_op == nvme::InlineOp::kNone)
      o = handle_header(cmd, wpayload, rpayload);
    else
      o = handle_dfs_inline(cmd, wpayload, rpayload);
  } else if (cmd.inline_op == nvme::InlineOp::kNone) {
    o = handle_header(cmd, wpayload, rpayload);
  } else {
    o = handle_standalone_inline(cmd, wpayload, rpayload);
  }

  // The one place a command's cost and status are decided.
  stats_.backend_ns.fetch_add(static_cast<std::uint64_t>(o.backend.ns),
                              std::memory_order_relaxed);
  stats_.ops.fetch_add(1, std::memory_order_relaxed);
  backend_cost_hist_->record(o.backend);
  if (o.err != 0) stats_.errors.fetch_add(1, std::memory_order_relaxed);
  nvme::HandlerResult r;
  r.read_bytes = o.read_bytes;
  r.backend_cost = o.dpu + o.backend;
  if (o.err != 0 && o.read_bytes == 0) {
    r.status = nvme::Status::kFsError;
    r.result = static_cast<std::uint32_t>(o.err);
  } else {
    r.result = o.result;
  }
  return r;
}

IoDispatch::Outcome IoDispatch::handle_standalone_inline(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  Outcome o;
  switch (cmd.inline_op) {
    case nvme::InlineOp::kRead: {
      stats_.inline_reads.fetch_add(1, std::memory_order_relaxed);
      const auto res = fs_->read(cmd.inode, cmd.offset, rpayload, cmd.tenant);
      o.err = res.err;
      o.backend = res.cost;
      o.dpu = sim::calib::kDpuKvfsReadOp;
      if (!res.ok()) return o;
      o.result = res.value;
      o.read_bytes = res.value;
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
      return o;
    }
    case nvme::InlineOp::kWrite: {
      stats_.inline_writes.fetch_add(1, std::memory_order_relaxed);
      const auto res = fs_->write(cmd.inode, cmd.offset, wpayload, cmd.tenant);
      o.err = res.err;
      o.result = res.value;
      o.backend = res.cost;
      o.dpu = sim::calib::kDpuKvfsWriteOp;
      return o;
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
          // The pass costs what it pulled and appended, finished or not.
          const auto logres = cache_ctl_->wal_log_pass(cmd.inode);
          o.backend += logres.cost;
          if (logres.complete) {
            // Existence check (attr-cache cheap): fsync of a deleted ino
            // must still say ENOENT, fast path or not.
            const auto at = fs_->getattr(cmd.inode);
            o.backend += at.cost;
            if (at.err == ENOENT) {
              o.err = ENOENT;
              return o;
            }
            if (at.ok()) {
              stats_.wal_fast_acks.fetch_add(1, std::memory_order_relaxed);
              return o;
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
      if (cache_ctl_ != nullptr) {
        const auto& cstats = cache_ctl_->stats();
        const std::uint64_t fails_before =
            cstats.flush_fails.load() + cstats.flush_integrity_fails.load();
        o.backend += cache_ctl_->flush_inode(cmd.inode).cost;
        // A failed flush re-queues the page dirty; fsync must NOT report
        // success while such pages of this inode remain dirty — the bytes
        // are not durable yet. (Pages re-dirtied by a concurrent writer
        // after the pass are the *next* fsync's problem; only a pass that
        // actually failed writes turns leftover dirt into EIO.)
        const std::uint64_t fails_after =
            cstats.flush_fails.load() + cstats.flush_integrity_fails.load();
        if (fails_after != fails_before &&
            cache_ctl_->dirty_pages(cmd.inode, o.backend) > 0) {
          o.err = EIO;
          return o;
        }
      }
      const auto res = fs_->fsync(cmd.inode);
      o.err = res.err;
      o.backend += res.cost;
      return o;
    }
    case nvme::InlineOp::kTruncate: {
      stats_.inline_other.fetch_add(1, std::memory_order_relaxed);
      const auto res = fs_->truncate(cmd.inode, cmd.offset);
      o.err = res.err;
      o.backend = res.cost;
      return o;
    }
    case nvme::InlineOp::kNone:
      break;
  }
  o.err = EINVAL;
  return o;
}

IoDispatch::Outcome IoDispatch::handle_header(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  stats_.header_ops.fetch_add(1, std::memory_order_relaxed);
  DPC_CHECK(cmd.write_hdr_len > 0 && cmd.write_hdr_len <= wpayload.size());
  const FileRequest req = FileRequest::decode(wpayload.first(cmd.write_hdr_len));

  Outcome o;
  FileResponse resp;
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
        o.err = ENOSYS;
        return o;
    }
    o.backend = io.prof.latency();
    o.dpu = io.prof.dpu_cpu;
    resp.err = io.err;
    resp.ino = io.ino;
  } else {
    // Every KVFS namespace op replies with its errno; those that name an
    // inode (unlink: the removed one, when its last link went) reply with
    // it too.
    auto take = [&](const auto& res) {
      o.backend = res.cost;
      resp.err = res.err;
      if constexpr (std::is_same_v<decltype(res.value), kvfs::Ino>)
        resp.ino = res.value;
    };
    switch (req.op) {
      case FileOp::kLookup:
        take(fs_->lookup(req.parent, req.name));
        break;
      case FileOp::kCreate:
        take(fs_->create(req.parent, req.name, req.mode));
        break;
      case FileOp::kMkdir:
        take(fs_->mkdir(req.parent, req.name, req.mode));
        break;
      case FileOp::kUnlink:
        take(fs_->unlink(req.parent, req.name));
        break;
      case FileOp::kRmdir:
        take(fs_->rmdir(req.parent, req.name));
        break;
      case FileOp::kRename:
        take(fs_->rename(req.parent, req.name, req.aux, req.name2));
        break;
      case FileOp::kGetattr: {
        const auto res = fs_->getattr(req.parent);
        take(res);
        if (res.ok()) {
          resp.attr = res.value;
          resp.ino = res.value.ino;
        }
        break;
      }
      case FileOp::kReaddir: {
        auto res = fs_->readdir(req.parent);
        take(res);
        resp.entries = std::move(res.value);
        break;
      }
      case FileOp::kResolve:
        take(fs_->resolve(req.name));
        break;
      case FileOp::kLink:
        take(fs_->link(req.parent, req.aux, req.name));
        break;
      case FileOp::kSymlink:
        take(fs_->symlink(req.name2, req.parent, req.name));
        break;
      case FileOp::kReadlink: {
        auto res = fs_->readlink(req.parent);
        take(res);
        if (res.ok()) resp.entries.push_back({std::move(res.value), 0});
        break;
      }
      case FileOp::kOpen:
        o.err = ENOSYS;
        return o;
    }
  }

  const auto enc = resp.encode();
  DPC_CHECK_MSG(enc.size() <= rpayload.size(),
                "FileResponse (" << enc.size()
                                 << "B) exceeds read buffer capacity "
                                 << rpayload.size());
  std::memcpy(rpayload.data(), enc.data(), enc.size());
  o.err = resp.err;
  o.read_bytes = static_cast<std::uint32_t>(enc.size());
  o.result = o.read_bytes;
  return o;
}

IoDispatch::Outcome IoDispatch::handle_dfs_inline(
    const nvme::NvmeFsCmd& cmd, std::span<const std::byte> wpayload,
    std::span<std::byte> rpayload) {
  dfs::IoResult io;
  switch (cmd.inline_op) {
    case nvme::InlineOp::kRead:
      io = dfs_->read(cmd.inode, cmd.offset, rpayload);
      break;
    case nvme::InlineOp::kWrite:
      io = dfs_->write(cmd.inode, cmd.offset, wpayload);
      break;
    default:
      return {.err = ENOSYS};
  }
  Outcome o{.err = io.err,
            .result = io.bytes,
            .backend = io.prof.latency(),
            .dpu = io.prof.dpu_cpu};
  if (io.ok() && cmd.inline_op == nvme::InlineOp::kRead)
    o.read_bytes = io.bytes;
  return o;
}

}  // namespace dpc::core
