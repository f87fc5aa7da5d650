#include "dfs/client.hpp"

#include <cerrno>

#include "sim/calib.hpp"

namespace dpc::dfs {

namespace {
/// nvme-fs transport demand for one offloaded op moving `payload` bytes:
/// the Fig. 4 walk — SQE fetch + PRP-list fetch + one payload DMA + CQE,
/// plus the doorbell.
sim::Nanos nvme_fs_transport(std::uint32_t payload) {
  using namespace sim::calib;
  return kDmaSetup * 5 + pcie_transfer(payload);
}
}  // namespace

DfsClient::DfsClient(ClientId id, MdsCluster& mds, DataServers& ds,
                     const ClientConfig& cfg, obs::Registry* registry)
    : id_(id),
      mds_(&mds),
      ds_(&ds),
      cfg_(cfg),
      entry_mds_(static_cast<int>(id) % mds.servers()),
      rs_(4, 2),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      stats_(registry != nullptr ? *registry : *owned_registry_),
      backend_ns_(registry != nullptr
                      ? &registry->histogram("dfs.client/backend_ns")
                      : &owned_registry_->histogram("dfs.client/backend_ns")) {}

bool DfsClient::holds_delegation(Ino ino) const {
  sim::LockGuard lock(mu_);
  return delegations_.contains(ino);
}

void DfsClient::charge_client_cpu(OpProfile& prof, bool data_op,
                                  std::uint32_t payload_bytes,
                                  bool is_write) const {
  using namespace sim::calib;
  if (cfg_.on_dpu()) {
    // DPC: host pays syscall + fs-adapter + data copy + completion + the
    // NFS-compat shim; the client stack runs on the DPU.
    prof.host_cpu += kSyscallVfs + kFsAdapterOp + kHostNvmeCompletion;
    if (data_op) prof.host_cpu += kHostDataPathOp + kNfsCompatShim;
    prof.pcie += nvme_fs_transport(data_op ? payload_bytes : 64);
    prof.dpu_cpu += (data_op && is_write) ? kDpuDfsWriteOp : kDpuDfsReadOp;
  } else if (cfg_.client_side()) {
    // Optimized host client: the "datacenter tax".
    prof.host_cpu += kSyscallVfs + kNfsClientOp + kOptClientExtraOp;
  } else {
    prof.host_cpu += kSyscallVfs + kNfsClientOp;
  }
  // A healthy read decodes nothing; read() charges a reconstruct's decode.
  if (data_op && is_write && cfg_.client_side())
    charge_ec(prof, payload_bytes);
}

void DfsClient::charge_ec(OpProfile& prof, std::uint64_t bytes) const {
  if (cfg_.on_dpu())
    prof.dpu_cpu += ec::ReedSolomon::dpu_encode_cost(bytes);
  else
    prof.host_cpu += ec::ReedSolomon::host_encode_cost(bytes);
}

std::optional<FileMeta> DfsClient::meta_of(Ino ino, OpProfile& prof) {
  if (cfg_.client_side()) {
    sim::LockGuard lock(mu_);
    const auto it = meta_cache_.find(ino);
    if (it != meta_cache_.end()) return it->second;
  }
  auto meta = mds_->stat(ino, entry_mds_, cfg_.client_side(), prof);
  if (meta && cfg_.client_side()) {
    sim::LockGuard lock(mu_);
    meta_cache_[ino] = *meta;
  }
  return meta;
}

Grant DfsClient::ensure_delegation(Ino ino, OpProfile& prof) {
  if (cfg_.client_side()) {
    {
      sim::LockGuard lock(mu_);
      if (delegations_.contains(ino)) return Grant::kGranted;  // cached: free
    }
    const Grant grant = mds_->acquire_delegation(ino, id_, entry_mds_,
                                                 cfg_.client_side(), prof);
    if (grant != Grant::kGranted) return grant;
    sim::LockGuard lock(mu_);
    delegations_.insert(ino);
    return Grant::kGranted;
  }
  // Standard client: lock round trip on every write.
  return mds_->acquire_delegation(ino, id_, entry_mds_, cfg_.client_side(),
                                  prof);
}

void DfsClient::account(obs::Counter& op_counter, const IoResult& io) {
  op_counter.add();
  if (io.err != 0) stats_.errors.add();
  stats_.mds_ops.add(io.prof.mds_ops);
  stats_.ds_ops.add(io.prof.ds_ops);
  stats_.forwards.add(io.prof.forwards);
  backend_ns_->record(io.prof.latency());
}

IoResult DfsClient::create(const std::string& path,
                           std::uint64_t prealloc_size) {
  IoResult res;
  OpAccount acct{this, &stats_.meta_ops, &res};
  charge_client_cpu(res.prof, false, 0);
  FileMeta templ;
  if (cfg_.use_replication) templ.redundancy = Redundancy::kReplication;
  auto meta = mds_->create(path, prealloc_size, entry_mds_,
                           cfg_.client_side(), res.prof,
                           cfg_.use_replication ? &templ : nullptr);
  if (!meta) {
    res.err = EEXIST;
    return res;
  }
  if (cfg_.client_side()) {
    sim::LockGuard lock(mu_);
    meta_cache_[meta->ino] = *meta;
  }
  if (cfg_.on_dpu()) {
    // DPC packs the create and the creator's write delegation into one
    // metadata message (§2.1's small-I/O packing, applied to metadata), so
    // the grant costs no extra MDS round trip.
    OpProfile free_grant;
    if (mds_->acquire_delegation(meta->ino, id_, entry_mds_,
                                 cfg_.client_side(), free_grant) ==
        Grant::kGranted) {
      sim::LockGuard lock(mu_);
      delegations_.insert(meta->ino);
    }
  }
  res.ino = meta->ino;
  return res;
}

IoResult DfsClient::open(const std::string& path) {
  IoResult res;
  OpAccount acct{this, &stats_.meta_ops, &res};
  charge_client_cpu(res.prof, false, 0);
  const auto ino = mds_->lookup(path, entry_mds_, cfg_.client_side(), res.prof);
  if (!ino) {
    res.err = ENOENT;
    return res;
  }
  res.ino = *ino;
  return res;
}

IoResult DfsClient::stat(Ino ino) {
  IoResult res;
  OpAccount acct{this, &stats_.meta_ops, &res};
  charge_client_cpu(res.prof, false, 0);
  const auto meta = meta_of(ino, res.prof);
  if (!meta) {
    res.err = ENOENT;
    return res;
  }
  res.ino = ino;
  res.bytes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(meta->size, UINT32_MAX));
  return res;
}

IoResult DfsClient::read(Ino ino, std::uint64_t offset,
                         std::span<std::byte> dst) {
  IoResult res;
  OpAccount acct{this, &stats_.reads, &res};
  res.ino = ino;
  charge_client_cpu(res.prof, true, static_cast<std::uint32_t>(dst.size()));
  if (!cfg_.client_side()) {
    if (!mds_->server_side_read(*ds_, rs_, ino, offset, dst, entry_mds_,
                                cfg_.client_side(), res.prof)) {
      res.err = ENOENT;
      return res;
    }
    res.bytes = static_cast<std::uint32_t>(dst.size());
    return res;
  }
  const auto meta = meta_of(ino, res.prof);
  if (!meta) {
    res.err = ENOENT;
    return res;
  }
  // One engine per scheme; it recovers failed shards itself, so it fails
  // only when a stripe is short of k clean shards (or a unit of any clean
  // copy) — worth a bounded retry with backoff.
  bool reconstructed = false;
  std::uint64_t salt = 0;
  for (int attempt = 1;; ++attempt) {
    const bool done =
        meta->redundancy == Redundancy::kReplication
            ? replicated_read(*ds_, *meta, offset, dst, res.prof)
            : striped_read(*ds_, rs_, *meta, offset, dst, res.prof,
                           &reconstructed);
    if (done) break;
    if (attempt >= ClientConfig::kRetry.max_attempts) {
      res.err = EIO;
      res.transient = fault::Transient::kTimeout;
      return res;
    }
    if (attempt == 1) salt = op_seq_.fetch_add(1, std::memory_order_relaxed);
    res.prof.net += ClientConfig::kRetry.backoff(attempt, salt);
  }
  if (reconstructed) {
    // The decode compute lands where the client runs.
    stats_.degraded_reads.add();
    charge_ec(res.prof, dst.size());
  }
  res.bytes = static_cast<std::uint32_t>(dst.size());
  return res;
}

IoResult DfsClient::write(Ino ino, std::uint64_t offset,
                          std::span<const std::byte> src) {
  IoResult res;
  OpAccount acct{this, &stats_.writes, &res};
  res.ino = ino;
  charge_client_cpu(res.prof, true, static_cast<std::uint32_t>(src.size()),
                    /*is_write=*/true);
  // Delegation contention is transient by nature: the holder may let go at
  // any moment. Retry with backoff instead of bouncing a hard EAGAIN
  // straight to the application. An ino no MDS knows is final.
  Grant grant = ensure_delegation(ino, res.prof);
  const std::uint64_t salt =
      grant == Grant::kBusy ? op_seq_.fetch_add(1, std::memory_order_relaxed)
                            : 0;
  for (int attempt = 1;
       grant == Grant::kBusy && attempt < ClientConfig::kRetry.max_attempts;
       ++attempt) {
    stats_.delegation_retries.add();
    res.prof.net += ClientConfig::kRetry.backoff(attempt, salt);
    grant = ensure_delegation(ino, res.prof);
  }
  if (grant == Grant::kUnknownIno) {
    res.err = ENOENT;
    return res;
  }
  if (grant == Grant::kBusy) {
    res.err = EAGAIN;
    res.transient = fault::Transient::kBusy;
    return res;
  }
  if (cfg_.client_side()) {
    const auto meta = meta_of(ino, res.prof);
    if (!meta) {
      res.err = ENOENT;
      return res;
    }
    // EC / replication handled here (compute already charged to the right
    // CPU), data straight to the data servers.
    const bool stored =
        meta->redundancy == Redundancy::kReplication
            ? replicated_write(*ds_, *meta, offset, src, res.prof)
            : striped_write(*ds_, rs_, *meta, offset, src, res.prof);
    if (!stored) {
      res.err = EIO;
      res.transient = fault::Transient::kTimeout;
      return res;
    }
    // Size updates are lazy/batched: only needed when the file grows past
    // the preallocated size.
    if (offset + src.size() > meta->size) {
      mds_->update_size(ino, offset + src.size(), entry_mds_,
                        cfg_.client_side(), res.prof);
      sim::LockGuard lock(mu_);
      auto it = meta_cache_.find(ino);
      if (it != meta_cache_.end())
        it->second.size = offset + src.size();
    }
  } else {
    if (!mds_->server_side_write(*ds_, rs_, ino, offset, src, entry_mds_,
                                 cfg_.client_side(), res.prof)) {
      res.err = ENOENT;
      return res;
    }
  }
  res.bytes = static_cast<std::uint32_t>(src.size());
  return res;
}

IoResult DfsClient::remove(const std::string& path) {
  IoResult res;
  OpAccount acct{this, &stats_.meta_ops, &res};
  charge_client_cpu(res.prof, false, 0);
  auto opened = mds_->lookup(path, entry_mds_, cfg_.client_side(), res.prof);
  if (!opened) {
    res.err = ENOENT;
    return res;
  }
  mds_->remove(path, entry_mds_, cfg_.client_side(), res.prof);
  ds_->purge(*opened);
  {
    sim::LockGuard lock(mu_);
    meta_cache_.erase(*opened);
    delegations_.erase(*opened);
  }
  return res;
}

}  // namespace dpc::dfs
