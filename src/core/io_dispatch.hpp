// IO_Dispatch — the DPU-side module that routes nvme-fs commands to the
// offloaded stacks (Fig. 3): request-type bit 0 → KVFS (standalone file
// service), bit 1 → the offloaded DFS client.
//
// Data-path commands arrive inline in the SQE (read/write/fsync/truncate);
// metadata commands carry a FileRequest header in the write payload and
// return a FileResponse header in the read payload. Read misses are
// reported to the hybrid-cache control plane so its prefetcher can learn
// sequential streams (Fig. 8).
#pragma once

#include <cstdint>

#include "cache/control_plane.hpp"
#include "core/fileproto.hpp"
#include "dfs/client.hpp"
#include "kvfs/kvfs.hpp"
#include "nvme/tgt.hpp"
#include "obs/metrics.hpp"

namespace dpc::core {

/// Dispatch counters, registry-backed: the members are named counters in
/// the owning obs::Registry ("dispatch/…"), so they appear in every metrics
/// JSON snapshot while keeping the legacy accessor API (.load()).
struct DispatchStats {
  explicit DispatchStats(obs::Registry& reg)
      : inline_reads(reg.counter("dispatch/inline_reads")),
        inline_writes(reg.counter("dispatch/inline_writes")),
        inline_other(reg.counter("dispatch/inline_other")),
        header_ops(reg.counter("dispatch/header_ops")),
        dfs_ops(reg.counter("dispatch/dfs_ops")),
        errors(reg.counter("dispatch/errors")),
        backend_ns(reg.counter("dispatch/backend_ns")),
        ops(reg.counter("dispatch/ops")),
        wal_fast_acks(reg.counter("dispatch/wal_fast_acks")),
        wal_fallbacks(reg.counter("dispatch/wal_fallbacks")) {}

  obs::Counter& inline_reads;
  obs::Counter& inline_writes;
  obs::Counter& inline_other;
  obs::Counter& header_ops;
  obs::Counter& dfs_ops;
  obs::Counter& errors;
  /// Accumulated modelled backend cost (KV / DFS round trips), for the
  /// figure benches' demand estimation.
  obs::Counter& backend_ns;
  obs::Counter& ops;
  /// Fsyncs acked at NVM persistence (WAL fast path) vs. fsyncs that fell
  /// back to the synchronous flush (degraded log / unloggable page).
  obs::Counter& wal_fast_acks;
  obs::Counter& wal_fallbacks;
};

class IoDispatch {
 public:
  /// `dfs_client` and `cache_ctl` may be null (standalone-only setups).
  /// `registry` hosts the dispatch counters and per-op-class backend
  /// histograms. `qos` (may be null) scopes per-op counters to the
  /// command's tenant. `wal` (may be null; used with `cache_ctl`) enables
  /// the fsync fast path: ack at NVM persistence and let the background
  /// flusher drain — falling back to the synchronous flush whenever the log
  /// is degraded or a page could not be logged.
  IoDispatch(kvfs::Kvfs& fs, dfs::DfsClient* dfs_client,
             cache::DpuCacheControl* cache_ctl, obs::Registry& registry,
             dpu::QosManager* qos, nvm::WriteAheadLog* wal);

  /// The nvme-fs command handler to register with the TGT driver.
  nvme::CommandHandler handler();

  const DispatchStats& stats() const { return stats_; }
  /// Mean modelled backend cost per dispatched op.
  sim::Nanos mean_backend_cost() const;

 private:
  /// What a handler decided about one command. `handle` turns it into the
  /// CQE: a nonzero `err` travels in the reply when the handler produced
  /// one (a header op's FileResponse), else as a kFsError CQE. `backend`
  /// (KV / DFS round trips) is charged to "dispatch/backend_ns"; the
  /// command's service time is `dpu + backend`, failed commands included.
  struct Outcome {
    int err = 0;
    std::uint32_t result = 0;
    std::uint32_t read_bytes = 0;
    sim::Nanos backend{};
    sim::Nanos dpu{};  ///< DPU compute: KVFS per-op work, DFS client CPU
  };

  nvme::HandlerResult handle(const nvme::NvmeFsCmd& cmd,
                             std::span<const std::byte> wpayload,
                             std::span<std::byte> rpayload);
  Outcome handle_standalone_inline(const nvme::NvmeFsCmd& cmd,
                                   std::span<const std::byte> wpayload,
                                   std::span<std::byte> rpayload);
  Outcome handle_header(const nvme::NvmeFsCmd& cmd,
                        std::span<const std::byte> wpayload,
                        std::span<std::byte> rpayload);
  Outcome handle_dfs_inline(const nvme::NvmeFsCmd& cmd,
                            std::span<const std::byte> wpayload,
                            std::span<std::byte> rpayload);

  kvfs::Kvfs* fs_;
  dfs::DfsClient* dfs_;
  cache::DpuCacheControl* cache_ctl_;
  dpu::QosManager* qos_;
  nvm::WriteAheadLog* wal_;
  DispatchStats stats_;
  /// Modelled backend cost distribution per dispatched op.
  sim::Histogram* backend_cost_hist_;
};

}  // namespace dpc::core
