// DpcSystem — the full DPC stack of Fig. 3, assembled:
//
//   host side:  fs-adapter (this class's public API) + hybrid-cache data
//               plane + NVME-INI drivers over per-thread nvme-fs queues
//   link:       counting DmaEngine (PCIe model)
//   DPU side:   NVME-TGT drivers + IO_Dispatch + KVFS (standalone service)
//               + offloaded DFS client + hybrid-cache control plane, all
//               driven by a WorkerPool standing in for the DPU cores
//   backend:    disaggregated KV store (KVFS) and the DFS cluster
//
// The public file API is what the host kernel's fs-adapter exposes to the
// VFS: reads check the hybrid cache first and only reach the DPU on a miss;
// non-direct writes land in the hybrid cache and are flushed by the DPU
// control plane; DIRECT_IO bypasses the cache both ways (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/control_plane.hpp"
#include "cache/host_plane.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/histogram.hpp"
#include "core/io_dispatch.hpp"
#include "dfs/backend.hpp"
#include "dfs/client.hpp"
#include "dpu/dpu.hpp"
#include "dpu/qos.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "dpu/scrubber.hpp"
#include "dpu/worker_pool.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"
#include "nvm/device.hpp"
#include "nvm/wal.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/tgt.hpp"
#include "pcie/dma.hpp"
#include "sim/calib.hpp"
#include "sim/thread_annotations.hpp"

namespace dpc::core {

struct DpcOptions {
  int queues = 4;                   ///< nvme-fs queue pairs (multi-queue)
  std::uint16_t queue_depth = 16;
  std::uint32_t max_io = 1 << 20;   ///< per-command payload cap (1 MB)
  bool enable_cache = true;
  cache::CacheGeometry cache_geo{4096, 256};  ///< 16 MiB
  cache::ControlPlaneConfig cache_ctl{};
  bool with_dfs = true;
  int dpu_workers = 2;
  /// Mount against an existing disaggregated KV store instead of creating
  /// a private one — several DPC mounts (application servers) sharing one
  /// backend, as in the paper's diskless-architecture deployment.
  kv::KvStore* shared_store = nullptr;

  // ---- failure model (all off by default: null injector = zero overhead)
  /// Central fault injector threaded through every layer (TGT CQE
  /// drop/error, remote-KV timeouts, data-server shard faults, cache-flush
  /// failures). Must outlive the system.
  fault::FaultInjector* fault = nullptr;
  /// Retry budget for NVMe commands that are declared lost or complete
  /// with a retryable status (kAbortedByRequest / kDataTransferError).
  fault::RetryPolicy nvme_retry{};
  /// Retry/backoff policy for remote-KV ops and the KV circuit breaker.
  fault::RetryPolicy kv_retry{};
  fault::CircuitBreaker::Config kv_breaker{};

  // ---- background integrity scrub
  /// Runs the DPU-side scrubber as a WorkerPool poller: walks the KV store
  /// (and the DFS shards when with_dfs), re-verifying checksums at
  /// `scrub.items_per_pass` per paced pass and repairing EC shards from
  /// parity. Off by default — zero overhead.
  bool enable_scrubber = false;
  dpu::ScrubberConfig scrub{};

  // ---- NVM write-ahead durability tier (§ robustness)
  /// Stages every fsync'd dirty page in a byte-addressable on-DPU PMEM log
  /// before acking: fsync returns at NVM persistence (~µs) instead of the
  /// synchronous KV flush (~100 µs), and a DPU power-cycle replays the log.
  /// Off by default: the pre-WAL behavior is bit-identical (no device, no
  /// log, no fast path).
  bool enable_nvm_wal = false;
  /// Capacity of the PMEM log ring (default: calibrated 16 MiB).
  std::uint64_t nvm_log_bytes = sim::calib::kNvmLogBytes;

  // ---- per-tenant QoS (overload robustness)
  /// DPU-side admission control, weighted fair scheduling and graceful
  /// degradation, keyed on the tenant id each SQE carries in DW10[31:24].
  /// Off by default: a null manager keeps every hook at the pre-QoS
  /// behavior (FIFO dispatch, no admission, no shedding).
  dpu::QosConfig qos{};
};

/// Result of one fs-adapter call.
struct Io {
  int err = 0;  ///< 0 or positive errno
  /// The op's inode. unlink: the removed inode when its last link went,
  /// else 0.
  std::uint64_t ino = 0;
  std::uint32_t bytes = 0;
  bool cache_hit = false;
  /// Modelled host-visible latency of this op: host work, transport and
  /// everything the DPU charged, for every nvme-fs command the adapter sent
  /// on the op's behalf (side getattr/truncate included), failed or not.
  sim::Nanos cost{};
  /// The op's own nvme-fs command, for saying why an op failed: the status
  /// of its last completion and how many times it was submitted (0 for an
  /// op the host cache served).
  nvme::Status status = nvme::Status::kSuccess;
  int attempts = 0;
  bool ok() const { return err == 0; }
};

class DpcSystem {
 public:
  explicit DpcSystem(const DpcOptions& opts = {});
  ~DpcSystem();
  DpcSystem(const DpcSystem&) = delete;
  DpcSystem& operator=(const DpcSystem&) = delete;

  /// Spawns the DPU worker threads (TGT pollers + cache control plane).
  /// Without this, host calls pump the DPU inline — deterministic mode for
  /// unit tests.
  void start_dpu();
  void stop_dpu();

  /// What a DPU power-cycle recovered.
  struct RestartReport {
    int queues_reset = 0;           ///< nvme-fs queue pairs re-initialized
    std::uint16_t aborted_cids = 0; ///< in-flight commands aborted to host
    kvfs::Kvfs::RecoveryReport fs;  ///< WAL replay + fsck repair
    std::uint32_t rebuilt_pages = 0;  ///< cache pages adopted from host DRAM
    int reflushed_pages = 0;          ///< dirty pages pushed down post-crash
    /// A crash point fired *during* recovery (e.g. mid WAL replay): the
    /// crash latch is set again and this report is partial. Power-cycle
    /// again — replay is idempotent, so the retry converges.
    bool interrupted = false;
    sim::Nanos cost{};  ///< modelled recovery time (also "recovery/restart_ns")
    bool clean() const { return fs.clean() && !interrupted; }
  };

  /// Models a DPU power-cycle after a fault-injected crash (§ robustness):
  /// quiesces the workers, resets every nvme-fs controller pair (TGT rings
  /// rewound, in-flight host commands aborted so their waiters requeue),
  /// clears the crash latch, recovers the KVFS keyspace (WAL replay + fsck
  /// repair), rebuilds the DPU-side cache control state from
  /// the surviving host-DRAM data plane and re-flushes dirty pages, then
  /// restarts the workers if they were running. The fs-adapter's size view
  /// survives deliberately — the host never crashed.
  RestartReport restart_dpu();

  /// Test helper: models a simultaneous *host* power loss — wipes the
  /// host-DRAM cache region (re-formats it empty) and the fs-adapter's
  /// size view, so the only recovery sources left are the KV store and the
  /// NVM log. Call while the DPU is quiesced (before restart_dpu()).
  void wipe_host_cache();

  // ------------------------- standalone (KVFS) file service -------------
  Io create(std::uint64_t parent, const std::string& name,
            std::uint32_t mode = 0644);
  Io mkdir(std::uint64_t parent, const std::string& name,
           std::uint32_t mode = 0755);
  Io lookup(std::uint64_t parent, const std::string& name);
  Io resolve(const std::string& path);
  Io unlink(std::uint64_t parent, const std::string& name);
  Io rmdir(std::uint64_t parent, const std::string& name);
  Io rename(std::uint64_t old_parent, const std::string& old_name,
            std::uint64_t new_parent, const std::string& new_name);
  /// Hard link `ino` as `new_parent`/`name`.
  Io link(std::uint64_t ino, std::uint64_t new_parent,
          const std::string& name);
  Io symlink(const std::string& target, std::uint64_t parent,
             const std::string& name);
  Io readlink(std::uint64_t ino, std::string* target_out);
  Io getattr(std::uint64_t ino, kvfs::Attr* attr_out = nullptr);
  Io readdir(std::uint64_t ino, std::vector<kvfs::DirEntry>* out);

  /// Buffered by default; `direct` = DIRECT_IO (bypass the hybrid cache).
  Io read(std::uint64_t ino, std::uint64_t offset, std::span<std::byte> dst,
          bool direct = false);
  Io write(std::uint64_t ino, std::uint64_t offset,
           std::span<const std::byte> src, bool direct = false);
  Io truncate(std::uint64_t ino, std::uint64_t new_size);
  Io fsync(std::uint64_t ino);

  // --------------------------- distributed (DFS) service ----------------
  /// Only valid when options.with_dfs; these flow through nvme-fs with the
  /// dispatch bit set to "distributed".
  Io dfs_create(const std::string& path, std::uint64_t prealloc = 0);
  Io dfs_open(const std::string& path);
  Io dfs_read(std::uint64_t ino, std::uint64_t offset,
              std::span<std::byte> dst);
  Io dfs_write(std::uint64_t ino, std::uint64_t offset,
               std::span<const std::byte> src);

  // ------------------------------ introspection -------------------------
  const pcie::DmaCounters& dma_counters() const { return dma_->counters(); }
  pcie::DmaCounters& dma_counters() { return dma_->counters(); }
  const cache::HostCacheStats* cache_stats() const;
  const cache::ControlPlaneStats* control_stats() const;
  const DispatchStats& dispatch_stats() const { return dispatch_->stats(); }
  sim::Nanos mean_backend_cost() const {
    return dispatch_->mean_backend_cost();
  }
  kvfs::Kvfs& kvfs() { return *kvfs_; }
  kv::KvStore& kv_store() { return remote_kv_->store(); }
  dfs::MdsCluster* mds() { return mds_.get(); }
  dfs::DataServers* data_servers() { return data_servers_.get(); }
  cache::DpuCacheControl* cache_control() { return cache_ctl_.get(); }
  /// Null unless options.enable_scrubber.
  dpu::Scrubber* scrubber() { return scrubber_.get(); }
  /// Null unless options.enable_nvm_wal.
  nvm::WriteAheadLog* wal() { return wal_.get(); }

  /// Pump-mode internals exposed for the lockrank/model-check harnesses:
  /// the per-queue pump lock (tests acquire them out of order to prove the
  /// detector fires) and the queue count they index over.
  sim::AnnotatedMutex& pump_lock_for_test(int q) { return *pump_mu_.at(q); }
  int pump_queue_count() const { return static_cast<int>(pump_mu_.size()); }
  /// One bare pump pass, as a pump-mode caller would issue inline — lets
  /// the model checker drive a poller straight at the restart freeze.
  int pump_for_test(int q) { return pump(q); }
  /// Worker mode without the pool: callers wait as they do while workers
  /// run (yield, never pump) and the test runs every TGT pass itself via
  /// pump_for_test(). stop_dpu() ends it; restart_dpu() must not run
  /// meanwhile (it would start a real pool).
  void hand_tgts_to_test() {
    workers_running_.store(true, std::memory_order_release);
  }

  /// Tenant identity stamped into every nvme-fs command this thread issues
  /// (SQE DW10[31:24]); sticky until changed, default 0. Workload threads
  /// set it once before their first call.
  static void set_thread_tenant(nvme::TenantId tenant);
  static nvme::TenantId thread_tenant();
  const DpcOptions& options() const { return opts_; }

  /// The system-wide metrics registry: every subsystem's counters and
  /// histograms (dispatch/…, cache.*/…, kvfs/…, nvme.*/…, trace/…) live
  /// here; snapshot with metrics().to_json().
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

  /// Modelled-latency distributions by op class, recorded once per call
  /// with its whole `Io::cost`, failed calls included. Data reads and
  /// writes (standalone and DFS) are kRead/kWrite; everything else,
  /// truncate and fsync included, is kMeta.
  enum class OpClass : std::uint8_t { kMeta = 0, kRead, kWrite, kCount_ };
  const sim::Histogram& latency(OpClass c) const {
    return *latency_[static_cast<std::size_t>(c)];
  }
  /// One-line human-readable summary (mean/p50/p99 per class).
  std::string latency_summary() const;

 private:
  // One synchronous nvme-fs round trip on this thread's queue. A successful
  // reply's payload is CRC-verified in the INI's buffer and copied once,
  // straight into `payload` (up to its size).
  struct CallResult {
    nvme::Status status = nvme::Status::kSuccess;
    std::uint32_t result = 0;
    int attempts = 0;
    std::uint32_t payload_bytes = 0;  ///< bytes delivered into `payload`
    sim::Nanos cost{};
  };
  CallResult call(const nvme::IniDriver::Request& req,
                  std::span<std::byte> payload = {});
  int queue_for_this_thread();
  int pump(int q);  // inline DPU processing; returns TGT commands processed

  /// The one completion rule for an op's nvme-fs command: adds its cost to
  /// `io` (which may already hold the op's side commands'), sets `io.err`
  /// to 0, the errno a kFsError CQE carries, or EIO for any other failure,
  /// copies the command's status and attempts into `io`, and records the
  /// op's whole cost in latency class `cls`. A side
  /// command (`cls` unset) is recorded with the op it serves. Returns
  /// io.ok().
  bool complete(Io& io, const CallResult& res, std::optional<OpClass> cls);
  /// An SQE-only command on `ino` at `offset`, from this thread's tenant.
  static nvme::IniDriver::Request inline_request(nvme::DispatchTarget target,
                                                 nvme::InlineOp op,
                                                 std::uint64_t ino,
                                                 std::uint64_t offset);
  Io header_call(nvme::DispatchTarget target, const FileRequest& req,
                 FileResponse* out,
                 std::optional<OpClass> cls = OpClass::kMeta);
  /// Side command: asks the DPU for `ino`'s size (nullopt if it cannot
  /// say) and adds the getattr's cost to op `io`.
  std::optional<std::uint64_t> fetch_size(Io& io, std::uint64_t ino);

  DpcOptions opts_;

  /// System-wide metrics registry. Declared before every subsystem so the
  /// counters/histograms they resolve at construction outlive them.
  obs::Registry registry_;

  /// Per-tenant admission/fair-share state shared by every TgtDriver (and
  /// the scrubber / flusher gates); null unless opts_.qos.enabled.
  /// Declared right after the registry: everything below may hold a
  /// pointer to it.
  std::unique_ptr<dpu::QosManager> qos_;

  // Device complex.
  std::unique_ptr<pcie::MemoryRegion> host_mem_;
  std::unique_ptr<pcie::RegionAllocator> host_alloc_;
  std::unique_ptr<dpu::Dpu> dpu_;
  std::unique_ptr<pcie::DmaEngine> dma_;

  /// On-DPU PMEM log device + write-ahead log (null unless
  /// opts_.enable_nvm_wal). Declared before the backends / cache / dispatch
  /// that hold raw pointers into it, and NEVER reset across restart_dpu():
  /// the NVM media is exactly what survives the power cycle.
  std::unique_ptr<nvm::NvmDevice> nvm_dev_;
  std::unique_ptr<nvm::WriteAheadLog> wal_;

  // Transport. Each queue pair shares one QueueTraces between its INI and
  // TGT drivers so per-op stage stamps line up across the "link".
  std::vector<std::unique_ptr<nvme::QueuePair>> qps_;
  std::vector<std::unique_ptr<obs::QueueTraces>> qtraces_;
  std::vector<std::unique_ptr<nvme::IniDriver>> inis_;
  std::vector<std::unique_ptr<nvme::TgtDriver>> tgts_;
  /// Per-queue pump locks: whoever runs a TGT pass holds its queue's lock —
  /// a pump-mode caller inline, or the worker poller — so the single-
  /// consumer TgtDriver never has two drivers, even while a caller crosses
  /// a stop_dpu()/start_dpu() edge. restart_dpu() holds all of them, in
  /// index order, for the whole power cycle (same rank, consistent order —
  /// acyclic).
  std::vector<std::unique_ptr<sim::AnnotatedMutex>> pump_mu_;

  // Backends.
  std::unique_ptr<kv::KvStore> kv_store_;
  std::unique_ptr<kv::RemoteKv> remote_kv_;
  std::unique_ptr<kvfs::Kvfs> kvfs_;
  std::unique_ptr<dfs::MdsCluster> mds_;
  std::unique_ptr<dfs::DataServers> data_servers_;
  std::unique_ptr<dfs::DfsClient> dfs_client_;

  // Hybrid cache.
  std::unique_ptr<cache::CacheLayout> cache_layout_;
  std::unique_ptr<cache::HostCachePlane> host_cache_;
  std::unique_ptr<cache::CacheBackend> cache_backend_;
  std::unique_ptr<cache::DpuCacheControl> cache_ctl_;

  // DPU execution.
  std::unique_ptr<dpu::Scrubber> scrubber_;
  std::unique_ptr<IoDispatch> dispatch_;
  std::unique_ptr<dpu::WorkerPool> workers_;
  std::atomic<bool> workers_running_{false};
  std::atomic<int> next_queue_{0};

  // fs-adapter's size view: lets buffered writes grow the file without a
  // DPU round trip per op (one truncate when the size actually grows).
  // Outranks everything: writers hold it across call() (pump locks, INI).
  sim::AnnotatedMutex size_mu_{"dpc.size", sim::LockRank::kAdapter};
  std::unordered_map<std::uint64_t, std::uint64_t> size_cache_
      GUARDED_BY(size_mu_);

  // Per-class modelled-latency distributions ("latency/…" in the registry;
  // thread-safe recording) plus the cache hit/miss host-path split.
  std::array<sim::Histogram*, static_cast<std::size_t>(OpClass::kCount_)>
      latency_;
  sim::Histogram* cache_hit_path_ns_;
  sim::Histogram* cache_miss_path_ns_;
  /// Resolved at construction — restart_dpu() must not do registry name
  /// lookups (shared-lock + hash) while the whole transport is frozen.
  sim::Histogram* restart_ns_;

  // NVMe command retry accounting + deterministic backoff-jitter salt.
  obs::Counter* nvme_retries_;
  obs::Counter* nvme_retry_exhausted_;
  /// kThrottled completions taken through the retry path (admission
  /// rejections honored with the device's retry-after hint).
  obs::Counter* nvme_throttled_;
  obs::Counter* host_integrity_errors_;
  /// Witness for the restart pump-freeze's mutual-exclusion contract: set
  /// while restart_dpu() is inside the power cycle (where it holds — or,
  /// under DPC_CHECK_MUTATE restart-no-freeze, should hold — every pump
  /// lock). pump() bumps "core/pump_conflicts" if it runs with this set;
  /// the real freeze makes that impossible, so any nonzero count proves the
  /// freeze was lost.
  std::atomic<bool> restart_active_{false};
  obs::Counter* pump_conflicts_;
  std::atomic<std::uint64_t> call_seq_{0};
};

}  // namespace dpc::core
