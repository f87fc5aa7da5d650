// The three fs-client flavors the paper evaluates against each other
// (Figs. 1 and 9):
//
//   * standard NFS client — thin host client; every metadata op goes through
//     its entry MDS (forwarded to the home MDS), data rides the MDS proxy
//     path, locks are acquired per operation. Low CPU, low performance.
//   * optimized host client — caches the metadata view (direct routing),
//     computes EC on the host CPU, writes data directly to the data servers
//     (DIO), and caches file delegations. High performance, high CPU — the
//     "datacenter tax" of Fig. 1.
//   * DPC-offloaded client — the optimized client's logic, executed on the
//     DPU: the host pays only syscall + fs-adapter + nvme-fs transport; EC
//     runs on the DPU's engine. High performance, host CPU back to ~NFS
//     levels (Fig. 9).
//
// One class, three kinds (ClientConfig::Kind): the optimized and DPC
// clients share the paper's list of client-side optimizations and differ
// only in where that logic runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dfs/backend.hpp"
#include "ec/reed_solomon.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"

namespace dpc::dfs {

struct ClientConfig {
  /// Which of the three clients this is. kOptimized and kDpcOffloaded both
  /// cache the metadata view (no forward), compute EC at the client, write
  /// data straight to the data servers and cache write delegations;
  /// kDpcOffloaded runs that logic on the DPU.
  enum class Kind : std::uint8_t { kStandardNfs, kOptimized, kDpcOffloaded };
  Kind kind = Kind::kStandardNfs;
  /// Store new files replicated (FileMeta::replicas copies) instead of
  /// erasure-coded (§2.1: "EC or replication is handled by the fs-client").
  bool use_replication = false;

  /// Retry budget for transient failures (delegation contention, reads
  /// the engine could not serve); backoff is folded into the op's
  /// modelled net cost.
  static constexpr fault::RetryPolicy kRetry{};

  /// The paper's client-side optimizations all on: metadata-view routing,
  /// client EC, data straight to the data servers, delegation caching.
  bool client_side() const { return kind != Kind::kStandardNfs; }
  bool on_dpu() const { return kind == Kind::kDpcOffloaded; }

  static ClientConfig standard_nfs() { return {}; }
  static ClientConfig optimized() { return {.kind = Kind::kOptimized}; }
  static ClientConfig dpc_offloaded() {
    return {.kind = Kind::kDpcOffloaded};
  }
};

struct IoResult {
  int err = 0;  ///< 0 or positive errno
  Ino ino = 0;
  std::uint32_t bytes = 0;
  OpProfile prof;
  /// Failure class for err != 0: transient errors are worth retrying at the
  /// caller (the client already spent its own bounded retry budget).
  fault::Transient transient = fault::Transient::kNone;
  bool ok() const { return err == 0; }
  bool retryable() const {
    return err != 0 && transient != fault::Transient::kNone;
  }
};

/// DFS client counters, registry-backed ("dfs.client/…"); mds/ds/forward
/// totals mirror the OpProfile fields the figure benches sum by hand.
struct DfsClientStats {
  explicit DfsClientStats(obs::Registry& reg)
      : meta_ops(reg.counter("dfs.client/meta_ops")),
        reads(reg.counter("dfs.client/reads")),
        writes(reg.counter("dfs.client/writes")),
        errors(reg.counter("dfs.client/errors")),
        mds_ops(reg.counter("dfs.client/mds_ops")),
        ds_ops(reg.counter("dfs.client/ds_ops")),
        forwards(reg.counter("dfs.client/forwards")),
        degraded_reads(reg.counter("ec/degraded_reads")),
        delegation_retries(reg.counter("dfs.client/delegation_retries")) {}

  obs::Counter& meta_ops;  ///< create/open/stat/remove
  obs::Counter& reads;
  obs::Counter& writes;
  obs::Counter& errors;
  obs::Counter& mds_ops;
  obs::Counter& ds_ops;
  obs::Counter& forwards;  ///< entry→home MDS forwarding hops
  obs::Counter& degraded_reads;      ///< reads served via EC reconstruction
  obs::Counter& delegation_retries;  ///< delegation acquire retries
};

class DfsClient {
 public:
  /// `registry` hosts the client counters and the per-op backend-cost
  /// histogram; when null a private registry is created.
  DfsClient(ClientId id, MdsCluster& mds, DataServers& ds,
            const ClientConfig& cfg, obs::Registry* registry = nullptr);
  DfsClient(const DfsClient&) = delete;
  DfsClient& operator=(const DfsClient&) = delete;

  const ClientConfig& config() const { return cfg_; }
  ClientId id() const { return id_; }
  /// True while this client holds the write delegation for `ino`.
  bool holds_delegation(Ino ino) const;

  /// Creates a file; `prealloc_size` mimics the benchmark's pre-sized big
  /// files (size known up front → no per-write size updates).
  IoResult create(const std::string& path, std::uint64_t prealloc_size = 0);
  IoResult open(const std::string& path);
  IoResult stat(Ino ino);
  IoResult read(Ino ino, std::uint64_t offset, std::span<std::byte> dst);
  IoResult write(Ino ino, std::uint64_t offset,
                 std::span<const std::byte> src);
  IoResult remove(const std::string& path);

  const DfsClientStats& stats() const { return stats_; }

 private:
  /// Folds one finished op into the registry (op counter + OpProfile sums +
  /// backend-cost histogram).
  void account(obs::Counter& op_counter, const IoResult& io);
  /// Scope guard running account() on every exit path of a public op.
  struct OpAccount {
    DfsClient* c;
    obs::Counter* ctr;
    const IoResult* io;
    ~OpAccount() { c->account(*ctr, *io); }
  };
  /// Charges the per-op client-stack CPU to the right place: EC encode on
  /// client-EC writes only.
  void charge_client_cpu(OpProfile& prof, bool data_op,
                         std::uint32_t payload_bytes,
                         bool is_write = false) const;
  /// Charges one EC encode/decode of `bytes` where the client runs.
  void charge_ec(OpProfile& prof, std::uint64_t bytes) const;
  /// Cached metadata (optimized/DPC keep a meta cache; standard re-stats).
  std::optional<FileMeta> meta_of(Ino ino, OpProfile& prof);
  Grant ensure_delegation(Ino ino, OpProfile& prof);

  ClientId id_;
  MdsCluster* mds_;
  DataServers* ds_;
  ClientConfig cfg_;
  int entry_mds_;
  ec::ReedSolomon rs_;
  std::unique_ptr<obs::Registry> owned_registry_;  // when none was supplied
  DfsClientStats stats_;
  /// Modelled backend (mds+ds+net) cost per finished op.
  sim::Histogram* backend_ns_;
  /// Per-op sequence number: deterministic backoff-jitter salt.
  std::atomic<std::uint64_t> op_seq_{0};

  mutable sim::AnnotatedMutex mu_{"dfs.client", sim::LockRank::kFs};
  std::unordered_map<Ino, FileMeta> meta_cache_ GUARDED_BY(mu_);
  std::unordered_set<Ino> delegations_ GUARDED_BY(mu_);
};

}  // namespace dpc::dfs
