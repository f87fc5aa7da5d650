// Per-tenant QoS for the DPU-side nvme-fs path: one DPU fronting many
// mounts, where a noisy neighbor must not take down the rest — the
// bbThemis shared-FS interference problem.
//
// Three cooperating mechanisms, all keyed on the tenant id every SQE now
// carries in DW10[31:24]:
//
//   * Admission control (QosManager::admit, called at TGT ingest): global
//     caps on staged command count and staged bytes. Over-budget commands
//     complete immediately with the retryable nvme::Status::kThrottled
//     whose CQE result dword carries a retry-after hint of
//     kMinRetryAfter nanoseconds. kGuaranteed tenants are exempt (their
//     protection is the point of the caps).
//
//   * Weighted fair scheduling (DrrScheduler, owned by each TgtDriver):
//     deficit round robin across per-tenant staging queues. Each visit
//     grants a tenant kQuantumBytes × weight of deficit; commands are
//     charged max(payload bytes, one page) so metadata storms can't ride
//     for free. Work-conserving: an idle tenant's share flows to the
//     active ones (max-min fairness). Classes are strict priorities:
//     weights share bandwidth only within the strongest class that has
//     staged work, so guaranteed commands never queue behind background
//     dispatches.
//
//   * Graceful degradation: when the manager reports overload (staged
//     depth over the high-water mark), stale commands of kBackground
//     tenants are shed first, then kBestEffort — kGuaranteed is never
//     shed. Background pollers (scrubber, cache flush passes) are demoted
//     to surplus bandwidth by the same overload signal (WorkerPool gate +
//     Scrubber::attach_qos).
//
// A null QosManager (config.enabled == false — the default) degrades every
// hook to the pre-QoS behavior: FIFO dispatch, no admission, no shedding,
// zero extra work on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::dpu {

/// Shed/degradation ordering. Lower value = stronger protection.
enum class TenantClass : std::uint8_t {
  kGuaranteed = 0,  ///< never shed, exempt from global admission caps
  kBestEffort = 1,  ///< shed after background when stale under overload
  kBackground = 2,  ///< first to shed; the class for bulk/antagonist work
};

struct TenantQosConfig {
  std::uint32_t weight = 1;  ///< DRR share (≥ 1)
  TenantClass cls = TenantClass::kBestEffort;
};

/// DRR deficit granted per visit, per weight unit.
inline constexpr std::uint32_t kQuantumBytes = 16 * 1024;
/// The retry-after hint carried in kThrottled completions (admission and
/// shedding alike).
inline constexpr sim::Nanos kMinRetryAfter = sim::micros(100.0);

struct QosConfig {
  bool enabled = false;
  /// With enabled && !fair_sched, dispatch falls back to FIFO (no DRR, no
  /// shedding) while admission and virtual-time wait accounting stay live —
  /// the "isolation off" arm of the antagonist bench, where queueing delay
  /// is measured but nothing bounds it.
  bool fair_sched = true;
  std::array<TenantQosConfig, nvme::kMaxTenants> tenants{};
  /// Global admission caps over all queues sharing the manager, counted on
  /// staged (admitted, not yet dispatched) commands.
  std::uint32_t max_queued_cmds = 192;
  std::uint64_t max_inflight_bytes = 32ull << 20;
  /// Staged depth at which overloaded() reports true: deadline shedding
  /// arms and background work yields.
  std::uint32_t overload_highwater = 24;
  /// Modelled staging wait beyond which a non-guaranteed command is shed
  /// (only while overloaded).
  sim::Nanos max_queue_delay = sim::millis(2.0);
};

/// Charge-weight of one command: payload bytes with a one-page floor, so a
/// metadata storm is as visible to the caps/scheduler as a data stream.
inline std::uint32_t qos_charge(std::uint32_t write_len,
                                std::uint32_t read_len) {
  const std::uint32_t bytes = write_len + read_len;
  return bytes < nvme::kPageSize ? nvme::kPageSize : bytes;
}

/// Shared admission + accounting state. One instance per DpcSystem, shared
/// by every TgtDriver (and the scrubber / flush gates). Thread-safe; the
/// overload probe is lock-free.
class QosManager {
 public:
  QosManager(const QosConfig& cfg, obs::Registry& registry);

  struct Admit {
    bool ok = true;
    sim::Nanos retry_after{};  ///< backoff hint when !ok
  };

  /// Admission check at TGT ingest for `charge` bytes (qos_charge of the
  /// command). On success the command counts as staged until on_dispatch /
  /// on_shed / on_reset_drop returns it.
  Admit admit(nvme::TenantId tenant, std::uint32_t charge);

  /// Staged command handed to execution (leaves the staging accounting).
  void on_dispatch(nvme::TenantId tenant, std::uint32_t charge);
  /// Staged command shed (deadline / degradation). Counted per tenant.
  void on_shed(nvme::TenantId tenant, std::uint32_t charge);
  /// Staged command dropped by a controller reset — uncounts staging
  /// without scoring a shed against the tenant.
  void on_reset_drop(nvme::TenantId tenant, std::uint32_t charge);

  /// Lock-free overload probe: staged depth at/over the high-water mark.
  /// The scrubber and flush-pass gates poll this on every pass.
  bool overloaded() const {
    return queued_now_.load(std::memory_order_relaxed) >=
           static_cast<std::int64_t>(cfg_.overload_highwater);
  }

  // ---- per-tenant metric scoping ("qos/t<i>/…" in the registry) --------
  void record_latency(nvme::TenantId tenant, sim::Nanos cost);
  void count_op(nvme::TenantId tenant);  ///< dispatched op (IO_Dispatch)
  void count_backend_bytes(nvme::TenantId tenant, std::uint64_t bytes);
  void count_prefetch_pages(nvme::TenantId tenant, std::uint64_t pages);

  TenantClass cls(nvme::TenantId tenant) const {
    return cfg_.tenants[slot(tenant)].cls;
  }
  std::uint32_t weight(nvme::TenantId tenant) const {
    const std::uint32_t w = cfg_.tenants[slot(tenant)].weight;
    return w == 0 ? 1 : w;
  }
  const QosConfig& config() const { return cfg_; }
  std::int64_t queued() const {
    return queued_now_.load(std::memory_order_relaxed);
  }

  static std::size_t slot(nvme::TenantId tenant) {
    return tenant % nvme::kMaxTenants;
  }

 private:
  struct TenantInstruments {
    obs::Counter* admitted = nullptr;
    obs::Counter* throttled = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* ops = nullptr;
    obs::Counter* dispatched_bytes = nullptr;
    obs::Counter* backend_bytes = nullptr;
    obs::Counter* prefetch_pages = nullptr;
    sim::Histogram* latency_ns = nullptr;
  };

  void unstage_locked(std::size_t t, std::uint32_t charge) REQUIRES(mu_);

  QosConfig cfg_;

  /// kLeaf: taken under the pump/worker path and under KVFS stripe locks
  /// (count_backend_bytes); never holds anything itself — counters are
  /// plain atomics resolved at construction.
  mutable sim::AnnotatedMutex mu_{"dpu.qos", sim::LockRank::kLeaf};
  std::int64_t queued_ GUARDED_BY(mu_) = 0;
  std::int64_t inflight_bytes_ GUARDED_BY(mu_) = 0;

  /// Mirror of queued_ for the lock-free overload probe.
  std::atomic<std::int64_t> queued_now_{0};

  // Resolved once at construction (hot-path-lookup rule).
  obs::Counter* admitted_;
  obs::Counter* throttled_;
  obs::Counter* shed_;
  obs::Gauge* queued_gauge_;
  obs::Gauge* inflight_gauge_;
  std::array<TenantInstruments, nvme::kMaxTenants> tenant_;
};

/// One command staged between SQE fetch and execution.
struct StagedCmd {
  nvme::Sqe sqe{};
  nvme::TenantId tenant = 0;
  std::uint32_t charge = 0;   ///< qos_charge at ingest
  sim::Nanos ingest_vt{};     ///< TGT virtual time when staged
};

/// Deficit-round-robin scheduler over per-tenant staging queues. Owned by
/// one TgtDriver and driven single-consumer (the driver's worker / pump
/// serialization), so it needs no lock. Without a QosManager it degrades
/// to a plain FIFO — bit-for-bit the pre-QoS dispatch order.
class DrrScheduler {
 public:
  /// `qos` may be null (FIFO mode); must outlive the scheduler.
  explicit DrrScheduler(const QosManager* qos = nullptr) : qos_(qos) {}

  void push(StagedCmd cmd);

  /// Next command under strict class priority + intra-class DRR (plain
  /// FIFO when constructed without a QosManager).
  std::optional<StagedCmd> pop();

  /// Sheds the oldest staged command whose modelled wait exceeds
  /// `max_delay`, scanning kBackground tenants before kBestEffort and
  /// never touching kGuaranteed. FIFO mode never sheds.
  std::optional<StagedCmd> shed_stale(sim::Nanos vt_now,
                                      sim::Nanos max_delay);

  /// Removes every staged command (controller reset), appending them to
  /// `out` so the caller can return their admission accounting.
  void drain(std::vector<StagedCmd>& out);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  void deactivate(std::uint8_t t);

  struct TenantQueue {
    std::deque<StagedCmd> q;
    std::int64_t deficit = 0;
    bool active = false;  ///< in the round-robin ring
  };

  const QosManager* qos_;
  std::deque<StagedCmd> fifo_;  ///< used when qos_ == nullptr
  std::array<TenantQueue, nvme::kMaxTenants> tq_{};
  std::deque<std::uint8_t> ring_;  ///< active tenant slots, DRR order
  std::size_t size_ = 0;
};

}  // namespace dpc::dpu
