// NVME-TGT — the DPU-side nvme-fs driver (§3.2).
//
// Consumes SQEs at the head of each SQ and produces CQEs at the tail of the
// CQ. Per command, the DMA walk is exactly the paper's Fig. 4:
//   ① fetch the SQE from host memory,
//   ② fetch the PRP list to locate the payload buffer,
//   ③ one payload DMA (host→DPU for writes, DPU→host for reads),
//   ④ post the CQE.
// A bidirectional command (write payload out + read payload back) performs
// the ②③ pair once per direction.
//
// Batching: a drain cycle fetches the whole doorbell-delimited run of SQEs
// with ONE descriptor DMA (①×N coalesced) and accounts the run's CQE posts
// as ONE descriptor transaction (④×N coalesced) — the DPU-side twin of the
// INI's one-doorbell-per-batch submit. A single-command drain therefore
// costs exactly the same four DMAs as before.
//
// QoS (optional, src/dpu/qos.*): with a QosManager attached, the drain
// splits into INGEST (batched SQE fetch → admission check → per-tenant
// staging) and DISPATCH (deficit-round-robin pop → execute). Rejected
// commands complete immediately with kThrottled + a retry-after hint;
// stale best-effort/background commands are shed under overload. Without a
// manager the scheduler degrades to FIFO and the flow — order, DMA count,
// CQE contents — is bit-identical to the pre-QoS driver.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "dpu/qos.hpp"
#include "fault/injector.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/spec.hpp"
#include "obs/trace.hpp"
#include "pcie/dma.hpp"
#include "sim/time.hpp"

namespace dpc::nvme {

/// Fault-injection sites in the TGT command path (see src/fault/).
/// drop_cqe: command vanishes after SQE fetch — no handler run, no CQE ever
/// posted; the host must declare it lost and abort. error_cqe: command
/// fails before the handler with a retryable kDataTransferError completion.
inline constexpr std::string_view kFaultTgtDropCqe = "nvme.tgt/drop_cqe";
inline constexpr std::string_view kFaultTgtErrorCqe = "nvme.tgt/error_cqe";
/// Crash point between the handler finishing (op applied, payload DMA'd
/// back) and the CQE post: the one window where a crashed DPU leaves an
/// *applied but unacknowledged* command — the "present" arm of the chaos
/// harness's all-or-nothing check.
inline constexpr std::string_view kFaultTgtCrashBeforeCqe =
    "nvme.tgt/crash_before_cqe";
/// Data-corruption sites on the transport itself: a bit flips inside the
/// payload DMA (write direction: host→DPU before the TGT verifies the
/// trailer; read direction: DPU→host after the TGT stamps it). Both are
/// caught by the CRC32C envelope — the write side completes with
/// kDataIntegrityError before the handler runs, the read side fails the
/// host's trailer check in DpcSystem::call.
inline constexpr std::string_view kFaultTgtCorruptWrite =
    "nvme.transport/corrupt_write";
inline constexpr std::string_view kFaultTgtCorruptRead =
    "nvme.transport/corrupt_read";

/// What a command handler produced.
struct HandlerResult {
  Status status = Status::kSuccess;
  std::uint32_t result = 0;        ///< CQE result dword
  std::uint32_t read_bytes = 0;    ///< bytes filled into the read payload
  /// Modelled backend service time the handler spent (KV/DFS round trips,
  /// DPU compute). Reported back to the host in the CQE's spare dword, as
  /// device latency telemetry.
  sim::Nanos backend_cost{};
};

/// Invoked on the DPU for each fetched command. `write_payload` is the
/// host→DPU payload (header + data); `read_payload` is scratch the handler
/// fills for the DPU→host direction (capacity = cmd.read_len).
using CommandHandler = std::function<HandlerResult(
    const NvmeFsCmd& cmd, std::span<const std::byte> write_payload,
    std::span<std::byte> read_payload)>;

class TgtDriver {
 public:
  /// `traces` (optional) must be the same QueueTraces handed to this
  /// queue's IniDriver so the DPU-side stage stamps join the host's.
  /// `qos` (optional) enables admission control + weighted fair dispatch;
  /// it must outlive the driver and is shared across queues.
  TgtDriver(pcie::DmaEngine& dma, const QueuePair& qp, CommandHandler handler,
            obs::QueueTraces* traces = nullptr,
            fault::FaultInjector* fault = nullptr,
            dpu::QosManager* qos = nullptr);

  struct ProcessStats {
    int processed = 0;
    sim::Nanos cost{};  ///< modelled DMA cost of everything moved
  };

  /// Drains up to `max` pending SQEs (doorbell-delimited). Non-blocking.
  /// Inert while the fault injector reports `crashed()` — a halted DPU
  /// executes nothing. A CrashException escaping the handler (or the
  /// crash-before-CQE site) is absorbed here: the in-progress command dies
  /// without a CQE, exactly like a controller losing power mid-op.
  /// Single consumer: callers serialize passes on one driver.
  ProcessStats process_available(int max = 1 << 30);

  /// Passes of process_available() that ended idle: nothing processed, and
  /// either the DPU is crashed or has_work() is false. A pass that stopped
  /// on a full CQ still has staged work, so it is not idle. Monotonic
  /// (reset() leaves it alone) and readable from any thread: a host caller
  /// that saw the count advance by two after its doorbell knows a pass
  /// began after the doorbell and found nothing — its command was consumed
  /// and, if no CQE came back, lost (DpcSystem::call).
  std::uint64_t idle_passes() const { return idle_passes_.load(); }

  /// True if the SQ doorbell indicates pending work, or commands are
  /// staged/awaiting a throttle completion from an earlier ingest.
  bool has_work() const;

  /// Controller-reset half of the DPU restart sequence: rewinds the SQ
  /// consumer and CQ producer to slot 0 / phase 1. Run before
  /// IniDriver::reset() (which zeroes the doorbells this side reads) and
  /// only while the DPU pollers are quiesced.
  void reset();

 private:
  /// Ingest half: admission-checks one already-fetched SQE and either
  /// stages it on the scheduler or queues a throttle completion.
  void ingest_one(const Sqe& sqe);
  /// Executes one staged command (②③④ of Fig. 4). Bumps `cqes_posted`
  /// if a CQE landed — the caller settles the batch's coalesced CQE wire
  /// cost once per drain run.
  ProcessStats execute_one(const dpu::StagedCmd& staged, int& cqes_posted);
  /// Posts one CQE (entry write + release-store of the phase dword).
  void post_cqe(std::uint16_t cid, Status st, std::uint32_t result,
                std::uint32_t dw1, int& cqes_posted);

  pcie::DmaEngine* dma_;
  const QueuePair* qp_;
  CommandHandler handler_;
  obs::QueueTraces* traces_;
  fault::FaultInjector* fault_;
  dpu::QosManager* qos_;
  obs::Counter* cmds_ = nullptr;        // registry instruments (null when
  obs::Counter* cqe_posts_ = nullptr;   // no traces attached)
  obs::Counter* rejects_ = nullptr;
  obs::Counter* dropped_cqes_ = nullptr;
  obs::Counter* error_cqes_ = nullptr;
  obs::Counter* integrity_errors_ = nullptr;
  obs::Counter* sqe_fetch_bursts_ = nullptr;
  obs::Counter* cqe_post_bursts_ = nullptr;

  std::uint16_t sq_head_ = 0;
  std::uint16_t cq_tail_ = 0;
  bool cq_phase_ = true;
  std::vector<std::byte> wscratch_;
  std::vector<std::byte> rscratch_;
  std::vector<Sqe> sqe_batch_;  ///< scratch for the contiguous-run fetch

  /// Staged-but-not-executed commands (FIFO without a QosManager).
  dpu::DrrScheduler sched_;
  /// Modelled device time: sum of dispatched service costs. Stays 0 in
  /// FIFO mode so CQE dw1 keeps its pre-QoS meaning (service only).
  sim::Nanos vt_now_{};
  /// Admission rejections awaiting their kThrottled completion.
  struct ThrottleCqe {
    std::uint16_t cid = 0;
    std::uint32_t retry_after_ns = 0;
  };
  std::deque<ThrottleCqe> throttled_;
  /// Own cache line: waiting callers poll it while the TGT runs passes.
  alignas(64) std::atomic<std::uint64_t> idle_passes_{0};
};

}  // namespace dpc::nvme
