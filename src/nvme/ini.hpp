// NVME-INI — the host-side nvme-fs driver (§3.2).
//
// Produces SQEs at the tail of the SQ, copies payloads into the command
// slot's write buffer, materializes PRP lists, rings the SQ doorbell, and
// consumes CQEs at the head of the CQ (phase-tag protocol). Thread-safe per
// queue; DPC gives each host thread its own queue pair for the multi-queue
// scaling the paper contrasts with virtio-fs's single queue.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nvme/queue_pair.hpp"
#include "nvme/spec.hpp"
#include "obs/trace.hpp"
#include "pcie/dma.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::nvme {

/// Result of one completed command.
struct Completion {
  std::uint16_t cid = 0;
  Status status = Status::kSuccess;
  std::uint32_t result = 0;  ///< command-specific (bytes produced / -errno)
  std::uint32_t service_ns = 0;  ///< device-reported service time (dw1)
};

class IniDriver {
 public:
  /// `traces` (optional) attaches per-op latency tracing + driver counters;
  /// share the same QueueTraces with this queue's TgtDriver so DPU-side
  /// stages land in the same per-cid slot.
  IniDriver(pcie::DmaEngine& dma, const QueuePair& qp,
            obs::QueueTraces* traces = nullptr);

  /// Everything needed to issue one nvme-fs command. Payload spans may be
  /// empty. `write_hdr` and `write_data` are copied back-to-back into the
  /// slot's write buffer (WH_len = write_hdr.size()). The tenant is the one
  /// required field: a command built without it would bill its I/O to
  /// tenant 0 and escape QoS accounting, so that is a compile error.
  struct Request {
    explicit Request(TenantId t) : tenant(t) {}

    DispatchTarget target = DispatchTarget::kStandalone;
    InlineOp inline_op = InlineOp::kNone;
    TenantId tenant;  ///< issuing tenant, carried in DW10[31:24]
    std::uint64_t inode = 0;
    std::uint64_t offset = 0;
    std::span<const std::byte> write_hdr{};
    std::span<const std::byte> write_data{};
    std::uint16_t read_hdr_cap = 0;   ///< RH_len
    std::uint32_t read_data_cap = 0;  ///< expected data bytes back
  };

  struct Submitted {
    std::uint16_t cid = 0;
    sim::Nanos cost{};  ///< modelled host-side submission cost (doorbell DMA)
  };

  /// Enqueues a command. Blocks on a condition variable (signalled by
  /// release()) only if all cids are in flight.
  Submitted submit(const Request& req);

  /// Non-blocking completion reap. Drains every ready CQE into the per-cid
  /// completion buffer and rings the CQ-head doorbell once per drained
  /// batch; returns the first reaped completion, or std::nullopt if the CQ
  /// was empty.
  std::optional<Completion> poll();

  /// Spins until command `cid` completes (reaping others along the way).
  /// The caller may hold no lock ranked below kAdapter: the completion
  /// comes from another thread, which may need that lock to produce it.
  Completion wait(std::uint16_t cid);

  /// Non-blocking: reaps ready CQEs, then reports `cid`'s completion if it
  /// has been recorded (by this or any other caller's poll). Callers poll
  /// it in a loop, so it carries wait()'s lock precondition.
  std::optional<Completion> try_take(std::uint16_t cid);

  /// View of the read buffer payload after completion (`n` bytes).
  std::span<const std::byte> read_payload(std::uint16_t cid,
                                          std::size_t n) const;

  /// Host-side abort of a command declared lost. If a completion raced in,
  /// it is returned unchanged; otherwise a synthetic kAbortedByRequest
  /// completion is recorded for the cid so the normal release() path
  /// reclaims the slot. Reclaiming is safe only once the TGT holds nothing
  /// of the command: DpcSystem::call aborts after two idle TGT passes
  /// since its doorbell, and a controller reset rewinds the TGT first. A
  /// CQE that still arrived for the cid would be counted in
  /// "nvme.ini/late_cqes" and dropped, never delivered to the cid's next
  /// command.
  Completion abort(std::uint16_t cid);

  /// Returns the cid's slot to the free pool and wakes one queue-full
  /// waiter. Must be called once per completed command before the cid can
  /// be reused.
  void release(std::uint16_t cid);

  /// Host-side half of a controller reset after a DPU crash. Every cid
  /// still in flight (allocated, no completion recorded) gets a synthetic
  /// kAbortedByRequest completion so its waiter unblocks and requeues
  /// through the normal retry path; the CQ ring's phase tags are zeroed so
  /// stale entries can't read as valid once the phase wraps back to 1; the
  /// SQ/CQ indices, phase, and both doorbells return to their power-on
  /// state. Run *after* TgtDriver::reset() and only while the DPU pollers
  /// are quiesced. Returns the number of commands aborted.
  std::uint16_t reset();

  std::uint16_t inflight() const;

 private:
  std::uint16_t alloc_cid_locked() REQUIRES(mu_);
  void build_prp(std::uint64_t buf_off, std::uint32_t len,
                 std::uint64_t list_off, std::uint64_t& prp1,
                 std::uint64_t& prp2);
  std::optional<Completion> drain_locked() REQUIRES(mu_);

  pcie::DmaEngine* dma_;
  const QueuePair* qp_;
  obs::QueueTraces* traces_;

  // Registry instruments (null when no traces attached).
  obs::Counter* submits_ = nullptr;
  obs::Counter* queue_full_waits_ = nullptr;
  obs::Counter* sq_doorbells_ = nullptr;
  obs::Counter* cq_doorbells_ = nullptr;
  obs::Counter* reaps_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* late_cqes_ = nullptr;
  obs::Counter* resets_ = nullptr;

  mutable sim::AnnotatedMutex mu_{"nvme.ini", sim::LockRank::kDriver};
  // condition_variable_any: the annotated UniqueLock is BasicLockable but
  // not std::unique_lock<std::mutex>.
  std::condition_variable_any free_cv_;  // signalled by release()
  std::vector<std::uint16_t> free_cids_ GUARDED_BY(mu_);
  /// Per-cid completion buffer.
  std::vector<std::optional<Completion>> done_ GUARDED_BY(mu_);
  std::uint16_t sq_tail_ GUARDED_BY(mu_) = 0;
  std::uint16_t cq_head_ GUARDED_BY(mu_) = 0;
  /// Expected phase tag of the next valid CQE.
  bool cq_phase_ GUARDED_BY(mu_) = true;
};

}  // namespace dpc::nvme
