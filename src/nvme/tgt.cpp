#include "nvme/tgt.hpp"

#include <cstring>

#include "ec/crc32c.hpp"
#include "sim/schedhook.hpp"

namespace dpc::nvme {

namespace {
/// Flips one deterministically chosen bit inside `buf` (entropy comes from
/// the fault injector's firing draw, so the damaged bit is seed-stable).
void flip_bit(std::span<std::byte> buf, std::uint64_t entropy) {
  if (buf.empty()) return;
  const std::uint64_t bit = entropy % (buf.size() * 8);
  buf[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
}
}  // namespace

/// Modelled DPU compute to reject a command at admission (no DMA beyond the
/// batched SQE fetch, no handler) — advances the virtual clock like any
/// dispatched command.
constexpr sim::Nanos kThrottleCost{500};

TgtDriver::TgtDriver(pcie::DmaEngine& dma, const QueuePair& qp,
                     CommandHandler handler, obs::QueueTraces* traces,
                     fault::FaultInjector* fault, dpu::QosManager* qos)
    : dma_(&dma),
      qp_(&qp),
      handler_(std::move(handler)),
      traces_(traces),
      fault_(fault),
      qos_(qos),
      wscratch_(qp.config().max_write + kPayloadCrcBytes),
      rscratch_(qp.config().max_read + kPayloadCrcBytes),
      // fair_sched off: the scheduler runs FIFO (no DRR, no shedding)
      // while qos_ keeps admission + wait accounting live.
      sched_(qos != nullptr && qos->config().fair_sched ? qos : nullptr) {
  DPC_CHECK(handler_ != nullptr);
  if (traces_ != nullptr) {
    auto& reg = traces_->registry();
    cmds_ = &reg.counter("nvme.tgt/cmds");
    cqe_posts_ = &reg.counter("nvme.tgt/cqe_posts");
    rejects_ = &reg.counter("nvme.tgt/rejects");
    dropped_cqes_ = &reg.counter("nvme.tgt/dropped_cqes");
    error_cqes_ = &reg.counter("nvme.tgt/error_cqes");
    integrity_errors_ = &reg.counter("nvme.tgt/integrity_errors");
    sqe_fetch_bursts_ = &reg.counter("nvme.tgt/sqe_fetch_bursts");
    cqe_post_bursts_ = &reg.counter("nvme.tgt/cqe_post_bursts");
  }
}

bool TgtDriver::has_work() const {
  if (!sched_.empty() || !throttled_.empty()) return true;
  const std::uint32_t tail =
      dma_->dpu().atomic_u32(qp_->sq_tail_db_off()).load(
          std::memory_order_acquire);
  return tail != sq_head_;
}

void TgtDriver::reset() {
  sq_head_ = 0;
  cq_tail_ = 0;
  cq_phase_ = true;
  // Staged commands die with the controller — return their admission
  // accounting without scoring sheds against their tenants.
  std::vector<dpu::StagedCmd> dropped;
  sched_.drain(dropped);
  if (qos_ != nullptr)
    for (const dpu::StagedCmd& cmd : dropped)
      qos_->on_reset_drop(cmd.tenant, cmd.charge);
  throttled_.clear();
  vt_now_ = sim::Nanos{};
}

TgtDriver::ProcessStats TgtDriver::process_available(int max) {
  ProcessStats total;
  auto& dpu = dma_->dpu();
  const std::uint16_t depth = qp_->depth();
  while (total.processed < max) {
    // A crashed DPU executes nothing until the restart path clears the
    // latch — commands sit in the SQ and the host times out on them.
    if (fault_ != nullptr && fault_->crashed()) break;
    bool progressed = false;

    // ---- INGEST: stage the doorbell-delimited backlog --------------------
    // ① Each contiguous run is fetched with ONE descriptor DMA (a wrapped
    // run drains as two bursts, one per ring edge). Admission happens here,
    // at ingest, so a rejected command never occupies scheduler state.
    const std::uint32_t sq_tail =
        dpu.atomic_u32(qp_->sq_tail_db_off()).load(std::memory_order_acquire);
    int pending = static_cast<int>((sq_tail + depth - sq_head_) % depth);
    while (pending > 0) {
      const int run =
          std::min(pending, static_cast<int>(depth) - sq_head_);
      sqe_batch_.resize(static_cast<std::size_t>(run));
      total.cost += dma_->read_host(
          qp_->sqe_off(sq_head_),
          std::as_writable_bytes(
              std::span{sqe_batch_.data(), sqe_batch_.size()}),
          pcie::DmaClass::kDescriptor);
      if (sqe_fetch_bursts_ != nullptr) sqe_fetch_bursts_->add();
      for (int i = 0; i < run; ++i) ingest_one(sqe_batch_[i]);
      sq_head_ = static_cast<std::uint16_t>((sq_head_ + run) % depth);
      pending -= run;
      progressed = true;
    }

    // ---- DISPATCH: drain throttle completions, shed, execute -------------
    int posted = 0;
    while (total.processed < max) {
      // The DPU can die mid-batch (crash point / handler crash): staged
      // commands are abandoned where they sit, exactly as if the controller
      // lost power with them in its on-chip fetch buffer (reset() drops
      // them, like the SQ rewind drops unfetched ones).
      if (fault_ != nullptr && fault_->crashed()) break;
      // Don't overrun CQ slots the host hasn't consumed yet.
      const std::uint32_t cq_head = dpu.atomic_u32(qp_->cq_head_db_off())
                                        .load(std::memory_order_acquire);
      const int cq_free =
          static_cast<int>((cq_head + depth - cq_tail_ - 1) % depth);
      if (cq_free == 0) break;  // CQ full

      // Throttle completions first: they are cheap and unblock the host's
      // retry timers.
      if (!throttled_.empty()) {
        const ThrottleCqe tc = throttled_.front();
        throttled_.pop_front();
        post_cqe(tc.cid, Status::kThrottled, tc.retry_after_ns,
                 /*dw1=*/static_cast<std::uint32_t>(kThrottleCost.ns),
                 posted);
        vt_now_.ns += kThrottleCost.ns;
        ++total.processed;
        progressed = true;
        continue;
      }

      // Graceful degradation: over the high-water mark, commands of
      // best-effort/background tenants that have waited past the deadline
      // are shed with a retryable throttle completion instead of consuming
      // device time ahead of guaranteed work.
      if (qos_ != nullptr && qos_->overloaded()) {
        if (auto stale = sched_.shed_stale(vt_now_,
                                           qos_->config().max_queue_delay)) {
          qos_->on_shed(stale->tenant, stale->charge);
          post_cqe(cid_of(stale->sqe), Status::kThrottled,
                   static_cast<std::uint32_t>(dpu::kMinRetryAfter.ns),
                   /*dw1=*/static_cast<std::uint32_t>(kThrottleCost.ns),
                   posted);
          vt_now_.ns += kThrottleCost.ns;
          ++total.processed;
          progressed = true;
          continue;
        }
      }

      auto staged = sched_.pop();
      if (!staged) break;
      const ProcessStats one = execute_one(*staged, posted);
      total.processed += one.processed;
      total.cost += one.cost;
      progressed = true;
    }
    // ④ (wire accounting) the pass's CQE posts ride back as ONE coalesced
    // descriptor transaction — the CQ twin of the batched fetch above.
    // Each CQE's phase dword is still release-stored individually in
    // post_cqe; only the modelled PCIe cost batches.
    if (posted > 0) {
      total.cost += dma_->note_transaction(
          pcie::DmaClass::kDescriptor,
          static_cast<std::size_t>(posted) * sizeof(Cqe));
      if (cqe_post_bursts_ != nullptr) cqe_post_bursts_->add();
    }

    if (!progressed) break;
  }
  if (total.processed == 0 &&
      ((fault_ != nullptr && fault_->crashed()) || !has_work())) {
    // Decision point between the idle check and the bump: the checker can
    // land a host doorbell here, so one idle pass may straddle it.
    sim::schedhook::point("nvme.tgt.idle_pass");
    idle_passes_.fetch_add(1);
    // Store-buffering pair with the fence DpcSystem::call issues after its
    // doorbell: a caller that read the count from before this bump is
    // ordered before this fence, so the next pass's doorbell load sees
    // that caller's command.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  return total;
}

void TgtDriver::ingest_one(const Sqe& sqe) {
  // ① happened in process_available (batched fetch).
  if (traces_ != nullptr) traces_->stamp(cid_of(sqe), obs::Stage::kTgtFetch);
  if (cmds_ != nullptr) cmds_->add();

  dpu::StagedCmd staged;
  staged.sqe = sqe;
  staged.ingest_vt = vt_now_;
  if (is_nvme_fs(sqe)) {
    staged.tenant = tenant_of(sqe);
    staged.charge =
        dpu::qos_charge(sqe.write_len & kMaxWriteLen, sqe.read_len);
  } else {
    // Invalid opcodes still flow through admission (charge: one page) so
    // staging accounting stays symmetric; they reject at execute.
    staged.charge = kPageSize;
  }
  if (qos_ != nullptr) {
    const dpu::QosManager::Admit adm = qos_->admit(staged.tenant,
                                                   staged.charge);
    if (!adm.ok) {
      throttled_.push_back(
          {cid_of(sqe), static_cast<std::uint32_t>(std::min<std::int64_t>(
                            adm.retry_after.ns, UINT32_MAX))});
      return;
    }
  }
  sched_.push(std::move(staged));
}

TgtDriver::ProcessStats TgtDriver::execute_one(const dpu::StagedCmd& staged,
                                               int& cqes_posted) {
  ProcessStats st;
  const Sqe& sqe = staged.sqe;
  // Modelled staging wait: virtual time that passed while commands ahead
  // of this one dispatched. Live whenever a QosManager is attached (DRR
  // and fair_sched=false FIFO alike); identically 0 with QoS disabled,
  // keeping dw1's pre-QoS meaning.
  const sim::Nanos wait{vt_now_.ns - staged.ingest_vt.ns};
  // The command leaves staging accounting now, on every exit path below
  // (including drop/crash — the device consumed it either way).
  if (qos_ != nullptr) qos_->on_dispatch(staged.tenant, staged.charge);

  // Injection: lose the command after the SQE fetch. The handler never
  // runs and no CQE is ever posted for this cid, so the host's only way
  // out is loss detection + abort — exactly the failure a dead link
  // produces. Because the handler is skipped, a host resubmit cannot
  // double-apply.
  if (fault_ != nullptr && fault_->should_fail(kFaultTgtDropCqe)) {
    if (dropped_cqes_ != nullptr) dropped_cqes_->add();
    st.processed = 1;
    return st;
  }

  HandlerResult hres;
  if (!is_nvme_fs(sqe)) {
    hres.status = Status::kInvalidOpcode;
    if (rejects_ != nullptr) rejects_->add();
  } else {
    const NvmeFsCmd cmd = decode_nvme_fs(sqe);
    if (cmd.write_psdt == Psdt::kSgl || cmd.read_psdt == Psdt::kSgl) {
      // This reproduction implements the PRP default only (§3.2).
      hres.status = Status::kInvalidField;
      if (rejects_ != nullptr) rejects_->add();
    } else if (fault_ != nullptr && fault_->should_fail(kFaultTgtErrorCqe)) {
      // Injection: transient transfer fault before any payload moves or the
      // handler runs — completes with a retryable error, nothing applied.
      hres.status = Status::kDataTransferError;
      if (error_cqes_ != nullptr) error_cqes_->add();
    } else {
      std::span<const std::byte> wpayload{};
      bool envelope_ok = true;
      if (cmd.write_len > 0) {
        // ② Fetch the write-side PRP list to locate the buffer. The pulled
        //    extent is payload + CRC32C trailer (same data DMA).
        const std::uint32_t wire_len = cmd.write_len + kPayloadCrcBytes;
        const std::uint32_t pages = QueuePair::pages_for(wire_len);
        std::vector<std::uint64_t> prps(pages);
        st.cost += dma_->read_host(
            cmd.prp_write2,
            std::as_writable_bytes(std::span{prps.data(), pages}),
            pcie::DmaClass::kDescriptor);
        DPC_CHECK_MSG(prps[0] == cmd.prp_write1,
                      "PRP list disagrees with PRP1");
        // ③ Pull the payload into DPU scratch with one data DMA (the
        //    engine models the multi-page burst as a single transaction,
        //    as the paper's Fig. 4 does).
        st.cost += dma_->read_host(
            cmd.prp_write1,
            std::span{wscratch_.data(), wire_len},
            pcie::DmaClass::kData);
        // Injection: a bit flips somewhere in the host→DPU transfer.
        std::uint64_t entropy = 0;
        if (fault_ != nullptr &&
            fault_->should_fail(kFaultTgtCorruptWrite, &entropy)) {
          flip_bit(std::span{wscratch_.data(), wire_len}, entropy);
        }
        // Verify the trailer BEFORE the handler sees a byte: a damaged
        // payload must never be applied to the store. Not retryable — the
        // host cannot tell in-flight damage from a rotted source buffer, so
        // recovery is the application's (or scrubber's) job.
        std::uint32_t want = 0;
        std::memcpy(&want, wscratch_.data() + cmd.write_len,
                    kPayloadCrcBytes);
        const std::uint32_t got =
            ec::crc32c(std::span{wscratch_.data(), cmd.write_len});
        if (got != want) {
          envelope_ok = false;
          hres = HandlerResult{};
          hres.status = Status::kDataIntegrityError;
          if (integrity_errors_ != nullptr) integrity_errors_->add();
        }
        wpayload = std::span{wscratch_.data(), cmd.write_len};
      }

      if (envelope_ok) {
        std::span<std::byte> rpayload{rscratch_.data(), cmd.read_len};
        if (traces_ != nullptr)
          traces_->stamp(cmd.cid, obs::Stage::kDispatch);
        try {
          hres = handler_(cmd, wpayload, rpayload);
        } catch (const fault::CrashException&) {
          // The DPU died inside the backend (a kvfs/cache crash point).
          // Whatever the handler durably applied before the crash point
          // stays applied; no CQE is ever posted, so the host sees only a
          // lost completion. Recovery (WAL replay + fsck) squares the
          // keyspace when the DPU restarts.
          st.processed = 1;
          return st;
        }
        if (traces_ != nullptr)
          traces_->stamp(cmd.cid, obs::Stage::kBackendDone);
      }

      if (envelope_ok && cmd.read_len > 0 && hres.read_bytes > 0) {
        DPC_CHECK(hres.read_bytes <= cmd.read_len);
        // Stamp the read-payload trailer right behind the produced bytes;
        // it rides back in the same data DMA and the host verifies it in
        // DpcSystem::call before trusting the payload.
        const std::uint32_t crc =
            ec::crc32c(std::span{rscratch_.data(), hres.read_bytes});
        std::memcpy(rscratch_.data() + hres.read_bytes, &crc,
                    kPayloadCrcBytes);
        const std::uint32_t wire_len = hres.read_bytes + kPayloadCrcBytes;
        // Injection: a bit flips somewhere in the DPU→host transfer.
        std::uint64_t entropy = 0;
        if (fault_ != nullptr &&
            fault_->should_fail(kFaultTgtCorruptRead, &entropy)) {
          flip_bit(std::span{rscratch_.data(), wire_len}, entropy);
        }
        // ② (read direction) locate the read buffer…
        const std::uint32_t pages =
            QueuePair::pages_for(cmd.read_len + kPayloadCrcBytes);
        std::vector<std::uint64_t> prps(pages);
        st.cost += dma_->read_host(
            cmd.prp_read2,
            std::as_writable_bytes(std::span{prps.data(), pages}),
            pcie::DmaClass::kDescriptor);
        DPC_CHECK_MSG(prps[0] == cmd.prp_read1,
                      "PRP list disagrees with PRP1");
        // ③ …and push the produced bytes back with one data DMA.
        st.cost += dma_->write_host(
            cmd.prp_read1,
            std::span{rscratch_.data(), wire_len},
            pcie::DmaClass::kData);
      }
    }
  }

  // Crash point: the DPU dies after the handler fully applied the
  // operation (and any read payload went back over PCIe) but before the
  // CQE is posted. The op is durable yet unacked — the strictest
  // "present but never acknowledged" case the chaos harness exercises.
  try {
    fault::crash_point(fault_, kFaultTgtCrashBeforeCqe);
  } catch (const fault::CrashException&) {
    st.processed = 1;
    return st;
  }

  // ④ Post the CQE. The spare dword reports device-side latency — service
  // (transport DMAs + backend) plus, under QoS, the modelled staging wait —
  // saturated to u32 nanoseconds.
  const std::int64_t service_ns = st.cost.ns + hres.backend_cost.ns;
  if (qos_ != nullptr) vt_now_.ns += service_ns;
  const auto dw1 = static_cast<std::uint32_t>(
      std::min<std::int64_t>(service_ns + wait.ns, UINT32_MAX));
  post_cqe(cid_of(sqe), hres.status, hres.result, dw1, cqes_posted);

  st.processed = 1;
  return st;
}

void TgtDriver::post_cqe(std::uint16_t cid, Status st, std::uint32_t result,
                         std::uint32_t dw1, int& cqes_posted) {
  // The final dword carries the phase tag the INI polls on, so it is
  // stored atomically (release) after the rest of the entry; the wire cost
  // of the drain batch's CQEs is settled as one coalesced transaction by
  // process_available.
  Cqe cqe = make_cqe(cid, st, cq_phase_, result, sq_head_, qp_->qid());
  cqe.dw1 = dw1;
  const std::uint64_t cqe_off = qp_->cqe_off(cq_tail_);
  auto& host = dma_->host();
  host.write(cqe_off, std::as_bytes(std::span{&cqe, 1}).first(12));
  const std::uint32_t last_dword =
      static_cast<std::uint32_t>(cqe.cid) |
      (static_cast<std::uint32_t>(cqe.status) << 16);
  // Stamp CQE-post before the release store: the INI reads the slot only
  // after acquiring the phase tag, so the stamp is ordered-visible at reap.
  if (traces_ != nullptr) traces_->stamp(cqe.cid, obs::Stage::kCqePost);
  host.atomic_u32(cqe_off + 12).store(last_dword, std::memory_order_release);
  if (cqe_posts_ != nullptr) cqe_posts_->add();
  ++cqes_posted;  // wire cost settles once per drain batch (caller)
  cq_tail_ = static_cast<std::uint16_t>((cq_tail_ + 1) % qp_->depth());
  if (cq_tail_ == 0) cq_phase_ = !cq_phase_;
}

}  // namespace dpc::nvme
