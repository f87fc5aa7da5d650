#include "nvme/ini.hpp"

#include <thread>

#include "ec/crc32c.hpp"
#include "sim/lockrank.hpp"
#include "sim/schedhook.hpp"

namespace dpc::nvme {

IniDriver::IniDriver(pcie::DmaEngine& dma, const QueuePair& qp,
                     obs::QueueTraces* traces)
    : dma_(&dma), qp_(&qp), traces_(traces), done_(qp.depth()) {
  free_cids_.reserve(qp.depth());
  // NVMe convention: at most depth-1 entries may be in flight so that
  // head == tail unambiguously means "empty".
  for (std::uint16_t cid = 0; cid + 1 < qp.depth(); ++cid)
    free_cids_.push_back(cid);
  if (traces_ != nullptr) {
    auto& reg = traces_->registry();
    submits_ = &reg.counter("nvme.ini/submits");
    queue_full_waits_ = &reg.counter("nvme.ini/queue_full_waits");
    sq_doorbells_ = &reg.counter("nvme.ini/sq_doorbells");
    cq_doorbells_ = &reg.counter("nvme.ini/cq_doorbells");
    reaps_ = &reg.counter("nvme.ini/reaps");
    timeouts_ = &reg.counter("nvme.ini/timeouts");
    late_cqes_ = &reg.counter("nvme.ini/late_cqes");
    resets_ = &reg.counter("nvme.ini/resets");
  }
}

std::uint16_t IniDriver::alloc_cid_locked() {
  DPC_CHECK(!free_cids_.empty());
  const std::uint16_t cid = free_cids_.back();
  free_cids_.pop_back();
  return cid;
}

void IniDriver::build_prp(std::uint64_t buf_off, std::uint32_t len,
                          std::uint64_t list_off, std::uint64_t& prp1,
                          std::uint64_t& prp2) {
  // PRP1 = first page; PRP2 = address of the PRP list page enumerating all
  // pages (always materialized — see queue_pair.hpp).
  const std::uint32_t pages = QueuePair::pages_for(len);
  DPC_CHECK(pages >= 1 && pages <= kPageSize / sizeof(std::uint64_t));
  prp1 = buf_off;
  prp2 = list_off;
  auto& host = dma_->host();
  for (std::uint32_t p = 0; p < pages; ++p) {
    host.store<std::uint64_t>(list_off + p * sizeof(std::uint64_t),
                              buf_off + std::uint64_t{p} * kPageSize);
  }
}

IniDriver::Submitted IniDriver::submit(const Request& req) {
  const std::uint32_t wlen = static_cast<std::uint32_t>(
      req.write_hdr.size() + req.write_data.size());
  const std::uint32_t rlen = req.read_hdr_cap + req.read_data_cap;
  DPC_CHECK(wlen <= qp_->config().max_write);
  DPC_CHECK(rlen <= qp_->config().max_read);
  DPC_CHECK(req.write_hdr.size() <= 0xFFFF);

  sim::Nanos cost{};
  sim::UniqueLock lock(mu_);
  if (free_cids_.empty()) {
    // Queue full: completed-but-unreleased cids belong to other threads.
    // Sleep on the cv until release() frees a slot — deterministic wakeup,
    // and no yield() spin that could starve pollers of the core.
    if (queue_full_waits_ != nullptr) queue_full_waits_->add();
    sim::schedhook::coop_cv_wait(free_cv_, lock,
                                 [this] { return !free_cids_.empty(); },
                                 "nvme.ini.cv");
  }
  // DPC_CHECK_MUTATE doorbell-publish: ring the doorbell *before* the SQE
  // store — the TGT may then fetch a stale descriptor from the slot. The
  // checker arms this and must observe the stale fetch.
  const bool mutate_db = sim::schedhook::mutate("doorbell-publish");
  if (mutate_db) {
    cost += dma_->doorbell(  // dpc-lint: ok(doorbell-fence) armed mutation: rings before the publish on purpose
        qp_->sq_tail_db_off(),
        static_cast<std::uint16_t>((sq_tail_ + 1) % qp_->depth()));
    if (sq_doorbells_ != nullptr) sq_doorbells_->add();
    sim::schedhook::point("nvme.sqe_store");
  }

  const std::uint16_t cid = alloc_cid_locked();
  if (traces_ != nullptr) traces_->stamp(cid, obs::Stage::kHostSubmit);
  if (submits_ != nullptr) submits_->add();

  NvmeFsCmd cmd;
  cmd.target = req.target;
  cmd.inline_op = req.inline_op;
  cmd.tenant = req.tenant;
  cmd.cid = cid;
  cmd.inode = req.inode;
  cmd.offset = req.offset;
  cmd.write_len = wlen;
  cmd.read_len = rlen;
  cmd.write_hdr_len = static_cast<std::uint16_t>(req.write_hdr.size());
  cmd.read_hdr_len = req.read_hdr_cap;

  auto& host = dma_->host();
  if (wlen > 0) {
    const std::uint64_t wbuf = qp_->write_buf_off(cid);
    if (!req.write_hdr.empty()) host.write(wbuf, req.write_hdr);
    if (!req.write_data.empty())
      host.write(wbuf + req.write_hdr.size(), req.write_data);
    // Integrity envelope: stamp a CRC32C trailer right after the payload.
    // It rides inside the same data DMA (the PRP list below covers it), so
    // the TGT can verify the bytes it pulled without extra transactions.
    const std::uint32_t crc =
        ec::crc32c(req.write_data, ec::crc32c(req.write_hdr));
    host.store<std::uint32_t>(wbuf + wlen, crc);
    build_prp(wbuf, wlen + kPayloadCrcBytes, qp_->write_prp_list_off(cid),
              cmd.prp_write1, cmd.prp_write2);
  }
  if (rlen > 0) {
    // +kPayloadCrcBytes: the TGT appends the read-payload trailer.
    build_prp(qp_->read_buf_off(cid), rlen + kPayloadCrcBytes,
              qp_->read_prp_list_off(cid), cmd.prp_read1, cmd.prp_read2);
  }

  // Produce the SQE at the SQ tail (host-local store, no PCIe traffic),
  // then ring the doorbell: one posted MMIO write.
  host.store(qp_->sqe_off(sq_tail_), encode_nvme_fs(cmd));
  sq_tail_ = static_cast<std::uint16_t>((sq_tail_ + 1) % qp_->depth());
  if (!mutate_db) {
    cost += dma_->doorbell(qp_->sq_tail_db_off(), sq_tail_);
    if (sq_doorbells_ != nullptr) sq_doorbells_->add();
  }
  return {cid, cost};
}

std::optional<Completion> IniDriver::drain_locked() {
  auto& host = dma_->host();
  std::optional<Completion> first;
  int consumed = 0;
  for (;;) {
    const std::uint64_t cqe_off = qp_->cqe_off(cq_head_);
    // The phase tag lives in the CQE's final dword, which the TGT stores
    // with release ordering; acquire here makes the rest of the entry
    // visible.
    const std::uint32_t last_dword =
        host.atomic_u32(cqe_off + 12).load(std::memory_order_acquire);
    const auto status = static_cast<std::uint16_t>(last_dword >> 16);
    if (((status & 1u) != 0) != cq_phase_) break;  // not ready
    Cqe cqe = host.load<Cqe>(cqe_off);
    cqe.cid = static_cast<std::uint16_t>(last_dword & 0xFFFF);
    cqe.status = status;
    cq_head_ = static_cast<std::uint16_t>((cq_head_ + 1) % qp_->depth());
    if (cq_head_ == 0) cq_phase_ = !cq_phase_;
    Completion c{cqe.cid, status_of(cqe), cqe.result, cqe.dw1};
    DPC_CHECK(c.cid < qp_->depth());
    if (done_[c.cid].has_value()) {
      // A CQE arrived for a cid that already holds an unconsumed completion
      // (e.g. an abort() raced a slow CQE). Never clobber the recorded one —
      // the slot may already belong to a resubmitted command. Count it so
      // the "aborted cids are permanently dead" invariant is auditable.
      if (late_cqes_ != nullptr) late_cqes_->add();
      ++consumed;
      continue;
    }
    done_[c.cid] = c;
    if (traces_ != nullptr) {
      traces_->stamp(c.cid, obs::Stage::kHostReap);
      traces_->finish(c.cid);
    }
    if (!first.has_value()) first = c;
    ++consumed;
  }
  if (consumed > 0) {
    // Publish the new head to the DPU so the TGT can reuse CQ slots — one
    // doorbell (one modelled MMIO) per drained batch, not per CQE, matching
    // how real NVMe drivers coalesce the CQ-head update. Consumer-side:
    // nothing to publish before it, the head only frees slots.
    // dpc-lint: ok(doorbell-fence) consumer-side CQ head update
    dma_->doorbell(qp_->cq_head_db_off(), cq_head_);
    if (cq_doorbells_ != nullptr) cq_doorbells_->add();
    if (reaps_ != nullptr)
      reaps_->add(static_cast<std::uint64_t>(consumed));
  }
  return first;
}

std::optional<Completion> IniDriver::poll() {
  sim::LockGuard lock(mu_);
  return drain_locked();
}

Completion IniDriver::wait(std::uint16_t cid) {
  DPC_CHECK(cid < qp_->depth());
  // The fs-adapter size view is the one lock designed to span a round trip.
  sim::lockrank::require_none_below(sim::LockRank::kAdapter, "nvme.ini.wait");
  for (;;) {
    {
      sim::LockGuard lock(mu_);
      if (done_[cid].has_value()) {
        const Completion c = *done_[cid];
        return c;
      }
    }
    if (!poll().has_value()) {
      sim::schedhook::spin("nvme.ini.wait");
      std::this_thread::yield();
    }
  }
}

std::optional<Completion> IniDriver::try_take(std::uint16_t cid) {
  DPC_CHECK(cid < qp_->depth());
  sim::lockrank::require_none_below(sim::LockRank::kAdapter,
                                    "nvme.ini.try_take");
  sim::LockGuard lock(mu_);
  drain_locked();
  return done_[cid];
}

std::span<const std::byte> IniDriver::read_payload(std::uint16_t cid,
                                                   std::size_t n) const {
  const pcie::MemoryRegion& host = dma_->host();
  return host.bytes(qp_->read_buf_off(cid), n);
}

Completion IniDriver::abort(std::uint16_t cid) {
  DPC_CHECK(cid < qp_->depth());
  sim::LockGuard lock(mu_);
  drain_locked();  // last chance: the completion may have just landed
  if (done_[cid].has_value()) return *done_[cid];
  const Completion c{cid, Status::kAbortedByRequest, 0, 0};
  done_[cid] = c;
  if (timeouts_ != nullptr) timeouts_->add();
  // Clear any half-recorded trace stamps so the cid's next command starts
  // from a clean slot (finish() only records spans with both endpoints).
  if (traces_ != nullptr) traces_->finish(cid);
  return c;
}

void IniDriver::release(std::uint16_t cid) {
  {
    sim::LockGuard lock(mu_);
    DPC_CHECK_MSG(done_[cid].has_value(),
                  "release of incomplete cid " << cid);
    done_[cid].reset();
    free_cids_.push_back(cid);
  }
  // One slot freed → one waiter can make progress.
  free_cv_.notify_one();
}

std::uint16_t IniDriver::reset() {
  std::uint16_t aborted = 0;
  {
    sim::LockGuard lock(mu_);
    // The TGT has already been rewound, so no CQE will ever arrive for the
    // commands currently in flight. Synthesize aborts for them; the normal
    // try_take → release path reclaims each slot and the retry loop
    // resubmits onto the freshly reset queue.
    std::vector<bool> is_free(qp_->depth(), false);
    for (const std::uint16_t cid : free_cids_) is_free[cid] = true;
    for (std::uint16_t cid = 0; cid + 1 < qp_->depth(); ++cid) {
      if (is_free[cid] || done_[cid].has_value()) continue;
      done_[cid] = Completion{cid, Status::kAbortedByRequest, 0, 0};
      if (traces_ != nullptr) traces_->finish(cid);
      ++aborted;
    }
    // Zero every CQE's phase-carrying dword. The ring restarts at phase 1,
    // so a stale entry left with its phase bit set would otherwise read as
    // a fresh completion the first time the head sweeps past it.
    auto& host = dma_->host();
    for (std::uint16_t i = 0; i < qp_->depth(); ++i) {
      host.atomic_u32(qp_->cqe_off(i) + 12).store(0,
                                                  std::memory_order_release);
    }
    sq_tail_ = 0;
    cq_head_ = 0;
    cq_phase_ = true;
    dma_->doorbell(qp_->sq_tail_db_off(), 0);
    dma_->doorbell(qp_->cq_head_db_off(), 0);
    if (resets_ != nullptr) resets_->add();
    if (timeouts_ != nullptr && aborted > 0)
      timeouts_->add(static_cast<std::uint64_t>(aborted));
  }
  // Aborted completions unblock wait()/try_take() callers, whose release()
  // will signal free_cv_ — but wake queue-full waiters now in case the
  // reset itself is what frees the queue for them.
  free_cv_.notify_all();
  return aborted;
}

std::uint16_t IniDriver::inflight() const {
  sim::LockGuard lock(mu_);
  return static_cast<std::uint16_t>(qp_->depth() - 1 - free_cids_.size());
}

}  // namespace dpc::nvme
