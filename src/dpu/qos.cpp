#include "dpu/qos.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "sim/schedhook.hpp"

namespace dpc::dpu {

QosManager::QosManager(const QosConfig& cfg, obs::Registry& registry)
    : cfg_(cfg),
      admitted_(&registry.counter("qos/admitted")),
      throttled_(&registry.counter("qos/throttled")),
      shed_(&registry.counter("qos/shed")),
      queued_gauge_(&registry.gauge("qos/queued_cmds")),
      inflight_gauge_(&registry.gauge("qos/inflight_bytes")) {
  for (std::size_t t = 0; t < nvme::kMaxTenants; ++t) {
    const unsigned id = static_cast<unsigned>(t);
    TenantInstruments& ti = tenant_[t];
    ti.admitted = &registry.counter(obs::tenant_metric(id, "admitted"));
    ti.throttled = &registry.counter(obs::tenant_metric(id, "throttled"));
    ti.shed = &registry.counter(obs::tenant_metric(id, "shed"));
    ti.ops = &registry.counter(obs::tenant_metric(id, "ops"));
    ti.dispatched_bytes =
        &registry.counter(obs::tenant_metric(id, "dispatched_bytes"));
    ti.backend_bytes =
        &registry.counter(obs::tenant_metric(id, "backend_bytes"));
    ti.prefetch_pages =
        &registry.counter(obs::tenant_metric(id, "prefetch_pages"));
    ti.latency_ns = &registry.histogram(obs::tenant_metric(id, "latency_ns"));
  }
}

QosManager::Admit QosManager::admit(nvme::TenantId tenant,
                                    std::uint32_t charge) {
  const std::size_t t = slot(tenant);
  sim::LockGuard lock(mu_);
  // Global staging caps. Guaranteed tenants bypass them: the caps exist to
  // bound how far behind *they* can be pushed.
  if (cfg_.tenants[t].cls != TenantClass::kGuaranteed &&
      (queued_ >= static_cast<std::int64_t>(cfg_.max_queued_cmds) ||
       inflight_bytes_ + charge >
           static_cast<std::int64_t>(cfg_.max_inflight_bytes))) {
    throttled_->add();
    tenant_[t].throttled->add();
    return {false, kMinRetryAfter};
  }
  ++queued_;
  inflight_bytes_ += charge;
  queued_now_.store(queued_, std::memory_order_relaxed);
  queued_gauge_->set(queued_);
  inflight_gauge_->set(inflight_bytes_);
  admitted_->add();
  tenant_[t].admitted->add();
  return {true, sim::Nanos{}};
}

void QosManager::unstage_locked(std::size_t t, std::uint32_t charge) {
  (void)t;
  --queued_;
  inflight_bytes_ -= charge;
  DPC_CHECK(queued_ >= 0 && inflight_bytes_ >= 0);
  queued_now_.store(queued_, std::memory_order_relaxed);
  queued_gauge_->set(queued_);
  inflight_gauge_->set(inflight_bytes_);
}

void QosManager::on_dispatch(nvme::TenantId tenant, std::uint32_t charge) {
  const std::size_t t = slot(tenant);
  sim::LockGuard lock(mu_);
  unstage_locked(t, charge);
  tenant_[t].dispatched_bytes->add(charge);
}

void QosManager::on_shed(nvme::TenantId tenant, std::uint32_t charge) {
  const std::size_t t = slot(tenant);
  sim::LockGuard lock(mu_);
  unstage_locked(t, charge);
  shed_->add();
  tenant_[t].shed->add();
}

void QosManager::on_reset_drop(nvme::TenantId tenant, std::uint32_t charge) {
  const std::size_t t = slot(tenant);
  sim::LockGuard lock(mu_);
  unstage_locked(t, charge);
}

void QosManager::record_latency(nvme::TenantId tenant, sim::Nanos cost) {
  tenant_[slot(tenant)].latency_ns->record(cost);
}

void QosManager::count_op(nvme::TenantId tenant) {
  tenant_[slot(tenant)].ops->add();
}

void QosManager::count_backend_bytes(nvme::TenantId tenant,
                                     std::uint64_t bytes) {
  tenant_[slot(tenant)].backend_bytes->add(bytes);
}

void QosManager::count_prefetch_pages(nvme::TenantId tenant,
                                      std::uint64_t pages) {
  tenant_[slot(tenant)].prefetch_pages->add(pages);
}

// ---------------------------------------------------------------------------
// DrrScheduler
// ---------------------------------------------------------------------------

void DrrScheduler::push(StagedCmd cmd) {
  ++size_;
  if (qos_ == nullptr) {
    fifo_.push_back(std::move(cmd));
    return;
  }
  const auto t = static_cast<std::uint8_t>(QosManager::slot(cmd.tenant));
  TenantQueue& tq = tq_[t];
  tq.q.push_back(std::move(cmd));
  if (!tq.active) {
    tq.active = true;
    ring_.push_back(t);
  }
}

std::optional<StagedCmd> DrrScheduler::pop() {
  if (size_ == 0) return std::nullopt;
  if (qos_ == nullptr) {
    StagedCmd cmd = std::move(fifo_.front());
    fifo_.pop_front();
    --size_;
    return cmd;
  }
  // Strict class priority: the DRR weights share bandwidth only *within*
  // the strongest class that has staged work — a guaranteed tenant's
  // command never waits behind best-effort or background dispatches, no
  // matter the weights (ring size ≤ kMaxTenants keeps the scan cheap).
  // DPC_CHECK_MUTATE drr-class-order: serve the *weakest* staged class —
  // best-effort dispatches while guaranteed work queues, the exact
  // inversion the strict-priority scan exists to prevent. dpc_check arms
  // this and must see a guaranteed command bypassed.
  const bool mutate_order = sim::schedhook::mutate("drr-class-order");
  TenantClass best =
      mutate_order ? TenantClass::kGuaranteed : TenantClass::kBackground;
  for (const std::uint8_t t : ring_) {
    if (tq_[t].q.empty()) continue;
    const TenantClass c = qos_->cls(static_cast<nvme::TenantId>(t));
    best = mutate_order ? std::max(best, c) : std::min(best, c);
  }
  // Terminates: size_ > 0 guarantees a non-empty best-class queue in the
  // ring, and its deficit strictly grows each rotation until it covers the
  // head's charge.
  while (true) {
    DPC_CHECK(!ring_.empty());
    const std::uint8_t t = ring_.front();
    TenantQueue& tq = tq_[t];
    if (tq.q.empty()) {  // defensive; deactivation keeps the ring tight
      deactivate(t);
      continue;
    }
    if (qos_->cls(static_cast<nvme::TenantId>(t)) != best) {
      // A weaker class is not being served this round: rotate past it
      // without granting deficit, so it earns no credit while blocked.
      ring_.pop_front();
      ring_.push_back(t);
      continue;
    }
    const auto cost = static_cast<std::int64_t>(tq.q.front().charge);
    if (tq.deficit >= cost) {
      tq.deficit -= cost;
      StagedCmd cmd = std::move(tq.q.front());
      tq.q.pop_front();
      --size_;
      if (tq.q.empty()) deactivate(t);
      return cmd;
    }
    tq.deficit += static_cast<std::int64_t>(kQuantumBytes) *
                  qos_->weight(static_cast<nvme::TenantId>(t));
    ring_.pop_front();
    ring_.push_back(t);
  }
}

std::optional<StagedCmd> DrrScheduler::shed_stale(sim::Nanos vt_now,
                                                  sim::Nanos max_delay) {
  if (qos_ == nullptr || size_ == 0) return std::nullopt;
  for (const TenantClass cls :
       {TenantClass::kBackground, TenantClass::kBestEffort}) {
    for (std::size_t t = 0; t < nvme::kMaxTenants; ++t) {
      TenantQueue& tq = tq_[t];
      if (tq.q.empty()) continue;
      if (qos_->cls(static_cast<nvme::TenantId>(t)) != cls) continue;
      if (vt_now.ns - tq.q.front().ingest_vt.ns <= max_delay.ns) continue;
      StagedCmd cmd = std::move(tq.q.front());
      tq.q.pop_front();
      --size_;
      if (tq.q.empty()) deactivate(static_cast<std::uint8_t>(t));
      return cmd;
    }
  }
  return std::nullopt;
}

void DrrScheduler::drain(std::vector<StagedCmd>& out) {
  for (StagedCmd& cmd : fifo_) out.push_back(std::move(cmd));
  fifo_.clear();
  for (TenantQueue& tq : tq_) {
    for (StagedCmd& cmd : tq.q) out.push_back(std::move(cmd));
    tq.q.clear();
    tq.deficit = 0;
    tq.active = false;
  }
  ring_.clear();
  size_ = 0;
}

void DrrScheduler::deactivate(std::uint8_t t) {
  tq_[t].active = false;
  tq_[t].deficit = 0;
  std::erase(ring_, t);
}

}  // namespace dpc::dpu
