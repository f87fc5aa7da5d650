#include "fault/retry.hpp"

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace dpc::fault {

sim::Nanos jittered(sim::Nanos base, double jitter, int step,
                    std::uint64_t salt) {
  if (jitter <= 0.0) return base;
  std::uint64_t x =
      salt ^ (0xa0761d6478bd642fULL * static_cast<std::uint64_t>(step));
  const std::uint64_t z = sim::detail::splitmix64(x);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
  const double b = static_cast<double>(base.ns) * (1.0 + jitter * (u - 0.5));
  sim::Nanos out{static_cast<std::int64_t>(b)};
  // A positive base must yield a positive wait: a large jitter factor can
  // scale the draw into (-inf, 1) and the truncation rounds it to zero (or
  // below), which would turn a backoff/pacer into a busy spin.
  if (base.ns > 0 && out.ns < 1) out.ns = 1;
  return out;
}

sim::Nanos RetryPolicy::backoff(int attempt, std::uint64_t salt) const {
  DPC_CHECK(attempt >= 1);
  double b = static_cast<double>(base_backoff.ns);
  for (int i = 1; i < attempt; ++i) b *= kBackoffMultiplier;
  return jittered(sim::Nanos{static_cast<std::int64_t>(b)}, kBackoffJitter,
                  attempt, salt);
}

CircuitBreaker::CircuitBreaker(Config cfg, obs::Registry* registry,
                               std::string_view gauge_name)
    : cfg_(cfg) {
  DPC_CHECK(cfg_.failure_threshold >= 1);
  if (registry != nullptr) {
    opens_ = &registry->counter("breaker/opens");
    closes_ = &registry->counter("breaker/closes");
    probes_ = &registry->counter("breaker/probes");
    fast_fails_ = &registry->counter("breaker/fast_fails");
    state_gauge_ = &registry->gauge(gauge_name);
    state_gauge_->set(static_cast<std::int64_t>(State::kClosed));
  }
}

bool CircuitBreaker::allow() {
  sim::LockGuard lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      // Let every kProbeInterval-th gated call through as a probe; the rest
      // fast-fail so a dead backend doesn't eat full timeouts per op.
      const std::uint64_t n = ++gated_calls_;
      if (n % kProbeInterval == 0) {
        state_ = State::kHalfOpen;
        probe_inflight_ = true;
        probe_owner_ = std::this_thread::get_id();
        halfopen_fast_fails_ = 0;
        if (probes_ != nullptr) probes_->add();
        if (state_gauge_ != nullptr)
          state_gauge_->set(static_cast<std::int64_t>(state_));
        return true;
      }
      if (fast_fails_ != nullptr) fast_fails_->add();
      return false;
    }
    case State::kHalfOpen:
      // A probe is in flight; don't pile on. If its owner has gone quiet
      // for a full probe interval (crashed mid-attempt), take the probe
      // over — the original owner's late report becomes a straggler.
      if (probe_inflight_ && ++halfopen_fast_fails_ > kProbeInterval) {
        probe_owner_ = std::this_thread::get_id();
        halfopen_fast_fails_ = 0;
        if (probes_ != nullptr) probes_->add();
        return true;
      }
      if (fast_fails_ != nullptr) fast_fails_->add();
      return false;
  }
  return true;
}

void CircuitBreaker::on_success() {
  sim::LockGuard lock(mu_);
  if (probe_inflight_) {
    if (probe_owner_ != std::this_thread::get_id()) {
      // Straggler: an attempt admitted before the breaker opened, reporting
      // mid-probe. Its evidence predates the outage — it must not close the
      // breaker out from under the probe.
      failures_ = 0;
      return;
    }
    probe_inflight_ = false;
    halfopen_fast_fails_ = 0;
  }
  if (state_ != State::kClosed) {
    state_ = State::kClosed;
    gated_calls_ = 0;
    if (closes_ != nullptr) closes_->add();
    if (state_gauge_ != nullptr)
      state_gauge_->set(static_cast<std::int64_t>(state_));
  }
  failures_ = 0;
}

void CircuitBreaker::on_failure() {
  sim::LockGuard lock(mu_);
  ++failures_;
  if (state_ == State::kHalfOpen) {
    if (probe_inflight_ && probe_owner_ != std::this_thread::get_id())
      return;  // straggler: only the probe's own verdict resolves half-open
    probe_inflight_ = false;
    halfopen_fast_fails_ = 0;
    state_ = State::kOpen;  // probe failed: stay open, no new open event
    if (state_gauge_ != nullptr)
      state_gauge_->set(static_cast<std::int64_t>(state_));
    return;
  }
  if (state_ == State::kClosed &&
      failures_ >= static_cast<std::uint64_t>(cfg_.failure_threshold)) {
    state_ = State::kOpen;
    gated_calls_ = 0;
    if (opens_ != nullptr) opens_->add();
    if (state_gauge_ != nullptr)
      state_gauge_->set(static_cast<std::int64_t>(state_));
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  sim::LockGuard lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::consecutive_failures() const {
  sim::LockGuard lock(mu_);
  return failures_;
}

}  // namespace dpc::fault
