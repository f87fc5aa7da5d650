#include "fault/health.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/histogram.hpp"

namespace dpc::fault {

namespace {

std::int64_t clamp_ns(double v, sim::Nanos lo, sim::Nanos hi) {
  const auto n = static_cast<std::int64_t>(v);
  return std::clamp(n, lo.ns, hi.ns);
}

}  // namespace

HealthBoard::HealthBoard(std::string_view group, int peers, HealthConfig cfg,
                         obs::Registry* registry)
    : cfg_(cfg), group_(group) {
  DPC_CHECK(peers >= 1);
  DPC_CHECK(cfg_.deadline_floor.ns <= cfg_.deadline_ceiling.ns);
  DPC_CHECK(cfg_.slow_strikes >= 1);
  peers_v_.resize(static_cast<std::size_t>(peers));
  if (registry != nullptr) {
    score_gauges_.reserve(static_cast<std::size_t>(peers));
    ewma_gauges_.reserve(static_cast<std::size_t>(peers));
    for (int i = 0; i < peers; ++i) {
      const std::string stem =
          "health/" + group_ + std::to_string(i);
      score_gauges_.push_back(&registry->gauge(stem + "/score_milli"));
      score_gauges_.back()->set(1000);  // unmeasured = presumed healthy
      ewma_gauges_.push_back(&registry->gauge(stem + "/ewma_ns"));
    }
    quarantines_ctr_ =
        &registry->counter("health/" + group_ + "/quarantines");
    reintegrations_ctr_ =
        &registry->counter("health/" + group_ + "/reintegrations");
    probes_ctr_ = &registry->counter("health/" + group_ + "/probes");
  }
}

void HealthBoard::refresh_p99_locked(Peer& p) {
  if (p.ring_count == 0) return;
  // "Streaming quantile": bounded ring of recent observations, p99 read by
  // selection. Deterministic and windowed — exactly what an adaptive
  // deadline wants (old regimes age out as the window slides).
  p.cached_p99_ns = sim::quantile(
      {p.ring.begin(), p.ring.begin() + p.ring_count}, 0.99);
}

double HealthBoard::median_healthy_ewma_locked() const {
  std::vector<double> vals;
  vals.reserve(peers_v_.size());
  for (const Peer& p : peers_v_)
    if (!p.quarantined && p.ewma_ns >= 0.0) vals.push_back(p.ewma_ns);
  if (vals.empty()) return -1.0;
  const auto mid = vals.size() / 2;
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid),
                   vals.end());
  return vals[mid];
}

std::int64_t HealthBoard::cohort_p99_locked() const {
  // The healthy cohort's p99: median of the non-quarantined peers' cached
  // p99s. The median (not max) keeps one not-yet-quarantined limper from
  // dragging the deadline out to its own tail — the cohort defines what an
  // access "should" take.
  std::vector<std::int64_t> vals;
  vals.reserve(peers_v_.size());
  for (const Peer& p : peers_v_)
    if (!p.quarantined && p.cached_p99_ns > 0) vals.push_back(p.cached_p99_ns);
  if (vals.empty()) {
    for (const Peer& p : peers_v_)
      if (p.cached_p99_ns > 0) vals.push_back(p.cached_p99_ns);
  }
  if (vals.empty()) return 0;
  const auto mid = vals.size() / 2;
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid),
                   vals.end());
  return vals[mid];
}

void HealthBoard::publish_peer_locked(int peer) {
  if (score_gauges_.empty()) return;
  const Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  double s = 1.0;
  if (p.quarantined) {
    s = 0.0;
  } else if (p.ewma_ns > 0.0) {
    const double med = median_healthy_ewma_locked();
    if (med > 0.0) s = std::min(1.0, med / p.ewma_ns);
  }
  score_gauges_[static_cast<std::size_t>(peer)]->set(
      static_cast<std::int64_t>(s * 1000.0));
  ewma_gauges_[static_cast<std::size_t>(peer)]->set(
      p.ewma_ns < 0.0 ? 0 : static_cast<std::int64_t>(p.ewma_ns));
}

void HealthBoard::record(int peer, sim::Nanos observed, bool ok) {
  sim::LockGuard lock(mu_);
  Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  const auto obs = static_cast<double>(observed.ns);
  // Only *completed* observations feed the latency statistics. A censored
  // timeout is recorded at the deadline that cut it — pushing that into the
  // window would feed the deadline its own output: p99 → deadline →
  // 3×deadline on the next refresh, unbounded, until the very stalls the
  // deadline exists to cut fit under it. Timeouts drive strikes/quarantine
  // below; the latency window keeps describing the healthy regime.
  if (ok) {
    p.ewma_ns = p.ewma_ns < 0.0
                    ? obs
                    : kEwmaAlpha * obs + (1.0 - kEwmaAlpha) * p.ewma_ns;
    p.ring[static_cast<std::size_t>(p.ring_pos)] = observed.ns;
    p.ring_pos = (p.ring_pos + 1) % kQuantileWindow;
    p.ring_count = std::min(p.ring_count + 1, kQuantileWindow);
    if (++p.since_refresh >= kQuantileRefresh || p.cached_p99_ns == 0) {
      p.since_refresh = 0;
      refresh_p99_locked(p);
    }
  }

  if (p.quarantined) {
    // Only probes reach a quarantined peer, so this observation is the
    // probe's verdict.
    p.probe_successes = ok ? p.probe_successes + 1 : 0;
    if (p.probe_successes >= kReintegrateSuccesses) {
      p.quarantined = false;
      p.strikes = 0;
      p.suppressed = 0;
      p.probe_successes = 0;
      // Drop the limp-era window: the reintegrated peer's deadline/score
      // must reflect its probed (healthy) latency, not its quarantined past.
      p.ring[0] = observed.ns;
      p.ring_pos = 1;
      p.ring_count = 1;
      p.since_refresh = 0;
      p.cached_p99_ns = observed.ns;
      p.ewma_ns = obs;
      ++reintegrations_n_;
      if (reintegrations_ctr_ != nullptr) reintegrations_ctr_->add();
    }
  } else {
    bool suspect = !ok;
    if (ok && peers_v_.size() >= 4) {
      // With a cohort to compare against, sustained relative slowness
      // strikes even when every access completes inside the deadline.
      const double med = median_healthy_ewma_locked();
      suspect = med > 0.0 && p.ewma_ns > cfg_.slow_ratio * med;
    }
    p.strikes = suspect ? p.strikes + 1 : 0;
    if (p.strikes >= cfg_.slow_strikes) {
      p.quarantined = true;
      p.suppressed = 0;
      p.probe_successes = 0;
      ++quarantines_n_;
      if (quarantines_ctr_ != nullptr) quarantines_ctr_->add();
    }
  }
  publish_peer_locked(peer);
}

sim::Nanos HealthBoard::deadline() const {
  sim::LockGuard lock(mu_);
  const std::int64_t q = cohort_p99_locked();
  if (q == 0) return cfg_.deadline_ceiling;  // unmeasured: be generous
  return sim::Nanos{clamp_ns(kDeadlineScale * static_cast<double>(q),
                             cfg_.deadline_floor, cfg_.deadline_ceiling)};
}

sim::Nanos HealthBoard::hedge_delay() const {
  sim::LockGuard lock(mu_);
  const std::int64_t q = cohort_p99_locked();
  if (q == 0) return cfg_.deadline_ceiling;
  return sim::Nanos{clamp_ns(kHedgeScale * static_cast<double>(q),
                             kHedgeFloor, cfg_.deadline_ceiling)};
}

double HealthBoard::score(int peer) const {
  sim::LockGuard lock(mu_);
  const Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  if (p.quarantined) return 0.0;
  if (p.ewma_ns <= 0.0) return 1.0;
  const double med = median_healthy_ewma_locked();
  if (med <= 0.0) return 1.0;
  return std::min(1.0, med / p.ewma_ns);
}

sim::Nanos HealthBoard::ewma(int peer) const {
  sim::LockGuard lock(mu_);
  const Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  return sim::Nanos{p.ewma_ns < 0.0 ? 0
                                    : static_cast<std::int64_t>(p.ewma_ns)};
}

sim::Nanos HealthBoard::p99(int peer) const {
  sim::LockGuard lock(mu_);
  return sim::Nanos{peers_v_[static_cast<std::size_t>(peer)].cached_p99_ns};
}

bool HealthBoard::quarantined(int peer) const {
  sim::LockGuard lock(mu_);
  return peers_v_[static_cast<std::size_t>(peer)].quarantined;
}

bool HealthBoard::allow(int peer) {
  sim::LockGuard lock(mu_);
  Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  if (!p.quarantined) return true;
  const std::uint64_t n = ++p.suppressed;
  if (n % static_cast<std::uint64_t>(kProbeInterval) == 0) {
    if (probes_ctr_ != nullptr) probes_ctr_->add();
    return true;  // reintegration probe
  }
  return false;
}

std::vector<int> HealthBoard::ranked() const {
  sim::LockGuard lock(mu_);
  std::vector<int> order(peers_v_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Peer& pa = peers_v_[static_cast<std::size_t>(a)];
    const Peer& pb = peers_v_[static_cast<std::size_t>(b)];
    if (pa.quarantined != pb.quarantined) return !pa.quarantined;
    // Unmeasured peers (ewma < 0) sort as fast — give them traffic so they
    // get measured.
    const double ea = pa.ewma_ns < 0.0 ? 0.0 : pa.ewma_ns;
    const double eb = pb.ewma_ns < 0.0 ? 0.0 : pb.ewma_ns;
    return ea < eb;
  });
  return order;
}

void HealthBoard::note_primary(int reads) {
  sim::LockGuard lock(mu_);
  hedge_tokens_ = std::min(cfg_.hedge_token_cap,
                           hedge_tokens_ + cfg_.hedge_budget * reads);
}

bool HealthBoard::try_hedge(int reads) {
  sim::LockGuard lock(mu_);
  if (hedge_tokens_ < static_cast<double>(reads)) return false;
  hedge_tokens_ -= static_cast<double>(reads);
  return true;
}

std::uint64_t HealthBoard::quarantines() const {
  sim::LockGuard lock(mu_);
  return quarantines_n_;
}

std::uint64_t HealthBoard::reintegrations() const {
  sim::LockGuard lock(mu_);
  return reintegrations_n_;
}

}  // namespace dpc::fault
