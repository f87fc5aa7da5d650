// Per-peer gray-failure scoreboard (DESIGN.md §5.7).
//
// A HealthBoard watches one *group* of peers (the data servers, the MDS
// cluster, a remote KV store) and keeps, per peer, an EWMA and a streaming
// quantile of observed service latency. Three consumers hang off it:
//
//   * adaptive deadlines — deadline() scales the healthy cohort's observed
//     p99 (floor/ceiling clamped) and replaces the fixed timeout constants
//     in the retry paths, so "how long to wait before declaring an attempt
//     dead" tracks what the cluster actually delivers;
//   * slow-peer quarantine — the CircuitBreaker generalized from up/down to
//     slow/healthy: a peer whose EWMA stays a configured ratio above the
//     group median (or that keeps timing out) is quarantined, callers route
//     around it, and every Nth suppressed access probes it for reintegration;
//   * hedged reads — hedge_delay() says how long a read may lag the healthy
//     p99 before speculating, and the hedge token budget caps speculation at
//     a fraction of primary reads so the cure cannot become an overload.
//
// Like the rest of src/fault this is a modelled-time construct: latencies
// are sim::Nanos charges, probing is access-count based, and every decision
// is a pure function of the observation stream — deterministic under a
// fixed fault seed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::fault {

struct HealthConfig {
  /// deadline() = clamp(3 × healthy-cohort p99, floor, ceiling).
  sim::Nanos deadline_floor = sim::micros(150.0);
  sim::Nanos deadline_ceiling = sim::millis(20.0);

  // hedge_delay() = clamp(1.5 × healthy-cohort p99, 20 µs, the deadline
  // ceiling). Its floor sits far below the deadline floor: hedging fires on
  // "lagging the cohort", long before "declared dead".

  /// Quarantine trigger: a peer strikes when an observation times out, or —
  /// with ≥ 4 peers, where a median is meaningful — when its EWMA exceeds
  /// slow_ratio × the group median EWMA. `slow_strikes` consecutive strikes
  /// quarantine the peer.
  double slow_ratio = 4.0;
  int slow_strikes = 6;

  /// Hedge token budget: each primary read earns `hedge_budget` tokens and
  /// each speculative read spends one, so speculation is capped at this
  /// fraction of primary reads. 0 disables hedging outright.
  double hedge_budget = 0.10;
  /// Token cap — a long healthy stretch must not bank an unbounded burst.
  double hedge_token_cap = 16.0;
};

class HealthBoard {
 public:
  /// While quarantined, every kProbeInterval-th suppressed access is let
  /// through as a probe (CircuitBreaker's op-count probing, slow-tier).
  static constexpr int kProbeInterval = 8;
  /// Consecutive healthy probes required to reintegrate.
  static constexpr int kReintegrateSuccesses = 3;

  /// `group` prefixes the board's metrics ("health/<group><peer>/…"); the
  /// registry (optional) hosts per-peer score/EWMA gauges plus quarantine /
  /// reintegration / probe counters.
  HealthBoard(std::string_view group, int peers, HealthConfig cfg = {},
              obs::Registry* registry = nullptr);

  int peers() const { return static_cast<int>(peers_v_.size()); }
  const HealthConfig& config() const { return cfg_; }

  /// Feeds one observed access: `observed` is the modelled service latency
  /// the caller experienced, `ok` false means the attempt timed out at its
  /// deadline (observed is then the censored wait, not true service time).
  /// Integrity failures are NOT timeouts — corrupt-but-timely answers must
  /// be recorded ok=true so bit-rot cannot masquerade as slowness.
  void record(int peer, sim::Nanos observed, bool ok);

  /// Current adaptive deadline: scaled healthy-cohort p99, clamped. Falls
  /// back to the ceiling when nothing has been observed yet (be generous
  /// until measured — a cold start must not fail healthy ops).
  sim::Nanos deadline() const;
  /// Adaptive hedge trigger: how far an in-flight read may lag before
  /// speculative shards launch.
  sim::Nanos hedge_delay() const;

  /// Relative health in (0, 1]: 1 = at or faster than the group median,
  /// approaching 0 the slower the peer, exactly 0 while quarantined.
  double score(int peer) const;
  sim::Nanos ewma(int peer) const;
  sim::Nanos p99(int peer) const;
  bool quarantined(int peer) const;

  /// Routing gate: true = use the peer. While quarantined, every
  /// kProbeInterval-th call returns true as a reintegration probe.
  bool allow(int peer);

  /// Peer indices ordered healthiest-first (quarantined peers last);
  /// deterministic tie-break by index.
  std::vector<int> ranked() const;

  /// Hedge budget: each primary read earns budget…
  void note_primary(int reads = 1);
  /// …each speculative read spends it. False = budget exhausted (the caller
  /// must wait out the slow peer instead of hedging).
  bool try_hedge(int reads = 1);

  std::uint64_t quarantines() const;
  std::uint64_t reintegrations() const;

 private:
  static constexpr double kEwmaAlpha = 0.25;  ///< per-peer EWMA smoothing
  static constexpr double kDeadlineScale = 3.0;
  static constexpr double kHedgeScale = 1.5;
  static constexpr sim::Nanos kHedgeFloor = sim::micros(20.0);
  /// Streaming-quantile ring: per-peer window of recent observations, with
  /// the cached p99 recomputed every kQuantileRefresh records.
  static constexpr int kQuantileWindow = 128;
  static constexpr int kQuantileRefresh = 8;

  struct Peer {
    double ewma_ns = -1.0;  // < 0: no data yet
    std::array<std::int64_t, kQuantileWindow> ring{};
    int ring_pos = 0;
    int ring_count = 0;
    int since_refresh = 0;
    std::int64_t cached_p99_ns = 0;  // 0: no data yet
    int strikes = 0;
    bool quarantined = false;
    std::uint64_t suppressed = 0;  // accesses gated since quarantine
    int probe_successes = 0;
  };

  double median_healthy_ewma_locked() const REQUIRES(mu_);
  std::int64_t cohort_p99_locked() const REQUIRES(mu_);
  void refresh_p99_locked(Peer& p) REQUIRES(mu_);
  void publish_peer_locked(int peer) REQUIRES(mu_);

  HealthConfig cfg_;
  std::string group_;
  mutable sim::AnnotatedMutex mu_{"fault.health", sim::LockRank::kLeaf};
  std::vector<Peer> peers_v_ GUARDED_BY(mu_);
  double hedge_tokens_ GUARDED_BY(mu_) = 0.0;
  std::uint64_t quarantines_n_ GUARDED_BY(mu_) = 0;
  std::uint64_t reintegrations_n_ GUARDED_BY(mu_) = 0;

  // Registry metrics (null without a registry). Per-peer gauges resolved
  // once at construction — the resolve-once rule for hot paths.
  std::vector<obs::Gauge*> score_gauges_;
  std::vector<obs::Gauge*> ewma_gauges_;
  obs::Counter* quarantines_ctr_ = nullptr;
  obs::Counter* reintegrations_ctr_ = nullptr;
  obs::Counter* probes_ctr_ = nullptr;
};

}  // namespace dpc::fault
