// Deterministic, centrally-configured fault injection (the failure model's
// single knob — see DESIGN.md §5.7).
//
// A FaultInjector is keyed by *site name* ("nvme.tgt/drop_cqe",
// "kv.remote/op", …): each subsystem that can fail holds an optional
// injector pointer and asks `should_fail(site)` at the moment the failure
// would physically occur. Sites are armed per run with a probability; an
// unarmed site never fires, and a null injector (the default everywhere)
// costs one pointer compare on the happy path.
//
// Determinism: draw n at site s under master seed S is a pure function
// hash(S, fnv1a(s), n) — the per-site draw counter is the only state — so
// the same seed yields the same per-site fault schedule regardless of how
// threads interleave across *different* sites. (Within one site, concurrent
// callers race for draw indices; the multiset of outcomes is still
// seed-stable, which is what the chaos tests rely on.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::fault {

/// Thrown by `crash_point()` when an armed crash site fires: models the DPU
/// halting mid-operation. It is caught at the DPU entry boundaries only (the
/// TGT command loop, the cache control-plane passes) — never by the layer
/// that crashed, so no further mutation happens on the crashed path. The
/// host side observes the crash purely as lost completions.
struct CrashException {};

class FaultInjector {
 public:
  /// `registry` (optional) hosts the "fault/injected" and "fault/checks"
  /// counters so injected faults show up in BENCH snapshots.
  explicit FaultInjector(std::uint64_t seed = 0x5eed,
                         obs::Registry* registry = nullptr);

  /// Arms (or re-arms) a site with a Bernoulli fire probability in [0, 1].
  void arm(std::string_view site, double probability);
  /// Removes the site entirely (draw counter included).
  void disarm(std::string_view site);
  /// Keeps the site's configuration and draw counter but gates firing.
  void set_enabled(std::string_view site, bool enabled);

  bool armed(std::string_view site) const;
  double probability(std::string_view site) const;
  /// Draws consumed at the site so far.
  std::uint64_t draws(std::string_view site) const;

  /// One Bernoulli draw at `site`. Unarmed/disabled sites never fire and
  /// consume no draw.
  bool should_fail(std::string_view site);

  /// Like should_fail(), but on a firing draw also fills `*entropy_out`
  /// with 64 deterministic bits derived from the same (seed, site, draw)
  /// tuple. Data-corruption sites use this to pick *which* byte/bit to rot
  /// or where to tear a write, so a given seed reproduces the exact same
  /// damage — not merely the same fault schedule. Untouched when the draw
  /// does not fire.
  bool should_fail(std::string_view site, std::uint64_t* entropy_out);

  // ---- slow outcomes (gray failure / fail-slow) --------------------------
  //
  // A *slow* site never fails an access — it stretches the access's modelled
  // service time, which is how real gray failures present: the peer is up,
  // answers correctly, and quietly drags every op that touches it. Sites are
  // independent of the Bernoulli fault sites above (arm both to model a
  // limping server that also drops requests).

  struct SlowSpec {
    /// Sustained service-time multiplier (1.0 = healthy; 10.0 = the access
    /// takes 10× its healthy latency). Applied on every matching access.
    double multiplier = 1.0;
    /// Additive stall charged when the intermittent draw fires — models GC
    /// pauses / queue spikes rather than a uniformly slow peer.
    sim::Nanos stall{};
    /// Bernoulli probability of `stall` per access (0 = never).
    double stall_probability = 0.0;
    /// Limping-peer mode: only accesses served by this peer index limp;
    /// -1 limps every peer at the site.
    int peer = -1;
  };

  /// Arms (or re-arms) a slow site. Stall draws restart from index 0 on
  /// re-arm, like arm()'s contract for fault draws.
  void arm_slow(std::string_view site, const SlowSpec& spec);
  void disarm_slow(std::string_view site);
  bool slow_armed(std::string_view site) const;

  /// Extra modelled latency of one access at `site` served by `peer`, whose
  /// healthy service time is `base`: (multiplier-1)·base when the peer
  /// matches, plus `stall` when the intermittent draw fires. Deterministic
  /// per (seed, site, draw index) — same machinery as should_fail. Unarmed
  /// sites cost one pointer-ish lookup and return zero.
  sim::Nanos slow_penalty(std::string_view site, int peer, sim::Nanos base);

  // ---- crash outcomes (kCrash) -------------------------------------------
  //
  // Unlike the Bernoulli sites above, a crash site is one-shot: it fires on
  // its (skip+1)-th arrival, marks the whole injector `crashed()`, and
  // disarms itself. Once crashed, every crash point and DPU poller gated on
  // `crashed()` goes quiet until `clear_crash()` — the restart path's job.

  /// Arms `site` to crash on its (skip+1)-th arrival. Re-arming resets the
  /// arrival count.
  void arm_crash(std::string_view site, std::uint64_t skip = 0);
  void disarm_crash(std::string_view site);
  /// One arrival at a crash point. Returns true exactly once per arming —
  /// when the skip count is exhausted — and latches `crashed()`. Arrivals
  /// while already crashed never fire (a halted DPU executes nothing).
  bool at_crash_point(std::string_view site);
  /// True between a crash firing and clear_crash().
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// Restart path: the DPU is back; crash points may be re-armed and fire
  /// again.
  void clear_crash() { crashed_.store(false, std::memory_order_release); }
  /// Arrivals recorded at a crash site so far (0 if never armed).
  std::uint64_t crash_arrivals(std::string_view site) const;

  std::uint64_t seed() const { return seed_; }

  /// Seed from the DPC_FAULT_SEED environment variable (decimal), or
  /// `fallback` when unset/unparsable — how the CI chaos stage sweeps seeds.
  static std::uint64_t seed_from_env(std::uint64_t fallback = 0x5eed);

 private:
  struct Site {
    double p = 0.0;
    bool enabled = true;
    std::uint64_t name_hash = 0;
    std::atomic<std::uint64_t> draws{0};
  };

  struct CrashSite {
    std::uint64_t skip = 0;
    std::atomic<std::uint64_t> arrivals{0};
    std::atomic<bool> armed{false};
  };

  struct SlowSite {
    SlowSpec spec;
    bool enabled = true;
    std::uint64_t name_hash = 0;
    std::atomic<std::uint64_t> draws{0};  // intermittent-stall draw counter
  };

  Site* find(std::string_view site) const;
  CrashSite* find_crash(std::string_view site) const;
  SlowSite* find_slow(std::string_view site) const;

  std::uint64_t seed_;
  obs::Counter* injected_ = nullptr;  // null without a registry
  obs::Counter* checks_ = nullptr;
  obs::Counter* crashes_ = nullptr;
  obs::Counter* slow_injected_ = nullptr;

  std::atomic<bool> crashed_{false};

  mutable sim::AnnotatedSharedMutex mu_{"fault.injector",
                                        sim::LockRank::kLeaf};
  // unique_ptr values keep Site addresses (and their atomics) stable across
  // rehashes, so should_fail can drop the map lock before drawing.
  std::unordered_map<std::string, std::unique_ptr<Site>> sites_
      GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<CrashSite>> crash_sites_
      GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<SlowSite>> slow_sites_
      GUARDED_BY(mu_);
};

/// Placed at every named crash point on the DPU side: throws CrashException
/// when the injector says this arrival is the one that crashes. A null
/// injector costs one pointer compare (same contract as should_fail).
inline void crash_point(FaultInjector* fi, std::string_view site) {
  if (fi != nullptr && fi->at_crash_point(site)) throw CrashException{};
}

}  // namespace dpc::fault
