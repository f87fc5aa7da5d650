// Gray-failure tolerance unit tests (DESIGN.md §5.7): fail-slow injection
// determinism, the per-peer health scoreboard (EWMA + streaming quantile +
// adaptive deadline + quarantine round trip), hedged-read correctness
// (cancelled losers charge nothing, reconstructs are bit-identical, the
// token budget caps speculation), and the KV integrity/liveness split
// (corrupt answers never open the circuit breaker).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dfs/backend.hpp"
#include "ec/reed_solomon.hpp"
#include "fault/health.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "sim/rng.hpp"

namespace dpc {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

// ------------------------------------------------------- slow injection

TEST(TailSlowInjection, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    fault::FaultInjector fi(seed);
    fault::FaultInjector::SlowSpec s;
    s.multiplier = 2.0;
    s.stall = sim::micros(100.0);
    s.stall_probability = 0.5;
    fi.arm_slow("t/slow", s);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 200; ++i)
      out.push_back(fi.slow_penalty("t/slow", 0, sim::micros(10.0)).ns);
    return out;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(TailSlowInjection, LimpingPeerIsKeyed) {
  fault::FaultInjector fi(4);
  fault::FaultInjector::SlowSpec s;
  s.multiplier = 10.0;
  s.peer = 3;
  fi.arm_slow("t/limp", s);
  const sim::Nanos base = sim::micros(10.0);
  // Only the limping peer pays; the penalty is the multiplier's *excess*.
  EXPECT_EQ(fi.slow_penalty("t/limp", 3, base).ns, 9 * base.ns);
  EXPECT_EQ(fi.slow_penalty("t/limp", 2, base).ns, 0);
  EXPECT_EQ(fi.slow_penalty("t/unarmed", 3, base).ns, 0);
  fi.disarm_slow("t/limp");
  EXPECT_FALSE(fi.slow_armed("t/limp"));
  EXPECT_EQ(fi.slow_penalty("t/limp", 3, base).ns, 0);
}

// ------------------------------------------------------- health board

TEST(TailHealth, EwmaAndQuantileTrack) {
  fault::HealthBoard hb("t", 4);
  EXPECT_EQ(hb.ewma(0).ns, 0);
  EXPECT_EQ(hb.deadline(), hb.config().deadline_ceiling);  // unmeasured
  for (int i = 0; i < 64; ++i) hb.record(0, sim::micros(10.0), true);
  EXPECT_EQ(hb.ewma(0).ns, sim::micros(10.0).ns);
  EXPECT_EQ(hb.p99(0).ns, sim::micros(10.0).ns);
  // A regime shift pulls the EWMA toward the new level and eventually
  // rolls the old samples out of the quantile window.
  for (int i = 0; i < 256; ++i) hb.record(0, sim::micros(20.0), true);
  EXPECT_NEAR(static_cast<double>(hb.ewma(0).ns),
              static_cast<double>(sim::micros(20.0).ns), 2.0);
  EXPECT_EQ(hb.p99(0).ns, sim::micros(20.0).ns);
}

TEST(TailHealth, AdaptiveDeadlineScalesCohortP99) {
  fault::HealthBoard hb("t", 4);
  for (int p = 0; p < 4; ++p)
    for (int i = 0; i < 32; ++i) hb.record(p, sim::micros(10.0), true);
  // 3 × 10 µs is below the floor: clamp up.
  EXPECT_EQ(hb.deadline(), hb.config().deadline_floor);
  for (int p = 0; p < 4; ++p)
    for (int i = 0; i < 256; ++i) hb.record(p, sim::micros(100.0), true);
  EXPECT_EQ(hb.deadline().ns, 3 * sim::micros(100.0).ns);
  EXPECT_EQ(hb.hedge_delay().ns,
            static_cast<std::int64_t>(1.5 * sim::micros(100.0).ns));
}

TEST(TailHealth, CensoredTimeoutsDoNotInflateDeadline) {
  // Regression: a timeout is recorded at the deadline that cut it. Feeding
  // that censored value into the quantile window would let the deadline
  // chase its own output (p99 → deadline → 3× deadline → …) until the
  // stalls it exists to cut fit underneath it.
  fault::HealthBoard hb("t", 4);
  for (int p = 0; p < 4; ++p)
    for (int i = 0; i < 64; ++i) hb.record(p, sim::micros(60.0), true);
  const sim::Nanos before = hb.deadline();
  EXPECT_EQ(before.ns, 3 * sim::micros(60.0).ns);
  for (int i = 0; i < 5; ++i) hb.record(0, before, false);
  EXPECT_EQ(hb.deadline(), before);
  EXPECT_EQ(hb.p99(0).ns, sim::micros(60.0).ns);
  // …but the strikes are very much counted.
  hb.record(0, before, false);  // 6th consecutive → quarantined
  EXPECT_TRUE(hb.quarantined(0));
}

TEST(TailHealth, AdaptiveDeadlineReplacesFixedKvTimeout) {
  // Identical outage, identical retry/backoff salts; the only difference
  // is what each failed attempt waits: the health board's adaptive
  // deadline (150 µs floor) vs the fixed kKvOpTimeout.
  const auto run = [](bool health) {
    obs::Registry reg;
    fault::FaultInjector fi(11, &reg);
    kv::KvStore store;
    fault::RetryPolicy rp;
    rp.max_attempts = 6;
    kv::RemoteKv kv(store, &fi, &reg, rp, {});
    if (health) kv.enable_health();
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(kv.get("warm").ok());
    fi.arm(kv::RemoteKv::kFaultSite, 1.0);
    const auto r = kv.get("warm");
    EXPECT_EQ(r.err, kv::RemoteErr::kTimeout);
    return r.cost;
  };
  const sim::Nanos with = run(true);
  const sim::Nanos without = run(false);
  // Warm p99 is ~25 µs, so 3× clamps up to the 150 µs floor; every one of
  // the 6 attempts waits 350 µs less than the fixed 500 µs timeout.
  EXPECT_EQ(without.ns - with.ns,
            6 * (sim::calib::kKvOpTimeout.ns - sim::micros(150.0).ns));
}

TEST(TailQuarantine, RoundTrip) {
  obs::Registry reg;
  fault::HealthConfig cfg;
  cfg.slow_strikes = 3;
  fault::HealthBoard hb("t", 2, cfg, &reg);
  constexpr int kProbe = fault::HealthBoard::kProbeInterval;
  constexpr int kHealthy = fault::HealthBoard::kReintegrateSuccesses;
  for (int p = 0; p < 2; ++p)
    for (int i = 0; i < 16; ++i) hb.record(p, sim::micros(10.0), true);
  EXPECT_GT(hb.score(0), 0.0);

  for (int i = 0; i < 3; ++i) hb.record(0, sim::micros(150.0), false);
  EXPECT_TRUE(hb.quarantined(0));
  EXPECT_EQ(hb.quarantines(), 1u);
  EXPECT_EQ(hb.score(0), 0.0);
  EXPECT_EQ(hb.ranked().back(), 0);  // quarantined sorts last

  // Every kProbe-th suppressed access probes; the rest are routed around.
  for (int i = 0; i < kProbe - 1; ++i) EXPECT_FALSE(hb.allow(0));
  EXPECT_TRUE(hb.allow(0));  // probe
  hb.record(0, sim::micros(150.0), false);  // probe failed: streak resets

  for (int probe = 1; probe <= kHealthy; ++probe) {
    EXPECT_TRUE(hb.quarantined(0)) << "reintegrated after " << probe - 1;
    for (int i = 0; i < kProbe - 1; ++i) EXPECT_FALSE(hb.allow(0));
    EXPECT_TRUE(hb.allow(0));
    hb.record(0, sim::micros(12.0), true);  // healthy probe `probe`/kHealthy
  }
  EXPECT_FALSE(hb.quarantined(0));
  EXPECT_EQ(hb.reintegrations(), 1u);
  EXPECT_TRUE(hb.allow(0));
  // The limp-era window was dropped: stats restart from the probe sample.
  EXPECT_EQ(hb.p99(0).ns, sim::micros(12.0).ns);
  EXPECT_EQ(reg.counter("health/t/quarantines").value(), 1u);
  EXPECT_EQ(reg.counter("health/t/reintegrations").value(), 1u);
  EXPECT_EQ(reg.counter("health/t/probes").value(),
            static_cast<std::uint64_t>(1 + kHealthy));
}

// ------------------------------------------------------- hedged reads

struct HedgeRig {
  obs::Registry reg;
  fault::FaultInjector fi{7, &reg};
  dfs::DataServers ds{sim::calib::kDataServers, &fi, &reg};
  ec::ReedSolomon rs{4, 2};
  dfs::FileMeta meta;
  std::vector<std::byte> data = bytes(32 * 1024, 1);

  HedgeRig() {
    ds.enable_health();
    meta.ino = 5;
    meta.size = data.size();  // one RS(4,2) stripe, 8 KiB units
    dfs::OpProfile wp;
    EXPECT_TRUE(dfs::striped_write(ds, rs, meta, 0, data, wp));
    // Warm the scoreboard so deadlines/hedge delays are measured, not the
    // generous unmeasured ceiling.
    std::vector<std::byte> buf(data.size());
    dfs::OpProfile warm;
    for (int i = 0; i < 32; ++i)
      EXPECT_TRUE(dfs::striped_read(ds, rs, meta, 0, buf, warm));
    EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  }
};

TEST(TailHedge, CancelledLosersChargeNothing) {
  HedgeRig rig;
  // One data server stalls every access by 80 µs: within the deadline, but
  // far past the hedge delay — the speculative-parity case.
  const int victim = rig.ds.server_of(rig.meta.ino, 0, 0);
  fault::FaultInjector::SlowSpec s;
  s.stall = sim::micros(80.0);
  s.stall_probability = 1.0;
  s.peer = victim;
  rig.fi.arm_slow(dfs::kFaultDsSlow, s);

  std::vector<std::byte> buf(rig.data.size());
  dfs::OpProfile prof;
  bool reconstructed = false;
  ASSERT_TRUE(dfs::striped_read(rig.ds, rig.rs, rig.meta, 0, buf,
                                       prof, &reconstructed));
  // First k clean shards win (3 primaries + the hedged parity); the stripe
  // is served via RS reconstruction, bit-identical to the original.
  EXPECT_TRUE(reconstructed);
  EXPECT_EQ(std::memcmp(buf.data(), rig.data.data(), rig.data.size()), 0);
  // The stalled loser was cancelled before its payload: exactly k shard
  // reads are charged, and the critical path beats the stalled arrival
  // (~113 µs) — it is hedge delay (~49 µs) + one clean shard (~33 µs).
  EXPECT_EQ(prof.ds_ops, 4u);
  EXPECT_LT(prof.crit.ns, sim::micros(100.0).ns);
  const auto& hc = rig.ds.hedge_counters();
  EXPECT_GE(hc.issued->value(), 1u);
  EXPECT_GE(hc.won->value(), 1u);
  EXPECT_GE(hc.cancelled->value(), 1u);
  EXPECT_EQ(hc.wasted->value(), 0u);
}

TEST(TailHedge, QuarantineRoundTripServesBitIdentical) {
  HedgeRig rig;
  // ×10 limp: every access to the victim blows the adaptive deadline, so
  // reads strike it into quarantine and route around via reconstruction.
  const int victim = rig.ds.server_of(rig.meta.ino, 0, 0);
  fault::FaultInjector::SlowSpec s;
  s.multiplier = 10.0;
  s.peer = victim;
  rig.fi.arm_slow(dfs::kFaultDsSlow, s);

  std::vector<std::byte> buf(rig.data.size());
  const int strikes = rig.ds.health()->config().slow_strikes;
  for (int i = 0; i < strikes; ++i) {
    dfs::OpProfile p;
    ASSERT_TRUE(dfs::striped_read(rig.ds, rig.rs, rig.meta, 0, buf, p));
    EXPECT_EQ(std::memcmp(buf.data(), rig.data.data(), rig.data.size()), 0);
  }
  EXPECT_TRUE(rig.ds.health()->quarantined(victim));
  EXPECT_EQ(rig.ds.health()->quarantines(), 1u);

  // Quarantined: the victim is skipped outright (no deadline paid) and the
  // covering shards launch immediately — latency back at healthy levels.
  dfs::OpProfile q;
  ASSERT_TRUE(dfs::striped_read(rig.ds, rig.rs, rig.meta, 0, buf, q));
  EXPECT_EQ(std::memcmp(buf.data(), rig.data.data(), rig.data.size()), 0);
  EXPECT_LT(q.crit.ns, sim::micros(50.0).ns);

  // Cure the limp; reintegration probes bring the victim back.
  rig.fi.disarm_slow(dfs::kFaultDsSlow);
  for (int i = 0; i < 40 && rig.ds.health()->quarantined(victim); ++i) {
    dfs::OpProfile p;
    ASSERT_TRUE(dfs::striped_read(rig.ds, rig.rs, rig.meta, 0, buf, p));
    EXPECT_EQ(std::memcmp(buf.data(), rig.data.data(), rig.data.size()), 0);
  }
  EXPECT_FALSE(rig.ds.health()->quarantined(victim));
  EXPECT_EQ(rig.ds.health()->reintegrations(), 1u);
}

TEST(TailHedge, BudgetCapsSpeculation) {
  fault::HealthConfig cfg;
  cfg.hedge_budget = 0.1;
  cfg.hedge_token_cap = 2.0;
  fault::HealthBoard hb("t", 4, cfg);
  EXPECT_FALSE(hb.try_hedge(1));  // nothing earned yet
  hb.note_primary(10);            // earns exactly one token
  EXPECT_TRUE(hb.try_hedge(1));
  EXPECT_FALSE(hb.try_hedge(1));
  hb.note_primary(1000);  // a long healthy stretch banks only the cap
  EXPECT_TRUE(hb.try_hedge(2));
  EXPECT_FALSE(hb.try_hedge(1));

  fault::HealthConfig off;
  off.hedge_budget = 0.0;
  fault::HealthBoard none("t2", 4, off);
  none.note_primary(1000);
  EXPECT_FALSE(none.try_hedge(1));  // budget zero disables hedging outright
}

// ------------------------------------------------------- KV integrity

TEST(TailKvCorrupt, NoBreakerOpensOnIntegrityErrors) {
  obs::Registry reg;
  fault::FaultInjector fi(3, &reg);
  kv::KvStore store;
  store.attach_fault(&fi);
  fault::RetryPolicy rp;
  rp.max_attempts = 3;
  fault::CircuitBreaker::Config bc;
  bc.failure_threshold = 4;
  kv::RemoteKv kv(store, &fi, &reg, rp, bc);
  kv.enable_health();
  const auto val = bytes(128, 2);

  // Rot the stored value (bit rot strikes the cell at write time); every
  // subsequent read then returns a corrupt value. The wire and the server
  // answer on time — this is an integrity error, not a liveness one, and
  // must open neither the breaker nor the quarantine.
  fi.arm(kv::kFaultKvBitRot, 1.0);
  ASSERT_TRUE(kv.put("k", val).ok());
  for (int i = 0; i < 20; ++i) {
    const auto r = kv.get("k");
    EXPECT_EQ(r.err, kv::RemoteErr::kCorrupt);
  }
  EXPECT_EQ(kv.breaker_state(), fault::CircuitBreaker::State::kClosed);
  EXPECT_FALSE(kv.health()->quarantined(0));
  EXPECT_EQ(reg.counter("kv.remote/corrupt_reads").value(), 20u);
  EXPECT_EQ(reg.counter("breaker/opens").value(), 0u);
  fi.disarm(kv::kFaultKvBitRot);

  // A real outage must still open it — integrity tolerance must not have
  // blinded the liveness signal.
  fi.arm(kv::RemoteKv::kFaultSite, 1.0);
  (void)kv.get("k");
  (void)kv.get("k");
  EXPECT_EQ(kv.breaker_state(), fault::CircuitBreaker::State::kOpen);
}

}  // namespace
}  // namespace dpc
