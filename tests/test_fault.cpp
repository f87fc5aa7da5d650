// Unit tests for the fault-injection framework: deterministic schedules,
// site gating, probability bounds, retry backoff, and the circuit breaker.
#include "fault/injector.hpp"
#include "fault/retry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

namespace dpc::fault {
namespace {

constexpr std::string_view kSite = "test/site";

std::vector<bool> draw_schedule(FaultInjector& fi, std::string_view site,
                                int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(fi.should_fail(site));
  return out;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(1234);
  FaultInjector b(1234);
  a.arm(kSite, 0.2);
  b.arm(kSite, 0.2);
  EXPECT_EQ(draw_schedule(a, kSite, 1000), draw_schedule(b, kSite, 1000));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(1);
  FaultInjector b(2);
  a.arm(kSite, 0.5);
  b.arm(kSite, 0.5);
  EXPECT_NE(draw_schedule(a, kSite, 1000), draw_schedule(b, kSite, 1000));
}

TEST(FaultInjector, SitesAreIndependent) {
  // The schedule of one site must not depend on draws at another.
  FaultInjector a(99);
  FaultInjector b(99);
  a.arm("site/x", 0.3);
  a.arm("site/y", 0.7);
  b.arm("site/x", 0.3);
  // a interleaves x and y draws; b draws only x. x's schedule must match.
  std::vector<bool> ax;
  for (int i = 0; i < 500; ++i) {
    ax.push_back(a.should_fail("site/x"));
    (void)a.should_fail("site/y");
  }
  EXPECT_EQ(ax, draw_schedule(b, "site/x", 500));
}

TEST(FaultInjector, UnarmedNeverFires) {
  FaultInjector fi(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.should_fail("no/such/site"));
  EXPECT_EQ(fi.draws("no/such/site"), 0u);
  EXPECT_FALSE(fi.armed("no/such/site"));
}

TEST(FaultInjector, ProbabilityBounds) {
  FaultInjector fi(42);
  fi.arm("p/zero", 0.0);
  fi.arm("p/one", 1.0);
  fi.arm("p/quarter", 0.25);
  int zero = 0, one = 0, quarter = 0;
  for (int i = 0; i < 10000; ++i) {
    zero += fi.should_fail("p/zero") ? 1 : 0;
    one += fi.should_fail("p/one") ? 1 : 0;
    quarter += fi.should_fail("p/quarter") ? 1 : 0;
  }
  EXPECT_EQ(zero, 0);
  EXPECT_EQ(one, 10000);
  // Binomial(10000, .25): mean 2500, sd ~43 — ±500 is >10 sigma.
  EXPECT_GT(quarter, 2000);
  EXPECT_LT(quarter, 3000);
}

TEST(FaultInjector, DisableAndReenable) {
  FaultInjector fi(5);
  fi.arm(kSite, 1.0);
  EXPECT_TRUE(fi.should_fail(kSite));
  fi.set_enabled(kSite, false);
  EXPECT_FALSE(fi.should_fail(kSite));  // gated: no fire, no draw consumed
  const auto draws = fi.draws(kSite);
  fi.set_enabled(kSite, true);
  EXPECT_TRUE(fi.should_fail(kSite));
  EXPECT_EQ(fi.draws(kSite), draws + 1);
  fi.disarm(kSite);
  EXPECT_FALSE(fi.armed(kSite));
  EXPECT_FALSE(fi.should_fail(kSite));
}

TEST(FaultInjector, RearmResetsNothingButProbability) {
  FaultInjector fi(5);
  fi.arm(kSite, 1.0);
  (void)fi.should_fail(kSite);
  fi.arm(kSite, 0.0);
  EXPECT_DOUBLE_EQ(fi.probability(kSite), 0.0);
  EXPECT_FALSE(fi.should_fail(kSite));
}

TEST(FaultInjector, CountersTrackChecksAndInjections) {
  obs::Registry reg;
  FaultInjector fi(11, &reg);
  fi.arm(kSite, 1.0);
  for (int i = 0; i < 5; ++i) (void)fi.should_fail(kSite);
  EXPECT_EQ(reg.counter("fault/checks").value(), 5u);
  EXPECT_EQ(reg.counter("fault/injected").value(), 5u);
}

TEST(FaultInjector, ConcurrentDrawsAreSeedStableAsMultiset) {
  // Threads race for draw indices within one site; the total number of
  // injections only depends on the seed.
  const auto run = [] {
    FaultInjector fi(77);
    fi.arm(kSite, 0.5);
    std::atomic<int> fails{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([&] {
        for (int i = 0; i < 1000; ++i)
          if (fi.should_fail(kSite)) fails.fetch_add(1);
      });
    for (auto& t : ts) t.join();
    return fails.load();
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, SeedFromEnv) {
  ::setenv("DPC_FAULT_SEED", "98765", 1);
  EXPECT_EQ(FaultInjector::seed_from_env(), 98765u);
  ::setenv("DPC_FAULT_SEED", "not-a-number", 1);
  EXPECT_EQ(FaultInjector::seed_from_env(31), 31u);
  ::unsetenv("DPC_FAULT_SEED");
  EXPECT_EQ(FaultInjector::seed_from_env(17), 17u);
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  // Each failed try doubles the unjittered wait; the jitter is the shared
  // jittered() draw for (attempt, salt).
  for (std::uint64_t salt : {0u, 7u}) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const sim::Nanos base =
          p.base_backoff * (std::int64_t{1} << (attempt - 1));
      EXPECT_EQ(p.backoff(attempt, salt),
                jittered(base, RetryPolicy::kBackoffJitter, attempt, salt));
    }
  }
}

TEST(RetryPolicy, JitterBoundedAndDeterministic) {
  RetryPolicy p;  // jitter 0.5 → scale in [0.75, 1.25]
  for (int attempt = 1; attempt <= 4; ++attempt) {
    for (std::uint64_t salt = 0; salt < 50; ++salt) {
      const auto b = p.backoff(attempt, salt);
      const double base = static_cast<double>(p.base_backoff.ns);
      const double exp =
          base * std::pow(RetryPolicy::kBackoffMultiplier, attempt - 1);
      EXPECT_GE(static_cast<double>(b.ns), exp * 0.749);
      EXPECT_LE(static_cast<double>(b.ns), exp * 1.251);
      EXPECT_EQ(b, p.backoff(attempt, salt)) << "not deterministic";
    }
  }
  // Different salts should not all collapse to one value.
  EXPECT_NE(p.backoff(1, 1), p.backoff(1, 2));
}

TEST(RetryPolicy, JitteredNeverRoundsPositiveBaseToZero) {
  // A sub-nanosecond draw (tiny base × big jitter) used to truncate to 0
  // (or below), turning every pacer built on jittered() into a busy spin.
  for (std::int64_t base_ns : {1, 2, 3, 10}) {
    for (int step = 0; step < 256; ++step) {
      for (std::uint64_t salt = 0; salt < 16; ++salt) {
        const auto w = jittered(sim::Nanos{base_ns}, /*jitter=*/1.9, step,
                                salt);
        EXPECT_GE(w.ns, 1) << "base=" << base_ns << " step=" << step
                           << " salt=" << salt;
      }
    }
  }
  // A zero base is a legitimate "no pacing" request and stays zero.
  EXPECT_EQ(jittered(sim::Nanos{0}, 1.9, 7, 7).ns, 0);
}

TEST(CircuitBreaker, OpensAfterThresholdAndProbes) {
  obs::Registry reg;
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  CircuitBreaker br(cfg, &reg);
  constexpr auto kProbe = CircuitBreaker::kProbeInterval;

  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(br.allow());
    br.on_failure();
  }
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(reg.counter("breaker/opens").value(), 1u);

  // While open: fast-fail until the kProbeInterval-th gated call probes.
  int allowed = 0;
  for (std::uint64_t i = 0; i < kProbe; ++i) allowed += br.allow() ? 1 : 0;
  EXPECT_EQ(allowed, 1);  // exactly the probe
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(reg.counter("breaker/probes").value(), 1u);
  EXPECT_EQ(reg.counter("breaker/fast_fails").value(), kProbe - 1);

  // Failed probe → back to open.
  br.on_failure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);

  // Next probe succeeds → closed.
  allowed = 0;
  for (std::uint64_t i = 0; i < kProbe; ++i) allowed += br.allow() ? 1 : 0;
  EXPECT_EQ(allowed, 1);
  br.on_success();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(reg.counter("breaker/closes").value(), 1u);
  EXPECT_TRUE(br.allow());
}

// Drives the breaker open and to the half-open probe on the calling thread.
void open_and_probe(CircuitBreaker& br, const CircuitBreaker::Config& cfg) {
  for (int i = 0; i < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(br.allow());
    br.on_failure();
  }
  ASSERT_EQ(br.state(), CircuitBreaker::State::kOpen);
  for (std::uint64_t i = 1; i < CircuitBreaker::kProbeInterval; ++i)
    ASSERT_FALSE(br.allow());
  ASSERT_TRUE(br.allow());  // this thread owns the probe
  ASSERT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
}

/// Runs `fn` on a different thread than the caller's — a "straggler": an
/// attempt admitted before the breaker opened, reporting in mid-probe.
template <typename Fn>
void on_other_thread(Fn fn) {
  std::thread t(fn);
  t.join();
}

TEST(CircuitBreaker, HalfOpenStragglerFailureCannotReopen) {
  // Regression: a straggler's on_failure used to flip HalfOpen → Open and
  // re-arm the gated-call counter, letting a *second* concurrent probe
  // through while the first was still in flight.
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  CircuitBreaker br(cfg);
  open_and_probe(br, cfg);

  on_other_thread([&] { br.on_failure(); });
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  // And crucially: no second probe is admitted while the first is out.
  on_other_thread([&] { EXPECT_FALSE(br.allow()); });

  // The owner's own verdict still resolves the probe.
  br.on_failure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreaker, HalfOpenStragglerSuccessCannotClose) {
  // A straggler's success is evidence that predates the outage — it must
  // not close the breaker out from under the in-flight probe.
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  CircuitBreaker br(cfg);
  open_and_probe(br, cfg);

  on_other_thread([&] { br.on_success(); });
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);

  br.on_success();  // the probe's own success closes
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneConcurrentProbe) {
  // Two threads race allow() at the probe boundary: exactly one may win
  // the probe; the loser fast-fails.
  for (int round = 0; round < 50; ++round) {
    CircuitBreaker::Config cfg;
    cfg.failure_threshold = 1;
    CircuitBreaker br(cfg);
    ASSERT_TRUE(br.allow());
    br.on_failure();
    ASSERT_EQ(br.state(), CircuitBreaker::State::kOpen);
    // Up to the boundary: the next gated call is the probe.
    for (std::uint64_t i = 1; i < CircuitBreaker::kProbeInterval; ++i)
      ASSERT_FALSE(br.allow());

    std::atomic<int> granted{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 2; ++t)
      ts.emplace_back([&] {
        if (br.allow()) granted.fetch_add(1);
      });
    for (auto& t : ts) t.join();
    EXPECT_EQ(granted.load(), 1);
    EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  }
}

TEST(CircuitBreaker, WedgedProbeIsTakenOver) {
  // The probe owner crashes mid-attempt and never reports. After a full
  // probe interval of half-open fast-fails, the next gated call takes the
  // probe over instead of wedging half-open forever.
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  CircuitBreaker br(cfg);
  constexpr auto kProbe = CircuitBreaker::kProbeInterval;
  for (int i = 0; i < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(br.allow());
    br.on_failure();
  }
  // Another thread wins the probe… and goes silent.
  on_other_thread([&] {
    for (std::uint64_t i = 1; i < kProbe; ++i) ASSERT_FALSE(br.allow());
    ASSERT_TRUE(br.allow());
  });
  ASSERT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);

  for (std::uint64_t i = 0; i < kProbe; ++i) EXPECT_FALSE(br.allow());
  EXPECT_TRUE(br.allow());  // takeover: this thread now owns the probe
  br.on_success();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow());
}

TEST(CircuitBreaker, SuccessResetsFailureStreak) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  CircuitBreaker br(cfg);
  br.on_failure();
  br.on_failure();
  br.on_success();
  br.on_failure();
  br.on_failure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  br.on_failure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
}

}  // namespace
}  // namespace dpc::fault
