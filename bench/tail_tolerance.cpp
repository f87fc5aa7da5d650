// Tail-tolerance bench: gray failure (fail-slow) sweeps across the DFS and
// KV backends, hedging/health ON vs OFF (DESIGN.md §5.7).
//
// Two identically-seeded stacks run the same workload. The ON stack has the
// full gray-failure machinery (per-peer health scoreboard, adaptive
// deadlines, quarantine, hedged reads); the OFF stack attaches a neutered
// health board (deadline pinned at 50 ms, hedge budget zero, quarantine
// unreachable) so it executes the same code path but simply waits out every
// slow peer — the "fixed deadline, no hedging" client.
//
// Sweeps:
//   1. limping data server — server 0's service time ×10 (sustained). ON
//      must strike/quarantine it and keep read p99 ≤ 2× healthy; OFF tracks
//      the limp (p99 ≥ ~10× healthy). Every read is memcmp'd against the
//      golden file, so degraded/hedged serving is also proven bit-identical.
//   2. reintegration — the limp is cured; ON's probes must reintegrate the
//      server.
//   3. intermittent DS stalls — 80 µs GC-pause stalls at low probability.
//      ON's speculative hedges must fire (issued/won/cancelled > 0), stay
//      inside the token budget, and beat OFF's p99.
//   4. limping MDS — relative-EWMA quarantine (the slow-not-timing-out
//      flavor of gray failure) on the metadata scoreboard.
//   5. KV stalls / outage / heal — adaptive deadline cuts 2 ms stalls at
//      ~150 µs (ON p99 ≤ ½ OFF p99); a full outage fast-fails via
//      quarantine after one op (first-op cost ≤ 0.6× the fixed-timeout
//      stack); healing reintegrates.
//
// Emits BENCH_tail.json (ON-stack registry snapshot: health/, hedge/,
// tail/ summary gauges) for the regress gate.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dfs/backend.hpp"
#include "dfs/client.hpp"
#include "fault/health.hpp"
#include "fault/injector.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

namespace {

using namespace dpc;

constexpr std::uint32_t kUnit = 8 * 1024;
constexpr int kK = 4;
constexpr std::uint32_t kStripeBytes = kUnit * kK;  // one full stripe: 32 KiB
constexpr int kStripes = 32;                        // 1 MiB file
constexpr int kLimpServer = 0;

constexpr int kKvKeys = 64;
constexpr std::size_t kKvValue = 256;

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// The OFF configuration: same code path, gray-failure machinery inert.
/// Deadline pinned far above any injected slowness (never cuts), hedge
/// budget zero (every speculation denied), quarantine unreachable.
fault::HealthConfig off_health() {
  fault::HealthConfig c;
  c.deadline_floor = c.deadline_ceiling = sim::millis(50.0);
  c.hedge_budget = 0.0;
  c.hedge_token_cap = 0.0;
  c.slow_ratio = 1e12;
  c.slow_strikes = 1 << 30;
  return c;
}

// ------------------------------------------------------------ DFS sweep

struct DsStack {
  obs::Registry reg;
  fault::FaultInjector fi;
  dfs::MdsCluster mds;
  dfs::DataServers ds;
  dfs::DfsClient client;
  dfs::Ino ino = 0;
  std::vector<std::byte> golden;

  DsStack(std::uint64_t seed, const fault::HealthConfig& hc)
      : fi(seed, &reg),
        mds(),
        ds(sim::calib::kDataServers, &fi, &reg),
        client(1, mds, ds, dfs::ClientConfig::dpc_offloaded(), &reg) {
    ds.enable_health(hc);
    mds.attach_fault(&fi);
    mds.enable_health(&reg, hc);

    sim::Rng rng(seed ^ 0x7a11);
    golden.resize(static_cast<std::size_t>(kStripeBytes) * kStripes);
    for (auto& b : golden) b = static_cast<std::byte>(rng.next_below(256));
    const auto c = client.create("/tail", golden.size());
    DPC_CHECK(c.ok());
    ino = c.ino;
    DPC_CHECK(client.write(ino, 0, golden).ok());
  }

  /// One full-stripe read, verified against the golden image; returns the
  /// op's modelled critical-path latency.
  std::int64_t read_stripe(int s) {
    std::vector<std::byte> buf(kStripeBytes);
    const std::uint64_t off = static_cast<std::uint64_t>(kStripeBytes) * s;
    const auto r = client.read(ino, off, buf);
    DPC_CHECK(r.ok());
    DPC_CHECK(std::memcmp(buf.data(), golden.data() + off, kStripeBytes) == 0);
    return r.prof.crit.ns;
  }

  std::vector<std::int64_t> run_reads(int ops, std::uint64_t salt) {
    sim::Rng rng(salt);
    std::vector<std::int64_t> lat;
    lat.reserve(static_cast<std::size_t>(ops));
    for (int i = 0; i < ops; ++i)
      lat.push_back(read_stripe(static_cast<int>(rng.next_below(kStripes))));
    return lat;
  }
};

// ------------------------------------------------------------- KV sweep

struct KvStack {
  obs::Registry own_reg;  // OFF stack keeps its metrics out of the snapshot
  obs::Registry* reg;
  fault::FaultInjector fi;
  kv::KvStore store;
  kv::RemoteKv kv;

  KvStack(std::uint64_t seed, bool health, obs::Registry* shared)
      : reg(shared != nullptr ? shared : &own_reg),
        fi(seed, reg),
        store(),
        kv(store, &fi, reg, retry(), {}) {
    if (health) kv.enable_health();
    std::vector<std::byte> val(kKvValue);
    for (int i = 0; i < kKvKeys; ++i) {
      for (auto& b : val) b = static_cast<std::byte>(i & 0xff);
      DPC_CHECK(kv.put("k" + std::to_string(i), val).ok());
    }
  }

  /// Small backoff base so the retry-budget charge is dominated by the
  /// per-attempt deadline (the quantity this bench contrasts ON vs OFF).
  static fault::RetryPolicy retry() {
    fault::RetryPolicy r;
    r.max_attempts = 6;
    r.base_backoff = sim::micros(20.0);
    return r;
  }

  /// One get; result verified when the op succeeds. Returns modelled cost.
  std::int64_t get_one(int i, bool* ok = nullptr) {
    const auto r = kv.get("k" + std::to_string(i % kKvKeys));
    if (r.ok()) {
      DPC_CHECK(r.value.has_value());
      DPC_CHECK(r.value->size() == kKvValue);
      DPC_CHECK((*r.value)[0] == static_cast<std::byte>((i % kKvKeys) & 0xff));
    }
    if (ok != nullptr) *ok = r.ok();
    return r.cost.ns;
  }

  std::vector<std::int64_t> run_gets(int ops) {
    std::vector<std::int64_t> lat;
    lat.reserve(static_cast<std::size_t>(ops));
    for (int i = 0; i < ops; ++i) lat.push_back(get_one(i));
    return lat;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline("Tail tolerance under gray failure",
                  "DESIGN.md §5.7 (fail-slow model; hedged reads)");
  const std::uint64_t seed = fault::FaultInjector::seed_from_env(42);
  std::cout << "fault seed: " << seed << " (DPC_FAULT_SEED overrides)\n\n";

  sim::Table table({"phase", "stack", "ops", "p50_us", "p99_us", "note"});
  auto row = [&](const std::string& phase, const std::string& stack,
                 std::size_t ops, std::int64_t p50, std::int64_t p99,
                 const std::string& note) {
    table.add_row({phase, stack, std::to_string(ops),
                   sim::Table::fmt(us(p50)), sim::Table::fmt(us(p99)), note});
  };

  DsStack on(seed, {});
  DsStack off(seed, off_health());

  // ---- phase 1: healthy baseline --------------------------------------
  const auto on_healthy = on.run_reads(400, seed ^ 1);
  const auto off_healthy = off.run_reads(400, seed ^ 1);
  const std::int64_t on_healthy_p99 = sim::quantile(on_healthy, 0.99);
  const std::int64_t off_healthy_p99 = sim::quantile(off_healthy, 0.99);
  row("ds healthy", "on", on_healthy.size(), sim::quantile(on_healthy, 0.5),
      on_healthy_p99, "");
  row("ds healthy", "off", off_healthy.size(), sim::quantile(off_healthy, 0.5),
      off_healthy_p99, "");

  // ---- phase 2: limping data server (sustained ×10) -------------------
  fault::FaultInjector::SlowSpec limp;
  limp.multiplier = 10.0;
  limp.peer = kLimpServer;
  on.fi.arm_slow(dfs::kFaultDsSlow, limp);
  off.fi.arm_slow(dfs::kFaultDsSlow, limp);
  const auto on_limp = on.run_reads(1600, seed ^ 2);
  const auto off_limp = off.run_reads(400, seed ^ 2);
  const std::int64_t on_limp_p99 = sim::quantile(on_limp, 0.99);
  const std::int64_t off_limp_p99 = sim::quantile(off_limp, 0.99);
  row("ds limp x10", "on", on_limp.size(), sim::quantile(on_limp, 0.5), on_limp_p99,
      "quarantined=" + std::to_string(on.ds.health()->quarantines()));
  row("ds limp x10", "off", off_limp.size(), sim::quantile(off_limp, 0.5),
      off_limp_p99, "waits out the limp");

  // The tentpole SLO: hedging/quarantine holds read p99 at ≤ 2× healthy
  // while a fixed-deadline stack degrades with the limp (×10 service time
  // lands p99 at ~10× healthy — the limper serves half the stripes).
  DPC_CHECK(on.ds.health()->quarantines() >= 1);
  DPC_CHECK(on.ds.health()->quarantined(kLimpServer));
  DPC_CHECK(on_limp_p99 <= 2 * on_healthy_p99);
  DPC_CHECK(static_cast<double>(off_limp_p99) >=
            9.9 * static_cast<double>(off_healthy_p99));

  // ---- phase 3: cure the limp; ON must reintegrate --------------------
  on.fi.disarm_slow(dfs::kFaultDsSlow);
  off.fi.disarm_slow(dfs::kFaultDsSlow);
  const auto on_heal = on.run_reads(400, seed ^ 3);
  row("ds heal", "on", on_heal.size(), sim::quantile(on_heal, 0.5),
      sim::quantile(on_heal, 0.99),
      "reintegrations=" + std::to_string(on.ds.health()->reintegrations()));
  DPC_CHECK(on.ds.health()->reintegrations() >= 1);
  DPC_CHECK(!on.ds.health()->quarantined(kLimpServer));

  // ---- phase 4: intermittent stalls → speculative hedges --------------
  fault::FaultInjector::SlowSpec stall;
  stall.stall = sim::micros(80.0);
  stall.stall_probability = 0.008;  // rare: stays out of the healthy p99
  on.fi.arm_slow(dfs::kFaultDsSlow, stall);
  off.fi.arm_slow(dfs::kFaultDsSlow, stall);
  const auto on_stall = on.run_reads(2000, seed ^ 4);
  const auto off_stall = off.run_reads(800, seed ^ 4);
  on.fi.disarm_slow(dfs::kFaultDsSlow);
  off.fi.disarm_slow(dfs::kFaultDsSlow);
  const std::int64_t on_stall_p99 = sim::quantile(on_stall, 0.99);
  const std::int64_t off_stall_p99 = sim::quantile(off_stall, 0.99);
  const auto& hc = on.ds.hedge_counters();
  row("ds stall 80us", "on", on_stall.size(), sim::quantile(on_stall, 0.5),
      on_stall_p99,
      "hedges=" + std::to_string(hc.issued->value()) + " won=" +
          std::to_string(hc.won->value()));
  row("ds stall 80us", "off", off_stall.size(), sim::quantile(off_stall, 0.5),
      off_stall_p99, "denied=" +
          std::to_string(off.ds.hedge_counters().denied->value()));
  DPC_CHECK(hc.issued->value() >= 1);
  DPC_CHECK(hc.won->value() >= 1);
  DPC_CHECK(hc.cancelled->value() >= 1);
  // Budget: speculation capped at hedge_budget of primary reads (+ the
  // token cap a healthy stretch may bank).
  DPC_CHECK(static_cast<double>(hc.issued->value()) <=
            on.ds.health()->config().hedge_budget *
                    static_cast<double>(hc.primary->value()) +
                on.ds.health()->config().hedge_token_cap);
  DPC_CHECK(on_stall_p99 < off_stall_p99);
  // OFF's hedges must all have been denied by its zero budget.
  DPC_CHECK(off.ds.hedge_counters().issued->value() == 0);

  // ---- phase 5: limping MDS → relative-EWMA quarantine ----------------
  // The MDS stays inside every deadline; it is quarantined purely for
  // being a sustained slow_ratio× outlier against the cohort median.
  {
    dfs::OpProfile prof;
    std::vector<dfs::Ino> minos;
    for (int i = 0; i < 8; ++i) {
      const auto m =
          on.mds.create("/m" + std::to_string(i), 0, 0, true, prof);
      DPC_CHECK(m.has_value());
      minos.push_back(m->ino);
    }
    for (int pass = 0; pass < 8; ++pass)
      for (const auto ino : minos)
        DPC_CHECK(on.mds.stat(ino, 0, true, prof).has_value());
    const int home = on.mds.home_of(on.ino);
    fault::FaultInjector::SlowSpec mlimp;
    mlimp.multiplier = 12.0;
    mlimp.peer = home;
    on.fi.arm_slow(dfs::kFaultMdsSlow, mlimp);
    for (int i = 0; i < 64; ++i)
      DPC_CHECK(on.mds.stat(on.ino, 0, true, prof).has_value());
    on.fi.disarm_slow(dfs::kFaultMdsSlow);
    DPC_CHECK(on.mds.health()->quarantines() >= 1);
    DPC_CHECK(on.mds.health()->quarantined(home));
    table.add_row({"mds limp x12", "on", "64", "-", "-",
                   "ewma quarantine on mds" + std::to_string(home)});
  }

  // ---- KV backend ------------------------------------------------------
  KvStack kv_on(seed ^ 0xcafe, true, &on.reg);
  KvStack kv_off(seed ^ 0xcafe, false, nullptr);

  const auto kv_on_healthy = kv_on.run_gets(512);
  const auto kv_off_healthy = kv_off.run_gets(512);
  row("kv healthy", "on", kv_on_healthy.size(), sim::quantile(kv_on_healthy, 0.5),
      sim::quantile(kv_on_healthy, 0.99), "");
  row("kv healthy", "off", kv_off_healthy.size(), sim::quantile(kv_off_healthy, 0.5),
      sim::quantile(kv_off_healthy, 0.99), "");

  // ---- phase 6: KV stalls — adaptive deadline cuts them ---------------
  fault::FaultInjector::SlowSpec kstall;
  kstall.stall = sim::millis(2.0);
  kstall.stall_probability = 0.08;
  kv_on.fi.arm_slow(kv::RemoteKv::kSlowSite, kstall);
  kv_off.fi.arm_slow(kv::RemoteKv::kSlowSite, kstall);
  const auto kv_on_stall = kv_on.run_gets(512);
  const auto kv_off_stall = kv_off.run_gets(512);
  kv_on.fi.disarm_slow(kv::RemoteKv::kSlowSite);
  kv_off.fi.disarm_slow(kv::RemoteKv::kSlowSite);
  const std::int64_t kv_on_stall_p99 = sim::quantile(kv_on_stall, 0.99);
  const std::int64_t kv_off_stall_p99 = sim::quantile(kv_off_stall, 0.99);
  row("kv stall 2ms", "on", kv_on_stall.size(), sim::quantile(kv_on_stall, 0.5),
      kv_on_stall_p99, "deadline cuts + retry");
  row("kv stall 2ms", "off", kv_off_stall.size(), sim::quantile(kv_off_stall, 0.5),
      kv_off_stall_p99, "waits out each stall");
  DPC_CHECK(static_cast<double>(kv_on_stall_p99) <=
            0.5 * static_cast<double>(kv_off_stall_p99));

  // ---- phase 7: KV outage — quarantine beats fixed timeouts -----------
  kv_on.fi.arm(kv::RemoteKv::kFaultSite, 1.0);
  kv_off.fi.arm(kv::RemoteKv::kFaultSite, 1.0);
  bool ok = false;
  const std::int64_t kv_on_first = kv_on.get_one(0, &ok);
  DPC_CHECK(!ok);
  const std::int64_t kv_off_first = kv_off.get_one(0, &ok);
  DPC_CHECK(!ok);
  // Retrying at the adaptive deadline (~150 µs per attempt) gives up far
  // cheaper than retrying at the fixed 500 µs kKvOpTimeout.
  DPC_CHECK(static_cast<double>(kv_on_first) <=
            0.6 * static_cast<double>(kv_off_first));
  DPC_CHECK(kv_on.kv.health()->quarantines() >= 1);
  std::vector<std::int64_t> kv_on_outage, kv_off_outage;
  for (int i = 1; i <= 160; ++i) {
    kv_on_outage.push_back(kv_on.get_one(i));
    kv_off_outage.push_back(kv_off.get_one(i));
  }
  // Quarantined: the median outage op is a free fast-fail, not a retry run.
  DPC_CHECK(sim::quantile(kv_on_outage, 0.5) == 0);
  row("kv outage", "on", kv_on_outage.size() + 1, sim::quantile(kv_on_outage, 0.5),
      sim::quantile(kv_on_outage, 0.99),
      "first_op_us=" + sim::Table::fmt(us(kv_on_first)));
  row("kv outage", "off", kv_off_outage.size() + 1, sim::quantile(kv_off_outage, 0.5),
      sim::quantile(kv_off_outage, 0.99),
      "first_op_us=" + sim::Table::fmt(us(kv_off_first)));

  // ---- phase 8: KV heals — probes reintegrate, breaker closes ---------
  kv_on.fi.disarm(kv::RemoteKv::kFaultSite);
  kv_off.fi.disarm(kv::RemoteKv::kFaultSite);
  bool on_ok = false, off_ok = false;
  for (int i = 0; i < 256; ++i) {
    kv_on.get_one(i, &on_ok);
    kv_off.get_one(i, &off_ok);
  }
  DPC_CHECK(on_ok);
  DPC_CHECK(off_ok);
  DPC_CHECK(kv_on.kv.health()->reintegrations() >= 1);
  DPC_CHECK(kv_on.kv.breaker_state() == fault::CircuitBreaker::State::kClosed);
  table.add_row({"kv heal", "both", "256", "-", "-",
                 "reintegrations=" +
                     std::to_string(kv_on.kv.health()->reintegrations())});

  print_table(table, args);

  std::cout << "tail SLOs: ds limp p99 on/healthy = "
            << sim::Table::fmt(static_cast<double>(on_limp_p99) /
                               static_cast<double>(on_healthy_p99), 2)
            << "x (<= 2x), off/healthy = "
            << sim::Table::fmt(static_cast<double>(off_limp_p99) /
                               static_cast<double>(off_healthy_p99), 2)
            << "x (>= 9.9x); kv stall p99 on/off = "
            << sim::Table::fmt(static_cast<double>(kv_on_stall_p99) /
                               static_cast<double>(kv_off_stall_p99), 2)
            << " (<= 0.5)\n\n";

  // Summary gauges ride in the snapshot next to the health/hedge counters.
  auto set = [&](std::string_view name, std::int64_t v) {
    on.reg.gauge(name).set(v);
  };
  set("tail/ds_healthy_p99_ns", on_healthy_p99);
  set("tail/ds_limp_on_p99_ns", on_limp_p99);
  set("tail/ds_limp_off_p99_ns", off_limp_p99);
  set("tail/ds_stall_on_p99_ns", on_stall_p99);
  set("tail/ds_stall_off_p99_ns", off_stall_p99);
  set("tail/kv_stall_on_p99_ns", kv_on_stall_p99);
  set("tail/kv_stall_off_p99_ns", kv_off_stall_p99);
  set("tail/kv_outage_on_first_ns", kv_on_first);
  set("tail/kv_outage_off_first_ns", kv_off_first);
  bench::emit_metrics_json(on.reg, "tail");
  return 0;
}
