// End-to-end chaos tests: the full DPC stack (and the DFS client on its
// own) must survive injected faults at every site with zero data
// corruption — recovery (NVMe retries, KV backoff, EC degraded reads,
// circuit breaking, flush re-queue) is exercised, and readback checksums
// are compared against goldens written by the application.
//
// The master seed comes from DPC_FAULT_SEED (CI sweeps several); every
// schedule is deterministic per seed.
#include "core/dpc_system.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <map>
#include <vector>

#include "fault/injector.hpp"
#include "sim/calib.hpp"
#include "sim/rng.hpp"

namespace dpc::core {
namespace {

std::uint64_t chaos_seed() {
  return fault::FaultInjector::seed_from_env(42);
}

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

DpcOptions chaos_opts(fault::FaultInjector* fi) {
  DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.cache_geo = {64, 8};
  o.cache_ctl.evict_low_water = 4;
  o.cache_ctl.evict_batch = 8;
  o.with_dfs = false;
  o.fault = fi;
  o.nvme_retry.max_attempts = 6;
  o.kv_retry.max_attempts = 6;
  // Faults come in bursts under high rates; keep the breaker out of the way
  // for the workload phases (the blackout test exercises it on purpose).
  o.kv_breaker.failure_threshold = 64;
  return o;
}

/// App-level retry: a transient failure after the stack's own bounded
/// retries is still retryable from the application.
std::uint64_t create_with_retry(DpcSystem& sys, const std::string& name) {
  for (int i = 0; i < 50; ++i) {
    const auto c = sys.create(kvfs::kRootIno, name);
    if (c.ok()) return c.ino;
    if (c.err == EEXIST) {
      // A previous attempt died after inserting the dentry: the file is
      // there, recover its ino.
      const auto l = sys.lookup(kvfs::kRootIno, name);
      if (l.ok()) return l.ino;
    }
  }
  return 0;
}

bool write_with_retry(DpcSystem& sys, std::uint64_t ino, std::uint64_t off,
                      std::span<const std::byte> src, bool direct) {
  for (int i = 0; i < 50; ++i)
    if (sys.write(ino, off, src, direct).ok()) return true;
  return false;
}

bool read_with_retry(DpcSystem& sys, std::uint64_t ino, std::uint64_t off,
                     std::span<std::byte> dst, bool direct) {
  for (int i = 0; i < 50; ++i)
    if (sys.read(ino, off, dst, direct).ok()) return true;
  return false;
}

void run_chaos_workload(DpcSystem& sys, fault::FaultInjector& fi,
                        std::uint64_t seed, int files) {
  // Golden copy of every file, updated only when the app-level write
  // succeeded — what the file system must hold, bit for bit.
  std::map<std::uint64_t, std::vector<std::byte>> golden;
  std::vector<std::uint64_t> inos;
  for (int i = 0; i < files; ++i) {
    const auto ino = create_with_retry(sys, "chaos" + std::to_string(i));
    ASSERT_NE(ino, 0u) << "create exhausted app-level retries";
    // Mix: small files, big files (>8 KB promotes to the big-file KV), and
    // direct-IO files; buffered files use whole 4K pages so the cache view
    // stays exact.
    const bool direct = i % 3 == 0;
    const std::size_t size = (i % 4 == 0) ? 16384 : 4096;
    const auto data = bytes(size, seed ^ static_cast<std::uint64_t>(i));
    ASSERT_TRUE(write_with_retry(sys, ino, 0, data, direct));
    golden[ino] = data;
    inos.push_back(ino);
  }

  // Overwrite a few files mid-chaos (in-place big-file updates).
  for (std::size_t i = 0; i < inos.size(); i += 5) {
    auto& g = golden[inos[i]];
    const auto patch = bytes(4096, seed ^ (0xbeef + i));
    ASSERT_TRUE(write_with_retry(sys, inos[i], 0, patch, i % 3 == 0));
    std::copy(patch.begin(), patch.end(), g.begin());
  }

  // fsync under chaos: flush failures re-queue dirty pages, never drop them.
  for (const auto ino : inos) {
    for (int t = 0; t < 50; ++t)
      if (sys.fsync(ino).ok()) break;
  }

  // Readback under chaos (cache-coherent view): zero corruption.
  for (const auto ino : inos) {
    auto& g = golden[ino];
    std::vector<std::byte> out(g.size());
    ASSERT_TRUE(read_with_retry(sys, ino, 0, out, /*direct=*/false));
    ASSERT_EQ(out, g) << "corruption under chaos, ino " << ino;
  }

  // Quiesce: disarm everything, flush the re-queued dirty pages, and verify
  // durability with direct reads (bypassing the cache entirely).
  fi.disarm(nvme::kFaultTgtDropCqe);
  fi.disarm(nvme::kFaultTgtErrorCqe);
  fi.disarm(kv::RemoteKv::kFaultSite);
  fi.disarm(cache::kFaultFlushWritePage);
  for (const auto ino : inos) ASSERT_TRUE(sys.fsync(ino).ok());
  for (const auto ino : inos) {
    auto& g = golden[ino];
    std::vector<std::byte> out(g.size());
    ASSERT_TRUE(read_with_retry(sys, ino, 0, out, /*direct=*/true));
    ASSERT_EQ(out, g) << "post-recovery divergence, ino " << ino;
  }
}

TEST(ChaosIntegration, KvfsSurvivesFaultsAtEverySitePumpMode) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed(), &fault_reg);
  DpcSystem sys(chaos_opts(&fi));
  // Arm only after construction so mkfs/root setup runs clean. Dropped
  // CQEs are wall-clock-free (idle-pass loss detection), so a beefy rate
  // is fine — and guarantees the abort path runs per seed.
  fi.arm(nvme::kFaultTgtDropCqe, 0.05);
  fi.arm(nvme::kFaultTgtErrorCqe, 0.02);
  fi.arm(kv::RemoteKv::kFaultSite, 0.03);
  fi.arm(cache::kFaultFlushWritePage, 0.2);

  run_chaos_workload(sys, fi, chaos_seed(), 24);

  // The chaos actually happened and recovery actually ran.
  EXPECT_GT(fault_reg.counter("fault/injected").value(), 0u);
  EXPECT_GT(sys.metrics().counter("retry/attempts").value(), 0u);
  EXPECT_GT(sys.metrics().counter("cache.ctl/flush_fails").value(), 0u);
  // Dropped CQEs were detected and the CIDs reclaimed via abort.
  EXPECT_GT(sys.metrics().counter("nvme.ini/timeouts").value(), 0u);
}

TEST(ChaosIntegration, KvfsSurvivesFaultsWorkerMode) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0x777, &fault_reg);
  auto opts = chaos_opts(&fi);
  opts.dpu_workers = 2;
  DpcSystem sys(opts);
  sys.start_dpu();
  fi.arm(nvme::kFaultTgtDropCqe, 0.02);
  fi.arm(nvme::kFaultTgtErrorCqe, 0.02);
  fi.arm(kv::RemoteKv::kFaultSite, 0.02);

  run_chaos_workload(sys, fi, chaos_seed(), 24);
  sys.stop_dpu();

  EXPECT_GT(fault_reg.counter("fault/injected").value(), 0u);
  EXPECT_GT(sys.metrics().counter("retry/attempts").value(), 0u);
}

// ---------------------------------------------------- data corruption ---
//
// Bit-rot, torn writes and in-flight payload damage at every checksummed
// site. The integrity envelope's contract: every readback either matches
// the application's golden copy bit-for-bit or comes back as a *typed* EIO
// — silent corruption is the one outcome that must never happen.

void arm_corruption_sites(fault::FaultInjector& fi) {
  fi.arm(kv::kFaultKvBitRot, 0.02);
  fi.arm(kv::kFaultKvTornWrite, 0.01);
  fi.arm(nvme::kFaultTgtCorruptWrite, 0.01);
  fi.arm(nvme::kFaultTgtCorruptRead, 0.02);
  fi.arm(cache::kFaultFlushCorruptPage, 0.05);
}

void disarm_corruption_sites(fault::FaultInjector& fi) {
  fi.disarm(kv::kFaultKvBitRot);
  fi.disarm(kv::kFaultKvTornWrite);
  fi.disarm(nvme::kFaultTgtCorruptWrite);
  fi.disarm(nvme::kFaultTgtCorruptRead);
  fi.disarm(cache::kFaultFlushCorruptPage);
}

void run_corruption_workload(DpcSystem& sys, std::uint64_t seed, int files) {
  // Golden copies of the files whose every write was acknowledged. A file
  // whose create/write exhausted app-level retries (its metadata or data
  // keys rotted mid-op) is skipped — typed failure, not corruption.
  std::map<std::uint64_t, std::vector<std::byte>> golden;
  for (int i = 0; i < files; ++i) {
    const auto ino = create_with_retry(sys, "rot" + std::to_string(i));
    if (ino == 0) continue;
    const bool direct = i % 3 == 0;
    const auto data = bytes(4096, seed ^ static_cast<std::uint64_t>(i));
    if (!write_with_retry(sys, ino, 0, data, direct)) continue;
    golden[ino] = data;
  }
  ASSERT_FALSE(golden.empty()) << "every single write rotted away";

  int clean = 0, eio = 0;
  for (const auto& [ino, g] : golden) {
    std::vector<std::byte> out(g.size());
    Io last;
    bool got = false;
    for (int t = 0; t < 50 && !got; ++t) {
      last = sys.read(ino, 0, out, /*direct=*/false);
      got = last.ok();
    }
    if (!got) {
      // Persistent rot in the value at rest: detected, surfaced as EIO.
      EXPECT_EQ(last.err, EIO) << "untyped failure, ino " << ino;
      ++eio;
      continue;
    }
    ASSERT_EQ(out, g) << "SILENT corruption, ino " << ino;
    ++clean;
  }
  // The envelope must let most traffic through (transient in-flight damage
  // is retried clean); rot at rest may legitimately EIO.
  EXPECT_GT(clean, 0);
}

TEST(ChaosIntegration, ZeroSilentCorruptionUnderBitRotPumpMode) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0xc0, &fault_reg);
  auto opts = chaos_opts(&fi);
  opts.enable_scrubber = true;
  opts.scrub.items_per_pass = 256;
  DpcSystem sys(opts);
  arm_corruption_sites(fi);

  run_corruption_workload(sys, chaos_seed(), 24);

  // The chaos really fired…
  EXPECT_GT(fault_reg.counter("fault/injected").value(), 0u);
  // …and at least one checksum layer caught damage in the act.
  auto& m = sys.metrics();
  const auto caught = m.counter("nvme.host/integrity_errors").value() +
                      m.counter("nvme.tgt/integrity_errors").value() +
                      m.counter("kv.remote/corrupt_reads").value() +
                      m.counter("cache.ctl/flush_integrity_fails").value();
  EXPECT_GT(caught, 0u);

  // Quiesce, then let the scrubber sweep what rotted at rest: everything
  // it detects must be accounted repaired or unrecoverable.
  disarm_corruption_sites(fi);
  ASSERT_NE(sys.scrubber(), nullptr);
  sys.scrubber()->scrub_all();
  const auto t = sys.scrubber()->totals();
  EXPECT_EQ(t.detected, t.repaired + t.unrecoverable);

  // Post-scrub readback sees the same contract: exact bytes or EIO.
  run_corruption_workload(sys, chaos_seed() ^ 1, 6);
}

TEST(ChaosIntegration, ZeroSilentCorruptionWorkerMode) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0xc1, &fault_reg);
  auto opts = chaos_opts(&fi);
  opts.dpu_workers = 2;
  opts.enable_scrubber = true;
  opts.scrub.items_per_pass = 64;
  opts.scrub.pace = sim::micros(200.0);
  DpcSystem sys(opts);
  sys.start_dpu();
  arm_corruption_sites(fi);

  run_corruption_workload(sys, chaos_seed() ^ 2, 12);

  disarm_corruption_sites(fi);
  sys.stop_dpu();
  EXPECT_GT(fault_reg.counter("fault/injected").value(), 0u);
  // Whatever the background scrubber saw, the books balance.
  auto& m = sys.metrics();
  EXPECT_EQ(m.counter("scrub/detected").value(),
            m.counter("scrub/repaired").value() +
                m.counter("scrub/unrecoverable").value());
}

TEST(ChaosIntegration, BreakerOpensUnderBlackoutAndRecovers) {
  obs::Registry reg;
  fault::FaultInjector fi(chaos_seed(), &reg);
  kv::KvStore store(4);
  fault::CircuitBreaker::Config bcfg;
  bcfg.failure_threshold = 8;
  kv::RemoteKv rkv(store, &fi, &reg, {}, bcfg);

  const auto payload = bytes(64, 1);

  // Total KV blackout: every op times out; the breaker must open and
  // convert hammering into fast-fails.
  fi.arm(kv::RemoteKv::kFaultSite, 1.0);
  int until_open = 0;
  while (rkv.breaker_state() != fault::CircuitBreaker::State::kOpen) {
    const auto r = rkv.put("blackout", payload);
    EXPECT_FALSE(r.ok());
    ASSERT_LT(++until_open, 100) << "breaker never opened";
  }
  EXPECT_GT(reg.counter("breaker/opens").value(), 0u);
  EXPECT_GT(reg.counter("retry/attempts").value(), 0u);

  // Fast-fail while open: no injector draws consumed, kUnavailable out.
  const auto draws_before = fi.draws(kv::RemoteKv::kFaultSite);
  const auto r = rkv.put("blackout", payload);
  EXPECT_EQ(r.err, kv::RemoteErr::kUnavailable);
  EXPECT_EQ(fi.draws(kv::RemoteKv::kFaultSite), draws_before);

  // Backend heals: the periodic probe closes the breaker and ops flow.
  fi.arm(kv::RemoteKv::kFaultSite, 0.0);
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i)
    recovered = rkv.put("healed", payload).ok();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(rkv.breaker_state(), fault::CircuitBreaker::State::kClosed);
  EXPECT_GT(reg.counter("breaker/probes").value(), 0u);
  EXPECT_GT(reg.counter("breaker/closes").value(), 0u);
  EXPECT_TRUE(rkv.get("healed").ok());
}

TEST(ChaosIntegration, EcDegradedReadsReconstructThroughClient) {
  obs::Registry reg;
  dfs::MdsCluster mds;
  dfs::DataServers ds(sim::calib::kDataServers, nullptr, &reg);
  dfs::DfsClient client(1, mds, ds, dfs::ClientConfig::optimized(), &reg);

  const auto c = client.create("/ec-file", 64 * 1024);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(64 * 1024, chaos_seed());
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());

  // Knock out each data server in turn: every read must still return the
  // exact bytes, reconstructing from survivors when the failed server held
  // one of the stripe's shards.
  for (int s = 0; s < sim::calib::kDataServers; ++s) {
    ds.fail_server(s);
    std::vector<std::byte> out(data.size());
    const auto r = client.read(c.ino, 0, out);
    ASSERT_TRUE(r.ok()) << "degraded read failed, server " << s;
    ASSERT_EQ(out, data) << "degraded read corrupt, server " << s;
    ds.heal_server(s);
  }
  EXPECT_GT(reg.counter("ec/degraded_reads").value(), 0u);
  EXPECT_GT(reg.counter("dfs.ds/failed_reads").value(), 0u);

  // Healed cluster serves normally again.
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(ChaosIntegration, EcDegradedReadsUnderInjectedShardFaults) {
  obs::Registry reg;
  fault::FaultInjector fi(chaos_seed(), &reg);
  dfs::MdsCluster mds;
  dfs::DataServers ds(sim::calib::kDataServers, &fi, &reg);
  dfs::DfsClient client(1, mds, ds, dfs::ClientConfig::optimized(), &reg);

  const auto c = client.create("/flaky", 256 * 1024);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(256 * 1024, chaos_seed() ^ 0xf1a);
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());

  // Transient per-shard read faults: the client absorbs them via
  // reconstruction (and bounded retries when >m shards fault at once).
  fi.arm(dfs::kFaultDsReadShard, 0.05);
  int ok_reads = 0;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::byte> out(data.size());
    const auto r = client.read(c.ino, 0, out);
    if (!r.ok()) {
      EXPECT_TRUE(r.retryable());
      continue;
    }
    ASSERT_EQ(out, data) << "corrupt read under shard faults";
    ++ok_reads;
  }
  EXPECT_GT(ok_reads, 0);
  fi.disarm(dfs::kFaultDsReadShard);

  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(ChaosIntegration, DelegationContentionRetriesThenYieldsBusy) {
  obs::Registry reg;
  dfs::MdsCluster mds;
  dfs::DataServers ds(sim::calib::kDataServers, nullptr, &reg);

  // The holder keeps its delegation: the writer's retry loop runs dry and
  // surfaces a *typed* transient EAGAIN.
  dfs::DfsClient holder(1, mds, ds, dfs::ClientConfig::optimized(), &reg);
  dfs::DfsClient writer(2, mds, ds, dfs::ClientConfig::optimized(), &reg);

  const auto c = holder.create("/contended", 16 * 1024);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(4096, 3);
  ASSERT_TRUE(holder.write(c.ino, 0, data).ok());
  ASSERT_TRUE(holder.holds_delegation(c.ino));

  const auto w = writer.write(c.ino, 0, data);
  EXPECT_EQ(w.err, EAGAIN);
  EXPECT_EQ(w.transient, fault::Transient::kBusy);
  EXPECT_TRUE(w.retryable());
  EXPECT_EQ(reg.counter("dfs.client/delegation_retries").value(),
            static_cast<std::uint64_t>(
                dfs::ClientConfig::kRetry.max_attempts - 1));
}

}  // namespace
}  // namespace dpc::core
