// Per-tenant QoS: wire-format tenant id, global-cap admission, DRR
// weighted fair scheduling, class-ordered shedding, scrubber demotion
// under overload, and the end-to-end kThrottled retry path through
// DpcSystem (admission rejection honored with the device's retry-after
// hint as a backoff floor).
#include "dpu/qos.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dpc_system.hpp"
#include "dpu/scrubber.hpp"
#include "kv/kv_store.hpp"
#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace dpc::dpu {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

StagedCmd staged(nvme::TenantId tenant, std::uint32_t charge,
                 sim::Nanos ingest_vt = {}) {
  StagedCmd c;
  c.tenant = tenant;
  c.charge = charge;
  c.ingest_vt = ingest_vt;
  return c;
}

// ------------------------------------------------------------ wire format

TEST(QosSpec, TenantRoundTripsThroughSqe) {
  nvme::NvmeFsCmd cmd;
  cmd.tenant = 5;
  cmd.inline_op = nvme::InlineOp::kWrite;
  cmd.inode = 42;
  cmd.write_len = 0x00ABCDEF;  // full 24-bit payload field, no bleed
  const nvme::Sqe sqe = nvme::encode_nvme_fs(cmd);
  EXPECT_EQ(nvme::tenant_of(sqe), 5);
  const nvme::NvmeFsCmd back = nvme::decode_nvme_fs(sqe);
  EXPECT_EQ(back.tenant, 5);
  EXPECT_EQ(back.write_len, 0x00ABCDEFu);
  EXPECT_EQ(back.inode, 42u);
}

TEST(QosSpec, ThrottledIsRetryable) {
  EXPECT_TRUE(nvme::is_retryable(nvme::Status::kThrottled));
  // The integrity status stays non-retryable: throttling must not have
  // loosened that contract.
  EXPECT_FALSE(nvme::is_retryable(nvme::Status::kDataIntegrityError));
}

// -------------------------------------------------------------- admission

TEST(QosAdmission, GlobalCapsRejectBestEffortButExemptGuaranteed) {
  obs::Registry reg;
  QosConfig cfg;
  cfg.enabled = true;
  cfg.max_queued_cmds = 2;
  cfg.overload_highwater = 3;
  cfg.tenants[1].cls = TenantClass::kGuaranteed;
  QosManager qos(cfg, reg);

  EXPECT_TRUE(qos.admit(0, 4096).ok);
  EXPECT_TRUE(qos.admit(0, 4096).ok);
  EXPECT_FALSE(qos.overloaded());
  const auto denied = qos.admit(0, 4096);
  EXPECT_FALSE(denied.ok);
  EXPECT_EQ(denied.retry_after, kMinRetryAfter);

  // The guaranteed tenant sails past the global cap — the cap exists to
  // protect it — and its staging still counts toward overload.
  EXPECT_TRUE(qos.admit(1, 4096).ok);
  EXPECT_EQ(qos.queued(), 3);
  EXPECT_TRUE(qos.overloaded());
  EXPECT_EQ(reg.gauge("qos/queued_cmds").load(), 3);

  qos.on_dispatch(0, 4096);
  qos.on_dispatch(0, 4096);
  qos.on_dispatch(1, 4096);
  EXPECT_EQ(qos.queued(), 0);
  EXPECT_FALSE(qos.overloaded());
  EXPECT_EQ(reg.gauge("qos/inflight_bytes").load(), 0);
  EXPECT_EQ(reg.counter("qos/admitted").load(), 3u);
  EXPECT_EQ(reg.counter("qos/t1/admitted").load(), 1u);
}

// ------------------------------------------------------------- scheduling

TEST(QosScheduler, DrrSharesDispatchByWeight) {
  obs::Registry reg;
  QosConfig cfg;
  cfg.enabled = true;
  cfg.tenants[1].weight = 3;
  cfg.tenants[2].weight = 1;
  QosManager qos(cfg, reg);
  DrrScheduler sched(&qos);

  for (int i = 0; i < 40; ++i) sched.push(staged(1, 4096));
  for (int i = 0; i < 40; ++i) sched.push(staged(2, 4096));
  ASSERT_EQ(sched.size(), 80u);

  int from_t1 = 0;
  int from_t2 = 0;
  for (int i = 0; i < 16; ++i) {
    const auto cmd = sched.pop();
    ASSERT_TRUE(cmd.has_value());
    if (cmd->tenant == 1) ++from_t1;
    if (cmd->tenant == 2) ++from_t2;
  }
  // quantum × weight deficits: 12 commands of 4 KB per visit for weight 3,
  // 4 for weight 1 — a 3:1 split, work-conserving and exact here.
  EXPECT_EQ(from_t1, 12);
  EXPECT_EQ(from_t2, 4);

  // Drain the rest; nobody starves and nothing is lost.
  while (sched.pop().has_value()) {
  }
  EXPECT_TRUE(sched.empty());
}

TEST(QosScheduler, GuaranteedClassPreemptsWeakerClassesRegardlessOfWeight) {
  obs::Registry reg;
  QosConfig cfg;
  cfg.enabled = true;
  cfg.tenants[1].cls = TenantClass::kGuaranteed;
  cfg.tenants[1].weight = 1;
  cfg.tenants[2].cls = TenantClass::kBackground;
  cfg.tenants[2].weight = 64;  // weight cannot buy past a stronger class
  QosManager qos(cfg, reg);
  DrrScheduler sched(&qos);

  // Background work staged first and heavily weighted…
  for (int i = 0; i < 8; ++i) sched.push(staged(2, 4096));
  sched.push(staged(1, 4096));
  // …yet the guaranteed command dispatches next: classes are strict
  // priorities, weights only share bandwidth within a class.
  const auto first = sched.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 1);

  // With the guaranteed queue empty the background backlog drains; a
  // late-arriving guaranteed command again jumps it.
  EXPECT_EQ(sched.pop()->tenant, 2);
  sched.push(staged(1, 4096));
  EXPECT_EQ(sched.pop()->tenant, 1);
  while (sched.pop().has_value()) {
  }
  EXPECT_TRUE(sched.empty());
}

TEST(QosScheduler, ShedsBackgroundBeforeBestEffortNeverGuaranteed) {
  obs::Registry reg;
  QosConfig cfg;
  cfg.enabled = true;
  cfg.tenants[1].cls = TenantClass::kGuaranteed;
  cfg.tenants[2].cls = TenantClass::kBestEffort;
  cfg.tenants[3].cls = TenantClass::kBackground;
  QosManager qos(cfg, reg);
  DrrScheduler sched(&qos);

  // All three staged at vt=0, all equally stale.
  sched.push(staged(1, 4096));
  sched.push(staged(2, 4096));
  sched.push(staged(3, 4096));

  const sim::Nanos now = sim::millis(10.0);
  const sim::Nanos max_delay = sim::millis(1.0);
  auto first = sched.shed_stale(now, max_delay);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 3) << "background sheds first";
  auto second = sched.shed_stale(now, max_delay);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 2) << "then best-effort";
  EXPECT_FALSE(sched.shed_stale(now, max_delay).has_value())
      << "guaranteed is never shed";
  const auto survivor = sched.pop();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->tenant, 1);
}

TEST(QosScheduler, FifoWithoutManagerKeepsOrderAndNeverSheds) {
  DrrScheduler sched(nullptr);
  sched.push(staged(2, 4096, sim::Nanos{0}));
  sched.push(staged(1, 65536, sim::Nanos{0}));
  sched.push(staged(2, 4096, sim::Nanos{0}));
  EXPECT_FALSE(
      sched.shed_stale(sim::millis(100.0), sim::Nanos{1}).has_value());
  EXPECT_EQ(sched.pop()->tenant, 2);
  EXPECT_EQ(sched.pop()->tenant, 1);
  EXPECT_EQ(sched.pop()->tenant, 2);
  EXPECT_FALSE(sched.pop().has_value());
}

// ---------------------------------------------- degradation: scrub yields

TEST(QosDegradation, ScrubberYieldsWhileOverloadedAndResumesAfter) {
  obs::Registry reg;
  QosConfig cfg;
  cfg.enabled = true;
  cfg.overload_highwater = 0;  // overloaded() from the first probe on
  QosManager qos(cfg, reg);

  kv::KvStore kv;
  kv.put("scrub-me", bytes(4096, 0xA));
  ASSERT_TRUE(kv.corrupt_value("scrub-me", 17));

  ScrubberConfig scfg;
  scfg.items_per_pass = 64;
  scfg.pace = sim::nanos(0);
  Scrubber scrub(scfg, reg);
  scrub.attach_kv(&kv);
  scrub.attach_qos(&qos);

  // Every due pass is surrendered while the admission controller reports
  // overload; nothing is scanned and the pass is not rescheduled away.
  EXPECT_EQ(scrub.poll(), 0);
  EXPECT_EQ(scrub.poll(), 0);
  EXPECT_EQ(reg.counter("scrub/yields").load(), 2u);
  EXPECT_EQ(reg.counter("scrub/scanned").load(), 0u);

  // Pressure gone (no manager): the very next poll runs a full pass and
  // still finds the damage — yielding deferred work, never dropped it.
  scrub.attach_qos(nullptr);
  EXPECT_GT(scrub.poll(), 0);
  EXPECT_EQ(reg.counter("scrub/yields").load(), 2u);
  EXPECT_EQ(scrub.totals().detected, 1u);
}

// ----------------------------------------------------- end-to-end system

core::DpcOptions qos_opts() {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.enable_cache = false;
  o.with_dfs = false;
  o.qos.enabled = true;
  return o;
}

TEST(QosSystem, ThrottledOpRetriesWithDeviceHintThenFails) {
  core::DpcOptions o = qos_opts();
  // No staging room at all: every best-effort command is throttled at
  // admission. Tenant 1 is guaranteed, exempt from the cap, and creates the
  // file the throttled tenant 0 then writes.
  o.qos.max_queued_cmds = 0;
  o.qos.tenants[1].cls = TenantClass::kGuaranteed;
  // A 1 ns policy backoff leaves the device's retry-after hint as the whole
  // wait, so the failed op's cost shows that hint was honoured.
  o.nvme_retry.base_backoff = sim::nanos(1);
  core::DpcSystem sys(o);

  core::DpcSystem::set_thread_tenant(1);
  const auto c = sys.create(kvfs::kRootIno, "f");
  core::DpcSystem::set_thread_tenant(0);
  ASSERT_TRUE(c.ok());

  const auto data = bytes(8192, 0xB);
  const auto failed = sys.write(c.ino, 0, data, /*direct=*/true);
  ASSERT_NE(failed.err, 0);
  EXPECT_EQ(failed.status, nvme::Status::kThrottled);
  const int attempts = o.nvme_retry.max_attempts;
  EXPECT_EQ(failed.attempts, attempts);

  obs::Registry& reg = sys.metrics();
  EXPECT_EQ(reg.counter("qos/t0/throttled").load(),
            static_cast<std::uint64_t>(attempts));
  EXPECT_EQ(reg.counter("qos/t1/throttled").load(), 0u);
  EXPECT_EQ(reg.counter("retry/throttled").load(),
            static_cast<std::uint64_t>(attempts - 1));
  // Every wait between attempts is the kMinRetryAfter floor, and nothing
  // else in the op comes near another one.
  EXPECT_GE(failed.cost.ns, kMinRetryAfter.ns * (attempts - 1));
  EXPECT_LT(failed.cost.ns, kMinRetryAfter.ns * attempts);
}

TEST(QosSystem, PerTenantMetricScopingFollowsThreadTenant) {
  core::DpcSystem sys(qos_opts());
  obs::Registry& reg = sys.metrics();
  const std::uint64_t t0_before = reg.counter("qos/t0/ops").load();

  core::DpcSystem::set_thread_tenant(3);
  EXPECT_EQ(core::DpcSystem::thread_tenant(), 3);
  const auto c = sys.create(kvfs::kRootIno, "t3-file");
  ASSERT_TRUE(c.ok());
  const auto data = bytes(8192, 0xC);
  ASSERT_TRUE(sys.write(c.ino, 0, data, /*direct=*/true).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(sys.read(c.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, data);
  core::DpcSystem::set_thread_tenant(0);

  EXPECT_GE(reg.counter("qos/t3/ops").load(), 3u)
      << "create+write+read all scoped to tenant 3";
  EXPECT_GE(reg.histogram("qos/t3/latency_ns").count(), 3u);
  EXPECT_EQ(reg.counter("qos/t0/ops").load(), t0_before)
      << "tenant 0 saw none of tenant 3's traffic";
}

}  // namespace
}  // namespace dpc::dpu
