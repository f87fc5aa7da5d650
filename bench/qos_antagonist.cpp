// QoS antagonist bench: victim-tenant tail latency with and without the
// DPU-side isolation machinery (admission control + DRR fair scheduling +
// graceful degradation), under two antagonists sharing the victim's
// nvme-fs queue:
//
//   * metadata storm — threads hammering create/lookup as a background
//     tenant, each op charged one page so the storm is visible to the
//     scheduler;
//   * scrub-adversarial bit-rot — bulk direct writes as a background
//     tenant while planted KV corruption keeps the integrity scrubber's
//     queue full, with scrubber polls riding the same DPU capacity.
//
// Three arms per antagonist: victim solo (baseline p99), isolation ON
// (victim kGuaranteed weight 8, antagonist kBackground weight 1, global
// admission caps armed), isolation OFF (fair_sched=false → FIFO dispatch,
// caps effectively unarmed, but virtual-time wait accounting still live so
// queueing delay is measured). Asserts the acceptance bounds:
//
//   ON  : victim p99 ≤ 2× solo (both antagonists)
//   OFF : victim p99 ≥ 5× solo (metadata storm)
//
// Emits BENCH_qos.json ("qos_bench/…" gauges: p99s, ratios ×100, throttle
// and scrub-yield counts) for the ci.sh qos stage.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "core/dpc_system.hpp"
#include "dpu/qos.hpp"
#include "dpu/scrubber.hpp"
#include "kv/kv_store.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

namespace {

using namespace dpc;

constexpr nvme::TenantId kVictim = 1;
constexpr nvme::TenantId kAntagonist = 2;
constexpr std::uint32_t kIoSize = 8 * 1024;
constexpr std::uint64_t kFileBytes = 64 * kIoSize;
constexpr int kVictimOps = 320;
// Enough storm threads that FIFO dispatch (isolation OFF) stages well over
// 5x the victim's solo p99 ahead of it; a create costs one increment and
// one KV batch, so the storm needs the threads, not expensive ops.
constexpr int kAntagonistThreads = 20;

enum class Isolation { kOn, kOff };
enum class Antagonist { kNone, kMetaStorm, kScrubBitrot };

core::DpcOptions make_opts(Isolation iso, bool scrubber) {
  core::DpcOptions opts;
  opts.queues = 1;  // victim and antagonist share one nvme-fs queue pair
  opts.queue_depth = 64;
  opts.max_io = 256 * 1024;
  opts.enable_cache = false;  // every op crosses the TGT staging queue
  opts.with_dfs = false;
  opts.enable_scrubber = scrubber;
  opts.scrub.items_per_pass = 32;
  opts.scrub.pace = sim::micros(50.0);
  // The DPU runs as an independent agent (worker pool) so real staging
  // backlog forms between its passes.

  opts.qos.enabled = true;
  auto& victim = opts.qos.tenants[dpu::QosManager::slot(kVictim)];
  auto& antag = opts.qos.tenants[dpu::QosManager::slot(kAntagonist)];
  if (iso == Isolation::kOn) {
    victim.cls = dpu::TenantClass::kGuaranteed;
    victim.weight = 8;
    antag.cls = dpu::TenantClass::kBackground;
    antag.weight = 1;
    opts.qos.max_queued_cmds = 8;
    opts.qos.overload_highwater = 4;
    opts.qos.max_queue_delay = sim::micros(200.0);
  } else {
    // FIFO dispatch, caps far above what the workload can stage: queueing
    // delay is measured (virtual-time accounting stays live) but unbounded.
    opts.qos.fair_sched = false;
    opts.qos.max_queued_cmds = 1u << 20;
    opts.qos.max_inflight_bytes = 1ull << 40;
    opts.qos.overload_highwater = 1u << 20;
  }
  return opts;
}

struct ArmResult {
  std::int64_t p99_ns = 0;
  std::int64_t p50_ns = 0;
  std::uint64_t throttled = 0;     // "qos/throttled" admission rejections
  std::uint64_t shed = 0;          // "qos/shed" degradation drops
  std::uint64_t scrub_yields = 0;  // "scrub/yields" passes surrendered
  std::uint64_t antagonist_ops = 0;
};

ArmResult run_arm(Isolation iso, Antagonist antagonist) {
  const bool scrub = antagonist == Antagonist::kScrubBitrot;
  core::DpcSystem sys(make_opts(iso, scrub));

  // Victim's file, written direct so the pages live in KVFS.
  core::DpcSystem::set_thread_tenant(kVictim);
  const auto vf = sys.create(kvfs::kRootIno, "victim.dat");
  DPC_CHECK(vf.ok());
  {
    sim::Rng rng(0x9e05'beef);
    std::vector<std::byte> buf(kIoSize);
    for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
    for (std::uint64_t at = 0; at < kFileBytes; at += kIoSize)
      DPC_CHECK(sys.write(vf.ino, at, buf, /*direct=*/true).ok());
  }

  if (scrub) {
    // Plant bit-rot on a sacrificial file's data blocks so every scrub
    // pass has detection work for the whole run — but never on the
    // victim's extents or the namespace metadata, whose unredundant
    // damage would (correctly) EIO the foreground reads this bench
    // measures. Snapshot-diff isolates the rot file's block keys.
    const auto before = sys.kv_store().keys();
    std::unordered_set<std::string> seen(before.begin(), before.end());
    const auto rf = sys.create(kvfs::kRootIno, "rot.dat");
    DPC_CHECK(rf.ok());
    std::vector<std::byte> junk(kIoSize, std::byte{0x5A});
    for (std::uint64_t at = 0; at < kFileBytes; at += kIoSize)
      DPC_CHECK(sys.write(rf.ino, at, junk, /*direct=*/true).ok());
    std::size_t hits = 0;
    for (const auto& key : sys.kv_store().keys()) {
      if (hits >= 64) break;
      if (seen.count(key) != 0 || key.empty() || key[0] != 'B') continue;
      hits += sys.kv_store().corrupt_value(key, hits % 8) ? 1 : 0;
    }
    DPC_CHECK_MSG(hits > 0, "no rot-file blocks found to corrupt");
  }

  // Hand the queues to the DPU worker pool: submitters now only spin on
  // their own CQE while the device ingests doorbell-delimited bursts.
  // Without this, every submitter pumps the TGT inline and drains the
  // staging queue before any backlog (and hence any measurable queueing
  // delay) can form.
  sys.start_dpu();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> antagonist_ops{0};
  std::vector<std::thread> antagonists;
  if (antagonist != Antagonist::kNone) {
    for (int t = 0; t < kAntagonistThreads; ++t) {
      antagonists.emplace_back([&, t] {
        core::DpcSystem::set_thread_tenant(kAntagonist);
        sim::Rng rng(0xa417'0000 + static_cast<std::uint64_t>(t));
        std::vector<std::byte> bulk(64 * 1024,
                                    static_cast<std::byte>(t + 1));
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (antagonist == Antagonist::kMetaStorm) {
            // Storm of page-charged metadata ops: create + lookups.
            const std::string name =
                "storm_" + std::to_string(t) + "_" + std::to_string(seq++);
            (void)sys.create(kvfs::kRootIno, name);
            for (int i = 0; i < 3; ++i) (void)sys.lookup(kvfs::kRootIno, name);
          } else {
            // Bulk direct writes keep the staging queue deep while the
            // scrubber fights the planted corruption for DPU time.
            (void)sys.write(vf.ino, kFileBytes + (seq++ % 16) * 65536, bulk,
                            /*direct=*/true);
            if (sys.scrubber() != nullptr && seq % 4 == 0)
              (void)sys.scrubber()->poll();
          }
          antagonist_ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  // Victim: direct 8K reads over its file; per-op modelled cost is the
  // figure of merit (includes the TGT staging wait and any throttle
  // backoff the retry path charged).
  std::vector<std::int64_t> costs;
  costs.reserve(kVictimOps);
  {
    sim::Rng rng(0x7157'1234);
    std::vector<std::byte> dst(kIoSize);
    for (int i = 0; i < kVictimOps; ++i) {
      const std::uint64_t off =
          rng.next_below(kFileBytes / kIoSize) * kIoSize;
      const auto io = sys.read(vf.ino, off, dst, /*direct=*/true);
      DPC_CHECK_MSG(io.ok(), "victim read failed err="
                                 << io.err << " iso=" << (iso == Isolation::kOn)
                                 << " antagonist="
                                 << static_cast<int>(antagonist) << " op="
                                 << i);
      costs.push_back(io.cost.ns);
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& th : antagonists) th.join();
  sys.stop_dpu();

  ArmResult r;
  r.p99_ns = sim::quantile(costs, 0.99);
  r.p50_ns = sim::quantile(costs, 0.50);
  r.throttled = sys.metrics().counter("qos/throttled").load();
  r.shed = sys.metrics().counter("qos/shed").load();
  r.scrub_yields = sys.metrics().counter("scrub/yields").load();
  r.antagonist_ops = antagonist_ops.load();
  return r;
}

double ratio(const ArmResult& arm, const ArmResult& solo) {
  return static_cast<double>(arm.p99_ns) /
         static_cast<double>(std::max<std::int64_t>(1, solo.p99_ns));
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline("QoS antagonist sweep",
                  "overload robustness: per-tenant isolation under "
                  "metadata-storm and scrub-adversarial load");

  const ArmResult solo = run_arm(Isolation::kOn, Antagonist::kNone);
  const ArmResult meta_on = run_arm(Isolation::kOn, Antagonist::kMetaStorm);
  const ArmResult meta_off = run_arm(Isolation::kOff, Antagonist::kMetaStorm);
  const ArmResult scrub_on =
      run_arm(Isolation::kOn, Antagonist::kScrubBitrot);
  const ArmResult scrub_off =
      run_arm(Isolation::kOff, Antagonist::kScrubBitrot);

  sim::Table t({"arm", "victim p50 (us)", "victim p99 (us)", "p99 / solo",
                "throttled", "shed", "scrub yields", "antagonist ops"});
  const auto row = [&](const char* name, const ArmResult& a) {
    t.add_row({name, sim::Table::fmt(a.p50_ns / 1000.0),
               sim::Table::fmt(a.p99_ns / 1000.0),
               sim::Table::fmt(ratio(a, solo)), std::to_string(a.throttled),
               std::to_string(a.shed), std::to_string(a.scrub_yields),
               std::to_string(a.antagonist_ops)});
  };
  row("victim solo", solo);
  row("meta storm, isolation ON", meta_on);
  row("meta storm, isolation OFF", meta_off);
  row("scrub bit-rot, isolation ON", scrub_on);
  row("scrub bit-rot, isolation OFF", scrub_off);
  bench::print_table(t, args);

  // Machine-readable trail for the ci.sh qos stage.
  obs::Registry reg;
  reg.gauge("qos_bench/victim_solo_p99_ns").set(solo.p99_ns);
  reg.gauge("qos_bench/victim_meta_on_p99_ns").set(meta_on.p99_ns);
  reg.gauge("qos_bench/victim_meta_off_p99_ns").set(meta_off.p99_ns);
  reg.gauge("qos_bench/victim_scrub_on_p99_ns").set(scrub_on.p99_ns);
  reg.gauge("qos_bench/victim_scrub_off_p99_ns").set(scrub_off.p99_ns);
  reg.gauge("qos_bench/meta_on_ratio_x100")
      .set(static_cast<std::int64_t>(ratio(meta_on, solo) * 100));
  reg.gauge("qos_bench/meta_off_ratio_x100")
      .set(static_cast<std::int64_t>(ratio(meta_off, solo) * 100));
  reg.gauge("qos_bench/scrub_on_ratio_x100")
      .set(static_cast<std::int64_t>(ratio(scrub_on, solo) * 100));
  reg.gauge("qos_bench/scrub_off_ratio_x100")
      .set(static_cast<std::int64_t>(ratio(scrub_off, solo) * 100));
  reg.gauge("qos_bench/meta_on_throttled")
      .set(static_cast<std::int64_t>(meta_on.throttled));
  reg.gauge("qos_bench/scrub_on_yields")
      .set(static_cast<std::int64_t>(scrub_on.scrub_yields));
  reg.gauge("qos_bench/scrub_off_yields")
      .set(static_cast<std::int64_t>(scrub_off.scrub_yields));
  bench::emit_metrics_json(reg, "qos");

  // Acceptance bounds. The 2×/5× margins carry plenty of slack over the
  // interleaving noise of racing submitter threads.
  DPC_CHECK_MSG(meta_on.p99_ns <= 2 * solo.p99_ns,
                "isolation ON failed to protect the victim from the "
                "metadata storm: p99 "
                    << meta_on.p99_ns << "ns vs solo " << solo.p99_ns
                    << "ns");
  DPC_CHECK_MSG(scrub_on.p99_ns <= 2 * solo.p99_ns,
                "isolation ON failed to protect the victim from the "
                "scrub/bit-rot antagonist: p99 "
                    << scrub_on.p99_ns << "ns vs solo " << solo.p99_ns
                    << "ns");
  DPC_CHECK_MSG(meta_off.p99_ns >= 5 * solo.p99_ns,
                "isolation OFF shows no interference — antagonist too "
                "weak to make the ON arms meaningful: p99 "
                    << meta_off.p99_ns << "ns vs solo " << solo.p99_ns
                    << "ns");
  std::cout << "qos antagonist sweep: PASS\n";
  return 0;
}
