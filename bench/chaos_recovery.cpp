// Chaos/recovery bench, two sweeps:
//
// 1. Fault-rate sweep — the standalone DPC stack under injected fault
//    rates of 0/1/2/5% at every site, 8K ops through the full nvme-fs →
//    IO_Dispatch → KVFS path (pump mode, deterministic). Reports per-rate
//    goodput (app-level op success after the stack's bounded retries), the
//    modelled mean latency including retry/backoff/timeout charges, and
//    the recovery counters. The 0% row doubles as the no-overhead
//    baseline: with the injector disarmed the failure path costs one
//    null-pointer compare per op.
//
// 2. Crash-restart sweep — crashes the DPU mid-flush (after the backend
//    write, before the clean-marking) with a growing cached-page
//    population, then runs the full restart path (controller reset → fsck
//    repair → cache control-plane rebuild + dirty re-flush) and reports the
//    modelled recovery latency and its fsck share. Emits
//    BENCH_crash_recovery.json (recovery latency vs. cached pages).
#include <iostream>

#include "bench_common.hpp"
#include "cache/control_plane.hpp"
#include "core/dpc_system.hpp"
#include "dfs/backend.hpp"
#include "dfs/client.hpp"
#include "dpu/scrubber.hpp"
#include "fault/injector.hpp"
#include "kvfs/types.hpp"
#include "nvme/tgt.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

namespace {

using namespace dpc;

constexpr std::uint32_t kIoSize = 8 * 1024;
constexpr int kFiles = 8;
constexpr int kOpsPerFile = 40;

struct RatePoint {
  double fail_pct = 0;
  double goodput_pct = 0;
  double mean_cost_us = 0;
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t flush_fails = 0;
};

RatePoint run_rate(double p, std::uint64_t seed) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(seed, &fault_reg);

  core::DpcOptions opts;
  opts.queues = 2;
  opts.queue_depth = 8;
  opts.max_io = 128 * 1024;
  opts.with_dfs = false;
  opts.fault = p > 0 ? &fi : nullptr;  // p == 0: injector fully absent
  opts.nvme_retry.max_attempts = 6;
  opts.kv_retry.max_attempts = 6;
  opts.kv_breaker.failure_threshold = 64;
  core::DpcSystem sys(opts);

  if (p > 0) {
    fi.arm(nvme::kFaultTgtDropCqe, p * 0.5);  // drops are the pricy half
    fi.arm(nvme::kFaultTgtErrorCqe, p);
    fi.arm(kv::RemoteKv::kFaultSite, p);
    fi.arm(cache::kFaultFlushWritePage, p);
  }

  sim::Rng rng(seed);
  std::vector<std::byte> buf(kIoSize);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));

  int ops = 0, ok = 0;
  sim::Nanos total_cost{};
  std::vector<std::uint64_t> inos;
  for (int f = 0; f < kFiles; ++f) {
    const auto c = sys.create(kvfs::kRootIno, "f" + std::to_string(f));
    if (c.ok()) inos.push_back(c.ino);
  }
  for (int i = 0; i < kOpsPerFile && !inos.empty(); ++i) {
    for (const auto ino : inos) {
      const std::uint64_t off =
          (rng.next_below(16)) * static_cast<std::uint64_t>(kIoSize);
      const auto w = sys.write(ino, off, buf, /*direct=*/true);
      ++ops;
      ok += w.ok() ? 1 : 0;
      total_cost += w.cost;
      std::vector<std::byte> out(kIoSize);
      const auto r = sys.read(ino, off, out, /*direct=*/true);
      ++ops;
      ok += r.ok() ? 1 : 0;
      total_cost += r.cost;
    }
  }
  for (const auto ino : inos) (void)sys.fsync(ino);

  RatePoint pt;
  pt.fail_pct = p * 100.0;
  pt.goodput_pct = ops > 0 ? 100.0 * ok / ops : 0;
  pt.mean_cost_us =
      ops > 0 ? sim::Nanos{total_cost.ns / ops}.us() : 0;
  pt.injected = fault_reg.counter("fault/injected").value();
  pt.retries = sys.metrics().counter("retry/attempts").value();
  pt.timeouts = sys.metrics().counter("nvme.ini/timeouts").value();
  pt.flush_fails = sys.metrics().counter("cache.ctl/flush_fails").value();
  if (p > 0) {
    // The injector counts into its own registry (it outlives no system);
    // fold its counters into the snapshot so the JSON is self-contained.
    sys.metrics().counter("fault/injected").add(pt.injected);
    sys.metrics().counter("fault/checks").add(
        fault_reg.counter("fault/checks").value());
    bench::emit_metrics_json(sys.metrics(), "chaos_recovery");
  }
  return pt;
}

// ---------------------------------------------------------------- crash

struct CrashPoint {
  int cached_pages = 0;  ///< cached pages at crash (one dirty mid-flush)
  core::DpcSystem::RestartReport rep;
};

/// One crash-restart measurement: populate `cached_pages` buffered pages,
/// halt the DPU mid-flush, and time restart_dpu().
CrashPoint run_crash(int cached_pages, std::uint64_t seed,
                     obs::Registry& summary) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(seed, &fault_reg);

  core::DpcOptions opts;
  opts.queues = 2;
  opts.queue_depth = 8;
  opts.max_io = 128 * 1024;
  opts.with_dfs = false;
  opts.fault = &fi;
  opts.nvme_retry.max_attempts = 4;
  core::DpcSystem sys(opts);

  const auto c = sys.create(kvfs::kRootIno, "sweepfile");
  DPC_CHECK(c.ok());
  std::vector<std::byte> page(4096, std::byte{0x5A});
  for (int p = 0; p < cached_pages; ++p) {
    const auto w = sys.write(c.ino, static_cast<std::uint64_t>(p) * 4096,
                             page, /*direct=*/false);
    DPC_CHECK(w.ok());
  }

  // Crash the DPU inside a flush pass: one more buffered write dirties a
  // page, then the fsync-driven flush writes it to the backend and dies
  // before marking it clean — restart finds it dirty in the rebuilt meta
  // area and re-flushes it (idempotent).
  fi.arm_crash(cache::kFaultFlushCrashBeforeClean, 0);
  (void)sys.write(c.ino, 0, page, /*direct=*/false);
  (void)sys.fsync(c.ino);
  DPC_CHECK(fi.crashed());

  CrashPoint pt;
  pt.cached_pages = cached_pages;
  pt.rep = sys.restart_dpu();
  DPC_CHECK(pt.rep.clean());

  summary.histogram("recovery/restart_ns").record(pt.rep.cost);
  summary.counter("crash_recovery/restarts").add();
  summary.counter("crash_recovery/fsck_repairs").add(pt.rep.fs.fsck.repairs);
  summary.counter("crash_recovery/rebuilt_pages").add(pt.rep.rebuilt_pages);
  summary.counter("crash_recovery/reflushed_pages")
      .add(static_cast<std::uint64_t>(pt.rep.reflushed_pages));
  summary.counter("crash_recovery/aborted_cids").add(pt.rep.aborted_cids);
  return pt;
}

// ---------------------------------------------------------------- scrub

struct ScrubPoint {
  int corrupted = 0;        ///< shards rotted at rest before the scrub
  int passes_to_detect = 0; ///< paced passes until the first detection
  int passes_to_fix = 0;    ///< paced passes until every rot is resolved
  double detect_us = 0;     ///< modelled scrub time to first detection
  double fix_us = 0;        ///< modelled scrub time to full repair
  double repair_mb_s = 0;   ///< repaired bytes over modelled fix time
  double steady_pass_us = 0;///< mean pass cost on clean media afterwards
  std::uint64_t detected = 0, repaired = 0, unrecoverable = 0;
};

/// One corruption-recovery measurement: an EC-striped DFS file, `rot`
/// shards bit-rotted at rest, then a rate-limited scrubber (32 items per
/// pass) sweeps until the books balance. Detection latency and repair
/// throughput come from the scrubber's own modelled pass costs.
ScrubPoint run_scrub(int rot, std::uint64_t seed, obs::Registry& summary) {
  obs::Registry reg;
  dfs::MdsCluster mds;
  dfs::DataServers ds(sim::calib::kDataServers, nullptr, &reg);
  dfs::DfsClient client(1, mds, ds, dfs::ClientConfig::optimized(), &reg);

  sim::Rng rng(seed ^ static_cast<std::uint64_t>(rot));
  std::vector<std::byte> data(1 << 20);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  const auto c = client.create("/scrub-sweep", data.size());
  DPC_CHECK(c.ok());
  DPC_CHECK(client.write(c.ino, 0, data).ok());

  auto all = ds.stored_shards();
  DPC_CHECK(static_cast<int>(all.size()) >= rot);
  // Rot `rot` distinct shards, rng-picked (deterministic per seed).
  for (int i = 0; i < rot; ++i) {
    const auto j = i + static_cast<int>(rng.next_below(
                           static_cast<std::uint32_t>(all.size()) -
                           static_cast<std::uint32_t>(i)));
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(j)]);
    const auto& id = all[static_cast<std::size_t>(i)];
    DPC_CHECK(ds.corrupt_shard(id.ino, id.stripe, id.role,
                               rng.next_below(1024)));
  }

  dpu::ScrubberConfig cfg;
  cfg.items_per_pass = 32;
  cfg.pace = sim::nanos(0);
  dpu::Scrubber scrub(cfg, reg);
  scrub.attach_dfs(&ds, &mds);

  const auto& pass_ns = reg.histogram("scrub/pass_ns");
  auto modelled_us = [&pass_ns] {
    return sim::Nanos{pass_ns.mean().ns *
                      static_cast<std::int64_t>(pass_ns.count())}
        .us();
  };

  ScrubPoint pt;
  pt.corrupted = rot;
  const std::uint64_t meta_unit = mds.find_meta(c.ino)->stripe_unit;
  for (int pass = 1; pass <= 100'000; ++pass) {
    scrub.scrub_pass(cfg.items_per_pass);
    const auto t = scrub.totals();
    if (pt.passes_to_detect == 0 && t.detected > 0) {
      pt.passes_to_detect = pass;
      pt.detect_us = modelled_us();
    }
    if (t.repaired + t.unrecoverable >=
        static_cast<std::uint64_t>(rot)) {
      pt.passes_to_fix = pass;
      pt.fix_us = modelled_us();
      break;
    }
  }
  const auto t = scrub.totals();
  pt.detected = t.detected;
  pt.repaired = t.repaired;
  pt.unrecoverable = t.unrecoverable;
  DPC_CHECK(t.detected == t.repaired + t.unrecoverable);
  if (pt.fix_us > 0)
    pt.repair_mb_s = static_cast<double>(pt.repaired) *
                     static_cast<double>(meta_unit) / (pt.fix_us * 1e-6) /
                     (1 << 20);

  // Steady state: the media is clean again; the residual pass cost is the
  // always-on scrub tax.
  const auto before_count = pass_ns.count();
  const auto before_us = modelled_us();
  for (int i = 0; i < 32; ++i) scrub.scrub_pass(cfg.items_per_pass);
  pt.steady_pass_us = (modelled_us() - before_us) /
                      static_cast<double>(pass_ns.count() - before_count);

  summary.counter("scrub/corrupted").add(static_cast<std::uint64_t>(rot));
  summary.counter("scrub/detected").add(t.detected);
  summary.counter("scrub/repaired").add(t.repaired);
  summary.counter("scrub/unrecoverable").add(t.unrecoverable);
  summary.counter("scrub/scanned").add(t.scanned);
  summary.histogram("scrub/detect_ns")
      .record(sim::Nanos{static_cast<std::int64_t>(pt.detect_us * 1e3)});
  summary.histogram("scrub/fix_ns")
      .record(sim::Nanos{static_cast<std::int64_t>(pt.fix_us * 1e3)});
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline(
      "Chaos recovery — goodput and latency vs injected fault rate",
      "bounded retries + backoff absorb low-rate faults with ~100% goodput; "
      "latency grows with rate (timeout + backoff charges); 0% = baseline");

  const std::uint64_t seed = fault::FaultInjector::seed_from_env(42);
  std::cout << "fault seed: " << seed << " (override with DPC_FAULT_SEED)\n\n";

  sim::Table t({"fault-rate%", "goodput%", "mean-cost(us)", "injected",
                "retries", "nvme-timeouts", "flush-fails"});
  for (const double p : {0.0, 0.01, 0.02, 0.05}) {
    const auto pt = run_rate(p, seed);
    t.add_row({sim::Table::fmt(pt.fail_pct, 0), sim::Table::fmt(pt.goodput_pct),
               sim::Table::fmt(pt.mean_cost_us),
               std::to_string(pt.injected), std::to_string(pt.retries),
               std::to_string(pt.timeouts), std::to_string(pt.flush_fails)});
  }
  bench::print_table(t, args);

  bench::headline(
      "Crash-restart recovery — latency vs. dirty pages",
      "restart = controller reset + fsck + cache rebuild; every KVFS "
      "mutation is one atomic batch, so no torn op is left to roll; "
      "re-flush scales with dirty pages");

  obs::Registry summary;
  sim::Table ct({"cached-pages", "fsck-repairs", "reflushed", "aborted-cids",
                 "recover(us)", "fsck(us)"});
  for (const int pages : {0, 32, 64, 128, 256}) {
    const auto pt = run_crash(pages, seed, summary);
    ct.add_row({std::to_string(pt.cached_pages),
                std::to_string(pt.rep.fs.fsck.repairs),
                std::to_string(pt.rep.reflushed_pages),
                std::to_string(pt.rep.aborted_cids),
                sim::Table::fmt(pt.rep.cost.us()),
                sim::Table::fmt(pt.rep.fs.fsck.cost.us())});
  }
  bench::print_table(ct, args);
  bench::emit_metrics_json(summary, "crash_recovery");

  bench::headline(
      "Corruption recovery — scrub detection latency and repair throughput",
      "a rate-limited scrubber (32 shards/pass) sweeps an EC-striped file "
      "with N shards bit-rotted at rest; detection latency and repair "
      "throughput are modelled scrub time; steady-pass = always-on tax. "
      "Invariant: detected == repaired + unrecoverable.");

  obs::Registry scrub_summary;
  sim::Table st({"corrupted", "detected", "repaired", "unrecov",
                 "detect(us)", "fix-all(us)", "repair(MB/s)",
                 "steady-pass(us)"});
  for (const int rot : {1, 4, 16, 64}) {
    const auto pt = run_scrub(rot, seed, scrub_summary);
    st.add_row({std::to_string(pt.corrupted), std::to_string(pt.detected),
                std::to_string(pt.repaired),
                std::to_string(pt.unrecoverable),
                sim::Table::fmt(pt.detect_us), sim::Table::fmt(pt.fix_us),
                sim::Table::fmt(pt.repair_mb_s),
                sim::Table::fmt(pt.steady_pass_us)});
  }
  bench::print_table(st, args);
  DPC_CHECK(scrub_summary.counter("scrub/detected").value() ==
            scrub_summary.counter("scrub/repaired").value() +
                scrub_summary.counter("scrub/unrecoverable").value());
  bench::emit_metrics_json(scrub_summary, "scrub_recovery");
  return 0;
}
