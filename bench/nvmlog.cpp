// NVM write-ahead durability bench: fsync tail latency with the log on
// (fsync acks at NVM persistence, pages drain in the background) versus
// off (every fsync takes the synchronous flush + KV barrier), over two
// workloads:
//
//   * fsync-heavy — one hot file, a 4 KiB buffered write + fsync per op,
//     the rotating 8-page working set keeping every fsync one dirty page;
//   * mail-spool  — create + 4 KiB write + fsync per message, the classic
//     durability-bound small-file pattern (the create itself is one atomic
//     KV batch; only the fsync'd page rides the log on the ON arm).
//
// A third scenario fills a deliberately tiny log to show the degradation
// ladder: ring-full appends return typed backpressure, fsync falls back
// to the synchronous path, and every op still acks — graceful, not wedged.
//
// Pump mode (no worker threads) with the opportunistic background drain
// disabled, so costs are pure modelled time and deterministic: every
// fsync meets its dirty page and the ON/OFF split isolates exactly the
// log-append vs synchronous-flush difference. Asserts p99(OFF) >= 5x
// p99(ON) for both workloads and emits BENCH_nvmlog.json for
// bench/regress (deterministic "nvmlog/…" counters + latency gauges).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dpc_system.hpp"
#include "nvm/wal.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

namespace {

using namespace dpc;

constexpr int kFsyncOps = 256;
constexpr int kMailMsgs = 128;
constexpr std::size_t kPage = 4096;

std::vector<std::byte> page_bytes(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(kPage);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

core::DpcOptions make_opts(bool wal_on) {
  core::DpcOptions opts;
  opts.queues = 1;
  opts.queue_depth = 8;
  opts.max_io = 128 * 1024;
  opts.cache_geo = {64, 8};
  // Disable the opportunistic background drain so each fsync meets its
  // dirty page — both arms, so the comparison isolates the ack path.
  opts.cache_ctl.evict_batch = 0;
  opts.with_dfs = false;
  opts.enable_nvm_wal = wal_on;
  return opts;
}

struct ArmResult {
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t fast_acks = 0;
  std::uint64_t fallbacks = 0;
};

ArmResult finish_arm(core::DpcSystem& sys, std::vector<std::int64_t>& lat) {
  ArmResult r;
  r.p50_ns = sim::quantile(lat, 0.50);
  r.p99_ns = sim::quantile(lat, 0.99);
  r.wal_appends = sys.metrics().counter("wal/appends").value();
  r.fast_acks = sys.dispatch_stats().wal_fast_acks.load();
  r.fallbacks = sys.dispatch_stats().wal_fallbacks.load();
  return r;
}

/// One hot file, hot-page rewrite: write 4 KiB at offset 0, fsync, repeat.
/// Each round leaves exactly one fresh dirty page — the ON arm re-logs its
/// new bytes to NVM, the OFF arm re-flushes them through the KV write +
/// barrier, so the split isolates the per-fsync ack path.
ArmResult run_fsync_heavy(bool wal_on) {
  core::DpcSystem sys(make_opts(wal_on));
  const auto ino = sys.create(kvfs::kRootIno, "hot").ino;
  DPC_CHECK_MSG(ino != 0, "create failed in fsync-heavy arm");
  std::vector<std::int64_t> lat;
  lat.reserve(kFsyncOps);
  for (int i = 0; i < kFsyncOps; ++i) {
    const auto data = page_bytes(100 + static_cast<unsigned>(i));
    DPC_CHECK_MSG(sys.write(ino, 0, data).ok(), "write " << i);
    const auto f = sys.fsync(ino);
    DPC_CHECK_MSG(f.ok(), "fsync " << i << " err " << f.err);
    lat.push_back(f.cost.ns);
  }
  return finish_arm(sys, lat);
}

/// Mail-spool: each message is create + one-page write + fsync.
ArmResult run_mail_spool(bool wal_on) {
  core::DpcSystem sys(make_opts(wal_on));
  const auto spool = sys.mkdir(kvfs::kRootIno, "spool").ino;
  DPC_CHECK_MSG(spool != 0, "mkdir failed in mail-spool arm");
  std::vector<std::int64_t> lat;
  lat.reserve(kMailMsgs);
  for (int i = 0; i < kMailMsgs; ++i) {
    const auto ino = sys.create(spool, "m" + std::to_string(i)).ino;
    DPC_CHECK_MSG(ino != 0, "create m" << i);
    const auto data = page_bytes(9000 + static_cast<unsigned>(i));
    DPC_CHECK_MSG(sys.write(ino, 0, data).ok(), "write m" << i);
    const auto f = sys.fsync(ino);
    DPC_CHECK_MSG(f.ok(), "fsync m" << i << " err " << f.err);
    lat.push_back(f.cost.ns);
  }
  return finish_arm(sys, lat);
}

struct DegradeResult {
  std::uint64_t ring_full = 0;
  std::uint64_t fallbacks = 0;
  bool all_served = true;
};

/// Degradation ladder: a log too small for the burst. Appends hit typed
/// ring-full backpressure, fsync falls back synchronously, nothing wedges.
DegradeResult run_ring_full() {
  auto opts = make_opts(true);
  opts.nvm_log_bytes = 24 * 1024;  // a couple of page frames at most
  core::DpcSystem sys(opts);
  const auto ino = sys.create(kvfs::kRootIno, "burst").ino;
  DPC_CHECK_MSG(ino != 0, "create failed in ring-full arm");
  DegradeResult r;
  for (int i = 0; i < 16; ++i) {
    const auto data = page_bytes(7000 + static_cast<unsigned>(i));
    const auto off = static_cast<std::uint64_t>(i) * kPage;
    if (!sys.write(ino, off, data).ok() || !sys.fsync(ino).ok())
      r.all_served = false;
  }
  r.ring_full = sys.metrics().counter("wal/ring_full").value();
  r.fallbacks = sys.dispatch_stats().wal_fallbacks.load();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline("NVM write-ahead durability tier",
                  "fsync acks at NVM persistence — log-append fast path "
                  "vs synchronous flush + KV barrier");

  const ArmResult heavy_on = run_fsync_heavy(true);
  const ArmResult heavy_off = run_fsync_heavy(false);
  const ArmResult mail_on = run_mail_spool(true);
  const ArmResult mail_off = run_mail_spool(false);
  const DegradeResult degrade = run_ring_full();

  const auto speedup = [](const ArmResult& off, const ArmResult& on) {
    return static_cast<double>(off.p99_ns) /
           static_cast<double>(std::max<std::int64_t>(1, on.p99_ns));
  };

  sim::Table t({"arm", "fsync p50 (us)", "fsync p99 (us)", "p99 off/on",
                "wal appends", "fast acks", "fallbacks"});
  const auto row = [&](const char* name, const ArmResult& a, double ratio) {
    t.add_row({name, sim::Table::fmt(a.p50_ns / 1000.0),
               sim::Table::fmt(a.p99_ns / 1000.0),
               ratio > 0 ? sim::Table::fmt(ratio) : std::string("-"),
               std::to_string(a.wal_appends), std::to_string(a.fast_acks),
               std::to_string(a.fallbacks)});
  };
  row("fsync-heavy, WAL on", heavy_on, 0);
  row("fsync-heavy, WAL off", heavy_off, speedup(heavy_off, heavy_on));
  row("mail-spool, WAL on", mail_on, 0);
  row("mail-spool, WAL off", mail_off, speedup(mail_off, mail_on));
  bench::print_table(t, args);
  std::cout << "ring-full degradation: served="
            << (degrade.all_served ? "all" : "DROPPED") << " ring_full="
            << degrade.ring_full << " fallbacks=" << degrade.fallbacks
            << "\n";

  // Machine-readable trail. Pump mode + modelled time: every counter is
  // deterministic, so bench/regress gates on them exactly.
  obs::Registry reg;
  reg.counter("nvmlog/fsync_heavy_ops").add(kFsyncOps);
  reg.counter("nvmlog/mail_msgs").add(kMailMsgs);
  reg.counter("nvmlog/wal_appends_heavy").add(heavy_on.wal_appends);
  reg.counter("nvmlog/wal_appends_mail").add(mail_on.wal_appends);
  reg.counter("nvmlog/fast_acks_heavy").add(heavy_on.fast_acks);
  reg.counter("nvmlog/fast_acks_mail").add(mail_on.fast_acks);
  reg.counter("nvmlog/ring_full_events").add(degrade.ring_full);
  reg.counter("nvmlog/ring_full_fallbacks").add(degrade.fallbacks);
  reg.gauge("nvmlog/heavy_on_p99_ns").set(heavy_on.p99_ns);
  reg.gauge("nvmlog/heavy_off_p99_ns").set(heavy_off.p99_ns);
  reg.gauge("nvmlog/mail_on_p99_ns").set(mail_on.p99_ns);
  reg.gauge("nvmlog/mail_off_p99_ns").set(mail_off.p99_ns);
  reg.gauge("nvmlog/heavy_speedup_x100")
      .set(static_cast<std::int64_t>(speedup(heavy_off, heavy_on) * 100));
  reg.gauge("nvmlog/mail_speedup_x100")
      .set(static_cast<std::int64_t>(speedup(mail_off, mail_on) * 100));
  bench::emit_metrics_json(reg, "nvmlog");

  // Acceptance bounds (ISSUE 8): the log must buy >= 5x on fsync p99, the
  // ON arms must actually take the fast path, and ring-full pressure must
  // degrade gracefully — typed backpressure, fallback acks, no wedge.
  DPC_CHECK_MSG(speedup(heavy_off, heavy_on) >= 5.0,
                "fsync-heavy: WAL buys only "
                    << speedup(heavy_off, heavy_on) << "x p99 ("
                    << heavy_on.p99_ns << "ns on vs " << heavy_off.p99_ns
                    << "ns off)");
  DPC_CHECK_MSG(speedup(mail_off, mail_on) >= 5.0,
                "mail-spool: WAL buys only "
                    << speedup(mail_off, mail_on) << "x p99 ("
                    << mail_on.p99_ns << "ns on vs " << mail_off.p99_ns
                    << "ns off)");
  DPC_CHECK_MSG(heavy_on.fast_acks >= static_cast<std::uint64_t>(kFsyncOps),
                "fsync-heavy ON arm took only " << heavy_on.fast_acks
                                                << " fast acks");
  DPC_CHECK_MSG(heavy_off.fast_acks == 0 && heavy_off.wal_appends == 0,
                "WAL-off arm touched the log");
  DPC_CHECK_MSG(degrade.all_served, "ring-full scenario dropped an op");
  DPC_CHECK_MSG(degrade.ring_full >= 1 && degrade.fallbacks >= 1,
                "tiny log never hit ring-full backpressure (ring_full="
                    << degrade.ring_full << ", fallbacks="
                    << degrade.fallbacks << ")");
  std::cout << "nvm log bench: PASS\n";
  return 0;
}
