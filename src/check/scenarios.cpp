#include "check/scenarios.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/backend.hpp"
#include "cache/control_plane.hpp"
#include "cache/host_plane.hpp"
#include "cache/layout.hpp"
#include "core/dpc_system.hpp"
#include "dpu/qos.hpp"
#include "fault/injector.hpp"
#include "kv/kv_store.hpp"
#include "kvfs/kvfs.hpp"
#include "nvm/device.hpp"
#include "nvm/wal.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/tgt.hpp"
#include "obs/metrics.hpp"
#include "pcie/dma.hpp"
#include "sim/schedhook.hpp"

namespace dpc::check {
namespace {

std::vector<std::byte> fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// ---------------------------------------------------------------------------
// seqlock_entry — one writer overwriting a cached page (pattern A → B), one
// lock-free reader. The seqlock contract: the reader either retries or sees
// a fully-A / fully-B page, never a mix. Mutation `cache-seq-publish` moves
// the odd→even sequence publish *before* the page copy, so a reader can
// validate a torn page.

void scenario_seqlock_entry(ModelSched& sched) {
  pcie::MemoryRegion host("host", 1 << 20);
  pcie::RegionAllocator alloc(host);
  cache::CacheLayout layout({8, 2}, alloc);
  cache::HostCachePlane plane(host, layout);

  const auto a = fill(4096, 0xAA);
  const auto b = fill(4096, 0xBB);
  sched.require(plane.write(1, 0, a) == cache::HostCachePlane::WriteResult::kOk,
                "seqlock_entry: seed write failed");

  bool torn = false;
  bool read_ok = false;
  sched.spawn([&] { (void)plane.write(1, 0, b); });
  sched.spawn([&] {
    std::vector<std::byte> out(4096);
    read_ok = plane.read(1, 0, out);
    if (read_ok) {
      const bool all_a =
          std::all_of(out.begin(), out.end(),
                      [](std::byte x) { return x == std::byte{0xAA}; });
      const bool all_b =
          std::all_of(out.begin(), out.end(),
                      [](std::byte x) { return x == std::byte{0xBB}; });
      torn = !all_a && !all_b;
    }
  });
  sched.run();

  sched.require(read_ok, "seqlock_entry: reader missed a resident page");
  sched.require(!torn,
                "seqlock reader observed a torn page: the odd/even sequence "
                "brackets failed to invalidate a mid-copy snapshot");
}

// ---------------------------------------------------------------------------
// wal_append — two appends racing a modelled power cut. After the cut the
// driver enumerates every surviving subset of the unfenced cache-line
// writes (NvmDevice persist tracking) and replays recovery on each.
// Invariants: an acked append is always recovered, and the scan never sees
// a nonzero commit word whose payload mismatches — a power cut lands on the
// commit store *last*, so that state can only exist if the commit word
// became durable before its payload. Mutation `wal-commit-order` deletes
// the payload persist fence, creating exactly that state.

void scenario_wal_append(ModelSched& sched) {
  obs::Registry reg;
  nvm::NvmDevice dev(64 << 10, nullptr, &reg);
  nvm::WriteAheadLog wal(dev, reg);
  dev.set_persist_tracking(true);

  // 128-byte payloads: the frame (20B header + payload + 4B commit) spans
  // three-plus cache lines, so a middle payload line can stay volatile
  // independently of the header and commit lines.
  const auto p1 = fill(128, 0x11);
  const auto p2 = fill(128, 0x22);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> acked;

  sched.spawn([&] {
    sim::Nanos c{};
    if (wal.append_data(7, 1, p1, c) == nvm::AppendStatus::kOk)
      acked.emplace_back(7, 1);
    if (wal.append_data(7, 2, p2, c) == nvm::AppendStatus::kOk)
      acked.emplace_back(7, 2);
  });
  sched.spawn([&] { sched.power_cut(); });
  sched.run();

  // Crash semantics: any subset of the still-volatile line writes may have
  // drained before power died. The subset is a recorded choice, so DFS
  // enumerates them and a replay reproduces the exact one.
  const auto bits =
      static_cast<std::uint32_t>(std::min<std::size_t>(dev.volatile_writes(), 6));
  const std::uint32_t keep = sched.choose(1u << bits);
  dev.drop_volatile(keep);
  dev.set_persist_tracking(false);

  nvm::WriteAheadLog wal2(dev, reg);
  const auto rec = wal2.recover();
  sched.require(rec.report.commit_mismatch_nonzero == 0,
                "WAL commit record became durable before its payload: the "
                "scan found a nonzero commit word over a mismatching frame");
  for (const auto& [ino, lpn] : acked) {
    sched.require(wal2.has_pending(ino, lpn),
                  "acked WAL append lost across the power cut");
  }
}

// ---------------------------------------------------------------------------
// wal_fsync_flush — the fsync fast path (append_data) racing the background
// flusher's checkpoint probe (maybe_checkpoint). The checkpoint must never
// advance the header over a logged-but-undrained page; if it does, a
// restart silently forgets an acked fsync. Mutation `wal-early-checkpoint`
// removes the nothing-live guard.

void scenario_wal_fsync_flush(ModelSched& sched) {
  obs::Registry reg;
  nvm::NvmDevice dev(64 << 10, nullptr, &reg);
  nvm::WriteAheadLog wal(dev, reg);

  const auto page = fill(64, 0x5C);
  bool acked = false;
  sched.spawn([&] {
    sim::Nanos c{};
    acked = wal.append_data(3, 9, page, c) == nvm::AppendStatus::kOk;
  });
  sched.spawn([&] {
    sim::Nanos c{};
    wal.maybe_checkpoint(c);
  });
  sched.run();

  // Power-cycle: a fresh WAL instance over the same device must still
  // replay the acked page in every interleaving of append vs checkpoint.
  nvm::WriteAheadLog wal2(dev, reg);
  (void)wal2.recover();
  sched.require(acked, "wal_fsync_flush: append failed outright");
  sched.require(wal2.has_pending(3, 9),
                "checkpoint advanced over an undrained page: an acked fsync "
                "would be forgotten by the next restart");
}

// ---------------------------------------------------------------------------
// sq_submit_abort — one submitter and one TGT pump over a depth-4 queue
// pair. Phase 1: a single submit must complete with its own payload-derived
// result. Phase 2: three submits fill the queue, every completion accounted
// for exactly once. Phase 3: abort vs the in-flight CQE — whichever wins, the
// recorded completion for that cid must never be clobbered afterwards, and
// the reclaimed cid must carry the *next* command's result untainted.
// Mutation `doorbell-publish` rings the doorbell before the SQE store, so
// the TGT can fetch a stale SQE — observable as a deadlock (the real
// command is never fetched) or as a completion for a command nobody
// submitted.

void scenario_sq_submit_abort(ModelSched& sched) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);

  nvme::QpConfig qc;
  qc.depth = 4;
  qc.max_write = 4096;
  qc.max_read = 4096;
  nvme::QueuePair qp(qc, halloc, dalloc);
  nvme::IniDriver ini(dma, qp);
  // Handler result = offset + 1000: each completion names the command it
  // belongs to, so cross-wiring cids is directly visible.
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd& cmd, std::span<const std::byte>,
                         std::span<std::byte>) {
                        nvme::HandlerResult r;
                        r.result = static_cast<std::uint32_t>(cmd.offset + 1000);
                        return r;
                      });

  std::atomic<bool> done{false};
  auto req = [](std::uint64_t off) {
    nvme::IniDriver::Request r(/*tenant=*/0);  // single-tenant scenario
    r.inode = 42;
    r.offset = off;
    return r;
  };

  sched.spawn([&] {  // TGT pump
    while (!done.load(std::memory_order_acquire)) {
      // Pass only when the doorbell shows work: an idle pass is a decision
      // point, so idling through passes would read as progress and keep a
      // stuck submitter from ever parking. Re-check `done` right before
      // blocking: there is no yield point between the check and spin(), so
      // the submitter cannot finish in the gap and strand this thread in a
      // false deadlock.
      if ((!tgt.has_work() || tgt.process_available().processed == 0) &&
          !done.load(std::memory_order_acquire)) {
        sim::schedhook::spin("check.tgt_idle");
      }
    }
  });

  sched.spawn([&] {  // submitter
    // Phase 1: single command.
    const auto s0 = ini.submit(req(5));
    const auto c0 = ini.wait(s0.cid);
    sched.require(c0.status == nvme::Status::kSuccess && c0.result == 1005,
                  "single submit completed with the wrong command's result");
    ini.release(s0.cid);

    // Phase 2: fill the queue (3 usable cids on a depth-4 queue) with
    // three submits before reaping any of them.
    std::array<std::uint16_t, 3> cids{};
    for (std::uint64_t i = 0; i < cids.size(); ++i)
      cids[i] = ini.submit(req(10 + i)).cid;
    std::vector<std::uint32_t> got;
    for (const std::uint16_t cid : cids) {
      const auto c = ini.wait(cid);
      sched.require(c.status == nvme::Status::kSuccess,
                    "queue-filling submit completed with an error status");
      got.push_back(c.result);
      ini.release(cid);
    }
    std::sort(got.begin(), got.end());
    sched.require(got == std::vector<std::uint32_t>({1010, 1011, 1012}),
                  "full queue: completions lost, duplicated or cross-wired "
                  "across cids");

    // Phase 3: abort racing the CQE, then cid reuse.
    const auto sp = ini.submit(req(77));
    const auto ab = ini.abort(sp.cid);
    // Quiesce: let any in-flight processing finish and drain the CQ, then
    // the recorded completion must be exactly what abort() returned — a
    // late CQE is counted, never clobbers.
    while (tgt.has_work()) sim::schedhook::spin("check.quiesce");
    (void)ini.poll();
    const auto after = ini.try_take(sp.cid);
    sched.require(after.has_value() && after->status == ab.status &&
                      after->result == ab.result,
                  "a late CQE clobbered an aborted cid's recorded completion");
    ini.release(sp.cid);

    const auto s2 = ini.submit(req(88));
    const auto c2 = ini.wait(s2.cid);
    sched.require(c2.status == nvme::Status::kSuccess && c2.result == 1088,
                  "reclaimed cid delivered a stale command's completion");
    ini.release(s2.cid);

    done.store(true, std::memory_order_release);
  });
  sched.run();

  // Nothing in flight, and no orphan completion recorded for any free cid
  // (a stale-SQE fetch completes a command nobody submitted).
  sched.require(ini.inflight() == 0, "cids leaked across the scenario");
  for (std::uint16_t cid = 0; cid + 1 < qp.depth(); ++cid) {
    sched.require(!ini.try_take(cid).has_value(),
                  "completion recorded for a cid nobody has in flight");
  }
}

// ---------------------------------------------------------------------------
// drr_dispatch — admission/dispatch ordering of the per-tenant QoS
// scheduler. Strict class priority: pop() never returns best-effort work
// while a guaranteed tenant has staged commands, regardless of arrival
// order (a recorded choice). Mutation `drr-class-order` inverts the class
// selection.

void scenario_drr_dispatch(ModelSched& sched) {
  obs::Registry reg;
  dpu::QosConfig cfg;
  cfg.enabled = true;
  cfg.tenants[0].cls = dpu::TenantClass::kGuaranteed;
  cfg.tenants[0].weight = 4;
  cfg.tenants[1].cls = dpu::TenantClass::kBestEffort;
  cfg.tenants[1].weight = 1;
  dpu::QosManager qos(cfg, reg);
  dpu::DrrScheduler drr(&qos);

  auto stage = [&](nvme::TenantId t) {
    dpu::StagedCmd c;
    c.tenant = t;
    c.charge = 4096;
    drr.push(c);
  };
  // Arrival order is the nondeterminism here (the DRR is single-consumer
  // by contract, so there is no thread interleaving to explore).
  const std::uint32_t order = sched.choose(2);
  for (int i = 0; i < 3; ++i) {
    if (order == 0) {
      stage(1);
      stage(0);
    } else {
      stage(0);
      stage(1);
    }
  }

  bool seen_lower_class = false;
  for (int i = 0; i < 6; ++i) {
    const auto cmd = drr.pop();
    sched.require(cmd.has_value(), "DRR lost a staged command");
    const bool guaranteed =
        qos.cls(cmd->tenant) == dpu::TenantClass::kGuaranteed;
    sched.require(!(guaranteed && seen_lower_class),
                  "DRR dispatched best-effort work while guaranteed "
                  "commands were staged");
    if (!guaranteed) seen_lower_class = true;
  }
  sched.require(!drr.pop().has_value(), "DRR queue not drained");
  sched.run();
}

// ---------------------------------------------------------------------------
// restart_vs_pump — a pump-mode client call racing restart_dpu(). The
// restart freezes every pump lock before rewinding the queues, so a caller
// mid-pump either finishes against the old state or blocks until the
// rewound queues are consistent; its in-flight command is synthesize-
// aborted and the retry loop resubmits. Mutation `restart-no-freeze` drops
// the freeze: a pump caller can then interleave with the TGT rewind and
// the KVFS recovery — observable as a stale-SQE re-execution (late-CQE
// counter), a failed op, lost acked data, or — most directly — the
// core/pump_conflicts witness: pump() counting an entry inside the restart
// window, which the real freeze makes impossible.

void scenario_restart_vs_pump(ModelSched& sched) {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.max_io = 64 * 1024;
  o.cache_geo = {16, 4};
  o.with_dfs = false;
  o.dpu_workers = 0;  // pump mode: callers service the TGT inline
  o.nvme_retry.max_attempts = 8;
  core::DpcSystem sys(o);

  const auto ino = sys.create(kvfs::kRootIno, "f").ino;
  sched.require(ino != 0, "restart_vs_pump: create failed");
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>((i * 7 + 1) & 0xFF);

  core::Io wr{};
  sched.spawn([&] { wr = sys.write(ino, 0, data, /*direct=*/true); });
  sched.spawn([&] { (void)sys.restart_dpu(); });
  // A bare pump-mode poller with a short schedule: its pump_mu_ acquisition
  // is a yield point right up against the restart window, so the checker
  // finds the freeze breach without threading it through a full write path.
  sched.spawn([&] {
    for (int i = 0; i < 8; ++i) (void)sys.pump_for_test(0);
  });
  sched.run();

  sched.require(wr.ok(),
                "pump-mode write failed across restart_dpu despite retries");
  std::vector<std::byte> out(data.size());
  const auto rd = sys.read(ino, 0, out, /*direct=*/true);
  sched.require(rd.ok() && out == data,
                "acked direct write lost or corrupted across restart_dpu");
  sched.require(sys.metrics().counter("nvme.ini/late_cqes").value() == 0,
                "a stale SQE was re-executed across the restart (late CQE "
                "posted for an already-recorded cid)");
  // The freeze's own contract, independent of data outcomes: the retry loop
  // is good enough at absorbing aborts that a pump slipping inside the
  // restart window often still converges to correct bytes. The counter sees
  // the mutual-exclusion breach directly.
  sched.require(sys.metrics().counter("core/pump_conflicts").value() == 0,
                "a pump-mode caller ran inside the restart freeze window "
                "(the all-queue pump freeze was not held)");
}

// ---------------------------------------------------------------------------
// writethrough_vs_prefetch — a buffered write that finds its cache bucket
// full falls through to a write-through command, racing a DPU prefetch of
// the same page. If the prefetch reads the backend before the write lands
// there, it publishes the old bytes as a clean page; the write-through then
// invalidates the cached copy, so a later buffered read misses and fetches
// the new bytes. Mutation `writethrough-invalidate` skips that
// invalidation: the read then hits the stale prefetched page.

void scenario_writethrough_vs_prefetch(ModelSched& sched) {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.max_io = 64 * 1024;
  // One bucket of two entries: two clean pages fill it, so a buffered write
  // of a third page finds no free entry.
  o.cache_geo = {2, 1};
  // No reclaim: neither to a low-water mark the two-page cache would always
  // be under, nor on the writer's need-evict flag. A prefetched page then
  // survives to the final read, as it does whenever the evictor's victims
  // are other pages.
  o.cache_ctl.evict_low_water = 0;
  o.cache_ctl.evict_batch = 0;
  o.with_dfs = false;
  o.dpu_workers = 0;  // pump mode: the writer services the TGT inline
  core::DpcSystem sys(o);

  const auto ino = sys.create(kvfs::kRootIno, "f").ino;
  sched.require(ino != 0, "writethrough_vs_prefetch: create failed");
  constexpr std::uint64_t kPage = 4096;
  const auto old_bytes = fill(3 * kPage, 0x11);
  sched.require(sys.write(ino, 0, old_bytes, /*direct=*/true).ok(),
                "writethrough_vs_prefetch: seed write failed");
  // Non-adjacent misses cache pages 0 and 2 clean without starting a
  // sequential stream, so no prefetch runs before the race.
  std::vector<std::byte> page(kPage);
  for (const std::uint64_t lpn : {0, 2})
    sched.require(sys.read(ino, lpn * kPage, page).ok(),
                  "writethrough_vs_prefetch: warm-up read failed");

  const auto new_bytes = fill(kPage, 0x22);
  core::Io wr{};
  sched.spawn([&] { wr = sys.write(ino, kPage, new_bytes); });
  // The control plane's readahead, reduced to its action on page 1.
  sched.spawn([&] { (void)sys.cache_control()->prefetch(ino, 1, 1); });
  sched.run();

  sched.require(wr.ok(), "writethrough_vs_prefetch: buffered write failed");
  const auto rd = sys.read(ino, kPage, page);
  sched.require(rd.ok() && page == new_bytes,
                "a buffered read returned bytes older than an acked write: "
                "a prefetched page survived the write-through it raced");
}

// ---------------------------------------------------------------------------
// idle_pass_loss — a worker-mode caller (it yields, never pumps) waiting on
// a TGT that a separate thread drives pass by pass, as a DPU worker does.
// The fault injector drops the first command's CQE. The caller declares a
// command lost only after two idle TGT passes since its doorbell: the drop
// is detected and the retry succeeds, and a live command is never aborted
// however long the schedule holds the TGT back — so "timeouts" counts the
// drop alone and no CQE lands on a reclaimed cid. Mutation
// `loss-one-idle-pass` declares loss after one idle pass, which a pass that
// checked for work just before the doorbell can supply.

void scenario_idle_pass_loss(ModelSched& sched) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(1, &fault_reg);
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 4;
  o.max_io = 16 * 1024;
  o.enable_cache = false;
  o.with_dfs = false;
  o.fault = &fi;
  core::DpcSystem sys(o);

  const auto ino = sys.create(kvfs::kRootIno, "f").ino;
  sched.require(ino != 0, "idle_pass_loss: create failed");
  const auto data = fill(4096, 0x3C);
  obs::Counter& dropped = sys.metrics().counter("nvme.tgt/dropped_cqes");
  fi.arm(nvme::kFaultTgtDropCqe, 1.0);
  sys.hand_tgts_to_test();

  std::atomic<bool> done{false};
  core::Io wr{};
  sched.spawn([&] {  // worker-mode caller
    wr = sys.write(ino, 0, data, /*direct=*/true);
    done.store(true, std::memory_order_release);
  });
  sched.spawn([&] {  // the DPU worker's TGT poller
    while (!done.load(std::memory_order_acquire)) {
      const int n = sys.pump_for_test(0);
      if (dropped.value() > 0) fi.disarm(nvme::kFaultTgtDropCqe);
      if (n == 0 && !done.load(std::memory_order_acquire))
        sim::schedhook::spin("check.tgt_idle");
    }
  });
  sched.run();
  sys.stop_dpu();

  sched.require(dropped.value() == 1,
                "idle_pass_loss: the first command's CQE was not dropped");
  sched.require(wr.ok(), "a dropped CQE was not recovered by the retry");
  sched.require(sys.metrics().counter("nvme.ini/timeouts").value() == 1,
                "a live command was declared lost: the caller aborted a "
                "command the TGT had not yet consumed");
  sched.require(sys.metrics().counter("nvme.ini/late_cqes").value() == 0,
                "a CQE arrived for a cid the caller had already reclaimed");
  std::vector<std::byte> out(data.size());
  sched.require(sys.read(ino, 0, out, /*direct=*/true).ok() && out == data,
                "idle_pass_loss: the retried write is not readable");
}

// ---------------------------------------------------------------------------
// dirty_publish — a host buffered write that turns a clean page dirty races
// a DPU flush pass, whose bitmap drain can land between the host's dirty
// mark and its dirty bit; then the fsync fast path logs the inode. The page
// must end up flushed with its final bytes or logged: a dirty page is never
// missing from both the host's dirty bitmap and the DPU's dirty index.
// Mutation `dirty-publish-order` sets the bit before the dirty mark, so a
// drain in between probes a page that is not dirty yet and forgets it.

/// Backend of flushed pages, for the cache control plane.
class PageMapBackend final : public cache::CacheBackend {
 public:
  bool read_page(std::uint64_t, std::uint64_t, std::span<std::byte>,
                 sim::Nanos&) override {
    return false;
  }
  bool write_page(std::uint64_t inode, std::uint64_t lpn,
                  std::span<const std::byte> src, sim::Nanos&) override {
    pages[{inode, lpn}].assign(src.begin(), src.end());
    return true;
  }
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::byte>>
      pages;
};

void scenario_dirty_publish(ModelSched& sched) {
  pcie::MemoryRegion host("host", 1 << 20);
  pcie::RegionAllocator alloc(host);
  pcie::MemoryRegion dpu("dpu", 64 << 10);
  pcie::DmaEngine dma(host, dpu);
  cache::CacheLayout layout({8, 2}, alloc);
  cache::HostCachePlane plane(host, layout);
  PageMapBackend backend;
  obs::Registry reg;
  nvm::NvmDevice dev(64 << 10, nullptr, &reg);
  nvm::WriteAheadLog wal(dev, reg);
  cache::DpuCacheControl ctl(dma, layout, backend, {}, &reg);
  ctl.attach_wal(&wal);

  // Seed: the page is cached and clean, so the racing write is a
  // clean→dirty transition.
  const auto a = fill(4096, 0xA1);
  const auto b = fill(4096, 0xB2);
  sched.require(plane.write(5, 0, a) == cache::HostCachePlane::WriteResult::kOk,
                "dirty_publish: seed write failed");
  sched.require(ctl.flush_pass().pages == 1,
                "dirty_publish: seed flush failed");

  sched.spawn([&] { (void)plane.write(5, 0, b); });
  sched.spawn([&] { (void)ctl.flush_pass(); });
  sched.run();

  const auto logged = ctl.wal_log_pass(5);
  sched.require(logged.complete, "dirty_publish: the WAL pass was incomplete");
  const auto flushed = backend.pages.find({5, 0});
  sched.require(
      (flushed != backend.pages.end() && flushed->second == b) ||
          wal.has_pending(5, 0),
      "a dirty page was neither flushed nor logged: it was missing from both "
      "the dirty bitmap and the DPU's dirty index");
}

// ---------------------------------------------------------------------------
// batch_atomic — one KvStore::apply over keys on both shards of a two-shard
// store races two readers: a scan_prefix (every shard under its shared lock
// at once) and a get of each key in turn. Each must see the whole batch or
// none of it; for the gets, once one key reads new, every later one must
// too. Mutation `batch-per-shard-commit` locks and applies one shard at a
// time, so a reader between the two shards sees half the batch.

void scenario_batch_atomic(ModelSched& sched) {
  kv::KvStore store(2);
  // Eight keys: the hash spreads them over both shards (were they ever all
  // on one, the mutation sweep would report the checker blind).
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));
  const auto old_v = fill(16, 0xA0);
  const auto new_v = fill(16, 0xB0);
  for (const auto& k : keys) store.put(k, old_v);
  kv::Batch batch;
  for (const auto& k : keys) batch.put(k, new_v, kv::Batch::Guard::kPresent);

  bool applied = false;
  int scan_old = 0;
  int scan_new = 0;
  bool gets_regressed = false;
  sched.spawn([&] { applied = store.apply(batch).applied(); });
  sched.spawn([&] {
    store.scan_prefix("k", [&](std::string_view, const kv::Bytes& v) {
      ++(v == new_v ? scan_new : scan_old);
      return true;
    });
  });
  sched.spawn([&] {
    bool seen_new = false;
    for (const auto& k : keys) {
      const bool is_new = store.get(k) == new_v;
      gets_regressed = gets_regressed || (seen_new && !is_new);
      seen_new = seen_new || is_new;
    }
  });
  sched.run();

  sched.require(applied, "batch_atomic: the guarded batch did not apply");
  sched.require(scan_old == 0 || scan_new == 0,
                "a scan saw half of an atomic KV batch: the batch was "
                "applied shard by shard");
  sched.require(!gets_regressed,
                "a get read an old value after another get read the batch's "
                "new one: the batch became visible shard by shard");
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"seqlock_entry",
       "lock-free cache read vs writer: seqlock brackets reject torn pages",
       "cache-seq-publish", /*exhaustive=*/true, /*max_steps=*/4000,
       /*max_schedules=*/2'000'000, /*mutate_seeds=*/64,
       scenario_seqlock_entry},
      {"wal_append",
       "WAL appends vs power cut: acked data survives every line subset",
       "wal-commit-order", /*exhaustive=*/true, /*max_steps=*/4000,
       /*max_schedules=*/2'000'000, /*mutate_seeds=*/64, scenario_wal_append},
      {"wal_fsync_flush",
       "fsync fast path vs checkpoint probe: no header advance over live data",
       "wal-early-checkpoint", /*exhaustive=*/true, /*max_steps=*/4000,
       /*max_schedules=*/2'000'000, /*mutate_seeds=*/64,
       scenario_wal_fsync_flush},
      {"sq_submit_abort",
       "SQ submit + abort vs TGT pump: no clobbered or orphan cids",
       "doorbell-publish", /*exhaustive=*/false, /*max_steps=*/20000,
       /*max_schedules=*/0, /*mutate_seeds=*/64, scenario_sq_submit_abort},
      {"drr_dispatch",
       "QoS DRR dispatch: strict class priority over every arrival order",
       "drr-class-order", /*exhaustive=*/true, /*max_steps=*/4000,
       /*max_schedules=*/2'000'000, /*mutate_seeds=*/16, scenario_drr_dispatch},
      {"restart_vs_pump",
       "restart_dpu vs pump-mode callers: freeze isolates the queue rewind",
       "restart-no-freeze", /*exhaustive=*/false, /*max_steps=*/200000,
       /*max_schedules=*/0, /*mutate_seeds=*/128, scenario_restart_vs_pump},
      {"writethrough_vs_prefetch",
       "buffered write-through vs DPU prefetch: no stale page stays cached",
       "writethrough-invalidate", /*exhaustive=*/false, /*max_steps=*/200000,
       /*max_schedules=*/0, /*mutate_seeds=*/32,
       scenario_writethrough_vs_prefetch},
      {"idle_pass_loss",
       "worker-mode loss detection: only two idle TGT passes declare loss",
       "loss-one-idle-pass", /*exhaustive=*/false, /*max_steps=*/200000,
       /*max_schedules=*/0, /*mutate_seeds=*/32, scenario_idle_pass_loss},
      {"dirty_publish",
       "host dirty mark + bit vs DPU bitmap drain: no dirty page is lost",
       "dirty-publish-order", /*exhaustive=*/false, /*max_steps=*/20000,
       /*max_schedules=*/0, /*mutate_seeds=*/64, scenario_dirty_publish},
      {"batch_atomic",
       "KV batch apply vs get/scan readers: all of a batch or none",
       "batch-per-shard-commit", /*exhaustive=*/false, /*max_steps=*/20000,
       /*max_schedules=*/0, /*mutate_seeds=*/64, scenario_batch_atomic},
  };
  return kScenarios;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace dpc::check
