// NVM write-ahead log: frame format and scan (torn tail, rot, residue),
// checkpoint truncation, the bounded-ring backpressure ladder, and the
// system-level durability contract — fsync acks at NVM persistence, the
// log replays after a full power loss, and degradation (ring full or NVM
// faults) falls back to the synchronous SSD path without losing an acked
// fsync or wedging the client.
#include "nvm/wal.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <span>
#include <vector>

#include "cache/control_plane.hpp"
#include "ec/crc32c.hpp"
#include "core/dpc_system.hpp"
#include "fault/injector.hpp"
#include "kvfs/fsck.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace dpc::nvm {
namespace {

std::vector<std::byte> page(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

constexpr std::uint64_t kDev = 1ull << 20;  // 1 MiB log for the unit tests

TEST(NvmWalUnit, AppendRecoverRoundtrip) {
  obs::Registry reg;
  NvmDevice dev(kDev, nullptr, &reg);
  WriteAheadLog wal(dev, reg);
  sim::Nanos c{};

  const auto p0 = page(4096, 1);
  const auto p1 = page(4096, 2);
  ASSERT_EQ(wal.append_data(7, 3, p0, c), AppendStatus::kOk);
  ASSERT_EQ(wal.append_data(9, 0, p1, c), AppendStatus::kOk);
  ASSERT_EQ(wal.append_truncate(7, 0, c), AppendStatus::kOk);
  // The truncate marker supersedes ino 7's logged page; ino 9's survives.
  EXPECT_FALSE(wal.has_pending(7, 3));
  EXPECT_TRUE(wal.has_pending(9, 0));
  EXPECT_EQ(wal.pending_pages(), 1u);

  // Power cycle: a fresh WAL over the same media sees exactly the same log.
  WriteAheadLog wal2(dev, reg);
  auto rec = wal2.recover();
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.report.corrupt, 0u);
  EXPECT_FALSE(rec.report.torn_tail);
  EXPECT_EQ(rec.records[0].kind, RecordKind::kData);
  EXPECT_EQ(rec.records[0].a, 7u);
  EXPECT_EQ(rec.records[0].b, 3u);
  EXPECT_EQ(rec.records[0].data, p0);
  EXPECT_EQ(rec.records[1].data, p1);
  EXPECT_EQ(rec.records[2].kind, RecordKind::kTruncate);
  for (std::size_t i = 0; i < rec.records.size(); ++i)
    EXPECT_EQ(rec.records[i].seq, i + 1);
  EXPECT_TRUE(wal2.has_pending(9, 0));
  EXPECT_FALSE(wal2.has_pending(7, 3));

  // recover() is idempotent: a second scan returns the same records.
  auto rec2 = wal2.recover();
  ASSERT_EQ(rec2.records.size(), rec.records.size());
  for (std::size_t i = 0; i < rec.records.size(); ++i) {
    EXPECT_EQ(rec2.records[i].seq, rec.records[i].seq);
    EXPECT_EQ(rec2.records[i].data, rec.records[i].data);
  }
}

TEST(NvmWalUnit, TornAppendDetectedAndOverwritten) {
  obs::Registry reg;
  fault::FaultInjector fi(0x7011, &reg);
  NvmDevice dev(kDev, &fi, &reg);
  WriteAheadLog wal(dev, reg, &fi);
  sim::Nanos c{};

  ASSERT_EQ(wal.append_data(1, 0, page(4096, 10), c), AppendStatus::kOk);
  ASSERT_EQ(wal.append_data(1, 1, page(4096, 11), c), AppendStatus::kOk);
  fi.arm(kFaultWalTornAppend, 1.0);
  EXPECT_EQ(wal.append_data(1, 2, page(4096, 12), c), AppendStatus::kIoError);
  EXPECT_TRUE(wal.degraded());
  fi.disarm(kFaultWalTornAppend);

  // Scan after the "power cut": the torn frame is dropped whole.
  WriteAheadLog wal2(dev, reg, &fi);
  auto rec = wal2.recover();
  EXPECT_TRUE(rec.report.torn_tail);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_FALSE(wal2.degraded());  // recovery state is rebuilt from media

  // The tail rewound onto the torn bytes: a new append overwrites them and
  // the next scan sees three whole frames.
  const auto p2 = page(4096, 13);
  ASSERT_EQ(wal2.append_data(1, 2, p2, c), AppendStatus::kOk);
  WriteAheadLog wal3(dev, reg, &fi);
  auto rec3 = wal3.recover();
  EXPECT_FALSE(rec3.report.torn_tail);
  ASSERT_EQ(rec3.records.size(), 3u);
  EXPECT_EQ(rec3.records[2].data, p2);
  // The torn frame may have consumed a seq (its header landed whole, so
  // the scan classifies it corrupt rather than torn); monotonicity is the
  // contract, not density.
  EXPECT_GT(rec3.records[2].seq, rec3.records[1].seq);
}

TEST(NvmWalUnit, TornEpochHeaderFallsBackToCommittedRecords) {
  // Torn-tail edge: every frame's commit word is durable, but the power cut
  // landed mid-checkpoint — the NEW epoch header slot is torn. The scan
  // must fall back to the intact old-epoch header and walk the still-present
  // frames again (idempotent re-replay) rather than trust half a header and
  // lose acked records.
  obs::Registry reg;
  NvmDevice dev(kDev, nullptr, &reg);
  WriteAheadLog wal(dev, reg);
  sim::Nanos c{};

  const auto p0 = page(4096, 7);
  ASSERT_EQ(wal.append_data(7, 3, p0, c), AppendStatus::kOk);
  wal.note_drained(7, 3, c);
  wal.maybe_checkpoint(c);  // epoch 1 -> 2: new header lands in slot 0
  ASSERT_EQ(wal.live_bytes(), 0u);

  // Tear the epoch-2 slot (even epoch -> slot 0). Its CRC now fails, so
  // only the epoch-1 slot is readable — exactly the state a crash between
  // the header write and its persist fence leaves behind.
  dev.raw()[8] ^= std::byte{0x01};
  const auto rec = wal.recover();
  EXPECT_FALSE(rec.report.torn_tail);
  ASSERT_EQ(rec.report.scanned, 2u);  // the data frame and its drain marker
  EXPECT_EQ(rec.records[0].kind, RecordKind::kData);
  EXPECT_EQ(rec.records[0].a, 7u);
  EXPECT_EQ(rec.records[0].b, 3u);
  EXPECT_EQ(rec.records[0].data,
            std::vector<std::byte>(p0.begin(), p0.end()));
  EXPECT_EQ(rec.records[1].kind, RecordKind::kDrained);
  // The re-scanned drain marker still supersedes the logged page.
  EXPECT_EQ(wal.pending_pages(), 0u);

  // The rolled-back log is fully usable: the next checkpoint rewrites the
  // torn slot and retires the old epoch for good.
  wal.maybe_checkpoint(c);
  const auto rec2 = wal.recover();
  EXPECT_EQ(rec2.report.scanned, 0u);
  EXPECT_FALSE(rec2.report.torn_tail);
}

TEST(NvmWalUnit, ZeroLengthMarkerFrameAtReserveBoundary) {
  // Torn-tail edge: the shortest frame the format admits — zero-length
  // payload, header + commit word only — sitting flush at the marker
  // reserve boundary. The scan must parse it without reading past the empty
  // payload and must keep walking records cleanly to the true end of log.
  constexpr std::uint64_t kFrame = WriteAheadLog::kFrameHeaderBytes + 16 +
                                   4096 + WriteAheadLog::kCommitBytes;
  // Sized so two data appends land the tail exactly on the bulky limit
  // (size - reserve): the crafted marker then occupies the first reserve
  // bytes, where only bookkeeping records may live.
  constexpr std::uint64_t kSize =
      WriteAheadLog::kDataStart + 2 * kFrame + WriteAheadLog::kReserveBytes;
  obs::Registry reg;
  NvmDevice dev(kSize, nullptr, &reg);
  WriteAheadLog wal(dev, reg);
  sim::Nanos c{};

  const auto p0 = page(4096, 1);
  ASSERT_EQ(wal.append_data(1, 0, p0, c), AppendStatus::kOk);
  ASSERT_EQ(wal.append_data(1, 1, p0, c), AppendStatus::kOk);
  EXPECT_EQ(wal.live_bytes(), 2 * kFrame);
  // Bulky appends are refused at the boundary; the reserve is intact.
  EXPECT_EQ(wal.append_data(1, 2, p0, c), AppendStatus::kFull);

  // Hand-craft the zero-length kDrained frame at the boundary: valid header
  // CRC, len = 0, next expected seq, valid commit word over just the seq.
  const std::uint64_t off = WriteAheadLog::kDataStart + 2 * kFrame;
  std::array<std::byte, WriteAheadLog::kFrameHeaderBytes +
                            WriteAheadLog::kCommitBytes>
      f{};
  const std::uint64_t seq = 3;
  std::memcpy(f.data() + 8, &seq, sizeof(seq));
  f[16] = std::byte{4};  // RecordKind::kDrained
  const std::uint32_t hcrc = ec::crc32c(std::span<const std::byte>(f).subspan(
      4, WriteAheadLog::kFrameHeaderBytes - 4));
  std::memcpy(f.data(), &hcrc, sizeof(hcrc));
  const std::uint32_t commit = ec::crc32c_u64(seq);
  std::memcpy(f.data() + WriteAheadLog::kFrameHeaderBytes, &commit,
              sizeof(commit));
  std::copy(f.begin(), f.end(), dev.raw().begin() + off);

  const auto rec = wal.recover();
  EXPECT_FALSE(rec.report.torn_tail);
  ASSERT_EQ(rec.report.scanned, 3u);
  EXPECT_EQ(rec.records[2].kind, RecordKind::kDrained);
  EXPECT_EQ(rec.records[2].a, 0u);  // defensive parse: no fields to read
  // A zero-length drain names no page: both real pages stay pending.
  EXPECT_EQ(wal.pending_pages(), 2u);

  // Appending resumes after the crafted frame — real drain markers still
  // fit in what is left of the reserve.
  wal.note_drained(1, 0, c);
  EXPECT_EQ(wal.pending_pages(), 1u);
}

TEST(NvmWalUnit, RotInPayloadSkippedNotFatal) {
  obs::Registry reg;
  fault::FaultInjector fi(0x707, &reg);
  NvmDevice dev(kDev, &fi, &reg);
  WriteAheadLog wal(dev, reg, &fi);
  sim::Nanos c{};

  const auto p0 = page(4096, 20);
  const auto p2 = page(4096, 22);
  ASSERT_EQ(wal.append_data(2, 0, p0, c), AppendStatus::kOk);
  fi.arm(kFaultWalRot, 1.0);
  ASSERT_EQ(wal.append_data(2, 1, page(4096, 21), c), AppendStatus::kOk);
  fi.disarm(kFaultWalRot);
  ASSERT_EQ(wal.append_data(2, 2, p2, c), AppendStatus::kOk);

  // The rotted middle frame fails its commit CRC: skipped, counted, and the
  // scan keeps walking to the good frame behind it.
  WriteAheadLog wal2(dev, reg, &fi);
  auto rec = wal2.recover();
  EXPECT_EQ(rec.report.corrupt, 1u);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].data, p0);
  EXPECT_EQ(rec.records[1].data, p2);
  EXPECT_EQ(rec.records[1].seq, 3u);
  EXPECT_GE(reg.counter("wal/corrupt_records").value(), 1u);
}

TEST(NvmWalUnit, CheckpointTruncatesOnceDrained) {
  obs::Registry reg;
  NvmDevice dev(kDev, nullptr, &reg);
  WriteAheadLog wal(dev, reg);
  sim::Nanos c{};

  ASSERT_EQ(wal.append_data(3, 0, page(4096, 30), c), AppendStatus::kOk);
  ASSERT_EQ(wal.append_data(3, 1, page(4096, 31), c), AppendStatus::kOk);
  wal.maybe_checkpoint(c);  // pages still pending: must be a no-op
  EXPECT_EQ(wal.pending_pages(), 2u);
  EXPECT_GT(wal.live_bytes(), 0u);

  wal.note_drained(3, 0, c);
  wal.note_drained(3, 1, c);
  EXPECT_EQ(wal.pending_pages(), 0u);
  wal.maybe_checkpoint(c);
  EXPECT_EQ(wal.live_bytes(), 0u);
  EXPECT_GE(reg.counter("wal/checkpoints").value(), 1u);

  // Post-checkpoint, the pre-checkpoint frames are residue: the scan stops
  // cleanly at the rewound tail and sees an empty log.
  WriteAheadLog wal2(dev, reg);
  auto rec = wal2.recover();
  EXPECT_EQ(rec.records.size(), 0u);
  EXPECT_FALSE(rec.report.torn_tail);

  // And the log is reusable: new appends land with the advanced seq.
  ASSERT_EQ(wal2.append_data(3, 2, page(4096, 32), c), AppendStatus::kOk);
  WriteAheadLog wal3(dev, reg);
  auto rec3 = wal3.recover();
  ASSERT_EQ(rec3.records.size(), 1u);
  EXPECT_GE(rec3.records[0].seq, 3u);
}

TEST(NvmWalUnit, RingFullBackpressureThenRecovery) {
  obs::Registry reg;
  // Small ring: fits only a couple of page frames above the reserve.
  NvmDevice dev(24 * 1024, nullptr, &reg);
  WriteAheadLog wal(dev, reg);
  sim::Nanos c{};

  int ok = 0;
  AppendStatus last = AppendStatus::kOk;
  for (int i = 0; i < 8 && last == AppendStatus::kOk; ++i) {
    last = wal.append_data(4, static_cast<std::uint64_t>(i), page(4096, 40 + i),
                           c);
    if (last == AppendStatus::kOk) ++ok;
  }
  ASSERT_EQ(last, AppendStatus::kFull);  // typed backpressure, not a crash
  EXPECT_GE(ok, 1);
  EXPECT_TRUE(wal.degraded());
  EXPECT_GE(reg.counter("wal/ring_full").value(), 1u);
  EXPECT_EQ(reg.gauge("wal/degraded").load(), 1);

  // The tiny drain markers fit in the reserve even when data appends don't:
  // the flusher can always make progress toward the checkpoint.
  for (int i = 0; i < ok; ++i) {
    wal.note_drained(4, static_cast<std::uint64_t>(i), c);
  }
  wal.maybe_checkpoint(c);
  EXPECT_FALSE(wal.degraded());
  EXPECT_EQ(reg.gauge("wal/degraded").load(), 0);
  EXPECT_EQ(wal.append_data(4, 9, page(4096, 49), c), AppendStatus::kOk);
}

TEST(NvmWalUnit, DeviceWriteFailDegradesAndProbeClears) {
  obs::Registry reg;
  fault::FaultInjector fi(0x3ad, &reg);
  NvmDevice dev(kDev, &fi, &reg);
  WriteAheadLog wal(dev, reg, &fi);
  sim::Nanos c{};

  fi.arm(kFaultNvmWriteFail, 1.0);
  EXPECT_EQ(wal.append_data(5, 0, page(4096, 50), c), AppendStatus::kIoError);
  EXPECT_TRUE(wal.degraded());
  EXPECT_GE(reg.counter("wal/append_io_errors").value(), 1u);
  // Still failing: the checkpoint's header write doubles as the device
  // probe, and a failed probe keeps the latch set.
  wal.maybe_checkpoint(c);
  EXPECT_TRUE(wal.degraded());

  fi.disarm(kFaultNvmWriteFail);
  wal.maybe_checkpoint(c);
  EXPECT_FALSE(wal.degraded());
  EXPECT_EQ(wal.append_data(5, 0, page(4096, 50), c), AppendStatus::kOk);
}

// ---------------------------------------------------------------- system

core::DpcOptions wal_system_opts(fault::FaultInjector* fi) {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.cache_geo = {64, 8};
  // Disable the opportunistic background drain (poll flushes up to
  // evict_batch pages whenever anything is dirty): these tests need dirty
  // pages to still be pending when fsync arrives.
  o.cache_ctl.evict_batch = 0;
  o.with_dfs = false;
  o.enable_nvm_wal = true;
  o.fault = fi;
  return o;
}

/// The tentpole contract end to end: fsync acks at NVM persistence (fast
/// path, pages still undrained), then host DRAM *and* the DPU die — and the
/// acked bytes come back from the log alone.
TEST(NvmWalSystem, FsyncAcksAtNvmAndReplaysAfterPowerLoss) {
  obs::Registry freg;
  fault::FaultInjector fi(0x11, &freg);
  core::DpcSystem sys(wal_system_opts(&fi));

  const auto ino = sys.create(kvfs::kRootIno, "spine").ino;
  ASSERT_NE(ino, 0u);
  const auto d0 = page(4096, 90);
  const auto d1 = page(4096, 91);
  ASSERT_TRUE(sys.write(ino, 0, d0).ok());
  ASSERT_TRUE(sys.write(ino, 4096, d1).ok());
  ASSERT_TRUE(sys.fsync(ino).ok());

  // The ack came from the log, not the synchronous flush.
  EXPECT_GE(sys.dispatch_stats().wal_fast_acks.load(), 1u);
  ASSERT_NE(sys.wal(), nullptr);
  EXPECT_GE(sys.wal()->pending_pages(), 2u);

  // Power loss on BOTH sides: host cache pages gone, DPU restarted. The
  // only copy of the acked pages is the NVM log.
  sys.wipe_host_cache();
  const auto rep = sys.restart_dpu();
  EXPECT_TRUE(rep.clean());
  EXPECT_GE(rep.fs.wal.applied, 2u);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, d0);
  ASSERT_TRUE(sys.read(ino, 4096, out, /*direct=*/true).ok());
  EXPECT_EQ(out, d1);
  // Replay drained the log and checkpointed it empty.
  EXPECT_EQ(sys.wal()->pending_pages(), 0u);
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// Regression (satellite): when the synchronous flush path fails to write a
/// page down, fsync must NOT ack — the re-queued dirty page means the bytes
/// are not durable. Pre-fix, fsync returned success here.
TEST(NvmWalSystem, SyncFsyncRefusesAckWhileFlushFailedPagesRemain) {
  obs::Registry freg;
  fault::FaultInjector fi(0x5a7, &freg);
  auto opts = wal_system_opts(&fi);
  opts.enable_nvm_wal = false;  // force the synchronous path
  core::DpcSystem sys(opts);

  const auto ino = sys.create(kvfs::kRootIno, "f").ino;
  ASSERT_NE(ino, 0u);
  ASSERT_TRUE(sys.write(ino, 0, page(4096, 60)).ok());

  fi.arm(cache::kFaultFlushWritePage, 1.0);
  const auto f = sys.fsync(ino);
  EXPECT_EQ(f.err, EIO) << "fsync acked with flush-failed pages still dirty";
  fi.disarm(cache::kFaultFlushWritePage);

  EXPECT_TRUE(sys.fsync(ino).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, page(4096, 60));
}

/// Degradation ladder, ring-full rung: a log too small for the burst keeps
/// serving — typed kFull inside, synchronous fallback outside, no hang, no
/// lost acked write — and recovers once the flusher drains.
TEST(NvmWalSystem, RingFullDegradesToSyncPathAndRecovers) {
  obs::Registry freg;
  fault::FaultInjector fi(0x4f11, &freg);
  auto opts = wal_system_opts(&fi);
  opts.nvm_log_bytes = 24 * 1024;  // a couple of page frames at most
  core::DpcSystem sys(opts);

  const auto ino = sys.create(kvfs::kRootIno, "burst").ino;
  ASSERT_NE(ino, 0u);
  std::vector<std::vector<std::byte>> pages;
  for (int i = 0; i < 8; ++i) {
    pages.push_back(page(4096, 70 + static_cast<unsigned>(i)));
    ASSERT_TRUE(
        sys.write(ino, static_cast<std::uint64_t>(i) * 4096, pages.back())
            .ok());
    ASSERT_TRUE(sys.fsync(ino).ok()) << "fsync " << i;  // must never wedge
  }
  EXPECT_GE(sys.metrics().counter("wal/ring_full").value(), 1u);
  EXPECT_GE(sys.dispatch_stats().wal_fallbacks.load(), 1u);

  // Every acked fsync survives the power cycle, whichever rung served it.
  sys.wipe_host_cache();
  EXPECT_TRUE(sys.restart_dpu().clean());
  std::vector<std::byte> out(4096);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        sys.read(ino, static_cast<std::uint64_t>(i) * 4096, out, true).ok());
    EXPECT_EQ(out, pages[static_cast<std::size_t>(i)]) << "page " << i;
  }
  // The fallback's flush drained the log: the degraded latch cleared.
  EXPECT_FALSE(sys.wal()->degraded());
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// Degradation ladder, NVM-fault rung: a persistently failing device makes
/// every append kIoError; fsync falls back, still acks durably, and the
/// checkpoint probe un-degrades once the device heals.
TEST(NvmWalSystem, NvmFaultFallsBackThenHeals) {
  obs::Registry freg;
  fault::FaultInjector fi(0xdead, &freg);
  core::DpcSystem sys(wal_system_opts(&fi));

  fi.arm(kFaultNvmWriteFail, 1.0);
  const auto ino = sys.create(kvfs::kRootIno, "sick").ino;
  ASSERT_NE(ino, 0u);
  const auto d0 = page(4096, 80);
  ASSERT_TRUE(sys.write(ino, 0, d0).ok());
  ASSERT_TRUE(sys.fsync(ino).ok());
  EXPECT_GE(sys.dispatch_stats().wal_fallbacks.load(), 1u);
  EXPECT_TRUE(sys.wal()->degraded());

  fi.disarm(kFaultNvmWriteFail);
  // First post-heal fsync still takes the fallback (latch set) but its
  // flush's checkpoint probe succeeds; the next one is fast again.
  const auto d1 = page(4096, 81);
  ASSERT_TRUE(sys.write(ino, 0, d1).ok());
  ASSERT_TRUE(sys.fsync(ino).ok());
  EXPECT_FALSE(sys.wal()->degraded());
  const auto fast_before = sys.dispatch_stats().wal_fast_acks.load();
  const auto d2 = page(4096, 82);
  ASSERT_TRUE(sys.write(ino, 0, d2).ok());
  ASSERT_TRUE(sys.fsync(ino).ok());
  EXPECT_GT(sys.dispatch_stats().wal_fast_acks.load(), fast_before);

  sys.wipe_host_cache();
  EXPECT_TRUE(sys.restart_dpu().clean());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(ino, 0, out, true).ok());
  EXPECT_EQ(out, d2);
}

}  // namespace
}  // namespace dpc::nvm
