// NVM write-ahead log — the one crash-proof durability spine in front of
// the SSD/KV path (NVLog-style).
//
// KVFS fsync acks at NVM persistence: the fsync path logs the inode's dirty
// cache pages here (CRC32C-framed, data-before-commit-record ordering) and
// acks as soon as the log is persistent; the cache flusher — a background-
// QoS WorkerPool poller — drains the pages to the SSD/KV path afterwards
// and appends drain markers that supersede the logged copies. The log
// holds pages and their drain/truncate markers only: KVFS metadata needs no
// log, because each mutation is one atomic KV batch.
//
// Frame format (all little-endian, `len` = payload bytes):
//
//   [hdr_crc u32 | len u32 | seq u64 | kind u8 | pad u8×3 |
//    payload … | commit u32]
//
// `hdr_crc` covers len/seq/kind/pad, so the scan can parse a frame whose
// *payload* rotted (skip it, count wal/corrupt_records, keep walking by
// `len`) while a frame whose *header* is unreadable ends the log. `commit`
// is CRC32C(payload) salted with the frame's seq (crc32c_u64): it is the
// commit record, stored only after a persistence fence on the payload — an
// append cut anywhere before the commit store scans as a torn tail and is
// dropped whole, never half-applied. Seq numbers are globally monotonic and
// must run contiguously from the header's start_seq; a valid-looking frame
// with the wrong seq is pre-checkpoint residue and ends the scan cleanly.
//
// The log region is bounded: appends that would overflow return kFull
// (typed backpressure — the fsync path falls back to the synchronous flush
// and the client keeps serving). Truncation is checkpoint-based rather than
// a wrapping ring: once every logged page is drained, the double-buffered
// device header advances (epoch+1, start_seq = next_seq) and the tail
// rewinds — crash-atomic, because until the new header is persistent the
// old header still replays the old frames.
//
// Degradation ladder (never lose an acked fsync):
//   healthy   → fsync acks at NVM persist cost, drain is asynchronous;
//   ring full → kFull, this fsync takes the synchronous SSD path, degraded
//               latches so following fsyncs skip the attempt;
//   NVM fault → kIoError (media error / torn append), same fallback;
//   recovery  → the drain catching up (or mount replay) empties the log,
//               the checkpoint header write probes the device, and success
//               clears the `wal/degraded` gauge.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::nvm {

/// Fault-injection site: one draw per append; a hit cuts the frame write
/// short at an entropy-chosen byte (power cut mid-append). The torn bytes
/// stay in the log for the next scan to detect as a torn tail.
inline constexpr std::string_view kFaultWalTornAppend = "nvm.wal/torn_append";
/// Data-corruption site: one draw per append; a hit flips one payload bit
/// *after* the commit record is persistent — rot at rest. The scan detects
/// it (commit CRC mismatch), counts wal/corrupt_records and skips the frame.
inline constexpr std::string_view kFaultWalRot = "nvm.wal/rot";

/// Crash point between the payload persist and the commit-record store: the
/// DPU dies holding a torn frame. Scan drops it; the op was never acked.
inline constexpr std::string_view kCrashWalMidAppend =
    "nvm.wal/crash_mid_append";
/// Crash point right after the flusher's drain marker lands: the page is
/// durable in the backend AND superseded in the log, but the meta area
/// still says dirty. Replay skips the superseded copy; the re-flush after
/// rebuild() writes the same bytes again (idempotent).
inline constexpr std::string_view kCrashWalAfterDrain =
    "nvm.wal/crash_after_drain";
/// Crash point inside WAL replay (fired per record from the KVFS replay
/// loop): a second replay of the partially-applied log must converge.
inline constexpr std::string_view kCrashWalMidReplay =
    "nvm.wal/crash_mid_replay";

enum class AppendStatus : std::uint8_t {
  kOk = 0,
  kFull,     ///< bounded log out of space — typed backpressure, not an error
  kIoError,  ///< NVM media error or torn append; nothing durable
};

enum class RecordKind : std::uint8_t {
  kData = 1,      ///< one page: a=ino, b=lpn, data=page bytes
  kDrained = 4,   ///< page drained to backend: a=ino, b=lpn (supersedes
                  ///< every kData for that page with a lower seq)
  kTruncate = 5,  ///< a=ino, b=new_size (stops replay resurrecting
                  ///< pre-truncate page bytes)
};

/// One decoded, commit-verified record from a scan.
struct WalRecord {
  RecordKind kind = RecordKind::kData;
  std::uint64_t seq = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::vector<std::byte> data;
};

struct WalScanReport {
  std::uint64_t scanned = 0;   ///< commit-verified records
  std::uint64_t corrupt = 0;   ///< parseable frames whose payload failed CRC
  bool torn_tail = false;      ///< log ended in an uncommitted/torn frame
  std::uint64_t live_bytes = 0;
  /// Corrupt frames whose commit word was present (nonzero) yet mismatched
  /// the payload. A power cut mid-append leaves the commit word *zero* (it
  /// is the last store), so absent rot-at-rest a nonzero mismatch is
  /// evidence the commit word became durable before its payload — a
  /// write-ahead ordering violation. dpc_check's crash scenarios key on it.
  std::uint64_t commit_mismatch_nonzero = 0;
};

struct WalRecovery {
  std::vector<WalRecord> records;  ///< in seq order, corrupt frames dropped
  WalScanReport report;
  sim::Nanos cost{};
};

class WriteAheadLog {
 public:
  /// `registry` hosts the "wal/…" instruments (required — the degraded
  /// gauge is the observable half of the degradation ladder). `fault`
  /// (optional) arms the torn-append/rot sites and the crash points.
  WriteAheadLog(NvmDevice& dev, obs::Registry& registry,
                fault::FaultInjector* fault = nullptr);

  // ---- append side (write-ahead: callers ack only on kOk) ---------------
  AppendStatus append_data(std::uint64_t ino, std::uint64_t lpn,
                           std::span<const std::byte> page, sim::Nanos& cost);
  AppendStatus append_truncate(std::uint64_t ino, std::uint64_t new_size,
                               sim::Nanos& cost);

  /// The drain side: the flusher pushed (ino, lpn) to the backend. Appends
  /// a kDrained marker superseding the logged copies and drops the page
  /// from the pending set; when the marker append fails the page stays
  /// pending (blocking checkpoint) and degraded latches — see DESIGN.md §5.5
  /// for the (documented) stale-replay window this closes off.
  void note_drained(std::uint64_t ino, std::uint64_t lpn, sim::Nanos& cost);

  /// Checkpoint-truncates when nothing in the log is still needed (no
  /// pending page): advances the double-buffered header and
  /// rewinds the tail. The header write doubles as a device probe — success
  /// clears the degraded latch. No-op otherwise.
  void maybe_checkpoint(sim::Nanos& cost);

  // ---- recovery side ----------------------------------------------------
  /// Scans the device (torn-tail detection, per-frame CRC verification),
  /// resets the in-memory state — tail, seq, pending pages — to what the
  /// medium actually holds, and returns the surviving records in seq order
  /// for the KVFS replay loop. Idempotent: recover() twice
  /// returns the same records.
  WalRecovery recover();

  /// Replay applied every surviving record durably to the backend: drop the
  /// pending state and checkpoint-truncate. Called at the END of a
  /// successful replay only — a crash mid-replay leaves the log intact for
  /// the (idempotent) second pass.
  void mark_replayed(sim::Nanos& cost);

  // ---- state probes -----------------------------------------------------
  /// True while the fast fsync path should not be attempted (ring full or
  /// NVM faulting). Mirrors the "wal/degraded" gauge.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  bool has_pending(std::uint64_t ino, std::uint64_t lpn) const;
  std::size_t pending_pages() const;
  std::uint64_t live_bytes() const;
  NvmDevice& device() { return *dev_; }

  // ---- on-media format --------------------------------------------------
  // Public so tests can craft and corrupt frames at exact offsets; nothing
  // outside the log writes through these.
  static constexpr std::uint64_t kHeaderSlotBytes = 64;
  static constexpr std::uint64_t kDataStart = 2 * kHeaderSlotBytes;
  static constexpr std::uint64_t kFrameHeaderBytes = 20;
  static constexpr std::uint64_t kCommitBytes = 4;
  /// Headroom kept out of reach of data appends so the tiny bookkeeping
  /// records (drain markers, truncates) that *unblock* checkpointing never
  /// hit kFull themselves.
  static constexpr std::uint64_t kReserveBytes = 4096;

 private:
  AppendStatus append_locked(RecordKind kind, std::span<const std::byte> a,
                             std::span<const std::byte> b, sim::Nanos& cost)
      REQUIRES(mu_);
  WalRecovery recover_locked() REQUIRES(mu_);
  /// Advances the header and rewinds the tail; clears degraded on success,
  /// latches it on a failed header write. Pre-condition: nothing live.
  bool checkpoint_locked(sim::Nanos& cost) REQUIRES(mu_);
  /// Stores the frame's commit record (the payload CRC). Must be preceded
  /// by a persistence fence on the payload — enforced by dpc_check's
  /// `wal_append` scenario and its `wal-commit-order` mutation.
  bool publish_commit_word(std::uint64_t off, std::uint32_t commit,
                           sim::Nanos& cost);
  bool write_header(std::uint64_t epoch, std::uint64_t start_seq,
                    sim::Nanos& cost);
  /// Reads the newer valid header slot; false on a fresh/blank device.
  bool read_header(std::uint64_t* epoch, std::uint64_t* start_seq,
                   sim::Nanos& cost);
  void set_degraded(bool on);

  NvmDevice* dev_;
  fault::FaultInjector* fault_;

  mutable sim::AnnotatedMutex mu_{"nvm.wal", sim::LockRank::kDevice};
  std::uint64_t tail_ GUARDED_BY(mu_) = kDataStart;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t start_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t epoch_ GUARDED_BY(mu_) = 1;
  /// (ino, lpn) → seq of the latest logged copy not yet superseded by a
  /// drain marker. Non-empty pending blocks checkpointing.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> pending_
      GUARDED_BY(mu_);

  std::atomic<bool> degraded_{false};

  obs::Counter& appends_;
  obs::Counter& data_records_;
  obs::Counter& drain_markers_;
  obs::Counter& ring_full_;
  obs::Counter& append_io_errors_;
  obs::Counter& torn_tails_;
  obs::Counter& corrupt_records_;
  obs::Counter& checkpoints_;
  obs::Counter& recoveries_;
  obs::Gauge& degraded_gauge_;
};

}  // namespace dpc::nvm
