#include "nvm/wal.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "ec/crc32c.hpp"
#include "sim/check.hpp"
#include "sim/schedhook.hpp"

namespace dpc::nvm {
namespace {

// "DPCWAL01" — a blank (zeroed) device has neither slot carrying this, so
// a fresh medium is distinguishable from a corrupted header pair.
constexpr std::uint64_t kHeaderMagic = 0x4450'4357'414c'3031ull;

// kData payloads are whole cache pages; truncate records clear pending
// entries at page granularity.
constexpr std::uint64_t kPageBytes = 4096;

void put_u32(std::span<std::byte> dst, std::size_t off, std::uint32_t v) {
  std::memcpy(dst.data() + off, &v, sizeof(v));
}

void put_u64(std::span<std::byte> dst, std::size_t off, std::uint64_t v) {
  std::memcpy(dst.data() + off, &v, sizeof(v));
}

std::uint32_t get_u32(std::span<const std::byte> src, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, src.data() + off, sizeof(v));
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> src, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, src.data() + off, sizeof(v));
  return v;
}

}  // namespace

WriteAheadLog::WriteAheadLog(NvmDevice& dev, obs::Registry& registry,
                             fault::FaultInjector* fault)
    : dev_(&dev),
      fault_(fault),
      appends_(registry.counter("wal/appends")),
      data_records_(registry.counter("wal/data_records")),
      drain_markers_(registry.counter("wal/drain_markers")),
      ring_full_(registry.counter("wal/ring_full")),
      append_io_errors_(registry.counter("wal/append_io_errors")),
      torn_tails_(registry.counter("wal/torn_tails")),
      corrupt_records_(registry.counter("wal/corrupt_records")),
      checkpoints_(registry.counter("wal/checkpoints")),
      recoveries_(registry.counter("wal/recoveries")),
      degraded_gauge_(registry.gauge("wal/degraded")) {
  DPC_CHECK(dev_->size() >=
            kDataStart + kReserveBytes +
                2 * (kFrameHeaderBytes + kPageBytes + kCommitBytes));
  sim::LockGuard lock(mu_);
  (void)recover_locked();
}

AppendStatus WriteAheadLog::append_data(std::uint64_t ino, std::uint64_t lpn,
                                        std::span<const std::byte> page,
                                        sim::Nanos& cost) {
  std::array<std::byte, 16> head{};
  put_u64(head, 0, ino);
  put_u64(head, 8, lpn);
  sim::LockGuard lock(mu_);
  const auto st = append_locked(RecordKind::kData, head, page, cost);
  if (st == AppendStatus::kOk) {
    pending_[{ino, lpn}] = next_seq_ - 1;
    data_records_.add();
  }
  return st;
}

AppendStatus WriteAheadLog::append_truncate(std::uint64_t ino,
                                            std::uint64_t new_size,
                                            sim::Nanos& cost) {
  std::array<std::byte, 16> head{};
  put_u64(head, 0, ino);
  put_u64(head, 8, new_size);
  sim::LockGuard lock(mu_);
  const auto st = append_locked(RecordKind::kTruncate, head, {}, cost);
  if (st == AppendStatus::kOk) {
    // Pages wholly beyond the new size can never be replayed (the marker
    // supersedes them), so they stop blocking checkpoint. The boundary page
    // keeps its pending entry: its low bytes are still acked data.
    const std::uint64_t first_gone = (new_size + kPageBytes - 1) / kPageBytes;
    pending_.erase(pending_.lower_bound({ino, first_gone}),
                   pending_.lower_bound({ino + 1, 0}));
  }
  return st;
}

void WriteAheadLog::note_drained(std::uint64_t ino, std::uint64_t lpn,
                                 sim::Nanos& cost) {
  std::array<std::byte, 16> head{};
  put_u64(head, 0, ino);
  put_u64(head, 8, lpn);
  sim::LockGuard lock(mu_);
  if (pending_.find({ino, lpn}) == pending_.end()) return;
  if (append_locked(RecordKind::kDrained, head, {}, cost) ==
      AppendStatus::kOk) {
    pending_.erase({ino, lpn});
    drain_markers_.add();
  }
  // On failure the page stays pending — checkpoint stays blocked and
  // degraded is latched (by append_locked), so replay will re-apply the
  // logged copy rather than trust a drain that may not have been marked.
}

void WriteAheadLog::maybe_checkpoint(sim::Nanos& cost) {
  sim::LockGuard lock(mu_);
  // DPC_CHECK_MUTATE wal-early-checkpoint: drop the pending guard.
  // A checkpoint then discards acked-but-undrained records — after a crash
  // the replay has nothing to re-apply and the ack was a lie. dpc_check
  // arms this and must see an acked write missing from recovery.
  if (!sim::schedhook::mutate("wal-early-checkpoint")) {
    if (!pending_.empty()) return;
  }
  if (tail_ == kDataStart && !degraded_.load(std::memory_order_acquire))
    return;
  (void)checkpoint_locked(cost);
}

WalRecovery WriteAheadLog::recover() {
  sim::LockGuard lock(mu_);
  auto out = recover_locked();
  recoveries_.add();
  return out;
}

void WriteAheadLog::mark_replayed(sim::Nanos& cost) {
  sim::LockGuard lock(mu_);
  pending_.clear();
  if (tail_ == kDataStart && !degraded_.load(std::memory_order_acquire))
    return;
  (void)checkpoint_locked(cost);
}

bool WriteAheadLog::has_pending(std::uint64_t ino, std::uint64_t lpn) const {
  sim::LockGuard lock(mu_);
  return pending_.find({ino, lpn}) != pending_.end();
}

std::size_t WriteAheadLog::pending_pages() const {
  sim::LockGuard lock(mu_);
  return pending_.size();
}

std::uint64_t WriteAheadLog::live_bytes() const {
  sim::LockGuard lock(mu_);
  return tail_ - kDataStart;
}

AppendStatus WriteAheadLog::append_locked(RecordKind kind,
                                          std::span<const std::byte> a,
                                          std::span<const std::byte> b,
                                          sim::Nanos& cost) {
  const std::uint64_t len = a.size() + b.size();
  const std::uint64_t frame = kFrameHeaderBytes + len + kCommitBytes;
  // Data records keep out of the reserve headroom so the tiny bookkeeping
  // records that UNBLOCK checkpointing (drain markers, truncates) cannot be
  // starved into kFull by the records they supersede.
  const std::uint64_t limit =
      dev_->size() - (kind == RecordKind::kData ? kReserveBytes : 0);
  if (tail_ + frame > limit) {
    ring_full_.add();
    set_degraded(true);
    return AppendStatus::kFull;
  }

  const std::uint64_t seq = next_seq_;
  std::vector<std::byte> buf(kFrameHeaderBytes + len);
  put_u32(buf, 4, static_cast<std::uint32_t>(len));
  put_u64(buf, 8, seq);
  buf[16] = static_cast<std::byte>(kind);
  put_u32(buf, 0,
          ec::crc32c(std::span<const std::byte>(buf).subspan(
              4, kFrameHeaderBytes - 4)));
  std::copy(a.begin(), a.end(), buf.begin() + kFrameHeaderBytes);
  std::copy(b.begin(), b.end(), buf.begin() + kFrameHeaderBytes + a.size());

  std::uint64_t entropy = 0;
  if (fault_ != nullptr && fault_->should_fail(kFaultWalTornAppend, &entropy)) {
    // Power-cut mid-append: a prefix lands, the tail is torn. The tail_ is
    // NOT advanced, so the next append overwrites the torn bytes; until
    // then a scan reports them as a torn tail.
    dev_->write_torn(tail_, buf, entropy % buf.size(), cost);
    append_io_errors_.add();
    set_degraded(true);
    return AppendStatus::kIoError;
  }
  if (!dev_->write(tail_, buf, cost)) {
    append_io_errors_.add();
    set_degraded(true);
    return AppendStatus::kIoError;
  }
  fault::crash_point(fault_, kCrashWalMidAppend);
  // Write-ahead ordering: the payload must be persistent before the commit
  // record that makes it scannable. DPC_CHECK_MUTATE wal-commit-order drops
  // this fence — a crash may then keep the commit word without the payload,
  // which dpc_check's crash exploration must surface as a corrupt record.
  if (!sim::schedhook::mutate("wal-commit-order")) dev_->persist_fence(cost);
  std::uint32_t commit = ec::crc32c_u64(seq);
  commit = ec::crc32c(a, commit);
  commit = ec::crc32c(b, commit);
  if (!publish_commit_word(tail_ + kFrameHeaderBytes + len, commit, cost)) {
    append_io_errors_.add();
    set_degraded(true);
    return AppendStatus::kIoError;
  }
  dev_->persist_fence(cost);

  if (fault_ != nullptr && len > 0 &&
      fault_->should_fail(kFaultWalRot, &entropy)) {
    // Rot at rest: flip one payload bit after the record is durable. The
    // scan detects it via the commit CRC and drops the record (typed).
    const std::uint64_t bit = entropy % (len * 8);
    dev_->raw()[tail_ + kFrameHeaderBytes + bit / 8] ^=
        std::byte{static_cast<unsigned char>(1u << (bit % 8))};
  }

  tail_ += frame;
  next_seq_ = seq + 1;
  appends_.add();
  return AppendStatus::kOk;
}

WalRecovery WriteAheadLog::recover_locked() {
  WalRecovery out;
  std::uint64_t epoch = 0;
  std::uint64_t start = 0;
  if (read_header(&epoch, &start, out.cost)) {
    epoch_ = epoch;
    start_seq_ = start;
  } else {
    // Fresh (all-zero) medium: format it.
    epoch_ = 1;
    start_seq_ = 1;
    (void)write_header(epoch_, start_seq_, out.cost);
  }
  pending_.clear();

  const std::uint64_t size = dev_->size();
  std::uint64_t pos = kDataStart;
  std::uint64_t expect = start_seq_;
  // True while the most recent parseable frame(s) failed their commit CRC
  // with nothing good after them — i.e. the log ends in an uncommitted or
  // torn append, which scans as a torn tail.
  bool trailing_bad = false;
  std::array<std::byte, kFrameHeaderBytes> hdr{};
  while (pos + kFrameHeaderBytes + kCommitBytes <= size) {
    dev_->read(pos, hdr, out.cost);
    const bool blank = std::all_of(hdr.begin(), hdr.end(), [](std::byte x) {
      return x == std::byte{0};
    });
    if (blank) break;  // never-written tail — clean end
    if (get_u32(hdr, 0) !=
        ec::crc32c(std::span<const std::byte>(hdr).subspan(
            4, kFrameHeaderBytes - 4))) {
      out.report.torn_tail = true;
      torn_tails_.add();
      trailing_bad = false;
      break;  // unparseable header: a torn frame header ends the log
    }
    const std::uint32_t len = get_u32(hdr, 4);
    const std::uint64_t seq = get_u64(hdr, 8);
    const auto kind_raw = std::to_integer<std::uint8_t>(hdr[16]);
    if (len > size - kCommitBytes - kFrameHeaderBytes - pos) {
      out.report.torn_tail = true;
      torn_tails_.add();
      trailing_bad = false;
      break;  // frame claims to run past the device — torn length field
    }
    // A valid-looking frame with the wrong seq (or an unknown kind) is
    // residue from before the last checkpoint: clean end of log.
    if (seq != expect || (kind_raw != 1 && kind_raw != 4 && kind_raw != 5))
      break;

    std::vector<std::byte> payload(len);
    dev_->read(pos + kFrameHeaderBytes, payload, out.cost);
    std::array<std::byte, kCommitBytes> cw{};
    dev_->read(pos + kFrameHeaderBytes + len, cw, out.cost);
    const std::uint64_t frame = kFrameHeaderBytes + len + kCommitBytes;
    if (get_u32(cw, 0) !=
        ec::crc32c(payload, ec::crc32c_u64(seq))) {
      // Commit mismatch: the payload rotted, or the append never reached
      // its commit store. Skip the frame (its length still walks) and keep
      // scanning — a good frame beyond it proves it was rot, not a tear.
      if (get_u32(cw, 0) != 0) out.report.commit_mismatch_nonzero++;
      out.report.corrupt++;
      corrupt_records_.add();
      trailing_bad = true;
      pos += frame;
      expect = seq + 1;
      continue;
    }

    WalRecord rec;
    rec.kind = static_cast<RecordKind>(kind_raw);
    rec.seq = seq;
    switch (rec.kind) {
      case RecordKind::kData:
        if (len < 16) break;  // defensive; append_data always writes ≥16
        rec.a = get_u64(payload, 0);
        rec.b = get_u64(payload, 8);
        rec.data.assign(payload.begin() + 16, payload.end());
        break;
      case RecordKind::kDrained:
      case RecordKind::kTruncate:
        // Defensive (like kData): a commit-verified frame can still carry a
        // shorter payload than its kind implies — e.g. a crafted or
        // bit-rotted zero-length marker. Parse what is there; never read
        // past the payload.
        if (len < 16) break;
        rec.a = get_u64(payload, 0);
        rec.b = get_u64(payload, 8);
        break;
    }
    out.records.push_back(std::move(rec));
    out.report.scanned++;
    trailing_bad = false;
    pos += frame;
    expect = seq + 1;
  }
  if (trailing_bad) {
    out.report.torn_tail = true;
    torn_tails_.add();
  }

  // Resume appending AFTER every parseable frame (good or corrupt): a
  // corrupt-at-tail frame must not be overwritten, because replay-side
  // appends land before mark_replayed() and a crash mid-replay re-scans
  // everything beyond it.
  tail_ = pos;
  next_seq_ = expect;
  out.report.live_bytes = tail_ - kDataStart;

  for (const auto& rec : out.records) {
    switch (rec.kind) {
      case RecordKind::kData:
        pending_[{rec.a, rec.b}] = rec.seq;
        break;
      case RecordKind::kDrained:
        pending_.erase({rec.a, rec.b});
        break;
      case RecordKind::kTruncate: {
        const std::uint64_t first_gone =
            (rec.b + kPageBytes - 1) / kPageBytes;
        pending_.erase(pending_.lower_bound({rec.a, first_gone}),
                       pending_.lower_bound({rec.a + 1, 0}));
        break;
      }
    }
  }
  return out;
}

bool WriteAheadLog::checkpoint_locked(sim::Nanos& cost) {
  if (!write_header(epoch_ + 1, next_seq_, cost)) {
    // The header write doubles as the device probe: failure keeps (or
    // puts) the log in degraded mode and leaves the old header replayable.
    set_degraded(true);
    return false;
  }
  ++epoch_;
  start_seq_ = next_seq_;
  tail_ = kDataStart;
  checkpoints_.add();
  set_degraded(false);
  return true;
}

bool WriteAheadLog::publish_commit_word(std::uint64_t off, std::uint32_t commit,
                                        sim::Nanos& cost) {
  std::array<std::byte, kCommitBytes> w{};
  put_u32(w, 0, commit);
  return dev_->write(off, w, cost);
}

bool WriteAheadLog::write_header(std::uint64_t epoch, std::uint64_t start_seq,
                                 sim::Nanos& cost) {
  std::array<std::byte, kHeaderSlotBytes> slot{};
  put_u64(slot, 0, kHeaderMagic);
  put_u64(slot, 8, epoch);
  put_u64(slot, 16, start_seq);
  put_u32(slot, 24, ec::crc32c(std::span<const std::byte>(slot).first(24)));
  // Double-buffered: even epochs in slot 0, odd in slot 1, so the old
  // header stays intact until the new one is fenced — a crash mid-write
  // leaves a valid (older) header either way.
  const std::uint64_t off = (epoch % 2) * kHeaderSlotBytes;
  if (!dev_->write(off, slot, cost)) return false;
  dev_->persist_fence(cost);
  return true;
}

bool WriteAheadLog::read_header(std::uint64_t* epoch, std::uint64_t* start_seq,
                                sim::Nanos& cost) {
  bool found = false;
  for (std::uint64_t s = 0; s < 2; ++s) {
    std::array<std::byte, kHeaderSlotBytes> slot{};
    dev_->read(s * kHeaderSlotBytes, slot, cost);
    if (get_u64(slot, 0) != kHeaderMagic) continue;
    if (get_u32(slot, 24) !=
        ec::crc32c(std::span<const std::byte>(slot).first(24)))
      continue;
    const std::uint64_t e = get_u64(slot, 8);
    if (!found || e > *epoch) {
      *epoch = e;
      *start_seq = get_u64(slot, 16);
      found = true;
    }
  }
  return found;
}

void WriteAheadLog::set_degraded(bool on) {
  degraded_.store(on, std::memory_order_release);
  degraded_gauge_.set(on ? 1 : 0);
}

}  // namespace dpc::nvm
