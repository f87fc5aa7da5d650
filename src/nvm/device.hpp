// Simulated byte-addressable NVM/PMEM device on the DPU (Optane-DC /
// CXL-PM class) — the durable medium under the write-ahead log.
//
// The medium itself is one flat byte array that survives DPU crashes and
// power cycles (DpcSystem owns the device and never resets it), mirroring a
// PMEM DIMM that keeps its contents across the DPU SoC rebooting. What does
// NOT survive a crash is anything the writer had not yet persisted: the
// store→flush→fence discipline is modelled by (a) the calibrated
// `persist_fence()` cost charged at every ordering point, (b) the
// `nvm.dev/write_fail` fault site (media error → the write never lands) and
// (c) the WAL-level torn-append site that cuts a write short exactly where
// an untimely power cut would. dpc_check's `wal_append` scenario enforces
// the ordering discipline (commit-word store must be preceded by a fence on
// the payload): its crash exploration turns a dropped fence into a caught,
// replayable corrupt frame.
//
// All latencies are modelled time from calib §NVM — DRAM-class read/write
// plus an explicit CLWB+SFENCE-class persistence fence — accumulated into
// the caller's `sim::Nanos` cost like every other station in the tree.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dpc::nvm {

/// Fault-injection site: one draw per device write; a hit models a media
/// error — no byte lands, the caller sees a failed (io-error) write.
inline constexpr std::string_view kFaultNvmWriteFail = "nvm.dev/write_fail";

class NvmDevice {
 public:
  /// `registry` (optional) hosts the "nvm.dev/…" counters; `fault`
  /// (optional) arms the media-error site.
  explicit NvmDevice(std::uint64_t bytes, fault::FaultInjector* fault = nullptr,
                     obs::Registry* registry = nullptr);

  std::uint64_t size() const { return media_.size(); }

  /// Writes `src` at `off`, charging media-write latency + streaming
  /// transfer. Returns false on an injected media error (nothing written).
  /// The write is NOT persistent until a `persist_fence()` orders it.
  bool write(std::uint64_t off, std::span<const std::byte> src,
             sim::Nanos& cost);

  /// Writes only the first `n` bytes of `src` — the torn-append helper the
  /// WAL uses to model a power cut mid-write (same cost as a full write up
  /// to the tear: the cut happens at the media, not before it).
  void write_torn(std::uint64_t off, std::span<const std::byte> src,
                  std::uint64_t n, sim::Nanos& cost);

  /// Reads `dst.size()` bytes at `off`, charging read latency + transfer.
  void read(std::uint64_t off, std::span<std::byte> dst, sim::Nanos& cost);

  /// One persistence barrier (CLWB+SFENCE class): everything written before
  /// it is durable before anything written after it.
  void persist_fence(sim::Nanos& cost);

  /// Direct view for deterministic damage placement (tests and the WAL's
  /// rot-in-log site flip bits in place, bypassing cost accounting the way
  /// real bit-rot does).
  std::span<std::byte> raw() { return media_; }

  // ---- Volatile-persistence model (dpc_check crash exploration) ----------
  //
  // With tracking on the device keeps a second, *durable* image: writes land
  // in `media_` immediately (readers see them) but are queued as pending
  // until a `persist_fence()` copies them into `durable_`. A modelled power
  // cut then picks an arbitrary subset of the still-pending writes — any
  // subset can have drained from the CPU write pending queue before the cut —
  // and rolls `media_` back to durable+subset. This is what turns "the
  // payload fence was skipped" into an observable lost/torn frame instead of
  // an invisible ordering nit.

  /// Enables/disables tracking. Enabling snapshots the current media as the
  /// durable image; disabling drops the durable image and pending queue.
  void set_persist_tracking(bool on);
  bool persist_tracking() const { return tracking_; }

  /// Number of writes applied to `media_` but not yet fenced durable.
  std::size_t volatile_writes() const { return pending_.size(); }

  /// Models the power cut: pending write `i` reaches the media iff bit `i`
  /// of `keep_mask` is set; every other pending write is undone. `media_`
  /// becomes the durable image plus the kept subset; the pending queue is
  /// cleared. No-op unless tracking is on.
  void drop_volatile(std::uint64_t keep_mask);

 private:
  struct PendingWrite {
    std::uint64_t off;
    std::vector<std::byte> bytes;
  };
  void track_write(std::uint64_t off, std::uint64_t len);

  std::vector<std::byte> media_;
  fault::FaultInjector* fault_;
  bool tracking_ = false;
  std::vector<std::byte> durable_;       // empty unless tracking_
  std::vector<PendingWrite> pending_;    // unfenced writes, oldest first
  obs::Counter* writes_ = nullptr;  // null without a registry
  obs::Counter* reads_ = nullptr;
  obs::Counter* fences_ = nullptr;
  obs::Counter* write_fails_ = nullptr;
};

}  // namespace dpc::nvm
