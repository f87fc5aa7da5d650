// Background data scrubber (§ robustness: end-to-end integrity).
//
// A WorkerPool poller that walks the stored media — SSD blocks, KV values
// (the 8 KB big-file extents among them), and DFS shards — re-verifying
// each item's CRC32C at a configurable rate. Detected corruption is
// repaired from redundancy where redundancy exists: an EC-striped shard is
// reconstructed from the surviving k-of-(k+m) shards of its stripe (a
// replicated shard from any clean replica) and rewritten in place. Media
// with no redundancy behind it (SSD blocks, KV values) cannot be repaired —
// the scrubber counts the damage and leaves it, and the read path returns
// EIO instead of silent data.
//
// Accounting ("scrub/…" in the registry):
//   scanned        items whose checksum was re-verified
//   detected       distinct corrupt items found (each counted once)
//   repaired       detected items rewritten clean from redundancy
//   unrecoverable  detected items with no redundancy / too few survivors
//   pass_ns        modelled latency distribution of scrub passes
// Invariant: detected == repaired + unrecoverable. A corrupt shard whose
// stripe is transiently unreadable (server down, breaker open) is deferred
// — not counted at all — and retried on a later pass, so the invariant
// holds at every instant, not just at quiescence.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "dfs/backend.hpp"
#include "fault/injector.hpp"
#include "kv/kv_store.hpp"
#include "obs/metrics.hpp"
#include "sim/histogram.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"
#include "ssd/ssd.hpp"

namespace dpc::dpu {

class QosManager;

struct ScrubberConfig {
  /// Items (blocks / values / shards) verified per pass — the rate knob.
  std::uint32_t items_per_pass = 64;
  /// Wall-clock spacing between passes; jittered ±50% so a fleet of
  /// scrubbers (or one scrubber and the flusher it shares a worker with)
  /// don't beat in lockstep. Pacing only applies to poll(); scrub_pass() is
  /// immediate.
  sim::Nanos pace = sim::millis(1.0);
};

class Scrubber {
 public:
  Scrubber(const ScrubberConfig& cfg, obs::Registry& registry,
           fault::FaultInjector* fault = nullptr);

  // Targets are optional and may be attached in any combination; attach
  // before the WorkerPool starts polling. All must outlive the scrubber.
  void attach_ssd(ssd::SsdModel* ssd) { ssd_ = ssd; }
  void attach_kv(kv::KvStore* kv) { kv_ = kv; }
  /// `mds` supplies the stripe geometry (and redundancy scheme) repairs
  /// need; shards whose file the MDS no longer knows are unrecoverable.
  void attach_dfs(dfs::DataServers* ds, dfs::MdsCluster* mds) {
    ds_ = ds;
    mds_ = mds;
  }
  /// Graceful degradation under overload: with a QosManager attached,
  /// poll() surrenders a due pass ("scrub/yields") while the admission
  /// controller reports staged depth above its high-water mark. The yield
  /// does not reschedule — the next poll retries as soon as foreground
  /// pressure drains.
  void attach_qos(const QosManager* qos) { qos_ = qos; }

  /// WorkerPool poller: runs one paced pass (or nothing, between paces /
  /// while the fault injector reports crashed()). Returns items scanned.
  int poll();

  /// One immediate pass over up to `max_items` items (tests / benches —
  /// no pacing, no crash gate). Returns items scanned.
  int scrub_pass(std::uint32_t max_items);

  /// Drives full passes until one walks the whole media set without
  /// deferring any repair. Returns total items scanned.
  int scrub_all();

  struct Totals {
    std::uint64_t scanned = 0;
    std::uint64_t detected = 0;
    std::uint64_t repaired = 0;
    std::uint64_t unrecoverable = 0;
  };
  Totals totals() const;

 private:
  struct PassOutcome {
    int scanned = 0;
    bool deferred = false;  ///< some repair was postponed (transient)
  };
  PassOutcome pass(std::uint32_t max_items) REQUIRES(mu_);
  // Per-media probes: verify one item, count, repair when possible.
  void scrub_ssd_block(std::uint64_t lba, sim::Nanos& cost) REQUIRES(mu_);
  void scrub_kv_value(const std::string& key, sim::Nanos& cost)
      REQUIRES(mu_);
  void scrub_dfs_shard(const dfs::ShardId& id, sim::Nanos& cost,
                       bool* deferred) REQUIRES(mu_);

  ScrubberConfig cfg_;
  fault::FaultInjector* fault_;
  ssd::SsdModel* ssd_ = nullptr;
  kv::KvStore* kv_ = nullptr;
  dfs::DataServers* ds_ = nullptr;
  dfs::MdsCluster* mds_ = nullptr;
  const QosManager* qos_ = nullptr;

  obs::Counter* scanned_;
  obs::Counter* detected_;
  obs::Counter* repaired_;
  obs::Counter* unrecoverable_;
  obs::Counter* yields_;
  sim::Histogram* pass_ns_;

  /// Serializes passes (the poller and a test driving scrub_pass() may
  /// race). Outermost: held across KV/DFS store locks.
  mutable sim::AnnotatedMutex mu_{"scrub.pass", sim::LockRank::kSystem};
  /// Walk cursor into the concatenated (ssd ∥ kv ∥ dfs) snapshot.
  std::uint64_t cursor_ GUARDED_BY(mu_) = 0;
  int pace_step_ GUARDED_BY(mu_) = 0;
  /// Wall-clock deadline (steady_clock nanos) before the next paced pass.
  std::int64_t next_due_ns_ GUARDED_BY(mu_) = 0;
  // Quarantine: unrecoverable items already counted, so a rescan of damage
  // we can't fix doesn't inflate detected/unrecoverable. An item that later
  // verifies clean again (rewritten by the workload) leaves quarantine and
  // is eligible to be counted anew.
  std::unordered_set<std::uint64_t> bad_lbas_ GUARDED_BY(mu_);
  std::unordered_set<std::string> bad_keys_ GUARDED_BY(mu_);
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>>
      bad_shards_ GUARDED_BY(mu_);
};

}  // namespace dpc::dpu
