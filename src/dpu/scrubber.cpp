#include "dpu/scrubber.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "dpu/qos.hpp"
#include "ec/reed_solomon.hpp"
#include "fault/retry.hpp"
#include "sim/check.hpp"

namespace dpc::dpu {
namespace {

/// Modelled media cost of re-reading one item and checking its CRC — the
/// steady-state tax the scrubber pays per scanned block/value/shard.
constexpr sim::Nanos kVerifyCost = sim::micros(2.0);

/// Decorrelates the scrubber's pacing jitter from retriers using the same
/// hash family.
constexpr std::uint64_t kPaceSalt = 0x5c52'5542'4245'5221ULL;  // "SCRUBBER!"
/// Pacing jitter fraction (ScrubberConfig::pace ± 50%).
constexpr double kPaceJitter = 0.5;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Scrubber::Scrubber(const ScrubberConfig& cfg, obs::Registry& registry,
                   fault::FaultInjector* fault)
    : cfg_(cfg),
      fault_(fault),
      scanned_(&registry.counter("scrub/scanned")),
      detected_(&registry.counter("scrub/detected")),
      repaired_(&registry.counter("scrub/repaired")),
      unrecoverable_(&registry.counter("scrub/unrecoverable")),
      yields_(&registry.counter("scrub/yields")),
      pass_ns_(&registry.histogram("scrub/pass_ns")) {
  DPC_CHECK(cfg_.items_per_pass >= 1);
}

int Scrubber::poll() {
  if (fault_ != nullptr && fault_->crashed()) return 0;
  sim::LockGuard lock(mu_);
  const std::int64_t now = now_ns();
  if (now < next_due_ns_) return 0;
  // Yield to foreground pressure: while the nvme-fs staging queues sit
  // above the admission high-water mark, surrender this pass without
  // advancing the pace clock, so scrubbing resumes the moment the storm
  // drains instead of a full pace period later.
  if (qos_ != nullptr && qos_->overloaded()) {
    yields_->add();
    return 0;
  }
  const PassOutcome out = pass(cfg_.items_per_pass);
  next_due_ns_ =
      now +
      fault::jittered(cfg_.pace, kPaceJitter, pace_step_++, kPaceSalt)
          .ns;
  return out.scanned;
}

int Scrubber::scrub_pass(std::uint32_t max_items) {
  sim::LockGuard lock(mu_);
  return pass(max_items).scanned;
}

int Scrubber::scrub_all() {
  int total = 0;
  // A deferred repair (stripe transiently unreadable) leaves the corrupt
  // shard uncounted; keep sweeping until a full pass resolves everything.
  // Bounded: permanent unavailability would otherwise spin forever.
  for (int sweep = 0; sweep < 100; ++sweep) {
    sim::LockGuard lock(mu_);
    cursor_ = 0;
    const PassOutcome out = pass(UINT32_MAX);
    total += out.scanned;
    if (!out.deferred) break;
  }
  return total;
}

Scrubber::Totals Scrubber::totals() const {
  return Totals{scanned_->load(), detected_->load(), repaired_->load(),
                unrecoverable_->load()};
}

Scrubber::PassOutcome Scrubber::pass(std::uint32_t max_items) {
  // Snapshot the walk lists once per pass; items created or deleted while
  // the pass runs are picked up by a later pass.
  std::vector<std::uint64_t> lbas;
  std::vector<std::string> keys;
  std::vector<dfs::ShardId> shards;
  if (ssd_ != nullptr) lbas = ssd_->stored_lbas();
  if (kv_ != nullptr) keys = kv_->keys();
  if (ds_ != nullptr) shards = ds_->stored_shards();
  const std::uint64_t total = lbas.size() + keys.size() + shards.size();

  PassOutcome out;
  if (total == 0) return out;
  const auto budget =
      static_cast<std::uint64_t>(std::min<std::uint64_t>(max_items, total));
  sim::Nanos cost{};
  for (std::uint64_t i = 0; i < budget; ++i) {
    const std::uint64_t pos = (cursor_ + i) % total;
    if (pos < lbas.size()) {
      scrub_ssd_block(lbas[pos], cost);
    } else if (pos < lbas.size() + keys.size()) {
      scrub_kv_value(keys[pos - lbas.size()], cost);
    } else {
      bool deferred = false;
      scrub_dfs_shard(shards[pos - lbas.size() - keys.size()], cost,
                      &deferred);
      out.deferred |= deferred;
    }
    ++out.scanned;
  }
  cursor_ = (cursor_ + budget) % total;
  scanned_->add(static_cast<std::uint64_t>(out.scanned));
  pass_ns_->record(cost);
  return out;
}

void Scrubber::scrub_ssd_block(std::uint64_t lba, sim::Nanos& cost) {
  cost += kVerifyCost;
  if (ssd_->verify_block(lba) != ssd::BlockRead::kCorrupt) {
    // Clean again (deleted, or rewritten by the workload) — eligible to be
    // counted afresh if it rots anew.
    bad_lbas_.erase(lba);
    return;
  }
  // SSD blocks carry no redundancy the scrubber can reach; the damage is
  // detectable (reads return kCorrupt → EIO) but not repairable here.
  if (bad_lbas_.insert(lba).second) {
    detected_->add();
    unrecoverable_->add();
  }
}

void Scrubber::scrub_kv_value(const std::string& key, sim::Nanos& cost) {
  cost += kVerifyCost;
  if (kv_->verify_value(key) != kv::ValueCheck::kCorrupt) {
    bad_keys_.erase(key);
    return;
  }
  // Values in the disaggregated store are single-copy from this client's
  // vantage point: detect, quarantine, let reads surface EIO.
  if (bad_keys_.insert(key).second) {
    detected_->add();
    unrecoverable_->add();
  }
}

void Scrubber::scrub_dfs_shard(const dfs::ShardId& id, sim::Nanos& cost,
                               bool* deferred) {
  cost += kVerifyCost;
  const auto key = std::make_tuple(id.ino, id.stripe, id.role);
  if (ds_->verify_shard(id.ino, id.stripe, id.role) !=
      dfs::ShardState::kCorrupt) {
    bad_shards_.erase(key);
    return;
  }
  if (bad_shards_.contains(key)) return;  // already counted unrecoverable

  const std::optional<dfs::FileMeta> meta =
      mds_ == nullptr ? std::nullopt : mds_->find_meta(id.ino);
  if (!meta.has_value()) {
    // Orphan shard: no geometry to repair with.
    bad_shards_.insert(key);
    detected_->add();
    unrecoverable_->add();
    return;
  }

  dfs::OpProfile prof;
  bool transient = false;  // some peer read failed for a non-rot reason
  bool ok = false;
  std::vector<std::byte> fixed;

  if (meta->redundancy == dfs::Redundancy::kReplication) {
    // Any clean replica is a donor.
    fixed.assign(meta->stripe_unit, std::byte{0});
    for (std::uint32_t r = 0; r < meta->replicas && !ok; ++r) {
      if (r == id.role) continue;
      bool failed = false, corrupt = false;
      ok = ds_->read_shard(id.ino, id.stripe, r, fixed, prof, &failed,
                           &corrupt);
      if (!ok && failed && !corrupt) transient = true;
    }
  } else {
    // Erasure: gather the surviving shards of the stripe and reconstruct
    // the rotted role. Absent shards are treated as missing, exactly like
    // the degraded-read path — never as zero-filled data.
    const int k = meta->k;
    const int total = k + meta->m;
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(total),
        std::vector<std::byte>(meta->stripe_unit));
    std::vector<std::span<std::byte>> spans;
    std::vector<bool> present(static_cast<std::size_t>(total), false);
    spans.reserve(static_cast<std::size_t>(total));
    for (auto& b : bufs) spans.emplace_back(b);
    int have = 0;
    for (int r = 0; r < total; ++r) {
      if (static_cast<std::uint32_t>(r) == id.role) continue;
      bool failed = false, corrupt = false;
      if (ds_->read_shard(id.ino, id.stripe, static_cast<std::uint32_t>(r),
                          spans[static_cast<std::size_t>(r)], prof, &failed,
                          &corrupt)) {
        present[static_cast<std::size_t>(r)] = true;
        ++have;
      } else if (failed && !corrupt) {
        transient = true;
      }
    }
    if (have >= k) {
      // ReedSolomon::reconstruct takes span<const bool>; std::vector<bool>
      // is bit-packed, so materialize a contiguous bool array.
      std::unique_ptr<bool[]> flags(new bool[static_cast<std::size_t>(total)]);
      for (int r = 0; r < total; ++r)
        flags[static_cast<std::size_t>(r)] =
            present[static_cast<std::size_t>(r)];
      const ec::ReedSolomon rs(k, meta->m);
      rs.reconstruct(spans,
                     std::span<const bool>(flags.get(),
                                           static_cast<std::size_t>(total)));
      fixed = std::move(bufs[id.role]);
      ok = true;
    }
  }

  if (ok) {
    ds_->repair_shard(id.ino, id.stripe, id.role, fixed, prof);
    cost += prof.ds + prof.net;
    if (ds_->verify_shard(id.ino, id.stripe, id.role) ==
        dfs::ShardState::kOk) {
      detected_->add();
      repaired_->add();
    } else {
      // The repair write itself was eaten by a fault (shard invalidated).
      // The rot is gone — the shard is now merely absent, which degraded
      // reads reconstruct — but nothing was resolved to count; retry via
      // the normal walk if it resurfaces.
      *deferred = true;
    }
    return;
  }
  cost += prof.ds + prof.net;
  if (transient) {
    // Too few survivors *right now* (server down / breaker open). Don't
    // guess: leave the shard uncounted and retry on a later pass.
    *deferred = true;
    return;
  }
  // Fewer than k clean shards at rest: genuinely unrecoverable.
  bad_shards_.insert(key);
  detected_->add();
  unrecoverable_->add();
}

}  // namespace dpc::dpu
