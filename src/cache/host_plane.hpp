// Host-side data plane of the hybrid cache (§3.3).
//
// Runs inside the fs-adapter on the host: all accesses here touch *host*
// memory, so cache hits cost zero PCIe traffic — the core benefit of
// keeping the data plane on the host. Entry lock words are the same words
// the DPU manipulates with PCIe atomics; from this side they are plain
// (local) atomics.
//
// Front-end write (paper §3.3): hash <inode,lpn> → bucket, find/claim an
// entry, write-lock it atomically, copy the data into the corresponding
// page, release the lock and mark the entry dirty (a clean→dirty transition
// also sets the entry's dirty-bitmap bit for the DPU). If no free entry can be
// claimed, the host "notifies the DPU to perform cache replacement" — here
// by raising the header's need-evict flag and reporting kNoFreeEntry.
//
// Hits publish recency the same way: a read hit, or a write to a page already
// cached, sets the entry's accessed-bitmap bit (a load first, so a page
// already marked costs no store). The DPU's clock sweep spares a referenced
// clean page once, so the hot set stays resident while hits stay host-local.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "cache/layout.hpp"
#include "obs/metrics.hpp"
#include "pcie/memory.hpp"

namespace dpc::cache {

/// Host data-plane counters, registry-backed ("cache.host/…") so they land
/// in metrics JSON snapshots; the atomic-style accessors (.load()) are kept.
struct HostCacheStats {
  explicit HostCacheStats(obs::Registry& reg)
      : read_hits(reg.counter("cache.host/read_hits")),
        read_misses(reg.counter("cache.host/read_misses")),
        writes_cached(reg.counter("cache.host/writes_cached")),
        write_stalls(reg.counter("cache.host/write_stalls")),
        lockfree_hits(reg.counter("cache.host/lockfree_hits")),
        seqlock_retries(reg.counter("cache.host/seqlock_retries")),
        locked_fallbacks(reg.counter("cache.host/locked_fallbacks")),
        fill_skips(reg.counter("cache.host/fill_skips")) {}

  obs::Counter& read_hits;
  obs::Counter& read_misses;
  obs::Counter& writes_cached;
  obs::Counter& write_stalls;  ///< kNoFreeEntry occurrences
  obs::Counter& lockfree_hits;     ///< hits served without any lock word
  obs::Counter& seqlock_retries;   ///< unstable-seq observations (retried)
  obs::Counter& locked_fallbacks;  ///< reads that fell back to the locks
  /// Clean fills dropped because the page's bucket had no free entry: a
  /// missed page that stays uncached and misses again on its next read.
  obs::Counter& fill_skips;

  void reset() {
    read_hits = 0;
    read_misses = 0;
    writes_cached = 0;
    write_stalls = 0;
    lockfree_hits = 0;
    seqlock_retries = 0;
    locked_fallbacks = 0;
    fill_skips = 0;
  }
};

class HostCachePlane {
 public:
  /// `registry` hosts the data-plane counters; when null a private registry
  /// is created (standalone/unit-test construction).
  HostCachePlane(pcie::MemoryRegion& host, const CacheLayout& layout,
                 obs::Registry* registry = nullptr);

  /// Cache-hit read. Fast path: a lock-free seqlock-validated copy that
  /// touches no lock word at all; falls back to the bucket/entry-lock path
  /// after repeated seq instability (writer storm on the bucket).
  /// Returns false on miss (caller then issues the nvme-fs read to the DPU).
  bool read(std::uint64_t inode, std::uint64_t lpn, std::span<std::byte> dst);

  enum class WriteResult {
    kOk,
    kNoFreeEntry,  ///< eviction requested; caller retries or falls through
  };
  /// Buffered write: caches the page and marks it dirty.
  WriteResult write(std::uint64_t inode, std::uint64_t lpn,
                    std::span<const std::byte> src);

  /// Inserts a *clean* copy after a read miss was served by the DPU. Never
  /// clobbers an existing (possibly dirty) entry; does nothing but count a
  /// fill skip if the bucket has no free slot (clean fills are
  /// opportunistic). The new entry starts unreferenced: a page read once is
  /// the clock sweep's first choice.
  void fill_clean(std::uint64_t inode, std::uint64_t lpn,
                  std::span<const std::byte> src);

  /// Drops the page if present and clean/dirty-unlocked (used by truncate
  /// and DIRECT_IO invalidation). Returns true if an entry was freed.
  bool invalidate(std::uint64_t inode, std::uint64_t lpn);

  /// Drops every cached page of `inode` with lpn >= first_lpn (truncate
  /// coherence). Scans the whole meta area; truncate is rare.
  std::uint32_t invalidate_above(std::uint64_t inode, std::uint64_t first_lpn);

  /// Zeroes bytes [from, kPageSize) of the cached page, if present —
  /// truncate's boundary-page coherence (the backend zeroes its copy too,
  /// so the entry's clean/dirty status is preserved).
  void zero_tail(std::uint64_t inode, std::uint64_t lpn, std::uint32_t from);

  std::uint32_t free_pages() const;
  const HostCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  // Bucket lock: host-local spin acquire.
  void lock_bucket(std::uint32_t bucket);
  void unlock_bucket(std::uint32_t bucket);
  // Entry locks.
  bool try_write_lock(std::uint32_t entry);
  void write_lock(std::uint32_t entry);  // spins
  void write_unlock(std::uint32_t entry);
  void read_lock(std::uint32_t entry);   // spins; shared
  void read_unlock(std::uint32_t entry);

  // Seqlock generation word (CacheEntry::seq). Writers — always under the
  // entry write lock — wrap every entry mutation in begin/end; readers
  // validate the word around lock-free copies (see DESIGN.md §5.3).
  void seq_write_begin(std::uint32_t entry);  // even → odd, release-fenced
  void seq_write_end(std::uint32_t entry);    // odd → even, release store

  /// One lock-free probe of the bucket chain for <inode,lpn>. The two
  /// retry verdicts differ for the concurrency checker: kRetry means the
  /// seq word moved *under* this probe, so an immediate re-probe can
  /// succeed with no other thread running (a decision point); kRetryBlocked
  /// means the entry is mid-write or mid-fill and re-probing is futile
  /// until the writer/filler makes progress (a blocked point).
  enum class FastRead { kHit, kMiss, kRetry, kRetryBlocked };
  FastRead try_read_lockfree(std::uint32_t bucket, std::uint64_t inode,
                             std::uint64_t lpn, std::span<std::byte> dst);

  /// Sets the entry's dirty-bitmap bit: the clean→dirty transition the DPU
  /// drains into its dirty index. Called after the dirty mark, with the
  /// entry write lock held.
  void publish_dirty(std::uint32_t entry);

  /// Sets the entry's accessed-bitmap bit after a hit on it, unless it is
  /// already set. A hint for the DPU's sweep: no lock, no ordering.
  void mark_accessed(std::uint32_t entry);
  /// Clears the bit when the host claims a free entry, so a new page does
  /// not inherit the previous occupant's reference.
  void clear_accessed(std::uint32_t entry);

  /// Posts the consumed <inode,lpn> readahead hint for the DPU poller.
  void post_readahead_hint(std::uint64_t inode, std::uint64_t lpn);

  /// Walks the bucket list; returns the entry index holding <inode,lpn>
  /// (any non-free status), or nullopt. Caller holds the bucket lock.
  std::optional<std::uint32_t> find_locked(std::uint32_t bucket,
                                           std::uint64_t inode,
                                           std::uint64_t lpn) const;
  /// Finds a free entry in the bucket. Caller holds the bucket lock.
  std::optional<std::uint32_t> find_free_locked(std::uint32_t bucket) const;

  PageStatus status_of(std::uint32_t entry) const;
  void set_status(std::uint32_t entry, PageStatus s);

  pcie::MemoryRegion* host_;
  const CacheLayout* layout_;
  std::unique_ptr<obs::Registry> owned_registry_;  // when none was supplied
  HostCacheStats stats_;
};

}  // namespace dpc::cache
