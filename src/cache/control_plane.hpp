// DPU-side control plane of the hybrid cache (§3.3).
//
// Runs on the DPU: every touch of the cache (which lives in host memory)
// goes through the DmaEngine — the dirty-bitmap drain, entry probes and
// eviction chunks are descriptor DMAs, page pulls are data DMAs, and all
// lock manipulation uses PCIe atomics. Duties:
//
//   * flushing — drain the host's dirty bitmap into a DPU-resident dirty
//     index (entry → inode, and each inode's dirty entries), read-lock the
//     indexed dirty pages, pull them to DPU DRAM, run the compute hooks
//     (DIF checksum — the paper lists "compression, DIF, EC, etc."), write
//     them to the backend, then release the locks and mark the entries
//     clean. A pass costs what its dirt costs, not what the cache size does;
//   * replacement — reclaim clean pages when the host raises the
//     need-evict flag (or free falls below the low-water mark), victims
//     picked by the ClockEviction second-chance sweep, which DMAs meta
//     chunks and the accessed-bitmap words covering them from its hand only
//     until it has them, and clears the bits of the referenced pages it
//     spares with one PCIe fetch-and per word;
//   * prefetch — populate pages the SequentialPrefetcher predicts, claiming
//     free entries through the same bucket/entry lock protocol the host
//     uses (bucket locks taken with PCIe atomics from this side), and
//     publishing them referenced. With no free entry in the bucket it
//     reuses an unreferenced clean one before the oldest fill.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cache/backend.hpp"
#include "cache/layout.hpp"
#include "cache/policy.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "pcie/dma.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::dpu {
class QosManager;
}

namespace dpc::nvm {
class WriteAheadLog;
}  // namespace dpc::nvm

namespace dpc::cache {

/// Fault-injection site: one draw per flushed page; a hit makes the backend
/// write fail, leaving the page dirty for a later pass.
inline constexpr std::string_view kFaultFlushWritePage =
    "cache.flush/write_page";
/// Crash point between a successful backend write and the clean-status
/// update: the DPU dies still holding the entry's read lock, with the page
/// durable in the backend but dirty in the meta area. rebuild() clears the
/// orphaned lock on restart; the post-restart flush re-writes the page
/// (idempotent).
inline constexpr std::string_view kFaultFlushCrashBeforeClean =
    "cache.flush/crash_before_clean";
/// Data-corruption site: one draw per flushed page; a hit flips one bit in
/// the DPU-DRAM copy after the pull — damage in the DMA or in DPU DRAM.
/// The DIF stamp-then-verify pair catches it and the page stays dirty (a
/// later pass re-pulls the intact host copy); without DIF the damage would
/// reach the backend, which is exactly the exposure the DIF step exists to
/// close.
inline constexpr std::string_view kFaultFlushCorruptPage =
    "cache.flush/corrupt_page";

struct ControlPlaneConfig {
  /// Refill eviction until at least this many pages are free.
  std::uint32_t evict_low_water = 16;
  std::uint32_t evict_batch = 32;
};

/// DPU control-plane counters, registry-backed ("cache.ctl/…") so every
/// flush/evict/prefetch shows up in metrics JSON snapshots.
struct ControlPlaneStats {
  explicit ControlPlaneStats(obs::Registry& reg)
      : pages_flushed(reg.counter("cache.ctl/pages_flushed")),
        pages_evicted(reg.counter("cache.ctl/pages_evicted")),
        pages_prefetched(reg.counter("cache.ctl/pages_prefetched")),
        flush_lock_conflicts(reg.counter("cache.ctl/flush_lock_conflicts")),
        dif_checksums(reg.counter("cache.ctl/dif_checksums")),
        flush_fails(reg.counter("cache.ctl/flush_fails")),
        flush_integrity_fails(
            reg.counter("cache.ctl/flush_integrity_fails")),
        second_chances(reg.counter("cache.ctl/second_chances")),
        rebuild_pages(reg.counter("cache.ctl/rebuild_pages")),
        wal_pages_logged(reg.counter("cache.ctl/wal_pages_logged")) {}

  obs::Counter& pages_flushed;
  obs::Counter& pages_evicted;
  obs::Counter& pages_prefetched;
  obs::Counter& flush_lock_conflicts;
  obs::Counter& dif_checksums;
  /// Backend write_page failures — the page stays dirty and is re-queued.
  obs::Counter& flush_fails;
  /// DIF verification failures on the flush path: the DPU-DRAM copy no
  /// longer matches the checksum stamped at the pull, so the page is NOT
  /// written to the backend and stays dirty for a clean re-pull.
  obs::Counter& flush_integrity_fails;
  /// Referenced clean pages the eviction sweep passed over, clearing their
  /// accessed bits: the hot set a slot-order sweep would have evicted.
  obs::Counter& second_chances;
  /// Pages adopted from the surviving host data plane during rebuild().
  obs::Counter& rebuild_pages;
  /// Dirty pages persisted to the NVM write-ahead log by wal_log_pass()
  /// (the fsync fast path; the pages stay dirty for the drain).
  obs::Counter& wal_pages_logged;
};

class DpuCacheControl {
 public:
  /// `registry` hosts the control-plane counters and the flush/prefetch
  /// pass-cost histograms; when null a private registry is created.
  DpuCacheControl(pcie::DmaEngine& dma, const CacheLayout& layout,
                  CacheBackend& backend, const ControlPlaneConfig& cfg = {},
                  obs::Registry* registry = nullptr,
                  fault::FaultInjector* fault = nullptr);

  /// One flusher iteration: flush up to `max_pages` dirty pages, in
  /// ascending entry order.
  struct PassResult {
    int pages = 0;
    sim::Nanos cost{};
  };
  PassResult flush_pass(int max_pages = 1 << 30);

  /// The synchronous fsync's flush: flushes every dirty page of `inode`
  /// and no other inode's.
  PassResult flush_inode(std::uint64_t inode);

  /// Evicts clean pages until `target_free` are free (or candidates run
  /// out). Dirty candidates are skipped — flush first.
  PassResult evict(std::uint32_t target_free);

  /// Prefetches `pages` pages of `inode` starting at `start_lpn` from the
  /// backend into the cache (clean). Pages already cached are skipped.
  PassResult prefetch(std::uint64_t inode, std::uint64_t start_lpn,
                      std::uint32_t pages);

  /// Reports a host read miss (one request spanning `span` cache pages) so
  /// the prefetcher can learn the stream; runs any advised prefetch
  /// immediately. Returns its cost. `tenant` attributes the triggered
  /// prefetch pages when a QoS manager is attached.
  PassResult on_read_miss(std::uint64_t inode, std::uint64_t lpn,
                          std::uint32_t span = 1, std::uint8_t tenant = 0);

  /// Attaches the DPU QoS manager for per-tenant prefetch attribution
  /// ("qos/t<i>/prefetch_pages"). Set during system wiring, before traffic.
  void attach_qos(dpu::QosManager* qos) { qos_ = qos; }

  /// Attaches the NVM write-ahead log: flush_pass() appends a drain marker
  /// for every page it pushes to the backend (superseding the logged
  /// copies) and checkpoint-truncates the log when it goes empty, and
  /// wal_log_pass() becomes available to the fsync fast path. Set during
  /// system wiring, before traffic.
  void attach_wal(nvm::WriteAheadLog* wal) { wal_ = wal; }

  /// Fsync fast path: persists every dirty page of `inode` to the NVM
  /// write-ahead log. The pages STAY dirty — the background flusher drains
  /// them to the backend later; durability is the log's job from here.
  struct WalLogResult {
    int pages = 0;        ///< pages appended this pass
    bool complete = false;  ///< every dirty page of the inode is in the log
    sim::Nanos cost{};
  };
  /// `complete` is the ack gate: false (lock conflict with a host writer,
  /// ring full, NVM fault) means the caller must fall back to the
  /// synchronous flush path for this fsync.
  WalLogResult wal_log_pass(std::uint64_t inode);

  /// Counts the dirty pages of `inode` still in the cache. The fsync path
  /// uses this to refuse success while flush-failed (re-queued) pages
  /// remain dirty.
  int dirty_pages(std::uint64_t inode, sim::Nanos& cost);

  /// WorkerPool poller: services the need-evict flag and flushes a batch.
  /// Returns the number of pages it acted on. Inert while the fault
  /// injector reports `crashed()`; a CrashException from a crash point in
  /// the flush path (or the KVFS backend underneath it) is absorbed here —
  /// the DPU core dies mid-pass and the poller goes quiet until restart.
  int poll();

  /// Crash-recovery: rebuilds the DPU-side view of the cache by scanning
  /// the surviving host-DRAM meta area — the one pass that reads all of it.
  /// Clears every entry and bucket lock word the dead DPU may still hold,
  /// recomputes the header's free/dirty counts from entry status, rebuilds
  /// the dirty index and zeroes the host's dirty bitmap, drops a pending
  /// need-evict request, and resyncs the readahead-hint cursor. Returns the
  /// number of non-free pages adopted ("cache.ctl/rebuild_pages"). Run
  /// only while both planes are quiesced (DPU pollers stopped, host threads
  /// blocked on aborted NVMe commands); the caller re-flushes dirty pages
  /// afterwards with flush_pass().
  PassResult rebuild();

  const ControlPlaneStats& stats() const { return stats_; }
  std::uint32_t free_pages_seen() const;

 private:
  int poll_impl();

  /// Drains the host's dirty bitmap into the dirty index: one descriptor
  /// DMA of the bitmap, one PCIe fetch-and per nonzero word clearing
  /// exactly the bits read, and one probe of each entry those bits name.
  /// Runs at the start of every pass that consults the index.
  void ingest_dirty(sim::Nanos& cost) REQUIRES(pass_mu_);
  void index_dirty(std::uint32_t entry, std::uint64_t inode)
      REQUIRES(pass_mu_);
  void unindex_dirty(std::uint32_t entry) REQUIRES(pass_mu_);
  /// The indexed dirty entries of `inode`, ascending.
  std::vector<std::uint32_t> dirty_entries_of(std::uint64_t inode) const
      REQUIRES(pass_mu_);
  /// Flushes entry `index` if it is dirty. True while the page stays dirty
  /// (lock conflict, DIF or backend failure), so it stays indexed; false
  /// once it is clean or was found not dirty.
  bool flush_entry(std::uint32_t index, PassResult& res) REQUIRES(pass_mu_);
  /// WAL checkpoint probe and pass-cost sample after a flush.
  void finish_flush(PassResult& res) REQUIRES(pass_mu_);

  CacheEntry fetch_entry(std::uint32_t index, sim::Nanos& cost);
  // Entry/bucket lock words are PCIe atomics, not mutexes; successful
  // acquisitions still feed the lock-rank detector (ranks kCacheEntry /
  // kCacheBucket) via manual hooks keyed by the word's backing address.
  bool try_read_lock(std::uint32_t index, sim::Nanos& cost);
  void read_unlock(std::uint32_t index, sim::Nanos& cost);
  bool try_write_lock(std::uint32_t index, sim::Nanos& cost);
  void write_unlock(std::uint32_t index, sim::Nanos& cost);
  void set_status(std::uint32_t index, PageStatus s, sim::Nanos& cost);
  // Seqlock window around entry mutations (identity/page/status→free), so
  // the host's lock-free read path can detect DPU-side rewrites. Posted
  // 4-byte writes to the entry's seq word, counted as kAtomic traffic.
  void seq_write_begin(std::uint32_t index, sim::Nanos& cost);
  void seq_write_end(std::uint32_t index, sim::Nanos& cost);
  /// The accessed-bitmap words covering a run of entries, as one
  /// descriptor DMA read them into DPU DRAM.
  struct AccessedWords {
    std::uint32_t first_word = 0;
    std::span<const std::uint32_t> words;
    bool referenced(std::uint32_t entry) const {
      return ((words[entry / 32 - first_word] >> (entry % 32)) & 1u) != 0;
    }
  };
  /// Reads the words covering entries [first, first + n) into `buf`, which
  /// must hold n / 32 + 2 words.
  AccessedWords read_accessed(std::uint32_t first, std::uint32_t n,
                              std::span<std::uint32_t> buf, sim::Nanos& cost);
  /// Prefetch's in-bucket replacement: of the bucket's clean entries
  /// (`entries`, read from `head`), the one to reuse — unreferenced before
  /// referenced, then the oldest fill — or kEndOfList if none is clean. One
  /// descriptor DMA of the accessed words covering the bucket.
  std::uint32_t reuse_victim(std::uint32_t head,
                             std::span<const CacheEntry> entries,
                             sim::Nanos& cost);
  bool lock_bucket(std::uint32_t bucket, sim::Nanos& cost);
  void unlock_bucket(std::uint32_t bucket, sim::Nanos& cost);
  void bump_free(std::int32_t delta, sim::Nanos& cost);

  pcie::DmaEngine* dma_;
  const CacheLayout* layout_;
  CacheBackend* backend_;
  fault::FaultInjector* fault_;
  dpu::QosManager* qos_ = nullptr;  ///< per-tenant prefetch attribution
  nvm::WriteAheadLog* wal_ = nullptr;  ///< durability spine (may be null)
  /// Consulted only inside an eviction pass (replacement is single-flight).
  ClockEviction clock_ GUARDED_BY(pass_mu_);
  ControlPlaneConfig cfg_;
  std::unique_ptr<obs::Registry> owned_registry_;  // when none was supplied
  obs::Registry* registry_;
  ControlPlaneStats stats_;
  /// Modelled cost distributions of flush and prefetch passes.
  sim::Histogram* flush_pass_ns_;
  sim::Histogram* prefetch_pass_ns_;
  /// Serializes control-plane passes: the flusher poller and fsync-driven
  /// flushes may come from different DPU workers.
  sim::AnnotatedMutex pass_mu_{"cache.pass", sim::LockRank::kCachePass};
  SequentialPrefetcher prefetcher_ GUARDED_BY(pass_mu_);
  /// DPU-resident dirty index: every entry the drained bitmap named and the
  /// probe found dirty, with its inode, and the same pairs keyed by inode.
  /// A superset hint — every visit re-validates the live entry, and a dirty
  /// page is always either indexed or has its bitmap bit set.
  std::map<std::uint32_t, std::uint64_t> dirty_ GUARDED_BY(pass_mu_);
  std::set<std::pair<std::uint64_t, std::uint32_t>> dirty_by_ino_
      GUARDED_BY(pass_mu_);
  /// DPU-DRAM copy of the host's dirty bitmap, one drain at a time.
  std::vector<std::uint32_t> bitmap_ GUARDED_BY(pass_mu_);
  /// One page of DPU DRAM, used only inside a pass.
  std::vector<std::byte> scratch_ GUARDED_BY(pass_mu_);
  /// Last readahead-hint sequence consumed (hint loss is benign).
  std::atomic<std::uint32_t> last_ra_seq_{0};
  /// Monotonic fill counter stamped into prefetched entries so prefetch's
  /// in-bucket replacement can prefer the oldest fill.
  std::atomic<std::uint32_t> fill_seq_{1};
};

}  // namespace dpc::cache
