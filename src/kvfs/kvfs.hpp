// KVFS — the POSIX-style standalone file service DPC runs on the DPU
// (§3.4). Converts file operations into operations on the disaggregated KV
// store, replacing the local-disk file system of an application server.
//
// Layout rules (paper):
//   * path resolution walks inode KVs from root inode 0 by p_ino + name;
//   * files ≤ 8 KB live in a small-file KV rewritten whole on update;
//   * larger files promote to a big-file KV: an extent index of fixed 4 KiB
//     pages (512 block ids each) whose 8 KB blocks are updated in place, so
//     a read or overwrite touches one page whatever the file size;
//   * directory listing is a prefix scan over the parent's inode-KV prefix;
//   * an inode (attribute) cache and dentry cache accelerate lookups, and a
//     bounded extent-page cache (kExtentCachePages) serves the index, so a
//     warm 8 KiB read is one KV op and a warm 8 KiB overwrite that does not
//     grow the file one present-guarded sub-write (one round trip);
//   * mtime is lazy (like Linux `lazytime`): that overwrite bumps it in the
//     cached attr only, which keeps the mtime last made durable beside it.
//     A same-mount getattr sees the new mtime at once; the attr KV catches
//     up in any batch that puts the attr anyway, in fsync, at the end of
//     each cache flush pass (sync_mtime), and never drops for space (a
//     shard holding half its share of kCacheEntries in dirty mtimes makes
//     the next overwrite carry its attr). A DPU restart (or drop_caches()) may
//     roll mtime back to its durable value; size and data never roll back;
//   * the extent cache never makes a `shared_store` mount staler than an
//     uncached one: an allocating write re-reads its pages, a read that
//     hits a cached hole re-reads the page before returning zeros, and a
//     cached id whose block is gone (another mount truncated it; ids are
//     never reused) drops the page and re-reads it once;
//   * every mutation reads what it needs, then sends exactly one guarded,
//     atomic KV batch (kv::Batch) through commit(): create/mkdir/symlink,
//     unlink/rmdir, rename, link, truncate, the small-file or big-file
//     write and a lazy mtime's write-back (`kvfs.mtime`) land whole or not
//     at all, with crash points `kvfs.<op>/crash_before_commit` and
//     `kvfs.<op>/crash_after_commit` around the batch. A big-file write is
//     one function (write_big) for the warm overwrite, the hole fill and
//     the promotion; a warm batch whose cached id went stale is retried
//     once through the store's index. A write's attr put is guarded equal
//     to the attr this mount last loaded or committed: when another mount
//     changed it (a truncate), the write reloads it once and goes again;
//     The mount's root install is a one-op batch guarded absent, so it can
//     never overwrite a live root.
//
// Thread safety: operations take a striped per-inode lock; name-space
// operations (create/unlink/rename/...) additionally serialize on the
// parent directory's stripe. Errors are positive errno values.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/thread_annotations.hpp"

#include "fault/injector.hpp"
#include "kv/remote.hpp"
#include "kvfs/fsck.hpp"
#include "kvfs/types.hpp"
#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dpc::dpu {
class QosManager;
}

namespace dpc::nvm {
class WriteAheadLog;
}  // namespace dpc::nvm

namespace dpc::kvfs {

/// Outcome of a KVFS operation: errno (0 = ok), the value, and the modelled
/// backend cost the op accumulated (remote KV round trips).
template <typename T>
struct Result {
  int err = 0;
  T value{};
  sim::Nanos cost{};

  bool ok() const { return err == 0; }
};

struct Unit {};

/// KVFS dependencies; both optional.
struct KvfsOptions {
  /// Crash-point injector for the DPU-side mutation paths (null = no crash
  /// points, zero overhead).
  fault::FaultInjector* fault = nullptr;
  /// NVM write-ahead log (nvm/wal.hpp): when set, shrinking truncates and
  /// removals append superseding markers, and recover() replays the log's
  /// acked-but-undrained pages. Null = no WAL.
  nvm::WriteAheadLog* wal = nullptr;
};

/// KVFS counters, registry-backed ("kvfs/…") so cache hit rates and the
/// small/big write split show up in metrics JSON snapshots.
struct KvfsStats {
  explicit KvfsStats(obs::Registry& reg)
      : dentry_hits(reg.counter("kvfs/dentry_hits")),
        dentry_misses(reg.counter("kvfs/dentry_misses")),
        attr_hits(reg.counter("kvfs/attr_hits")),
        attr_misses(reg.counter("kvfs/attr_misses")),
        small_rewrites(reg.counter("kvfs/small_rewrites")),
        big_inplace_writes(reg.counter("kvfs/big_inplace_writes")),
        promotions(reg.counter("kvfs/promotions")),
        extent_hits(reg.counter("kvfs/extent_hits")),
        extent_misses(reg.counter("kvfs/extent_misses")) {}

  obs::Counter& dentry_hits;
  obs::Counter& dentry_misses;
  obs::Counter& attr_hits;
  obs::Counter& attr_misses;
  obs::Counter& small_rewrites;
  obs::Counter& big_inplace_writes;
  obs::Counter& promotions;
  obs::Counter& extent_hits;    ///< block-id lookups whose page was cached
  obs::Counter& extent_misses;  ///< block-id lookups whose page was not
};

class Kvfs {
 public:
  /// `registry` hosts the KVFS counters; when null a private registry is
  /// created (standalone/unit-test construction).
  explicit Kvfs(kv::RemoteKv& store, const KvfsOptions& opts = {},
                obs::Registry* registry = nullptr);

  // ------------------------------------------------------------ namespace
  Result<Ino> create(Ino parent, std::string_view name, std::uint32_t mode);
  Result<Ino> mkdir(Ino parent, std::string_view name, std::uint32_t mode);
  Result<Ino> lookup(Ino parent, std::string_view name);
  /// Resolves an absolute path ("/a/b/c") from the root inode, following
  /// symlinks (bounded at kMaxSymlinkFollows).
  Result<Ino> resolve(std::string_view path);
  static constexpr int kMaxSymlinkFollows = 40;
  /// Removes a name. `value` is the inode when its last link went (its
  /// data is gone), else 0.
  Result<Ino> unlink(Ino parent, std::string_view name);
  Result<Ino> rmdir(Ino parent, std::string_view name);
  Result<Unit> rename(Ino old_parent, std::string_view old_name,
                      Ino new_parent, std::string_view new_name);
  /// Hard link: a second inode-KV entry naming the same regular file.
  Result<Unit> link(Ino ino, Ino new_parent, std::string_view name);
  /// Symbolic link holding `target` (absolute or relative path text).
  Result<Ino> symlink(std::string_view target, Ino parent,
                      std::string_view name);
  Result<std::string> readlink(Ino ino);
  Result<std::vector<DirEntry>> readdir(Ino dir);

  // ------------------------------------------------------------ attributes
  Result<Attr> getattr(Ino ino);

  // ------------------------------------------------------------------ data
  /// Returns bytes read (short reads at EOF; holes read as zeros).
  /// `tenant` attributes the backend bytes to a QoS tenant when a manager
  /// is attached (tenant 0 = unattributed default).
  Result<std::uint32_t> read(Ino ino, std::uint64_t offset,
                             std::span<std::byte> dst,
                             nvme::TenantId tenant = 0);
  /// Returns bytes written (always all of src on success).
  Result<std::uint32_t> write(Ino ino, std::uint64_t offset,
                              std::span<const std::byte> src,
                              nvme::TenantId tenant = 0);
  Result<Unit> truncate(Ino ino, std::uint64_t new_size);
  /// Makes the file's attr durable: a dirty (lazy) mtime is put in a
  /// one-op batch, otherwise one barrier round trip.
  Result<Unit> fsync(Ino ino);
  /// Puts the file's attr when its cached mtime is dirty (one one-op
  /// batch), else does nothing. The cache flusher calls it for every inode
  /// a pass wrote, so a page drained there leaves no mtime behind.
  Result<Unit> sync_mtime(Ino ino);

  // ------------------------------------------------------------- recovery
  /// Outcome of replaying the NVM write-ahead log: the data pages that were
  /// acked at NVM persistence but not yet drained to the KV path when the
  /// crash hit.
  struct WalReplayReport {
    std::uint64_t scanned = 0;  ///< commit-verified records in the log
    std::uint64_t applied = 0;  ///< pages re-written
    std::uint64_t skipped = 0;  ///< superseded (drained/truncated)
    std::uint64_t corrupt = 0;  ///< frames dropped by CRC (rot in log)
    bool torn_tail = false;     ///< log ended in an unacked torn append
    sim::Nanos cost{};
  };

  /// Outcome of a full recovery pass (DPU restart / explicit fsck-repair).
  struct RecoveryReport {
    WalReplayReport wal;    ///< NVM log replay (when opts.wal set)
    FsckRepairReport fsck;  ///< backstop repair pass
    sim::Nanos cost{};

    bool clean() const { return fsck.clean; }
  };

  /// Full recovery: drops volatile caches, replays the NVM write-ahead log
  /// (acked fsync data), then runs repairing fsck as the backstop for rot.
  /// Every mutation is one atomic batch, so a crash leaves no torn op to
  /// roll. Call with no concurrent mutating traffic — the DPU restart path
  /// quiesces the queues first. Idempotent: a crash during WAL replay
  /// (kCrashWalMidReplay) leaves a state a second recover() converges from.
  RecoveryReport recover();

  const KvfsStats& stats() const { return stats_; }
  /// Forgets every cached dentry, attr and extent page, as a DPU restart
  /// does: a dirty mtime rolls back to its durable value.
  void drop_caches();

  /// Attaches the DPU QoS manager so data-path backend bytes are scoped to
  /// the issuing tenant ("qos/t<i>/backend_bytes"). Null detaches. Set
  /// during system wiring, before traffic.
  void attach_qos(dpu::QosManager* qos) { qos_ = qos; }

 private:
  Result<std::uint32_t> read_impl(Ino ino, std::uint64_t offset,
                                  std::span<std::byte> dst);
  Result<std::uint32_t> write_impl(Ino ino, std::uint64_t offset,
                                   std::span<const std::byte> src);

  // ---- KV helpers (each adds its remote cost to `cost`) ----
  /// nullopt when the attr is absent (`*err` = ENOENT) or its get failed
  /// (`*err` = EIO); load_dentry alike. `*hit` (optional) is set when the
  /// attr came from the cache rather than the store.
  std::optional<Attr> load_attr(Ino ino, sim::Nanos& cost,
                                int* err = nullptr, bool* hit = nullptr);
  std::optional<Ino> load_dentry(Ino parent, std::string_view name,
                                 sim::Nanos& cost, int* err = nullptr);
  /// Sends `batch`, the one KV mutation of operation `op` ("kvfs.<op>"),
  /// between the crash points `<op>/crash_before_commit` and
  /// `<op>/crash_after_commit` (the latter only once it applied).
  kv::Timed<kv::ApplyResult> commit(std::string_view op,
                                    const kv::Batch& batch, sim::Nanos& cost);
  Ino alloc_ino(sim::Nanos& cost);
  std::uint64_t alloc_block(sim::Nanos& cost);
  std::uint64_t now();

  /// `symlink_target` (symlinks only) rides in the small-file KV, inside
  /// the node's one batch.
  Result<Ino> make_node(Ino parent, std::string_view name, FileType type,
                        std::uint32_t mode, std::string_view symlink_target);
  Result<Ino> remove_node(Ino parent, std::string_view name, bool dir);
  /// Stages the erase of every data KV of `a` (its extent pages and blocks,
  /// or its small-file KV) into `b`; `pages` gets the erased page numbers
  /// to uncache once the batch applied. False when the page scan failed.
  bool stage_purge(const Attr& a, kv::Batch& b,
                   std::vector<std::uint32_t>& pages, sim::Nanos& cost);
  /// Fetches extent page `page` of `ino` from the store into `out`; an
  /// absent page reads as all holes. False only when the KV get failed.
  bool load_page(Ino ino, std::uint32_t page, ExtentPage& out,
                 sim::Nanos& cost);
  /// Block id of logical block `logical` of `ino` (0 = hole): from the
  /// extent cache unless `refetch` or its page is not cached, else fetched
  /// with load_page and cached (`fetched` set). nullopt only when the KV
  /// get failed.
  std::optional<std::uint64_t> load_extent(Ino ino, std::uint64_t logical,
                                           bool refetch, bool& fetched,
                                           sim::Nanos& cost);
  /// Returned by write_small, write_big and truncate_once when a guard was
  /// refused: another mount changed the attr since this one loaded it.
  static constexpr int kStaleAttr = -1;
  /// The §3.4 small-file rewrite: the whole small KV and the attr in one
  /// batch. Returns 0, an errno or kStaleAttr; nothing landed unless 0.
  int write_small(const Attr& attr, std::uint64_t offset,
                  std::span<const std::byte> src, sim::Nanos& cost);
  /// The big-file write (§3.4's in-place 8 KiB update), promoting a small
  /// file first. When every block of the range is cached and allocated,
  /// the ids come from the extent cache (warm); otherwise the touched pages
  /// are fetched from the store and the holes allocated. Either way one
  /// batch carries the blocks (present-guarded sub-writes into existing
  /// ones, puts or sub-writes creating fresh ones), the changed pages and
  /// the attr, guarded equal to its durable encoding. A warm write that
  /// does not grow the file sends the sub-writes alone and bumps the
  /// cached mtime after the commit (lazy mtime). A warm block guard that
  /// fails uncaches the block's page and goes once more through the fetch.
  /// Returns 0, an errno or kStaleAttr; nothing landed unless 0.
  int write_big(const Attr& attr, std::uint64_t offset,
                std::span<const std::byte> src, sim::Nanos& cost);
  /// Hands back `err` unless it is kStaleAttr; then `once` runs again on
  /// the attr reloaded through the store, and a second kStaleAttr is EIO.
  template <typename Once>
  int retry_if_stale(Ino ino, int err, sim::Nanos& cost, Once&& once);
  /// One truncate of `attr`'s file to `new_size` in one batch, its attr
  /// put guarded equal to the durable encoding. A same-size truncate sends
  /// nothing when `cached` is false (the attr was just read from the
  /// store), else the attr put alone, which verifies the cached size.
  /// Returns 0, an errno or kStaleAttr; nothing landed unless 0.
  int truncate_once(const Attr& attr, std::uint64_t new_size, bool cached,
                    sim::Nanos& cost);
  /// Puts `ino`'s attr when its cached mtime is dirty, guarded equal to the
  /// durable encoding (the caller holds the inode's stripe). A refused
  /// guard means another mount committed the attr since: its commit
  /// stands and the dirty mtime is dropped. `sent` says whether a batch
  /// went out. Returns 0 or EIO.
  int persist_mtime(Ino ino, bool& sent, sim::Nanos& cost);
  /// Replays the NVM write-ahead log (recover() step 1; opts_.wal != null).
  WalReplayReport replay_wal();
  /// Stages the §3.4 small→big promotion of `a` into `b`: the small KV's
  /// bytes (read into `small`, which must outlive the batch) move to a new
  /// landing block, the small KV is erased and big_file set. `page0` gets
  /// the ids page 0 must hold; the caller stages its put. False = EIO.
  bool stage_promotion(Attr& a, kv::Batch& b, kv::Bytes& small,
                       ExtentPage& page0, sim::Nanos& cost);
  /// nullopt when the scan failed: emptiness is unproven.
  std::optional<bool> dir_empty(Ino dir, sim::Nanos& cost);

  // ---- caches ----
  void cache_dentry(Ino parent, std::string_view name, Ino ino);
  void uncache_dentry(Ino parent, std::string_view name);
  std::optional<Ino> cached_dentry(Ino parent, std::string_view name);
  /// Caches `a` as durable (just loaded or committed): its mtime is clean.
  void cache_attr(const Attr& a);
  /// cache_attr for an attr just loaded from the store, unless an entry is
  /// there already (a concurrent load or commit): returns what is cached.
  Attr fill_attr(const Attr& loaded);
  void uncache_attr(Ino ino);
  std::optional<Attr> cached_attr(Ino ino);
  /// The mtime of `a` as last made durable: differs from a.mtime while the
  /// cached attr holds a lazily bumped one.
  std::uint64_t durable_mtime(const Attr& a);
  /// `a` encoded with its durable mtime: what the attr KV holds, as far as
  /// this mount knows — the operand of every write's attr guard.
  kv::Bytes durable_encoding(const Attr& a);
  /// Whether a warm overwrite of `ino` may leave its mtime dirty: its attr
  /// is cached, and dirty already or its shard holds fewer dirty mtimes
  /// than half its share of kCacheEntries (so dropping the clean entries
  /// always frees the other half).
  bool may_defer_mtime(Ino ino);
  /// Bumps the cached mtime of `a` (just written under its stripe) without
  /// making it durable.
  void touch_mtime(const Attr& a, std::uint64_t mtime);
  void cache_page(Ino ino, std::uint32_t page, const ExtentPage& ids);
  void uncache_page(Ino ino, std::uint32_t page);
  /// Block id at `logical` (0 = hole) if its page is cached.
  std::optional<std::uint64_t> cached_extent(Ino ino, std::uint64_t logical);

  // ---- locking ----
  sim::AnnotatedMutex& inode_lock(Ino ino);
  /// Locks two stripes in address order (no deadlock on rename).
  struct DualLock;

  kv::RemoteKv* store_;
  KvfsOptions opts_;
  std::unique_ptr<obs::Registry> owned_registry_;  // when none was supplied
  obs::Registry* registry_;                        // whichever is active
  KvfsStats stats_;
  dpu::QosManager* qos_ = nullptr;  ///< per-tenant byte attribution

  std::atomic<std::uint64_t> logical_time_{1};

  static constexpr std::size_t kLockStripes = 64;
  /// Wrapper so the annotated mutex (no default ctor) can live in an array.
  struct Stripe {
    sim::AnnotatedMutex mu{"kvfs.stripe", sim::LockRank::kShard};
  };
  std::array<Stripe, kLockStripes> stripes_;

  /// Extent-cache key: (ino, page).
  using PageKey = std::pair<Ino, std::uint32_t>;
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      return static_cast<std::size_t>(
          (k.first * 0x9E3779B97F4A7C15ull ^ k.second) * 0xC2B2AE3D27D4EB4Full);
    }
  };

  /// Sharded metadata caches (kCacheShards): each shard owns its slice of the
  /// dentry map (key = inode_key), the attr map and the extent-page map
  /// under its own shared mutex (leaf rank: taken under a stripe on every
  /// cached lookup, never holds anything itself). Cache-line aligned so hot
  /// shard locks on neighbouring shards never false-share. Capacity caps
  /// and wholesale drops apply per shard: the dentry and attr caches hold
  /// up to kCacheEntries each in total, the extent cache kExtentCachePages.
  /// An attr cache entry: the attr getattr returns and the mtime last
  /// made durable (they differ while a lazy mtime is dirty).
  struct CachedAttr {
    Attr attr;
    std::uint64_t durable_mtime = 0;
    bool dirty() const { return attr.mtime != durable_mtime; }
  };
  struct alignas(64) CacheShard {
    mutable sim::AnnotatedSharedMutex mu{"kvfs.cache", sim::LockRank::kLeaf};
    std::unordered_map<std::string, Ino> dentry GUARDED_BY(mu);
    /// A full shard drops its clean attrs only; a dirty one stays until
    /// its mtime is durable.
    std::unordered_map<Ino, CachedAttr> attr GUARDED_BY(mu);
    std::size_t dirty_attrs GUARDED_BY(mu) = 0;
    std::unordered_map<PageKey, ExtentPage, PageKeyHash> extent
        GUARDED_BY(mu);
  };
  CacheShard& dentry_shard(Ino parent, std::string_view name);
  CacheShard& attr_shard(Ino ino);
  CacheShard& extent_shard(Ino ino, std::uint32_t page);
  static constexpr std::size_t kCacheEntries = 8192;
  /// 1024 pages = 4 MiB of ids, indexing 4 GiB of file.
  static constexpr std::size_t kExtentCachePages = 1024;
  /// Per-shard share of a cache holding `total` entries.
  std::size_t shard_cap(std::size_t total) const;

  /// A power of two, so shard selection is a mask; fixed, so which entries
  /// a wholesale drop evicts does not depend on the host.
  static constexpr std::size_t kCacheShards = 16;

  std::vector<CacheShard> cache_shards_{kCacheShards};
};

}  // namespace dpc::kvfs
