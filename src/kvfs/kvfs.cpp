#include "kvfs/kvfs.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "dpu/qos.hpp"
#include "nvm/wal.hpp"
#include "sim/check.hpp"

namespace dpc::kvfs {

namespace {
using Guard = kv::Batch::Guard;

bool valid_name(std::string_view name) {
  return !name.empty() && name.size() <= kMaxNameLen &&
         name.find('/') == std::string_view::npos && name != "." &&
         name != "..";
}
}  // namespace

Kvfs::Kvfs(kv::RemoteKv& store, const KvfsOptions& opts,
           obs::Registry* registry)
    : store_(&store),
      opts_(opts),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      stats_(*registry_) {
  // Install the root directory's attribute if this is a fresh store. A
  // failed probe does not prove the store fresh, so the put is guarded
  // absent: over a shared store's live root it is a no-op.
  sim::Nanos cost{};
  if (!load_attr(kRootIno, cost)) {
    Attr root;
    root.ino = kRootIno;
    root.type = FileType::kDirectory;
    root.mode = 0755;
    root.nlink = 2;
    root.ctime = root.mtime = root.atime = now();
    kv::Batch b;
    b.put(attr_key(kRootIno), encode_attr(root), Guard::kAbsent);
    const auto r = store_->apply(b);
    if (r.ok() && r.value.applied()) cache_attr(root);
  }
}

Kvfs::RecoveryReport Kvfs::recover() {
  RecoveryReport rep;
  // Volatile caches may hold state from before the crash (entries the
  // interrupted op cached but never durably completed) — drop them so every
  // post-recovery read refetches truth.
  drop_caches();
  if (opts_.wal != nullptr) rep.wal = replay_wal();
  // fsck rewrites attrs and extent pages straight in the raw store, behind
  // the caches the WAL replay's writes refilled.
  rep.fsck = fsck_repair(store_->store(), registry_);
  drop_caches();
  rep.cost = rep.wal.cost + rep.fsck.cost;
  return rep;
}

Kvfs::WalReplayReport Kvfs::replay_wal() {
  WalReplayReport rep;
  nvm::WriteAheadLog* wal = opts_.wal;
  auto rec = wal->recover();
  rep.cost += rec.cost;
  rep.scanned = rec.report.scanned;
  rep.corrupt = rec.report.corrupt;
  rep.torn_tail = rec.report.torn_tail;

  // Pass 1: collect the markers. They sit later in the log than the
  // records they supersede (same mutex orders both), so one sweep finds
  // the newest drain per page and every shrink.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> drained;
  struct Shrink {
    std::uint64_t seq, ino, size;
  };
  std::vector<Shrink> shrinks;
  for (const auto& r : rec.records) {
    switch (r.kind) {
      case nvm::RecordKind::kDrained: {
        auto& newest = drained[{r.a, r.b}];
        newest = std::max(newest, r.seq);
        break;
      }
      case nvm::RecordKind::kTruncate:
        shrinks.push_back({r.seq, r.a, r.b});
        break;
      default:
        break;
    }
  }

  // Pass 2: apply in seq order through the regular (atomic, idempotent)
  // KVFS write path. The crash point lets the chaos sweep kill the DPU with the
  // log half-applied; the second replay converges on the same end state.
  for (const auto& r : rec.records) {
    fault::crash_point(opts_.fault, nvm::kCrashWalMidReplay);
    switch (r.kind) {
      case nvm::RecordKind::kData: {
        const std::uint64_t page = r.data.size();
        if (page == 0) {
          ++rep.skipped;
          break;
        }
        const auto d = drained.find({r.a, r.b});
        if (d != drained.end() && d->second > r.seq) {
          ++rep.skipped;  // the flusher drained a same-or-newer copy
          break;
        }
        bool cut = false;
        for (const auto& t : shrinks)
          cut = cut || (t.seq > r.seq && t.ino == r.a && r.b * page >= t.size);
        if (cut) {
          ++rep.skipped;  // page lies wholly past a later shrink
          break;
        }
        // Clamp to the durable size: size updates are synchronous KV ops,
        // so the attr already bounds every acked byte — writing the whole
        // page would grow the file past truth.
        sim::Nanos c{};
        const auto attr = load_attr(r.a, c);
        rep.cost += c;
        if (!attr || attr->type != FileType::kRegular) {
          ++rep.skipped;  // unlinked (or replaced) since it was logged
          break;
        }
        const std::uint64_t off = r.b * page;
        if (off >= attr->size) {
          ++rep.skipped;
          break;
        }
        const std::uint64_t n =
            std::min<std::uint64_t>(page, attr->size - off);
        auto res =
            write(r.a, off, std::span<const std::byte>(r.data).first(n));
        rep.cost += res.cost;
        if (res.ok()) {
          ++rep.applied;
        } else {
          ++rep.skipped;
        }
        break;
      }
      default:
        break;  // the markers themselves carry no state to apply
    }
  }

  // Every surviving record is now durable in the KV path: truncate the log
  // so the next crash replays nothing stale. (A crash before this line
  // replays the whole log again — idempotent by the above.)
  sim::Nanos ck{};
  wal->mark_replayed(ck);
  rep.cost += ck;

  if (rep.scanned > 0 || rep.torn_tail) {
    // Recovery path — runs once per DPU restart, not per op.
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry_->counter("kvfs.wal/replayed").add(rep.applied);
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry_->counter("kvfs.wal/skipped").add(rep.skipped);
  }
  return rep;
}

// ----------------------------------------------------------------- helpers

sim::AnnotatedMutex& Kvfs::inode_lock(Ino ino) {
  return stripes_[static_cast<std::size_t>(ino * 0x9e3779b97f4a7c15ULL >>
                                           32) %
                  kLockStripes]
      .mu;
}

/// Locks the stripes of up to two inodes without deadlocking (address
/// order; a shared stripe is locked once).
struct Kvfs::DualLock {
  // Conditional two-mutex acquisition through pointers is beyond the static
  // analysis; the runtime lock-rank detector still sees both acquisitions
  // (same rank, consistent address order -> acyclic).
  DualLock(Kvfs& fs, Ino a, Ino b) NO_THREAD_SAFETY_ANALYSIS {
    sim::AnnotatedMutex* ma = &fs.inode_lock(a);
    sim::AnnotatedMutex* mb = &fs.inode_lock(b);
    if (ma == mb) {
      ma->lock();
      first_ = ma;
    } else {
      if (ma > mb) std::swap(ma, mb);
      ma->lock();
      mb->lock();
      first_ = ma;
      second_ = mb;
    }
  }
  ~DualLock() NO_THREAD_SAFETY_ANALYSIS {
    if (second_) second_->unlock();
    if (first_) first_->unlock();
  }
  DualLock(const DualLock&) = delete;
  DualLock& operator=(const DualLock&) = delete;

 private:
  sim::AnnotatedMutex* first_ = nullptr;
  sim::AnnotatedMutex* second_ = nullptr;
};

std::uint64_t Kvfs::now() {
  return logical_time_.fetch_add(1, std::memory_order_relaxed);
}

Ino Kvfs::alloc_ino(sim::Nanos& cost) {
  // Cluster-wide counter in the KV store: several mounts sharing one
  // backend allocate collision-free ids (root stays 0; ids start at 1).
  // A transient KV failure yields 0, which callers map to EIO.
  auto r = store_->increment(ino_counter_key(), 1);
  cost += r.cost;
  return r.ok() ? r.value : 0;
}

std::uint64_t Kvfs::alloc_block(sim::Nanos& cost) {
  auto r = store_->increment(block_counter_key(), 1);
  cost += r.cost;
  return r.ok() ? r.value : 0;
}

std::optional<Attr> Kvfs::load_attr(Ino ino, sim::Nanos& cost, int* err,
                                    bool* hit) {
  if (auto a = cached_attr(ino)) {
    stats_.attr_hits.fetch_add(1, std::memory_order_relaxed);
    if (hit != nullptr) *hit = true;
    return a;
  }
  stats_.attr_misses.fetch_add(1, std::memory_order_relaxed);
  auto r = store_->get(attr_key(ino));
  cost += r.cost;
  if (!r.value) {
    if (err != nullptr) *err = r.ok() ? ENOENT : EIO;
    return std::nullopt;
  }
  return fill_attr(decode_attr(*r.value));
}

std::optional<Ino> Kvfs::load_dentry(Ino parent, std::string_view name,
                                     sim::Nanos& cost, int* err) {
  if (auto ino = cached_dentry(parent, name)) {
    stats_.dentry_hits.fetch_add(1, std::memory_order_relaxed);
    return ino;
  }
  stats_.dentry_misses.fetch_add(1, std::memory_order_relaxed);
  auto r = store_->get(inode_key(parent, name));
  cost += r.cost;
  if (!r.value) {
    if (err != nullptr) *err = r.ok() ? ENOENT : EIO;
    return std::nullopt;
  }
  const Ino ino = decode_ino(*r.value);
  cache_dentry(parent, name, ino);
  return ino;
}

kv::Timed<kv::ApplyResult> Kvfs::commit(std::string_view op,
                                        const kv::Batch& batch,
                                        sim::Nanos& cost) {
  // The site names are only built when crash points can fire.
  if (opts_.fault != nullptr)
    fault::crash_point(opts_.fault, std::string(op) + "/crash_before_commit");
  auto r = store_->apply(batch);
  cost += r.cost;
  if (opts_.fault != nullptr && r.ok() && r.value.applied())
    fault::crash_point(opts_.fault, std::string(op) + "/crash_after_commit");
  return r;
}

// ------------------------------------------------------------------ caches

Kvfs::CacheShard& Kvfs::dentry_shard(Ino parent, std::string_view name) {
  // Mix the parent into the name hash so hot directories still spread their
  // entries across shards.
  std::uint64_t h = std::hash<std::string_view>{}(name);
  h ^= parent * 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return cache_shards_[(h >> 32) & (kCacheShards - 1)];
}

Kvfs::CacheShard& Kvfs::attr_shard(Ino ino) {
  return cache_shards_[(ino * 0x9E3779B97F4A7C15ull >> 32) &
                       (kCacheShards - 1)];
}

Kvfs::CacheShard& Kvfs::extent_shard(Ino ino, std::uint32_t page) {
  return cache_shards_[(PageKeyHash{}({ino, page}) >> 32) &
                       (kCacheShards - 1)];
}

std::size_t Kvfs::shard_cap(std::size_t total) const {
  return std::max<std::size_t>(1, total / kCacheShards);
}

void Kvfs::cache_dentry(Ino parent, std::string_view name, Ino ino) {
  CacheShard& sh = dentry_shard(parent, name);
  sim::LockGuard lock(sh.mu);
  if (sh.dentry.size() >= shard_cap(kCacheEntries))
    sh.dentry.clear();  // wholesale per-shard drop: simple and rare
  sh.dentry[inode_key(parent, name)] = ino;
}

void Kvfs::uncache_dentry(Ino parent, std::string_view name) {
  CacheShard& sh = dentry_shard(parent, name);
  sim::LockGuard lock(sh.mu);
  sh.dentry.erase(inode_key(parent, name));
}

std::optional<Ino> Kvfs::cached_dentry(Ino parent, std::string_view name) {
  CacheShard& sh = dentry_shard(parent, name);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.dentry.find(inode_key(parent, name));
  if (it == sh.dentry.end()) return std::nullopt;
  return it->second;
}

void Kvfs::cache_attr(const Attr& a) {
  CacheShard& sh = attr_shard(a.ino);
  sim::LockGuard lock(sh.mu);
  const auto it = sh.attr.find(a.ino);
  if (it == sh.attr.end()) {
    if (sh.attr.size() >= shard_cap(kCacheEntries)) {
      // Per-shard drop, simple and rare: the clean entries only, so a
      // dirty mtime is never lost (at most half the shard is dirty).
      std::erase_if(sh.attr, [](const auto& e) { return !e.second.dirty(); });
    }
    sh.attr.emplace(a.ino, CachedAttr{a, a.mtime});
    return;
  }
  if (it->second.dirty()) --sh.dirty_attrs;
  it->second = CachedAttr{a, a.mtime};
}

Attr Kvfs::fill_attr(const Attr& loaded) {
  {
    CacheShard& sh = attr_shard(loaded.ino);
    sim::SharedLockGuard lock(sh.mu);
    const auto it = sh.attr.find(loaded.ino);
    if (it != sh.attr.end()) return it->second.attr;
  }
  cache_attr(loaded);
  return loaded;
}

void Kvfs::uncache_attr(Ino ino) {
  CacheShard& sh = attr_shard(ino);
  sim::LockGuard lock(sh.mu);
  const auto it = sh.attr.find(ino);
  if (it == sh.attr.end()) return;
  if (it->second.dirty()) --sh.dirty_attrs;
  sh.attr.erase(it);
}

std::optional<Attr> Kvfs::cached_attr(Ino ino) {
  CacheShard& sh = attr_shard(ino);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.attr.find(ino);
  if (it == sh.attr.end()) return std::nullopt;
  return it->second.attr;
}

std::uint64_t Kvfs::durable_mtime(const Attr& a) {
  CacheShard& sh = attr_shard(a.ino);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.attr.find(a.ino);
  return it != sh.attr.end() && it->second.attr.mtime == a.mtime
             ? it->second.durable_mtime
             : a.mtime;
}

kv::Bytes Kvfs::durable_encoding(const Attr& a) {
  Attr d = a;
  d.mtime = durable_mtime(a);
  return encode_attr(d);
}

bool Kvfs::may_defer_mtime(Ino ino) {
  CacheShard& sh = attr_shard(ino);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.attr.find(ino);
  return it != sh.attr.end() &&
         (it->second.dirty() ||
          sh.dirty_attrs < shard_cap(kCacheEntries) / 2);
}

void Kvfs::touch_mtime(const Attr& a, std::uint64_t mtime) {
  CacheShard& sh = attr_shard(a.ino);
  sim::LockGuard lock(sh.mu);
  // `a` is clean if its entry went (a dirty one is never dropped for
  // space), so it re-enters with its own mtime as the durable one.
  CachedAttr& e = sh.attr.try_emplace(a.ino, CachedAttr{a, a.mtime})
                      .first->second;
  if (!e.dirty()) ++sh.dirty_attrs;
  e.attr.mtime = mtime;
}

void Kvfs::cache_page(Ino ino, std::uint32_t page, const ExtentPage& ids) {
  CacheShard& sh = extent_shard(ino, page);
  sim::LockGuard lock(sh.mu);
  if (sh.extent.size() >= shard_cap(kExtentCachePages)) sh.extent.clear();
  sh.extent.insert_or_assign({ino, page}, ids);
}

void Kvfs::uncache_page(Ino ino, std::uint32_t page) {
  CacheShard& sh = extent_shard(ino, page);
  sim::LockGuard lock(sh.mu);
  sh.extent.erase({ino, page});
}

std::optional<std::uint64_t> Kvfs::cached_extent(Ino ino,
                                                 std::uint64_t logical) {
  const std::uint32_t page = page_of_block(logical);
  CacheShard& sh = extent_shard(ino, page);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.extent.find({ino, page});
  if (it == sh.extent.end()) return std::nullopt;
  return it->second[slot_of_block(logical)];
}

void Kvfs::drop_caches() {
  for (CacheShard& sh : cache_shards_) {
    sim::LockGuard lock(sh.mu);
    sh.dentry.clear();
    sh.attr.clear();
    sh.dirty_attrs = 0;
    sh.extent.clear();
  }
}

// --------------------------------------------------------------- namespace

Result<Ino> Kvfs::make_node(Ino parent, std::string_view name, FileType type,
                            std::uint32_t mode,
                            std::string_view symlink_target) {
  Result<Ino> res;
  if (!valid_name(name)) {
    res.err = EINVAL;
    return res;
  }
  sim::LockGuard lock(inode_lock(parent));
  const auto pattr = load_attr(parent, res.cost, &res.err);
  if (!pattr) return res;
  if (pattr->type != FileType::kDirectory) {
    res.err = ENOTDIR;
    return res;
  }
  const Ino ino = alloc_ino(res.cost);
  if (ino == 0) {
    res.err = EIO;
    return res;
  }

  Attr a;
  a.ino = ino;
  a.type = type;
  a.mode = mode;
  a.nlink = type == FileType::kDirectory ? 2 : 1;
  a.size = symlink_target.size();  // 0 except for symlinks
  a.ctime = a.mtime = a.atime = now();
  Attr p = *pattr;
  p.mtime = now();
  if (type == FileType::kDirectory) ++p.nlink;

  // One batch: the name (absent guard: the existence check and the insert
  // in one step), the attr, a symlink's target, and the parent attr.
  kv::Batch b;
  const std::size_t dentry =
      b.put(inode_key(parent, name), encode_ino(ino), Guard::kAbsent);
  b.put(attr_key(ino), encode_attr(a));
  if (type == FileType::kSymlink)
    b.put(small_key(ino), std::as_bytes(std::span(symlink_target)));
  b.put(attr_key(parent), encode_attr(p), Guard::kPresent);
  const auto r = commit(type == FileType::kDirectory ? "kvfs.mkdir"
                        : type == FileType::kSymlink ? "kvfs.symlink"
                                                     : "kvfs.create",
                        b, res.cost);
  if (!r.ok()) {
    res.err = EIO;  // transient KV failure, not a name collision
    return res;
  }
  if (!r.value.applied()) {
    // Lost the name race, or the parent went away under a stale cache.
    if (r.value.failed_guard != dentry) uncache_attr(parent);
    res.err = r.value.failed_guard == dentry ? EEXIST : ENOENT;
    return res;
  }
  cache_dentry(parent, name, ino);
  cache_attr(a);
  cache_attr(p);
  res.value = ino;
  return res;
}

Result<Ino> Kvfs::create(Ino parent, std::string_view name,
                         std::uint32_t mode) {
  return make_node(parent, name, FileType::kRegular, mode, {});
}

Result<Ino> Kvfs::mkdir(Ino parent, std::string_view name,
                        std::uint32_t mode) {
  return make_node(parent, name, FileType::kDirectory, mode, {});
}

Result<Ino> Kvfs::lookup(Ino parent, std::string_view name) {
  Result<Ino> res;
  if (!valid_name(name)) {
    res.err = EINVAL;
    return res;
  }
  const auto ino = load_dentry(parent, name, res.cost);
  if (!ino) {
    res.err = ENOENT;
    return res;
  }
  res.value = *ino;
  return res;
}

Result<Ino> Kvfs::resolve(std::string_view path) {
  Result<Ino> res;
  if (path.empty() || path[0] != '/') {
    res.err = EINVAL;
    return res;
  }
  // "path resolution is done by recursively fetching the inode KVs from the
  // root to the target inode using p_ino+name as the key" (§3.4), following
  // symlinks with a loop bound.
  std::string work(path);
  Ino cur = kRootIno;
  std::size_t at = 1;
  int follows = 0;
  while (at < work.size()) {
    const std::size_t slash = work.find('/', at);
    const std::string_view comp =
        std::string_view(work).substr(
            at, slash == std::string::npos ? std::string_view::npos
                                           : slash - at);
    const std::size_t next_at =
        slash == std::string::npos ? work.size() : slash + 1;
    if (comp.empty()) {
      at = next_at;
      continue;
    }
    auto step = lookup(cur, comp);
    res.cost += step.cost;
    if (!step.ok()) {
      res.err = step.err;
      return res;
    }
    auto attr = load_attr(step.value, res.cost);
    if (attr && attr->type == FileType::kSymlink) {
      if (++follows > kMaxSymlinkFollows) {
        res.err = ELOOP;
        return res;
      }
      auto target = readlink(step.value);
      res.cost += target.cost;
      if (!target.ok()) {
        res.err = target.err;
        return res;
      }
      const std::string rest = work.substr(next_at);
      if (!target.value.empty() && target.value[0] == '/') {
        // Absolute target: restart from the root.
        work = target.value;
        if (!rest.empty()) work += "/" + rest;
        cur = kRootIno;
        at = 1;
      } else {
        // Relative target: resolve against the current directory.
        work = target.value;
        if (!rest.empty()) work += "/" + rest;
        at = 0;
      }
      continue;
    }
    cur = step.value;
    at = next_at;
  }
  res.value = cur;
  return res;
}

std::optional<bool> Kvfs::dir_empty(Ino dir, sim::Nanos& cost) {
  bool empty = true;
  auto scan = store_->scan_prefix(
      inode_key_prefix(dir), [&](std::string_view, const kv::Bytes&) {
        empty = false;
        return false;  // stop at the first entry
      });
  cost += scan.cost;
  if (!scan.ok()) return std::nullopt;
  return empty;
}

bool Kvfs::stage_purge(const Attr& a, kv::Batch& b,
                       std::vector<std::uint32_t>& pages, sim::Nanos& cost) {
  if (!a.big_file) {
    b.erase(small_key(a.ino));
    return true;
  }
  auto scan = store_->scan_prefix(
      extent_page_prefix(a.ino), [&](std::string_view key, const kv::Bytes& v) {
        pages.push_back(page_of_extent_key(key));
        b.erase(std::string(key));
        for (const std::uint64_t id : decode_extent_page(v))
          if (id != 0) b.erase(block_key(id));
        return true;
      });
  cost += scan.cost;
  return scan.ok();
}

bool Kvfs::load_page(Ino ino, std::uint32_t page, ExtentPage& out,
                     sim::Nanos& cost) {
  auto r = store_->get(extent_page_key(ino, page));
  cost += r.cost;
  if (!r.ok()) return false;
  if (r.value) {
    out = decode_extent_page(*r.value);
  } else {
    out.fill(0);  // never-written page: all holes
  }
  return true;
}

std::optional<std::uint64_t> Kvfs::load_extent(Ino ino, std::uint64_t logical,
                                               bool refetch, bool& fetched,
                                               sim::Nanos& cost) {
  fetched = false;
  if (!refetch) {
    if (const auto id = cached_extent(ino, logical)) {
      stats_.extent_hits.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    stats_.extent_misses.fetch_add(1, std::memory_order_relaxed);
  }
  ExtentPage page;
  if (!load_page(ino, page_of_block(logical), page, cost)) return std::nullopt;
  cache_page(ino, page_of_block(logical), page);
  fetched = true;
  return page[slot_of_block(logical)];
}

Result<Ino> Kvfs::remove_node(Ino parent, std::string_view name, bool dir) {
  Result<Ino> res;
  if (!valid_name(name)) {
    res.err = EINVAL;
    return res;
  }
  sim::LockGuard lock(inode_lock(parent));
  const auto ino = load_dentry(parent, name, res.cost, &res.err);
  if (!ino) return res;
  // Note: *ino's stripe may equal parent's; use a plain check, data ops on
  // the victim are excluded by the namespace entry being gone first.
  const auto attr = load_attr(*ino, res.cost);
  if (!attr) {
    res.err = EIO;
    return res;
  }
  if (dir) {
    if (attr->type != FileType::kDirectory) {
      res.err = ENOTDIR;
      return res;
    }
    const auto empty = dir_empty(*ino, res.cost);
    if (!empty || !*empty) {
      // A failed scan cannot prove emptiness: fail safe.
      res.err = empty ? ENOTEMPTY : EIO;
      return res;
    }
  } else if (attr->type == FileType::kDirectory) {
    res.err = EISDIR;
    return res;
  }
  const auto pattr = load_attr(parent, res.cost, &res.err);
  if (!pattr) return res;

  // One batch: the name (guard: it still names this inode), then either one
  // link dropped or the attr and every data KV gone, and the parent attr.
  kv::Batch b;
  const std::size_t dentry = b.erase(inode_key(parent, name));
  b.expect(dentry, encode_ino(*ino));
  const bool last = attr->type == FileType::kDirectory || attr->nlink <= 1;
  Attr a = *attr;
  std::vector<std::uint32_t> purged_pages;
  if (!last) {
    --a.nlink;
    a.ctime = now();
    b.put(attr_key(a.ino), encode_attr(a));
  } else {
    if (attr->type != FileType::kDirectory &&
        !stage_purge(*attr, b, purged_pages, res.cost)) {
      res.err = EIO;
      return res;
    }
    b.erase(attr_key(a.ino));
  }
  Attr p = *pattr;
  p.mtime = now();
  if (dir && p.nlink > 2) --p.nlink;
  b.put(attr_key(parent), encode_attr(p), Guard::kPresent);
  const auto r = commit(dir ? "kvfs.rmdir" : "kvfs.unlink", b, res.cost);
  if (!r.ok()) {
    res.err = EIO;
    return res;
  }
  if (!r.value.applied()) {
    // Another mount removed or replaced the name (or the parent) first.
    uncache_dentry(parent, name);
    uncache_attr(parent);
    res.err = ENOENT;
    return res;
  }
  uncache_dentry(parent, name);
  cache_attr(p);
  if (!last) {
    cache_attr(a);
    return res;
  }
  res.value = a.ino;
  uncache_attr(a.ino);
  for (const std::uint32_t page : purged_pages) uncache_page(a.ino, page);
  if (opts_.wal != nullptr && attr->type == FileType::kRegular) {
    // Size-zero marker in the durability spine: logged-but-undrained
    // pages of the purged file stop blocking checkpoint, and replay
    // skips them instead of probing a dead ino.
    sim::Nanos c{};
    (void)opts_.wal->append_truncate(a.ino, 0, c);
    res.cost += c;
  }
  return res;
}

Result<Ino> Kvfs::unlink(Ino parent, std::string_view name) {
  return remove_node(parent, name, /*dir=*/false);
}

Result<Ino> Kvfs::rmdir(Ino parent, std::string_view name) {
  return remove_node(parent, name, /*dir=*/true);
}

Result<Unit> Kvfs::rename(Ino old_parent, std::string_view old_name,
                          Ino new_parent, std::string_view new_name) {
  Result<Unit> res;
  if (!valid_name(old_name) || !valid_name(new_name)) {
    res.err = EINVAL;
    return res;
  }
  DualLock lock(*this, old_parent, new_parent);

  const auto src = load_dentry(old_parent, old_name, res.cost, &res.err);
  if (!src) return res;
  const auto src_attr = load_attr(*src, res.cost);
  if (!src_attr) {
    res.err = EIO;
    return res;
  }

  int dst_err = 0;
  const auto dst = load_dentry(new_parent, new_name, res.cost, &dst_err);
  if (!dst && dst_err != ENOENT) {
    res.err = dst_err;
    return res;
  }
  std::optional<Attr> dst_attr;
  if (dst) {
    if (*dst == *src) return res;  // rename onto itself: success, no-op
    dst_attr = load_attr(*dst, res.cost);
    if (!dst_attr) {
      res.err = EIO;
      return res;
    }
    // POSIX replace semantics: types must be compatible, dirs must be empty.
    if (dst_attr->type == FileType::kDirectory) {
      if (src_attr->type != FileType::kDirectory) {
        res.err = EISDIR;
        return res;
      }
      const auto empty = dir_empty(*dst, res.cost);
      if (!empty || !*empty) {
        res.err = empty ? ENOTEMPTY : EIO;
        return res;
      }
    } else if (src_attr->type == FileType::kDirectory) {
      res.err = ENOTDIR;
      return res;
    }
  }
  // Moving a directory between parents shifts its ".." back-link; a
  // replaced directory takes its own with it.
  const bool moves_dir =
      src_attr->type == FileType::kDirectory && old_parent != new_parent;
  const bool replaces_dir =
      dst_attr && dst_attr->type == FileType::kDirectory;
  std::optional<Attr> op;
  std::optional<Attr> np;
  if (moves_dir) {
    op = load_attr(old_parent, res.cost, &res.err);
    if (!op) return res;
    if (op->nlink > 2) --op->nlink;
    op->mtime = now();
  }
  if (moves_dir || replaces_dir) {
    np = load_attr(new_parent, res.cost, &res.err);
    if (!np) return res;
    if (moves_dir) ++np->nlink;
    if (replaces_dir && np->nlink > 2) --np->nlink;
    np->mtime = now();
  }

  // One batch: both names (guarded: the source still names this inode, the
  // destination is still absent or still the inode being replaced), the
  // replaced file's purge, and the parent attrs.
  kv::Batch b;
  const std::size_t from = b.erase(inode_key(old_parent, old_name));
  b.expect(from, encode_ino(*src));
  const std::size_t to = b.put(inode_key(new_parent, new_name),
                               encode_ino(*src), Guard::kAbsent);
  if (dst) b.expect(to, encode_ino(*dst));
  std::vector<std::uint32_t> purged_pages;
  if (dst_attr) {
    if (dst_attr->type != FileType::kDirectory &&
        !stage_purge(*dst_attr, b, purged_pages, res.cost)) {
      res.err = EIO;
      return res;
    }
    b.erase(attr_key(dst_attr->ino));
  }
  if (op) b.put(attr_key(old_parent), encode_attr(*op), Guard::kPresent);
  if (np) b.put(attr_key(new_parent), encode_attr(*np), Guard::kPresent);
  const auto r = commit("kvfs.rename", b, res.cost);
  if (!r.ok()) {
    res.err = EIO;
    return res;
  }
  if (!r.value.applied()) {
    // Another mount moved one of the names first: forget what we cached.
    uncache_dentry(old_parent, old_name);
    uncache_dentry(new_parent, new_name);
    uncache_attr(old_parent);
    uncache_attr(new_parent);
    res.err = r.value.failed_guard == from ? ENOENT : ESTALE;
    return res;
  }
  uncache_dentry(old_parent, old_name);
  cache_dentry(new_parent, new_name, *src);
  if (dst_attr) {
    uncache_attr(dst_attr->ino);
    for (const std::uint32_t page : purged_pages)
      uncache_page(dst_attr->ino, page);
  }
  if (op) cache_attr(*op);
  if (np) cache_attr(*np);
  return res;
}

Result<Ino> Kvfs::symlink(std::string_view target, Ino parent,
                          std::string_view name) {
  if (target.empty() || target.size() > kMaxNameLen) {
    Result<Ino> res;
    res.err = EINVAL;
    return res;
  }
  // Target storage happens inside make_node so the whole symlink (dentry +
  // attr + target text) is one batch.
  return make_node(parent, name, FileType::kSymlink, 0777, target);
}

Result<std::string> Kvfs::readlink(Ino ino) {
  Result<std::string> res;
  const auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type != FileType::kSymlink) {
    res.err = EINVAL;
    return res;
  }
  auto v = store_->get(small_key(ino));
  res.cost += v.cost;
  if (!v.value) {
    res.err = EIO;
    return res;
  }
  res.value.assign(reinterpret_cast<const char*>(v.value->data()),
                   v.value->size());
  return res;
}

Result<Unit> Kvfs::link(Ino ino, Ino new_parent, std::string_view name) {
  Result<Unit> res;
  if (!valid_name(name)) {
    res.err = EINVAL;
    return res;
  }
  DualLock lock(*this, ino, new_parent);
  auto attr = load_attr(ino, res.cost, &res.err);
  if (!attr) return res;
  if (attr->type == FileType::kDirectory) {
    res.err = EPERM;  // no hard links to directories
    return res;
  }
  const auto pattr = load_attr(new_parent, res.cost, &res.err);
  if (!pattr) return res;
  if (pattr->type != FileType::kDirectory) {
    res.err = ENOTDIR;
    return res;
  }
  Attr a = *attr;
  ++a.nlink;
  a.ctime = now();
  Attr p = *pattr;
  p.mtime = now();

  // One batch: the new name (absent guard), the link count, the parent.
  kv::Batch b;
  const std::size_t dentry =
      b.put(inode_key(new_parent, name), encode_ino(ino), Guard::kAbsent);
  b.put(attr_key(ino), encode_attr(a), Guard::kPresent);
  b.put(attr_key(new_parent), encode_attr(p), Guard::kPresent);
  const auto r = commit("kvfs.link", b, res.cost);
  if (!r.ok()) {
    res.err = EIO;  // transient KV failure, not a name collision
    return res;
  }
  if (!r.value.applied()) {
    if (r.value.failed_guard != dentry) {
      uncache_attr(ino);
      uncache_attr(new_parent);
    }
    res.err = r.value.failed_guard == dentry ? EEXIST : ENOENT;
    return res;
  }
  cache_dentry(new_parent, name, ino);
  cache_attr(a);
  cache_attr(p);
  return res;
}

Result<std::vector<DirEntry>> Kvfs::readdir(Ino dir) {
  Result<std::vector<DirEntry>> res;
  const auto attr = load_attr(dir, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type != FileType::kDirectory) {
    res.err = ENOTDIR;
    return res;
  }
  // "a prefix-based scan can return all the inode numbers belonging to a
  // directory specified by the p_ino" (§3.4).
  auto scan = store_->scan_prefix(
      inode_key_prefix(dir), [&](std::string_view key, const kv::Bytes& v) {
        res.value.push_back(
            {std::string(name_of_inode_key(key)), decode_ino(v)});
        return true;
      });
  res.cost += scan.cost;
  return res;
}

// -------------------------------------------------------------- attributes

Result<Attr> Kvfs::getattr(Ino ino) {
  Result<Attr> res;
  const auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  res.value = *attr;
  return res;
}

// -------------------------------------------------------------------- data

Result<std::uint32_t> Kvfs::read(Ino ino, std::uint64_t offset,
                                 std::span<std::byte> dst,
                                 nvme::TenantId tenant) {
  Result<std::uint32_t> res = read_impl(ino, offset, dst);
  // Tenant attribution happens outside the inode stripe lock: the QoS
  // manager's mutex is kLeaf and its counters are plain atomics.
  if (qos_ != nullptr && res.ok())
    qos_->count_backend_bytes(tenant, res.value);
  return res;
}

Result<std::uint32_t> Kvfs::read_impl(Ino ino, std::uint64_t offset,
                                      std::span<std::byte> dst) {
  Result<std::uint32_t> res;
  sim::LockGuard lock(inode_lock(ino));
  const auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type != FileType::kRegular) {
    res.err = EISDIR;
    return res;
  }
  if (offset >= attr->size || dst.empty()) {
    res.value = 0;
    return res;
  }
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(dst.size(), attr->size - offset));

  if (!attr->big_file) {
    auto r = store_->read_sub(small_key(ino), offset, dst.first(n));
    res.cost += r.cost;
    if (!r.ok()) {
      // Never return unfetched bytes as data — fail the read instead.
      res.err = EIO;
      return res;
    }
    const std::size_t got = r.value.value_or(0);
    // Small files are stored whole; a short read only means trailing
    // zeros were never materialized.
    if (got < n)
      std::memset(dst.data() + got, 0, n - got);
    res.value = n;
    return res;
  }

  // Block ids come from the extent cache; a miss fetches one index page
  // per 4 MiB of the range, whatever the file size.
  std::uint64_t fetched_page = ~std::uint64_t{0};  // last page this op read
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t logical = pos / kBigBlock;
    const std::uint32_t in_block = static_cast<std::uint32_t>(pos % kBigBlock);
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, kBigBlock - in_block);
    std::optional<std::size_t> got;  // nullopt: hole or absent block
    for (bool refetch = false;; refetch = true) {
      bool fetched = false;
      const auto id = load_extent(ino, logical, refetch, fetched, res.cost);
      if (!id) {
        res.err = EIO;
        return res;
      }
      if (fetched) fetched_page = page_of_block(logical);
      if (*id != 0) {
        auto r = store_->read_sub(block_key(*id), in_block,
                                  dst.subspan(done, chunk));
        res.cost += r.cost;
        if (!r.ok()) {
          res.err = EIO;
          return res;
        }
        got = r.value;
      }
      // A cached hole may have been filled, and a cached id whose block is
      // gone truncated away, by another mount: re-read the page once.
      if (got || fetched_page == page_of_block(logical)) break;
    }
    const std::size_t have = got.value_or(0);
    if (have < chunk) std::memset(dst.data() + done + have, 0, chunk - have);
    done += chunk;
  }
  res.value = n;
  return res;
}

bool Kvfs::stage_promotion(Attr& a, kv::Batch& b, kv::Bytes& small,
                           ExtentPage& page0, sim::Nanos& cost) {
  // §3.4: "When the file size grows bigger than 8KB, KVFS deletes the small
  // file KV and creates a big file KV." The bytes move to a landing block
  // that page 0 names; page 0 is written even for an empty file, so "big
  // file <=> page 0 present" always holds.
  auto r = store_->get(small_key(a.ino));
  cost += r.cost;
  if (!r.ok()) return false;  // can't read the bytes we're about to move
  if (r.value) small = std::move(*r.value);
  page0.fill(0);
  if (!small.empty()) {
    page0[0] = alloc_block(cost);
    if (page0[0] == 0) return false;  // a burned id is harmless
    b.put(block_key(page0[0]), small);
  }
  b.erase(small_key(a.ino));
  a.big_file = 1;
  return true;
}

int Kvfs::write_big(const Attr& attr, std::uint64_t offset,
                    std::span<const std::byte> src, sim::Nanos& cost) {
  // One batch carries the data, the changed index pages, a promotion's
  // small-KV erase and the attr: the write lands whole or not at all.
  const auto n = static_cast<std::uint32_t>(src.size());
  const std::uint64_t first = offset / kBigBlock;
  const std::uint64_t last = (offset + n - 1) / kBigBlock;
  const std::uint32_t first_page = page_of_block(first);
  const bool promote = !attr.big_file;
  struct TouchedBlock {
    std::uint64_t id = 0;
    bool fresh = false;  ///< allocated by this write
  };
  struct TouchedPage {
    bool dirty = false;
    ExtentPage ids;
  };
  kv::InlineVec<TouchedBlock, 2> blocks(last - first + 1);
  // Warm: every block's id comes from the extent cache, and no page
  // changes. A cached hole, or a page not cached, takes the fetch.
  bool warm = !promote;
  for (std::uint64_t logical = first; warm && logical <= last; ++logical) {
    const auto id = cached_extent(attr.ino, logical);
    (id ? stats_.extent_hits : stats_.extent_misses)
        .fetch_add(1, std::memory_order_relaxed);
    warm = id && *id != 0;
    if (warm) blocks[logical - first].id = *id;
  }
  // A warm write inside the file changes only block bytes and mtime: its
  // batch is the sub-writes alone, and the mtime stays in the cache.
  const bool lazy =
      warm && offset + n <= attr.size && may_defer_mtime(attr.ino);
  std::vector<TouchedPage> pages;  // fetched or promoted; none when warm
  Attr a = attr;
  a.size = std::max<std::uint64_t>(a.size, offset + n);
  a.mtime = now();
  kv::Batch b;
  kv::Bytes small;  // a promotion's bytes, alive until the batch is sent
  ExtentPage page0;  // a promotion's page 0, filled by stage_promotion
  std::uint64_t landing = 0;  // the block a promotion's bytes moved to
  if (!warm) {
    // Fetch each index page the range touches from the store (never the
    // cache: another mount may have filled a hole since), or promote a
    // small file, whose pages all start as holes; then allocate every
    // block the range is missing.
    pages.resize(page_of_block(last) - first_page + 1);
    if (promote) {
      if (!stage_promotion(a, b, small, page0, cost)) return EIO;
      landing = page0[0];
      for (TouchedPage& pg : pages) pg.ids.fill(0);
      if (first_page == 0) {
        pages[0].ids = page0;
        pages[0].dirty = true;
      } else {
        b.put(extent_page_key(a.ino, 0), encode_extent_page(page0));
      }
    } else {
      for (std::uint32_t i = 0; i < pages.size(); ++i)
        if (!load_page(a.ino, first_page + i, pages[i].ids, cost)) return EIO;
    }
    for (std::uint64_t logical = first; logical <= last; ++logical) {
      TouchedPage& pg = pages[page_of_block(logical) - first_page];
      std::uint64_t& slot = pg.ids[slot_of_block(logical)];
      TouchedBlock& blk = blocks[logical - first];
      blk.fresh = slot == 0;
      if (blk.fresh) {
        slot = alloc_block(cost);
        if (slot == 0) return EIO;  // nothing mutated; burned ids are fine
        pg.dirty = true;
      }
      blk.id = slot;
    }
  }
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const auto in_block = static_cast<std::uint32_t>(pos % kBigBlock);
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, kBigBlock - in_block);
    const TouchedBlock& blk = blocks[pos / kBigBlock - first];
    const auto data = src.subspan(done, chunk);
    // "updates to large files are written in place to large file KVs at a
    // granularity of 8K" — write_sub is the in-place primitive. A fresh
    // block is created by its op (zero-filled below `in_block`); an old one
    // must still exist, or a block another mount truncated away would come
    // back as an orphan. The landing block was put above.
    if (blk.fresh && in_block == 0) {
      b.put(block_key(blk.id), data);
    } else {
      const bool old = !blk.fresh && blk.id != landing;
      b.write_sub(block_key(blk.id), in_block, data,
                  old ? Guard::kPresent : Guard::kNone);
    }
    done += chunk;
  }
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    if (pages[i].dirty)
      b.put(extent_page_key(a.ino, first_page + i),
            encode_extent_page(pages[i].ids));
  }
  // Guarded equal to what this mount last loaded or committed, so a stale
  // cached size never undoes another mount's truncate.
  if (!lazy)
    b.expect(b.put(attr_key(a.ino), encode_attr(a)), durable_encoding(attr));
  const auto r = commit("kvfs.write", b, cost);
  if (!r.ok()) return EIO;
  if (!r.value.applied()) {
    // A refused block guard means another mount truncated the block away
    // (or removed the file) since this one cached its id or read its page,
    // so the attr is stale as well. A warm write forgets the block's page;
    // the caller reloads the attr and goes once more through the store's
    // index.
    if (warm && r.value.failed_guard < blocks.size())
      uncache_page(a.ino, page_of_block(first + r.value.failed_guard));
    return kStaleAttr;
  }
  for (std::uint32_t i = 0; i < pages.size(); ++i)
    cache_page(a.ino, first_page + i, pages[i].ids);
  if (promote) {
    if (first_page != 0) cache_page(a.ino, 0, page0);
    stats_.promotions.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.big_inplace_writes.fetch_add(blocks.size(),
                                      std::memory_order_relaxed);
  if (lazy)
    touch_mtime(attr, a.mtime);
  else
    cache_attr(a);
  return 0;
}

int Kvfs::write_small(const Attr& attr, std::uint64_t offset,
                      std::span<const std::byte> src, sim::Nanos& cost) {
  // §3.4: "For small files … when updating the file data, we rewrite the
  // entire KV."
  const Ino ino = attr.ino;
  const std::uint64_t new_size =
      std::max<std::uint64_t>(attr.size, offset + src.size());
  kv::Bytes buf;
  auto cur = store_->get(small_key(ino));
  cost += cur.cost;
  // Rewriting the whole KV from a failed read would wipe the bytes we
  // couldn't fetch — abort instead.
  if (!cur.ok()) return EIO;
  if (cur.value) buf = std::move(*cur.value);
  if (buf.size() < new_size) buf.resize(new_size, std::byte{0});
  std::memcpy(buf.data() + offset, src.data(), src.size());
  Attr a = attr;
  a.size = new_size;
  a.mtime = now();
  kv::Batch b;
  b.put(small_key(ino), buf);
  b.expect(b.put(attr_key(ino), encode_attr(a)), durable_encoding(attr));
  const auto r = commit("kvfs.write", b, cost);
  if (!r.ok()) return EIO;
  if (!r.value.applied()) return kStaleAttr;  // the attr op is the only guard
  stats_.small_rewrites.fetch_add(1, std::memory_order_relaxed);
  cache_attr(a);
  return 0;
}

Result<std::uint32_t> Kvfs::write(Ino ino, std::uint64_t offset,
                                  std::span<const std::byte> src,
                                  nvme::TenantId tenant) {
  Result<std::uint32_t> res = write_impl(ino, offset, src);
  if (qos_ != nullptr && res.ok())
    qos_->count_backend_bytes(tenant, res.value);
  return res;
}

template <typename Once>
int Kvfs::retry_if_stale(Ino ino, int err, sim::Nanos& cost, Once&& once) {
  if (err != kStaleAttr) return err;
  // Another mount changed the attr (a truncate, or removed the file):
  // reload it through the store once and go again on top of it.
  uncache_attr(ino);
  const auto attr = load_attr(ino, cost, &err);
  if (!attr) return err;
  err = once(*attr);
  if (err != kStaleAttr) return err;
  uncache_attr(ino);
  return EIO;
}

Result<std::uint32_t> Kvfs::write_impl(Ino ino, std::uint64_t offset,
                                       std::span<const std::byte> src) {
  Result<std::uint32_t> res;
  sim::LockGuard lock(inode_lock(ino));
  const auto attr = load_attr(ino, res.cost, &res.err);
  if (!attr) return res;
  if (attr->type != FileType::kRegular) {
    res.err = EISDIR;
    return res;
  }
  if (src.empty()) {
    res.value = 0;
    return res;
  }
  const auto write_once = [&](const Attr& a) {
    const std::uint64_t end = offset + src.size();
    return !a.big_file && std::max(a.size, end) <= kSmallFileMax
               ? write_small(a, offset, src, res.cost)
               : write_big(a, offset, src, res.cost);
  };
  res.err = retry_if_stale(ino, write_once(*attr), res.cost, write_once);
  if (res.ok()) res.value = static_cast<std::uint32_t>(src.size());
  return res;
}

Result<Unit> Kvfs::truncate(Ino ino, std::uint64_t new_size) {
  Result<Unit> res;
  sim::LockGuard lock(inode_lock(ino));
  bool hit = false;
  const auto attr = load_attr(ino, res.cost, &res.err, &hit);
  if (!attr) return res;
  if (attr->type != FileType::kRegular) {
    res.err = EISDIR;
    return res;
  }
  res.err = retry_if_stale(ino, truncate_once(*attr, new_size, hit, res.cost),
                           res.cost, [&](const Attr& a) {
                             return truncate_once(a, new_size, false,
                                                  res.cost);
                           });
  return res;
}

int Kvfs::truncate_once(const Attr& attr, std::uint64_t new_size,
                        bool cached, sim::Nanos& cost) {
  const Ino ino = attr.ino;
  // A size just read from the store needs no change; a cached one may be
  // stale, so the attr put below verifies it.
  if (new_size == attr.size && !cached) return 0;

  // One batch: the dropped blocks and pages, the rewritten boundary page,
  // the boundary block's zeroed tail (or the small KV rewrite, or a growth
  // promotion), and the attr, which a same-size truncate sends alone.
  Attr a = attr;
  a.size = new_size;
  a.mtime = now();
  kv::Batch b;
  kv::Bytes small;  // the rewritten or promoted small-file bytes
  kv::Bytes zeros;  // the boundary block's cut tail
  std::vector<std::pair<std::uint32_t, ExtentPage>> kept_pages;
  std::vector<std::uint32_t> gone_pages;
  if (!attr.big_file && new_size != attr.size) {
    if (new_size > kSmallFileMax) {
      // Growth beyond the old size is a hole; the promotion is the data.
      ExtentPage page0;
      if (!stage_promotion(a, b, small, page0, cost)) return EIO;
      b.put(extent_page_key(ino, 0), encode_extent_page(page0));
      kept_pages.emplace_back(0, page0);
    } else {
      auto cur = store_->get(small_key(ino));
      cost += cur.cost;
      // Don't rewrite from bytes we couldn't fetch.
      if (!cur.ok()) return EIO;
      if (cur.value) small = std::move(*cur.value);
      small.resize(new_size, std::byte{0});
      b.put(small_key(ino), small);
    }
  } else if (new_size < attr.size) {
    // Drop whole blocks past the new end (a file once big stays big — the
    // paper defines promotion only; we document the asymmetry). Pages wholly
    // past the end are erased, except page 0, which marks the file big; the
    // boundary page is rewritten without the dropped ids. The scan starts
    // at the page of the last kept block, which names the boundary block.
    const std::uint64_t keep_blocks = (new_size + kBigBlock - 1) / kBigBlock;
    const std::uint32_t from =
        page_of_block(keep_blocks == 0 ? 0 : keep_blocks - 1);
    std::vector<std::pair<std::uint32_t, ExtentPage>> tail_pages;
    auto scan = store_->scan_prefix(
        extent_page_prefix(ino), [&](std::string_view key, const kv::Bytes& v) {
          const std::uint32_t p = page_of_extent_key(key);
          if (p >= from) tail_pages.emplace_back(p, decode_extent_page(v));
          return true;
        });
    cost += scan.cost;
    // Don't record the shrink without dropping blocks.
    if (!scan.ok()) return EIO;
    std::uint64_t boundary_id = 0;
    for (auto& [p, ids] : tail_pages) {
      const std::uint64_t base = std::uint64_t{p} * kExtentPageSlots;
      bool changed = false;
      for (std::size_t s = 0; s < kExtentPageSlots; ++s) {
        if (ids[s] == 0) continue;
        if (base + s + 1 == keep_blocks) boundary_id = ids[s];
        if (base + s < keep_blocks) continue;
        b.erase(block_key(ids[s]));
        ids[s] = 0;
        changed = true;
      }
      if (p != 0 && base >= keep_blocks) {
        b.erase(extent_page_key(ino, p));
        gone_pages.push_back(p);
      } else if (changed) {
        b.put(extent_page_key(ino, p), encode_extent_page(ids));
        kept_pages.emplace_back(p, ids);
      }
    }
    // POSIX: the tail of the boundary block must read as zeros if the file
    // grows again later.
    if (new_size % kBigBlock != 0 && boundary_id != 0) {
      zeros.assign(kBigBlock - new_size % kBigBlock, std::byte{0});
      b.write_sub(block_key(boundary_id), new_size % kBigBlock, zeros,
                  Guard::kPresent);
    }
  }
  // Guarded equal to what this mount last loaded or committed, so a stale
  // cached size never picks the blocks to drop or hides another mount's
  // truncate. A refused boundary guard means another mount cut the block
  // away: the attr is stale as well.
  b.expect(b.put(attr_key(ino), encode_attr(a)), durable_encoding(attr));
  const auto r = commit("kvfs.truncate", b, cost);
  if (!r.ok()) return EIO;
  if (!r.value.applied()) return kStaleAttr;
  cache_attr(a);
  for (const auto& [p, ids] : kept_pages) cache_page(ino, p, ids);
  for (const std::uint32_t p : gone_pages) uncache_page(ino, p);
  if (a.big_file != attr.big_file)
    stats_.promotions.fetch_add(1, std::memory_order_relaxed);
  if (opts_.wal != nullptr && new_size < attr.size) {
    // Shrink marker in the durability spine: replay must not resurrect
    // logged pages this truncate cut off. A failed append is tolerated —
    // replay clamps every page to the (durable) attr size anyway, the
    // marker just unblocks checkpointing and skips dead pages early.
    sim::Nanos c{};
    (void)opts_.wal->append_truncate(ino, new_size, c);
    cost += c;
  }
  return 0;
}

Result<Unit> Kvfs::fsync(Ino ino) {
  Result<Unit> res;
  sim::LockGuard lock(inode_lock(ino));
  if (!load_attr(ino, res.cost)) {
    res.err = ENOENT;
    return res;
  }
  // The KV store is durable on ack: fsync costs one barrier round trip,
  // which carries the attr when its mtime is dirty.
  bool sent = false;
  res.err = persist_mtime(ino, sent, res.cost);
  if (!sent) res.cost += kv::RemoteKv::op_cost(false, 0);
  return res;
}

Result<Unit> Kvfs::sync_mtime(Ino ino) {
  Result<Unit> res;
  sim::LockGuard lock(inode_lock(ino));
  bool sent = false;
  res.err = persist_mtime(ino, sent, res.cost);
  return res;
}

int Kvfs::persist_mtime(Ino ino, bool& sent, sim::Nanos& cost) {
  sent = false;
  const auto a = cached_attr(ino);
  if (!a || durable_mtime(*a) == a->mtime) return 0;
  kv::Batch b;
  b.expect(b.put(attr_key(ino), encode_attr(*a)), durable_encoding(*a));
  const auto r = commit("kvfs.mtime", b, cost);
  sent = true;
  if (!r.ok()) return EIO;
  if (r.value.applied()) {
    cache_attr(*a);
  } else {
    uncache_attr(ino);  // another mount's later commit stands
  }
  return 0;
}

}  // namespace dpc::kvfs
