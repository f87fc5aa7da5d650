#include "kvfs/kvfs.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "dpu/qos.hpp"
#include "nvm/wal.hpp"
#include "sim/check.hpp"

namespace dpc::kvfs {

namespace {
bool valid_name(std::string_view name) {
  return !name.empty() && name.size() <= kMaxNameLen &&
         name.find('/') == std::string_view::npos && name != "." &&
         name != "..";
}

// Per-core metadata-cache sharding: one shard per hardware thread (pow2 so
// shard selection is a mask), min 16 to keep spread on small machines.
std::size_t cache_shard_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::bit_ceil(std::max<std::size_t>(16, hw == 0 ? 16 : hw));
}
}  // namespace

Kvfs::Kvfs(kv::RemoteKv& store, const KvfsOptions& opts,
           obs::Registry* registry)
    : store_(&store),
      opts_(opts),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      stats_(*registry_),
      journal_(store, *registry_, opts_.fault),
      // Mount-time replay: roll any interrupted mutation (ours from a prior
      // incarnation, or a crashed peer's) forward or backward before
      // serving. The NVM log is node-local and freshly constructed at
      // mount, so only the KV-resident records (degraded-mode appends,
      // crashed peers) exist here; recover() handles the WAL after a DPU
      // restart.
      mount_replay_(IntentJournal::replay(store.store(), registry_)),
      cache_shards_(cache_shard_count()),
      cache_shard_mask_(cache_shards_.size() - 1) {
  if (opts_.wal != nullptr) journal_.attach_wal(opts_.wal);
  // Install the root directory's attribute if this is a fresh store.
  sim::Nanos cost{};
  if (!load_attr(kRootIno, cost)) {
    Attr root;
    root.ino = kRootIno;
    root.type = FileType::kDirectory;
    root.mode = 0755;
    root.nlink = 2;
    root.ctime = root.mtime = root.atime = now();
    store_attr(root, cost);
  }
}

Kvfs::RecoveryReport Kvfs::recover() {
  RecoveryReport rep;
  // Volatile caches may hold state from before the crash (entries the
  // interrupted op cached but never durably completed) — drop them so every
  // post-recovery read refetches truth.
  drop_caches();
  if (opts_.wal != nullptr) rep.wal = replay_wal();
  // Journal replay and fsck rewrite attrs and extent pages straight in the
  // raw store, behind the caches the WAL replay's writes refilled.
  rep.journal = IntentJournal::replay(store_->store(), registry_, opts_.fault);
  rep.fsck = fsck_repair(store_->store(), registry_);
  drop_caches();
  rep.cost = rep.wal.cost + rep.journal.cost + rep.fsck.cost;
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
  // every committed intent, the newest drain per page, and every shrink.
  std::set<std::uint64_t> committed;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> drained;
  struct Shrink {
    std::uint64_t seq, ino, size;
  };
  std::vector<Shrink> shrinks;
  for (const auto& r : rec.records) {
    switch (r.kind) {
      case nvm::RecordKind::kIntentCommit:
        committed.insert(r.a);
        break;
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

  // Pass 2: apply in seq order through the regular (journaled, idempotent)
  // KVFS paths. The crash point lets the chaos sweep kill the DPU with the
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
      case nvm::RecordKind::kIntent: {
        if (committed.count(r.a) != 0) {
          ++rep.skipped;  // the op finished; nothing to roll
          break;
        }
        const kv::Bytes payload(r.data.begin(), r.data.end());
        const auto decoded = decode_journal_record(payload);
        if (!decoded) {
          ++rep.corrupt;
          break;
        }
        sim::Nanos c{};
        (void)replay_intent_record(store_->store(), *decoded, c);
        rep.cost += c;
        // The record rewrote the raw store; later data records must not
        // see attrs or pages cached before it.
        drop_caches();
        ++rep.applied;
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

std::optional<Attr> Kvfs::load_attr(Ino ino, sim::Nanos& cost) {
  if (auto a = cached_attr(ino)) {
    stats_.attr_hits.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  stats_.attr_misses.fetch_add(1, std::memory_order_relaxed);
  auto r = store_->get(attr_key(ino));
  cost += r.cost;
  if (!r.value) return std::nullopt;
  Attr a = decode_attr(*r.value);
  cache_attr(a);
  return a;
}

void Kvfs::store_attr(const Attr& a, sim::Nanos& cost) {
  const auto enc = encode_attr(a);
  auto r = store_->put(attr_key(a.ino), enc);
  cost += r.cost;
  if (!r.ok()) {
    // The put never reached the store: invalidate rather than cache a
    // version the backend doesn't hold, so the next load re-fetches truth.
    uncache_attr(a.ino);
    return;
  }
  cache_attr(a);
}

std::optional<Ino> Kvfs::load_dentry(Ino parent, std::string_view name,
                                     sim::Nanos& cost) {
  if (auto ino = cached_dentry(parent, name)) {
    stats_.dentry_hits.fetch_add(1, std::memory_order_relaxed);
    return ino;
  }
  stats_.dentry_misses.fetch_add(1, std::memory_order_relaxed);
  auto r = store_->get(inode_key(parent, name));
  cost += r.cost;
  if (!r.value) return std::nullopt;
  const Ino ino = decode_ino(*r.value);
  cache_dentry(parent, name, ino);
  return ino;
}

// ------------------------------------------------------------------ caches

Kvfs::CacheShard& Kvfs::dentry_shard(Ino parent, std::string_view name) {
  // Mix the parent into the name hash so hot directories still spread their
  // entries across shards.
  std::uint64_t h = std::hash<std::string_view>{}(name);
  h ^= parent * 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return cache_shards_[(h >> 32) & cache_shard_mask_];
}

Kvfs::CacheShard& Kvfs::attr_shard(Ino ino) {
  return cache_shards_[(ino * 0x9E3779B97F4A7C15ull >> 32) &
                       cache_shard_mask_];
}

Kvfs::CacheShard& Kvfs::extent_shard(Ino ino, std::uint32_t page) {
  return cache_shards_[(PageKeyHash{}({ino, page}) >> 32) & cache_shard_mask_];
}

std::size_t Kvfs::shard_cap(std::size_t total) const {
  return std::max<std::size_t>(1, total / cache_shards_.size());
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
  if (sh.attr.size() >= shard_cap(kCacheEntries))
    sh.attr.clear();
  sh.attr[a.ino] = a;
}

void Kvfs::uncache_attr(Ino ino) {
  CacheShard& sh = attr_shard(ino);
  sim::LockGuard lock(sh.mu);
  sh.attr.erase(ino);
}

std::optional<Attr> Kvfs::cached_attr(Ino ino) {
  CacheShard& sh = attr_shard(ino);
  sim::SharedLockGuard lock(sh.mu);
  const auto it = sh.attr.find(ino);
  if (it == sh.attr.end()) return std::nullopt;
  return it->second;
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
  const auto pattr = load_attr(parent, res.cost);
  if (!pattr) {
    res.err = ENOENT;
    return res;
  }
  if (pattr->type != FileType::kDirectory) {
    res.err = ENOTDIR;
    return res;
  }

  const Ino ino = alloc_ino(res.cost);
  if (ino == 0) {
    res.err = EIO;
    return res;
  }

  // Write-ahead intent: if the record can't be made durable, abort before
  // anything mutates.
  JournalRecord rec;
  rec.op = JournalOp::kCreate;
  rec.type = type;
  rec.ino = ino;
  rec.parent = parent;
  rec.name = name;
  rec.name2 = symlink_target;
  const std::uint64_t rec_id = journal_.begin(rec, res.cost);
  if (rec_id == 0) {
    res.err = EIO;
    return res;
  }
  const auto commit = [&] { journal_.commit(rec_id, res.cost); };

  // put_if_absent on the inode KV is the existence check and the insert in
  // one atomic step.
  auto put = store_->put_if_absent(inode_key(parent, name), encode_ino(ino));
  res.cost += put.cost;
  if (!put.ok()) {
    commit();       // nothing mutated
    res.err = EIO;  // transient KV failure, not a name collision
    return res;
  }
  if (!put.value) {
    commit();  // lost the name race; the winner's state is untouched
    res.err = EEXIST;
    return res;
  }
  fault::crash_point(opts_.fault, "kvfs.create/crash_after_dentry");

  Attr a;
  a.ino = ino;
  a.type = type;
  a.mode = mode;
  a.nlink = type == FileType::kDirectory ? 2 : 1;
  a.size = symlink_target.size();  // 0 except for symlinks
  a.ctime = a.mtime = a.atime = now();
  store_attr(a, res.cost);
  fault::crash_point(opts_.fault, "kvfs.create/crash_after_attr");
  cache_dentry(parent, name, ino);

  if (type == FileType::kSymlink) {
    // The target rides in the small-file KV, inside the journaled atom
    // (replay re-materializes it from the record's name2).
    const auto* tp = reinterpret_cast<const std::byte*>(symlink_target.data());
    auto tput = store_->put(
        small_key(ino), std::span<const std::byte>(tp, symlink_target.size()));
    res.cost += tput.cost;
    if (!tput.ok()) {
      // Leave the record open: the node dangles now (readlink EIO) but the
      // next replay completes it.
      res.err = EIO;
      return res;
    }
    fault::crash_point(opts_.fault, "kvfs.symlink/crash_after_data");
  }

  Attr p = *pattr;
  p.mtime = now();
  if (type == FileType::kDirectory) ++p.nlink;
  store_attr(p, res.cost);
  commit();

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

bool Kvfs::dir_empty(Ino dir, sim::Nanos& cost) {
  bool empty = true;
  auto scan = store_->scan_prefix(
      inode_key_prefix(dir), [&](std::string_view, const kv::Bytes&) {
        empty = false;
        return false;  // stop at the first entry
      });
  cost += scan.cost;
  // If the scan failed we can't prove emptiness — answer "not empty" so
  // rmdir/rename fail safe (ENOTEMPTY) instead of deleting a live tree.
  if (!scan.ok()) return false;
  return empty;
}

void Kvfs::purge_data(const Attr& a, sim::Nanos& cost) {
  if (!a.big_file) {
    cost += store_->erase(small_key(a.ino)).cost;
    return;
  }
  // Snapshot the file's index pages first: scan_prefix holds shard locks
  // during the visit. A failed scan leaves the pages for fsck to reap as
  // orphan data once the attribute is gone.
  std::vector<std::string> pages;
  std::vector<std::uint64_t> blocks;
  auto scan = store_->scan_prefix(
      extent_page_prefix(a.ino), [&](std::string_view key, const kv::Bytes& v) {
        pages.emplace_back(key);
        for (const std::uint64_t id : decode_extent_page(v))
          if (id != 0) blocks.push_back(id);
        return true;
      });
  cost += scan.cost;
  for (const std::uint64_t id : blocks)
    cost += store_->erase(block_key(id)).cost;
  for (const std::string& key : pages) {
    cost += store_->erase(key).cost;
    uncache_page(a.ino, page_of_extent_key(key));
  }
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

bool Kvfs::store_page(Ino ino, std::uint32_t page, const ExtentPage& ids,
                      sim::Nanos& cost) {
  auto put = store_->put(extent_page_key(ino, page), encode_extent_page(ids));
  cost += put.cost;
  if (!put.ok()) {
    // As store_attr: never cache a version the backend does not hold.
    uncache_page(ino, page);
    return false;
  }
  cache_page(ino, page, ids);
  return true;
}

Result<Unit> Kvfs::remove_node(Ino parent, std::string_view name, bool dir) {
  Result<Unit> res;
  if (!valid_name(name)) {
    res.err = EINVAL;
    return res;
  }
  sim::LockGuard lock(inode_lock(parent));
  const auto ino = load_dentry(parent, name, res.cost);
  if (!ino) {
    res.err = ENOENT;
    return res;
  }
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
    if (!dir_empty(*ino, res.cost)) {
      res.err = ENOTEMPTY;
      return res;
    }
  } else if (attr->type == FileType::kDirectory) {
    res.err = EISDIR;
    return res;
  }

  // Write-ahead intent: nlink_before and big_file let replay finish a
  // half-done removal (decrement exactly once, or purge the right flavor).
  JournalRecord rec;
  rec.op = JournalOp::kRemove;
  rec.type = attr->type;
  rec.ino = *ino;
  rec.parent = parent;
  rec.name = name;
  rec.nlink_before = attr->nlink;
  rec.big_file = static_cast<std::uint8_t>(attr->big_file != 0);
  const std::uint64_t rec_id = journal_.begin(rec, res.cost);
  if (rec_id == 0) {
    res.err = EIO;
    return res;
  }

  // Remove the namespace entry first so concurrent lookups fail fast. If
  // the erase itself fails, abort before touching the attr/data: deleting
  // those while the dentry survives would leave a dangling name.
  auto del = store_->erase(inode_key(parent, name));
  res.cost += del.cost;
  if (!del.ok()) {
    journal_.commit(rec_id, res.cost);
    res.err = EIO;
    return res;
  }
  uncache_dentry(parent, name);
  fault::crash_point(opts_.fault, "kvfs.remove/crash_after_dentry");
  if (attr->type != FileType::kDirectory && attr->nlink > 1) {
    // Other hard links remain: drop one reference, keep the data.
    Attr a = *attr;
    --a.nlink;
    a.ctime = now();
    store_attr(a, res.cost);
  } else {
    if (attr->type != FileType::kDirectory) purge_data(*attr, res.cost);
    res.cost += store_->erase(attr_key(*ino)).cost;
    uncache_attr(*ino);
    if (opts_.wal != nullptr && attr->type == FileType::kRegular) {
      // Size-zero marker in the durability spine: logged-but-undrained
      // pages of the purged file stop blocking checkpoint, and replay
      // skips them instead of probing a dead ino.
      sim::Nanos c{};
      (void)opts_.wal->append_truncate(*ino, 0, c);
      res.cost += c;
    }
  }
  fault::crash_point(opts_.fault, "kvfs.remove/crash_after_attr");

  if (auto pattr = load_attr(parent, res.cost)) {
    Attr p = *pattr;
    p.mtime = now();
    if (dir && p.nlink > 2) --p.nlink;
    store_attr(p, res.cost);
  }
  journal_.commit(rec_id, res.cost);
  return res;
}

Result<Unit> Kvfs::unlink(Ino parent, std::string_view name) {
  return remove_node(parent, name, /*dir=*/false);
}

Result<Unit> Kvfs::rmdir(Ino parent, std::string_view name) {
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

  const auto src = load_dentry(old_parent, old_name, res.cost);
  if (!src) {
    res.err = ENOENT;
    return res;
  }
  const auto src_attr = load_attr(*src, res.cost);
  if (!src_attr) {
    res.err = EIO;
    return res;
  }

  std::optional<Attr> dst_attr;
  if (const auto dst = load_dentry(new_parent, new_name, res.cost)) {
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
      if (!dir_empty(*dst, res.cost)) {
        res.err = ENOTEMPTY;
        return res;
      }
    } else if (src_attr->type == FileType::kDirectory) {
      res.err = ENOTDIR;
      return res;
    }
  }

  // Write-ahead intent. Replay always rolls a rename *forward*: once the
  // destination purge may have started, completing the move is the only
  // consistent end state. On a mid-op transient failure below, the record
  // is deliberately left open so the next recovery finishes the move.
  JournalRecord rec;
  rec.op = JournalOp::kRename;
  rec.type = src_attr->type;
  rec.ino = *src;
  rec.parent = old_parent;
  rec.name = old_name;
  rec.new_parent = new_parent;
  rec.name2 = new_name;
  if (dst_attr) {
    rec.replaced_ino = dst_attr->ino;
    rec.replaced_big = static_cast<std::uint8_t>(dst_attr->big_file != 0);
  }
  const std::uint64_t rec_id = journal_.begin(rec, res.cost);
  if (rec_id == 0) {
    res.err = EIO;
    return res;
  }

  if (dst_attr) {
    if (dst_attr->type != FileType::kDirectory)
      purge_data(*dst_attr, res.cost);
    res.cost += store_->erase(attr_key(dst_attr->ino)).cost;
    uncache_attr(dst_attr->ino);
    fault::crash_point(opts_.fault, "kvfs.rename/crash_after_purge");
  }

  auto ins = store_->put(inode_key(new_parent, new_name), encode_ino(*src));
  res.cost += ins.cost;
  if (!ins.ok()) {
    res.err = EIO;  // record stays open: recovery completes the move
    return res;
  }
  fault::crash_point(opts_.fault, "kvfs.rename/crash_after_insert");
  res.cost += store_->erase(inode_key(old_parent, old_name)).cost;
  uncache_dentry(old_parent, old_name);
  cache_dentry(new_parent, new_name, *src);

  // Moving a directory between parents shifts the ".." back-link.
  if (src_attr->type == FileType::kDirectory && old_parent != new_parent) {
    if (auto op = load_attr(old_parent, res.cost)) {
      Attr p = *op;
      if (p.nlink > 2) --p.nlink;
      p.mtime = now();
      store_attr(p, res.cost);
    }
    if (auto np = load_attr(new_parent, res.cost)) {
      Attr p = *np;
      ++p.nlink;
      p.mtime = now();
      store_attr(p, res.cost);
    }
  }
  journal_.commit(rec_id, res.cost);
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
  // attr + target text) is one journaled atom.
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
  auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type == FileType::kDirectory) {
    res.err = EPERM;  // no hard links to directories
    return res;
  }
  const auto pattr = load_attr(new_parent, res.cost);
  if (!pattr || pattr->type != FileType::kDirectory) {
    res.err = pattr ? ENOTDIR : ENOENT;
    return res;
  }
  auto put = store_->put_if_absent(inode_key(new_parent, name),
                                   encode_ino(ino));
  res.cost += put.cost;
  if (!put.ok()) {
    res.err = EIO;  // transient KV failure, not a name collision
    return res;
  }
  if (!put.value) {
    res.err = EEXIST;
    return res;
  }
  ++attr->nlink;
  attr->ctime = now();
  store_attr(*attr, res.cost);
  cache_dentry(new_parent, name, ino);
  Attr p = *pattr;
  p.mtime = now();
  store_attr(p, res.cost);
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

bool Kvfs::promote_to_big(Attr& a, sim::Nanos& cost,
                          std::uint64_t& journal_rec) {
  // §3.4: "When the file size grows bigger than 8KB, KVFS deletes the small
  // file KV and creates a big file KV."
  journal_rec = 0;
  kv::Bytes small;
  auto r = store_->get(small_key(a.ino));
  cost += r.cost;
  if (!r.ok()) return false;  // can't read the bytes we're about to move
  if (r.value) small = std::move(*r.value);

  // Allocate the landing block first (a burned counter value is harmless),
  // then journal the intent: replay treats the page-0 put as the commit
  // point — page 0 present rolls forward (erase small, set the flag),
  // absent rolls back (reclaim the block). Page 0 is written even for an
  // empty file, so "big file <=> page 0 present" always holds.
  ExtentPage page0{};
  std::uint64_t block_id = 0;
  if (!small.empty()) {
    block_id = alloc_block(cost);
    if (block_id == 0) return false;
    page0[0] = block_id;
  }
  JournalRecord rec;
  rec.op = JournalOp::kPromote;
  rec.ino = a.ino;
  if (block_id != 0) rec.blocks.push_back(block_id);
  journal_rec = journal_.begin(rec, cost);
  if (journal_rec == 0) return false;
  // Failures from here on return with the record still open; the next
  // recovery rolls the half-promotion back (or forward past the page-0
  // put). The caller commits `journal_rec` only after storing the attr
  // with big_file set, so a crash before that still flips the flag.

  if (block_id != 0) {
    auto blk = store_->put(block_key(block_id), small);
    cost += blk.cost;
    if (!blk.ok()) return false;
    fault::crash_point(opts_.fault, "kvfs.promote/crash_after_block");
  }
  if (!store_page(a.ino, 0, page0, cost)) return false;
  fault::crash_point(opts_.fault, "kvfs.promote/crash_after_object");
  // A failed erase only leaves the (now shadowed) small KV as garbage; the
  // extent index is already authoritative, so the promotion stands.
  cost += store_->erase(small_key(a.ino)).cost;
  a.big_file = 1;
  stats_.promotions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Kvfs::CachedWrite Kvfs::overwrite_cached(Ino ino, std::uint64_t offset,
                                         std::span<const std::byte> src,
                                         sim::Nanos& cost) {
  const auto n = static_cast<std::uint32_t>(src.size());
  const std::uint64_t first = offset / kBigBlock;
  const std::uint64_t last = (offset + n - 1) / kBigBlock;
  for (std::uint64_t logical = first; logical <= last; ++logical) {
    const auto id = cached_extent(ino, logical);
    (id ? stats_.extent_hits : stats_.extent_misses)
        .fetch_add(1, std::memory_order_relaxed);
    if (!id || *id == 0) return CachedWrite::kMissed;
  }
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t logical = pos / kBigBlock;
    const auto in_block = static_cast<std::uint32_t>(pos % kBigBlock);
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, kBigBlock - in_block);
    const auto id = cached_extent(ino, logical);
    if (!id) return CachedWrite::kMissed;  // a concurrent shard drop
    // Only into a block the store still holds: a cached id whose block is
    // gone was truncated away by another mount (ids are never reused), and
    // a plain write_sub would resurrect it as an orphan.
    auto w = store_->write_sub_if_present(block_key(*id), in_block,
                                          src.subspan(done, chunk));
    cost += w.cost;
    if (!w.ok()) return CachedWrite::kFailed;
    if (!w.value) {
      uncache_page(ino, page_of_block(logical));
      return CachedWrite::kMissed;
    }
    stats_.big_inplace_writes.fetch_add(1, std::memory_order_relaxed);
    done += chunk;
  }
  return CachedWrite::kDone;
}

bool Kvfs::write_allocating(Ino ino, std::uint64_t offset,
                            std::span<const std::byte> src, sim::Nanos& cost,
                            std::uint64_t& extent_rec) {
  // Fetch each index page the range touches from the store (never the
  // cache: another mount may have filled a hole since), allocate every
  // block the range is missing, then journal the new (logical, id) pairs
  // as one intent *before* any data lands. Replay treats the first page put
  // below as the commit point: a page holding any new id rolls the whole
  // update forward, otherwise the ids are reclaimed. (Data writes into
  // pre-existing blocks are in-place and per-8 KB-block atomic — the
  // documented crash granularity for overwrites.)
  const auto n = static_cast<std::uint32_t>(src.size());
  const std::uint64_t first = offset / kBigBlock;
  const std::uint64_t last = (offset + n - 1) / kBigBlock;
  const std::uint32_t first_page = page_of_block(first);
  struct TouchedPage {
    bool dirty = false;
    ExtentPage ids;
  };
  std::vector<TouchedPage> pages(page_of_block(last) - first_page + 1);
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    if (!load_page(ino, first_page + i, pages[i].ids, cost)) return false;
  }
  const auto page_at = [&](std::uint64_t logical) -> TouchedPage& {
    return pages[page_of_block(logical) - first_page];
  };
  std::vector<std::uint64_t> new_extents;  // flattened (logical, id) pairs
  for (std::uint64_t logical = first; logical <= last; ++logical) {
    TouchedPage& pg = page_at(logical);
    std::uint64_t& slot = pg.ids[slot_of_block(logical)];
    if (slot != 0) continue;
    slot = alloc_block(cost);
    if (slot == 0) return false;  // nothing mutated; burned ids are harmless
    pg.dirty = true;
    new_extents.push_back(logical);
    new_extents.push_back(slot);
  }
  if (!new_extents.empty()) {
    JournalRecord rec;
    rec.op = JournalOp::kExtent;
    rec.ino = ino;
    rec.blocks = new_extents;
    extent_rec = journal_.begin(rec, cost);
    if (extent_rec == 0) return false;
  }
  const auto is_new = [&](std::uint64_t logical) {
    for (std::size_t i = 0; i < new_extents.size(); i += 2)
      if (new_extents[i] == logical) return true;
    return false;
  };

  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t logical = pos / kBigBlock;
    const auto in_block = static_cast<std::uint32_t>(pos % kBigBlock);
    const std::uint32_t chunk =
        std::min<std::uint32_t>(n - done, kBigBlock - in_block);
    const std::uint64_t id = page_at(logical).ids[slot_of_block(logical)];
    if (in_block != 0 && is_new(logical)) {
      // Materialize the leading hole bytes of the fresh block.
      const kv::Bytes zeros(in_block, std::byte{0});
      auto z = store_->write_sub(block_key(id), 0, zeros);
      cost += z.cost;
      if (!z.ok()) return false;  // the record stays open; recovery reclaims
    }
    // "updates to large files are written in place to large file KVs at a
    // granularity of 8K" — write_sub is the in-place primitive.
    auto w =
        store_->write_sub(block_key(id), in_block, src.subspan(done, chunk));
    cost += w.cost;
    if (!w.ok()) {
      // Blocks already written stay (in-place overwrite is idempotent);
      // the caller skips the size/mtime update, so a retry redoes the op.
      return false;
    }
    stats_.big_inplace_writes.fetch_add(1, std::memory_order_relaxed);
    done += chunk;
  }
  fault::crash_point(opts_.fault, "kvfs.write/crash_after_blocks");
  bool committed = false;
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    if (!pages[i].dirty) {
      cache_page(ino, first_page + i, pages[i].ids);  // as fetched
      continue;
    }
    if (committed)
      fault::crash_point(opts_.fault, "kvfs.write/crash_between_pages");
    if (!store_page(ino, first_page + i, pages[i].ids, cost)) {
      // Before the first put the fresh blocks leak until recovery
      // reclaims them; after it, recovery installs the remaining pairs.
      return false;
    }
    committed = true;
  }
  return true;
}

Result<std::uint32_t> Kvfs::write(Ino ino, std::uint64_t offset,
                                  std::span<const std::byte> src,
                                  nvme::TenantId tenant) {
  Result<std::uint32_t> res = write_impl(ino, offset, src);
  if (qos_ != nullptr && res.ok())
    qos_->count_backend_bytes(tenant, res.value);
  return res;
}

Result<std::uint32_t> Kvfs::write_impl(Ino ino, std::uint64_t offset,
                                       std::span<const std::byte> src) {
  Result<std::uint32_t> res;
  sim::LockGuard lock(inode_lock(ino));
  auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type != FileType::kRegular) {
    res.err = EISDIR;
    return res;
  }
  if (src.empty()) {
    res.value = 0;
    return res;
  }
  const std::uint64_t new_size = std::max<std::uint64_t>(
      attr->size, offset + src.size());

  // Open intent records for this op (0 = none); committed after the final
  // attr store so replay can finish whatever tail a crash cuts off.
  std::uint64_t promote_rec = 0;
  std::uint64_t extent_rec = 0;

  if (!attr->big_file && new_size <= kSmallFileMax) {
    // §3.4: "For small files … when updating the file data, we rewrite the
    // entire KV."
    kv::Bytes buf;
    auto cur = store_->get(small_key(ino));
    res.cost += cur.cost;
    if (!cur.ok()) {
      // Rewriting the whole KV from a failed read would wipe the bytes we
      // couldn't fetch — abort instead.
      res.err = EIO;
      return res;
    }
    if (cur.value) buf = std::move(*cur.value);
    if (buf.size() < new_size) buf.resize(new_size, std::byte{0});
    std::memcpy(buf.data() + offset, src.data(), src.size());
    auto put = store_->put(small_key(ino), buf);
    res.cost += put.cost;
    if (!put.ok()) {
      res.err = EIO;
      return res;
    }
    stats_.small_rewrites.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (!attr->big_file && !promote_to_big(*attr, res.cost, promote_rec)) {
      res.err = EIO;  // small KV still authoritative, nothing lost
      return res;
    }
    // A warm overwrite writes its cached blocks in place; a miss, a hole
    // or a block gone stale takes the allocating path, which re-reads the
    // index from the store.
    const CachedWrite warm = overwrite_cached(ino, offset, src, res.cost);
    if (warm == CachedWrite::kFailed ||
        (warm == CachedWrite::kMissed &&
         !write_allocating(ino, offset, src, res.cost, extent_rec))) {
      res.err = EIO;
      return res;
    }
  }

  attr->size = new_size;
  attr->mtime = now();
  store_attr(*attr, res.cost);
  if (extent_rec != 0) journal_.commit(extent_rec, res.cost);
  if (promote_rec != 0) journal_.commit(promote_rec, res.cost);
  res.value = static_cast<std::uint32_t>(src.size());
  return res;
}

Result<Unit> Kvfs::truncate(Ino ino, std::uint64_t new_size) {
  Result<Unit> res;
  sim::LockGuard lock(inode_lock(ino));
  auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  if (attr->type != FileType::kRegular) {
    res.err = EISDIR;
    return res;
  }
  if (new_size == attr->size) return res;

  // Truncate itself is not journaled (documented limitation — fsck repair
  // normalizes a torn shrink), but a growth-triggered promotion still is.
  std::uint64_t promote_rec = 0;
  if (!attr->big_file) {
    if (new_size > kSmallFileMax) {
      if (!promote_to_big(*attr, res.cost, promote_rec)) {
        res.err = EIO;
        return res;
      }
      // Growth beyond the old size is a hole; nothing else to write.
    } else {
      kv::Bytes buf;
      auto cur = store_->get(small_key(ino));
      res.cost += cur.cost;
      if (!cur.ok()) {
        res.err = EIO;  // don't rewrite from bytes we couldn't fetch
        return res;
      }
      if (cur.value) buf = std::move(*cur.value);
      buf.resize(new_size, std::byte{0});
      auto put = store_->put(small_key(ino), buf);
      res.cost += put.cost;
      if (!put.ok()) {
        res.err = EIO;
        return res;
      }
    }
  }
  if (attr->big_file && new_size < attr->size) {
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
    res.cost += scan.cost;
    if (!scan.ok()) {
      res.err = EIO;  // don't record the shrink without dropping blocks
      return res;
    }
    std::uint64_t boundary_id = 0;
    for (auto& [p, ids] : tail_pages) {
      const std::uint64_t base = std::uint64_t{p} * kExtentPageSlots;
      bool changed = false;
      for (std::size_t s = 0; s < kExtentPageSlots; ++s) {
        if (ids[s] == 0) continue;
        if (base + s + 1 == keep_blocks) boundary_id = ids[s];
        if (base + s < keep_blocks) continue;
        res.cost += store_->erase(block_key(ids[s])).cost;
        ids[s] = 0;
        changed = true;
      }
      if (p != 0 && base >= keep_blocks) {
        res.cost += store_->erase(extent_page_key(ino, p)).cost;
        uncache_page(ino, p);
      } else if (changed) {
        (void)store_page(ino, p, ids, res.cost);
      }
    }
    // POSIX: the tail of the boundary block must read as zeros if the file
    // grows again later.
    const auto tail = static_cast<std::uint32_t>(new_size % kBigBlock);
    if (tail != 0 && boundary_id != 0) {
      const kv::Bytes zeros(kBigBlock - tail, std::byte{0});
      auto z = store_->write_sub(block_key(boundary_id), tail, zeros);
      res.cost += z.cost;
      if (!z.ok()) {
        res.err = EIO;  // retrying the truncate re-zeroes the tail
        return res;
      }
    }
  }

  const std::uint64_t old_size = attr->size;
  attr->size = new_size;
  attr->mtime = now();
  store_attr(*attr, res.cost);
  if (promote_rec != 0) journal_.commit(promote_rec, res.cost);
  if (opts_.wal != nullptr && new_size < old_size) {
    // Shrink marker in the durability spine: replay must not resurrect
    // logged pages this truncate cut off. A failed append is tolerated —
    // replay clamps every page to the (durable) attr size anyway, the
    // marker just unblocks checkpointing and skips dead pages early.
    sim::Nanos c{};
    (void)opts_.wal->append_truncate(ino, new_size, c);
    res.cost += c;
  }
  return res;
}

Result<Unit> Kvfs::fsync(Ino ino) {
  Result<Unit> res;
  const auto attr = load_attr(ino, res.cost);
  if (!attr) {
    res.err = ENOENT;
    return res;
  }
  // The KV store is durable on ack; fsync costs one barrier round trip.
  res.cost += kv::RemoteKv::op_cost(false, 0);
  return res;
}

}  // namespace dpc::kvfs
