#include "cache/host_plane.hpp"

#include <algorithm>
#include <thread>

#include "sim/check.hpp"
#include "sim/lockrank.hpp"
#include "sim/schedhook.hpp"

namespace {
// Lock-rank key for a PCIe lock word: the word's stable backing address in
// host DRAM — shared with the DPU control plane's hooks.
const void* word_key(dpc::pcie::MemoryRegion& host, std::uint64_t off) {
  return host.bytes(off, sizeof(std::uint32_t)).data();
}
}  // namespace

namespace dpc::cache {

namespace {
constexpr auto kLockNone = static_cast<std::uint32_t>(LockState::kNone);
constexpr auto kLockWrite = static_cast<std::uint32_t>(LockState::kWrite);

// Lock-free read probes before giving up and taking the locks. Retries are
// cheap (a few loads); a small budget rides out a single in-flight writer
// without ever spinning unboundedly against a writer storm.
constexpr int kLockFreeReadAttempts = 4;

// Model-checker aid: under a managed scenario thread the page copy runs in
// two halves with a yield point between them so the checker can schedule a
// concurrent reader/writer into the half-copied window; a single burst copy
// otherwise (the production path is untouched).
void copy_page_in(dpc::pcie::MemoryRegion& host, std::uint64_t off,
                  std::span<const std::byte> src) {
  namespace sh = dpc::sim::schedhook;
  if (sh::managed_thread() && src.size() > 1) {
    const std::size_t half = src.size() / 2;
    host.write(off, src.first(half));
    sh::point("cache.page_copy");
    host.write(off + half, src.subspan(half));
  } else {
    host.write(off, src);
  }
}

void copy_page_out(dpc::pcie::MemoryRegion& host, std::uint64_t off,
                   std::span<std::byte> dst) {
  namespace sh = dpc::sim::schedhook;
  if (sh::managed_thread() && dst.size() > 1) {
    const std::size_t half = dst.size() / 2;
    host.read(off, dst.first(half));
    sh::point("cache.page_copy");
    host.read(off + half, dst.subspan(half));
  } else {
    host.read(off, dst);
  }
}
}  // namespace

HostCachePlane::HostCachePlane(pcie::MemoryRegion& host,
                               const CacheLayout& layout,
                               obs::Registry* registry)
    : host_(&host),
      layout_(&layout),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      stats_(registry != nullptr ? *registry : *owned_registry_) {}

void HostCachePlane::lock_bucket(std::uint32_t bucket) {
  sim::schedhook::point("cache.bucket_lock");
  auto word = host_->atomic_u32(layout_->bucket_lock_off(bucket));
  for (;;) {
    std::uint32_t expected = 0;
    if (word.compare_exchange_weak(expected, 1, std::memory_order_acquire)) {
      sim::lockrank::acquire(
          word_key(*host_, layout_->bucket_lock_off(bucket)),
          sim::LockRank::kCacheBucket, "cache.bucket");
      return;
    }
    sim::schedhook::spin("cache.bucket_lock");
    std::this_thread::yield();
  }
}

void HostCachePlane::unlock_bucket(std::uint32_t bucket) {
  sim::schedhook::point("cache.bucket_unlock");
  sim::lockrank::release(word_key(*host_, layout_->bucket_lock_off(bucket)));
  host_->atomic_u32(layout_->bucket_lock_off(bucket))
      .store(0, std::memory_order_release);
}

bool HostCachePlane::try_write_lock(std::uint32_t entry) {
  sim::schedhook::point("cache.entry_write_lock");
  const std::uint64_t off =
      layout_->entry_field_off(entry, CacheLayout::EntryField::kLock);
  auto word = host_->atomic_u32(off);
  std::uint32_t expected = kLockNone;
  if (!word.compare_exchange_strong(expected, kLockWrite,
                                    std::memory_order_acquire)) {
    return false;
  }
  sim::lockrank::acquire(word_key(*host_, off), sim::LockRank::kCacheEntry,
                         "cache.entry");
  return true;
}

void HostCachePlane::write_lock(std::uint32_t entry) {
  while (!try_write_lock(entry)) {
    sim::schedhook::spin("cache.entry_write_lock");
    std::this_thread::yield();
  }
}

void HostCachePlane::write_unlock(std::uint32_t entry) {
  sim::schedhook::point("cache.entry_write_unlock");
  sim::lockrank::release(word_key(
      *host_, layout_->entry_field_off(entry, CacheLayout::EntryField::kLock)));
  host_->atomic_u32(
           layout_->entry_field_off(entry, CacheLayout::EntryField::kLock))
      .store(kLockNone, std::memory_order_release);
}

void HostCachePlane::read_lock(std::uint32_t entry) {
  sim::schedhook::point("cache.entry_read_lock");
  const std::uint64_t off =
      layout_->entry_field_off(entry, CacheLayout::EntryField::kLock);
  auto word = host_->atomic_u32(off);
  for (;;) {
    std::uint32_t cur = word.load(std::memory_order_relaxed);
    bool locked = false;
    if (cur == kLockNone) {
      locked = word.compare_exchange_weak(cur, read_lock_word(1),
                                          std::memory_order_acquire);
    } else if (is_read_locked(cur)) {
      locked = word.compare_exchange_weak(
          cur, read_lock_word(read_lock_holders(cur) + 1),
          std::memory_order_acquire);
    } else {
      sim::schedhook::spin("cache.entry_read_lock");
      std::this_thread::yield();  // write-locked or invalid; wait
    }
    if (locked) {
      sim::lockrank::acquire(word_key(*host_, off),
                             sim::LockRank::kCacheEntry, "cache.entry",
                             /*shared=*/true);
      return;
    }
  }
}

void HostCachePlane::read_unlock(std::uint32_t entry) {
  auto word = host_->atomic_u32(
      layout_->entry_field_off(entry, CacheLayout::EntryField::kLock));
  for (;;) {
    std::uint32_t cur = word.load(std::memory_order_relaxed);
    DPC_CHECK_MSG(is_read_locked(cur), "read_unlock of non-read-locked entry");
    const std::uint32_t holders = read_lock_holders(cur);
    const std::uint32_t next =
        holders <= 1 ? kLockNone : read_lock_word(holders - 1);
    if (word.compare_exchange_weak(cur, next, std::memory_order_release)) {
      sim::lockrank::release(word_key(
          *host_,
          layout_->entry_field_off(entry, CacheLayout::EntryField::kLock)));
      return;
    }
  }
}

void HostCachePlane::seq_write_begin(std::uint32_t entry) {
  sim::schedhook::point("cache.seq_begin");
  auto seq = host_->atomic_u32(
      layout_->entry_field_off(entry, CacheLayout::EntryField::kSeq));
  // Exclusive writer (entry write lock held): a plain bump to odd, then a
  // release fence so no mutation is ordered before the odd mark.
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

void HostCachePlane::seq_write_end(std::uint32_t entry) {
  sim::schedhook::point("cache.seq_end");
  auto seq = host_->atomic_u32(
      layout_->entry_field_off(entry, CacheLayout::EntryField::kSeq));
  // Release store back to even publishes every mutation before it.
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
}

PageStatus HostCachePlane::status_of(std::uint32_t entry) const {
  return static_cast<PageStatus>(
      host_->atomic_u32(
               layout_->entry_field_off(entry, CacheLayout::EntryField::kStatus))
          .load(std::memory_order_acquire));
}

void HostCachePlane::set_status(std::uint32_t entry, PageStatus s) {
  host_->atomic_u32(
           layout_->entry_field_off(entry, CacheLayout::EntryField::kStatus))
      .store(static_cast<std::uint32_t>(s), std::memory_order_release);
}

std::optional<std::uint32_t> HostCachePlane::find_locked(
    std::uint32_t bucket, std::uint64_t inode, std::uint64_t lpn) const {
  std::uint32_t idx = layout_->bucket_head_entry(bucket);
  while (idx != kEndOfList) {
    if (status_of(idx) != PageStatus::kFree) {
      const auto e_inode = host_->load<std::uint64_t>(
          layout_->entry_field_off(idx, CacheLayout::EntryField::kInode));
      const auto e_lpn = host_->load<std::uint64_t>(
          layout_->entry_field_off(idx, CacheLayout::EntryField::kLpn));
      if (e_inode == inode && e_lpn == lpn) return idx;
    }
    idx = host_->load<std::uint32_t>(
        layout_->entry_field_off(idx, CacheLayout::EntryField::kNext));
  }
  return std::nullopt;
}

std::optional<std::uint32_t> HostCachePlane::find_free_locked(
    std::uint32_t bucket) const {
  std::uint32_t idx = layout_->bucket_head_entry(bucket);
  while (idx != kEndOfList) {
    if (status_of(idx) == PageStatus::kFree) return idx;
    idx = host_->load<std::uint32_t>(
        layout_->entry_field_off(idx, CacheLayout::EntryField::kNext));
  }
  return std::nullopt;
}

void HostCachePlane::publish_dirty(std::uint32_t entry) {
  // A host-local atomic on host DRAM: no link transaction. Release orders
  // the dirty mark before the bit, so the DPU drain's acquiring fetch_and
  // that clears the bit is followed by a probe that sees the page dirty.
  host_->atomic_u32(layout_->dirty_word_off(entry / 32))
      .fetch_or(1u << (entry % 32), std::memory_order_release);
  sim::schedhook::point("cache.dirty_publish");
}

void HostCachePlane::mark_accessed(std::uint32_t entry) {
  // Host-local, like the dirty bit. Relaxed: the sweep treats the bit as a
  // recency hint, so a set the DPU misses only costs the page its second
  // chance, never correctness.
  auto word = host_->atomic_u32(layout_->accessed_word_off(entry / 32));
  const std::uint32_t bit = 1u << (entry % 32);
  if ((word.load(std::memory_order_relaxed) & bit) == 0)
    word.fetch_or(bit, std::memory_order_relaxed);
}

void HostCachePlane::clear_accessed(std::uint32_t entry) {
  auto word = host_->atomic_u32(layout_->accessed_word_off(entry / 32));
  const std::uint32_t bit = 1u << (entry % 32);
  if ((word.load(std::memory_order_relaxed) & bit) != 0)
    word.fetch_and(~bit, std::memory_order_relaxed);
}

void HostCachePlane::post_readahead_hint(std::uint64_t inode,
                                         std::uint64_t lpn) {
  // Relaxed word stores — concurrent readers may interleave pairs; seq
  // bumped last with release so the DPU reads a consistent pair often
  // enough — it is only a hint.
  host_->atomic_u64(layout_->header_field(HeaderOffsets::kRaInode))
      .store(inode, std::memory_order_relaxed);
  host_->atomic_u64(layout_->header_field(HeaderOffsets::kRaLpn))
      .store(lpn, std::memory_order_relaxed);
  host_->atomic_u32(layout_->header_field(HeaderOffsets::kRaSeq))
      .fetch_add(1, std::memory_order_release);
}

HostCachePlane::FastRead HostCachePlane::try_read_lockfree(
    std::uint32_t bucket, std::uint64_t inode, std::uint64_t lpn,
    std::span<std::byte> dst) {
  // The bucket chain is structurally immutable after CacheLayout init
  // (entry i ↔ page i, `next` links set once), so the walk itself needs no
  // bucket lock; only per-entry *contents* can change, and every mutator
  // wraps its changes in the entry's seqlock window.
  std::uint32_t idx = layout_->bucket_head_entry(bucket);
  while (idx != kEndOfList) {
    const auto seq_off =
        layout_->entry_field_off(idx, CacheLayout::EntryField::kSeq);
    sim::schedhook::point("cache.seq_load");
    const std::uint32_t s1 =
        host_->atomic_u32(seq_off).load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return FastRead::kRetryBlocked;  // writer mid-flight
    const auto st = static_cast<PageStatus>(
        host_->atomic_u32(layout_->entry_field_off(
                              idx, CacheLayout::EntryField::kStatus))
            .load(std::memory_order_acquire));
    const auto e_inode =
        host_->atomic_u64(layout_->entry_field_off(
                              idx, CacheLayout::EntryField::kInode))
            .load(std::memory_order_relaxed);
    const auto e_lpn =
        host_->atomic_u64(layout_->entry_field_off(
                              idx, CacheLayout::EntryField::kLpn))
            .load(std::memory_order_relaxed);
    if (st != PageStatus::kFree && e_inode == inode && e_lpn == lpn) {
      if (st != PageStatus::kClean && st != PageStatus::kDirty) {
        // Claimed but data not yet valid (host write or DPU prefetch is
        // filling it). The locked fallback waits for the fill to finish.
        return FastRead::kRetryBlocked;
      }
      copy_page_out(*host_, layout_->page_off(idx), dst);
      std::atomic_thread_fence(std::memory_order_acquire);
      sim::schedhook::point("cache.seq_recheck");
      const std::uint32_t s2 =
          host_->atomic_u32(seq_off).load(std::memory_order_relaxed);
      if (s2 != s1) return FastRead::kRetry;  // torn copy — discard
      mark_accessed(idx);
      return FastRead::kHit;
    }
    // Non-matching entry: the identity words may themselves have torn
    // under a concurrent claim; trust the no-match verdict only if the
    // entry stayed stable across the reads.
    std::atomic_thread_fence(std::memory_order_acquire);
    sim::schedhook::point("cache.seq_recheck");
    if (host_->atomic_u32(seq_off).load(std::memory_order_relaxed) != s1)
      return FastRead::kRetry;
    idx = host_->load<std::uint32_t>(
        layout_->entry_field_off(idx, CacheLayout::EntryField::kNext));
  }
  return FastRead::kMiss;
}

bool HostCachePlane::read(std::uint64_t inode, std::uint64_t lpn,
                          std::span<std::byte> dst) {
  DPC_CHECK(dst.size() <= kPageSize);
  const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
  // dpc-lint: lockfree-begin(cache-read)
  for (int attempt = 0; attempt < kLockFreeReadAttempts; ++attempt) {
    const FastRead r = try_read_lockfree(bucket, inode, lpn, dst);
    if (r == FastRead::kHit) {
      stats_.read_hits.fetch_add(1, std::memory_order_relaxed);
      stats_.lockfree_hits.fetch_add(1, std::memory_order_relaxed);
      post_readahead_hint(inode, lpn);
      return true;
    }
    if (r == FastRead::kMiss) {
      stats_.read_misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    stats_.seqlock_retries.fetch_add(1, std::memory_order_relaxed);
    if (r == FastRead::kRetryBlocked) {
      // Futile until the mid-flight writer or filler moves: a blocked
      // point, so the checker runs someone else before the re-probe.
      sim::schedhook::spin("cache.read_wait");
    } else {
      // The seq word moved under the probe; the writer may already be
      // done, so the immediate re-probe can succeed — a decision point.
      sim::schedhook::point("cache.read_retry");
    }
    std::this_thread::yield();
  }
  // dpc-lint: lockfree-end(cache-read)
  // Writer churn kept the probe unstable — take the locks and wait it out.
  stats_.locked_fallbacks.fetch_add(1, std::memory_order_relaxed);
  lock_bucket(bucket);
  const auto found = find_locked(bucket, inode, lpn);
  if (!found) {
    unlock_bucket(bucket);
    stats_.read_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint32_t entry = *found;
  // Take the page lock before dropping the bucket lock so an evictor can't
  // free the entry between the find and the copy.
  read_lock(entry);
  unlock_bucket(bucket);
  const PageStatus st = status_of(entry);
  if (st != PageStatus::kClean && st != PageStatus::kDirty) {
    read_unlock(entry);
    stats_.read_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  host_->read(layout_->page_off(entry), dst);
  mark_accessed(entry);
  read_unlock(entry);
  stats_.read_hits.fetch_add(1, std::memory_order_relaxed);
  post_readahead_hint(inode, lpn);
  return true;
}

HostCachePlane::WriteResult HostCachePlane::write(
    std::uint64_t inode, std::uint64_t lpn, std::span<const std::byte> src) {
  DPC_CHECK(src.size() <= kPageSize);
  const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
  lock_bucket(bucket);

  std::uint32_t entry;
  bool fresh = false;
  if (const auto found = find_locked(bucket, inode, lpn)) {
    entry = *found;
    write_lock(entry);  // §3.3: lock atomically before touching the page
    mark_accessed(entry);
    seq_write_begin(entry);
  } else if (const auto free_entry = find_free_locked(bucket)) {
    entry = *free_entry;
    write_lock(entry);
    if (status_of(entry) != PageStatus::kFree) {
      // Lost a race with a DPU prefetch that claimed the entry; retry via
      // the normal miss path.
      write_unlock(entry);
      unlock_bucket(bucket);
      return write(inode, lpn, src);
    }
    fresh = true;
    clear_accessed(entry);
    seq_write_begin(entry);
    host_->atomic_u64(
             layout_->entry_field_off(entry, CacheLayout::EntryField::kInode))
        .store(inode, std::memory_order_relaxed);
    host_->atomic_u64(
             layout_->entry_field_off(entry, CacheLayout::EntryField::kLpn))
        .store(lpn, std::memory_order_relaxed);
    set_status(entry, PageStatus::kInvalid);  // claimed, data not yet valid
  } else {
    // No free entry in this bucket: raise the need-evict flag for the DPU
    // ("host notifies the DPU to perform cache replacement").
    host_->atomic_u32(layout_->header_field(HeaderOffsets::kNeedEvict))
        .store(1, std::memory_order_release);
    unlock_bucket(bucket);
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    return WriteResult::kNoFreeEntry;
  }
  unlock_bucket(bucket);

  // DPC_CHECK_MUTATE cache-seq-publish: publish the even (stable) sequence
  // *before* copying the page — the torn window the seqlock exists to close.
  // dpc_check arms this and must observe a reader with inconsistent halves.
  const bool mutate_publish = sim::schedhook::mutate("cache-seq-publish");
  if (mutate_publish) seq_write_end(entry);
  copy_page_in(*host_, layout_->page_off(entry), src);
  // Pad the remainder of a partial page write with zeros so flushes are
  // whole-page.
  if (src.size() < kPageSize) {
    host_->fill_bytes(layout_->page_off(entry) + src.size(),
                      kPageSize - src.size(),
                      std::byte{0});
  }
  const PageStatus prev = status_of(entry);  // stable: we hold the lock
  const bool turns_dirty = prev != PageStatus::kDirty;
  // DPC_CHECK_MUTATE dirty-publish-order: set the dirty bit *before* the
  // dirty mark. A DPU drain in between clears the bit, probes a page that
  // is not dirty yet and drops it, so the page ends up in neither the
  // bitmap nor the DPU's dirty index. dpc_check arms this and must observe
  // a dirty page that is neither flushed nor logged.
  const bool bit_first =
      turns_dirty && sim::schedhook::mutate("dirty-publish-order");
  if (bit_first) publish_dirty(entry);
  set_status(entry, PageStatus::kDirty);
  if (turns_dirty) {
    if (!bit_first) publish_dirty(entry);
    host_->atomic_u32(layout_->header_field(HeaderOffsets::kDirty))
        .fetch_add(1, std::memory_order_acq_rel);
  }
  if (!mutate_publish) seq_write_end(entry);
  write_unlock(entry);
  if (fresh) {
    host_->atomic_u32(layout_->header_field(HeaderOffsets::kFree))
        .fetch_sub(1, std::memory_order_acq_rel);
  }
  stats_.writes_cached.fetch_add(1, std::memory_order_relaxed);
  return WriteResult::kOk;
}

void HostCachePlane::fill_clean(std::uint64_t inode, std::uint64_t lpn,
                                std::span<const std::byte> src) {
  DPC_CHECK(src.size() <= kPageSize);
  const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
  lock_bucket(bucket);
  if (find_locked(bucket, inode, lpn)) {
    unlock_bucket(bucket);  // already cached (maybe dirtier) — keep it
    return;
  }
  const auto free_entry = find_free_locked(bucket);
  if (!free_entry) {
    unlock_bucket(bucket);
    stats_.fill_skips.fetch_add(1, std::memory_order_relaxed);
    return;  // opportunistic: no eviction pressure for clean fills
  }
  const std::uint32_t entry = *free_entry;
  write_lock(entry);
  if (status_of(entry) != PageStatus::kFree) {
    write_unlock(entry);
    unlock_bucket(bucket);
    return;
  }
  clear_accessed(entry);
  seq_write_begin(entry);
  host_->atomic_u64(
           layout_->entry_field_off(entry, CacheLayout::EntryField::kInode))
      .store(inode, std::memory_order_relaxed);
  host_->atomic_u64(
           layout_->entry_field_off(entry, CacheLayout::EntryField::kLpn))
      .store(lpn, std::memory_order_relaxed);
  set_status(entry, PageStatus::kInvalid);
  unlock_bucket(bucket);

  copy_page_in(*host_, layout_->page_off(entry), src);
  if (src.size() < kPageSize) {
    host_->fill_bytes(layout_->page_off(entry) + src.size(),
                      kPageSize - src.size(),
                      std::byte{0});
  }
  set_status(entry, PageStatus::kClean);
  seq_write_end(entry);
  write_unlock(entry);
  host_->atomic_u32(layout_->header_field(HeaderOffsets::kFree))
      .fetch_sub(1, std::memory_order_acq_rel);
}

bool HostCachePlane::invalidate(std::uint64_t inode, std::uint64_t lpn) {
  const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
  lock_bucket(bucket);
  const auto found = find_locked(bucket, inode, lpn);
  if (!found) {
    unlock_bucket(bucket);
    return false;
  }
  const std::uint32_t entry = *found;
  write_lock(entry);
  unlock_bucket(bucket);
  const PageStatus prev = status_of(entry);
  seq_write_begin(entry);
  set_status(entry, PageStatus::kFree);
  seq_write_end(entry);
  write_unlock(entry);
  host_->atomic_u32(layout_->header_field(HeaderOffsets::kFree))
      .fetch_add(1, std::memory_order_acq_rel);
  if (prev == PageStatus::kDirty) {
    host_->atomic_u32(layout_->header_field(HeaderOffsets::kDirty))
        .fetch_sub(1, std::memory_order_acq_rel);
  }
  return true;
}

void HostCachePlane::zero_tail(std::uint64_t inode, std::uint64_t lpn,
                               std::uint32_t from) {
  DPC_CHECK(from < kPageSize);
  const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
  lock_bucket(bucket);
  const auto found = find_locked(bucket, inode, lpn);
  if (!found) {
    unlock_bucket(bucket);
    return;
  }
  const std::uint32_t entry = *found;
  write_lock(entry);
  unlock_bucket(bucket);
  const PageStatus st = status_of(entry);
  if (st == PageStatus::kClean || st == PageStatus::kDirty) {
    seq_write_begin(entry);
    host_->fill_bytes(layout_->page_off(entry) + from, kPageSize - from,
                      std::byte{0});
    seq_write_end(entry);
  }
  write_unlock(entry);
}

std::uint32_t HostCachePlane::invalidate_above(std::uint64_t inode,
                                               std::uint64_t first_lpn) {
  std::uint32_t freed = 0;
  const std::uint32_t total = layout_->geometry().total_pages;
  for (std::uint32_t i = 0; i < total; ++i) {
    if (status_of(i) == PageStatus::kFree) continue;
    const auto e_inode = host_->load<std::uint64_t>(
        layout_->entry_field_off(i, CacheLayout::EntryField::kInode));
    if (e_inode != inode) continue;
    const auto e_lpn = host_->load<std::uint64_t>(
        layout_->entry_field_off(i, CacheLayout::EntryField::kLpn));
    if (e_lpn < first_lpn) continue;
    if (invalidate(inode, e_lpn)) ++freed;
  }
  return freed;
}

std::uint32_t HostCachePlane::free_pages() const {
  return host_->atomic_u32(layout_->header_field(HeaderOffsets::kFree))
      .load(std::memory_order_acquire);
}

}  // namespace dpc::cache
