#include "cache/control_plane.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "dpu/qos.hpp"
#include "ec/crc32c.hpp"
#include "nvm/wal.hpp"
#include "sim/check.hpp"
#include "sim/lockrank.hpp"

namespace {
// Lock-rank key for a PCIe lock word: the word's stable backing address in
// host DRAM — shared with the host plane's hooks, so cross-plane ordering
// bugs land in one graph.
const void* word_key(dpc::pcie::MemoryRegion& host, std::uint64_t off) {
  return host.bytes(off, sizeof(std::uint32_t)).data();
}

// Drops the thread's lock-rank record for a PCIe lock word if the pass
// unwinds on a CrashException: the lock *word* deliberately stays set in
// host DRAM (rebuild() clears it after the restart), but the surviving
// thread no longer logically holds it and must not be blamed for the dead
// DPU core's lock on its next acquisition. On the normal path the unlock
// helper has already released the record, making the destructor's second
// release a tolerated no-op.
struct ReleaseRecordOnUnwind {
  const void* key;
  ~ReleaseRecordOnUnwind() { dpc::sim::lockrank::release(key); }
};
}  // namespace

namespace dpc::cache {

namespace {
constexpr auto kLockNone = static_cast<std::uint32_t>(LockState::kNone);
constexpr auto kLockWrite = static_cast<std::uint32_t>(LockState::kWrite);
/// Maximum readahead window in cache pages (kernel-readahead scale).
constexpr std::uint32_t kPrefetchMaxWindow = 256;
}  // namespace

DpuCacheControl::DpuCacheControl(pcie::DmaEngine& dma,
                                 const CacheLayout& layout,
                                 CacheBackend& backend,
                                 const ControlPlaneConfig& cfg,
                                 obs::Registry* registry,
                                 fault::FaultInjector* fault)
    : dma_(&dma),
      layout_(&layout),
      backend_(&backend),
      fault_(fault),
      cfg_(cfg),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      stats_(*registry_),
      flush_pass_ns_(&registry_->histogram("cache.ctl/flush_pass_ns")),
      prefetch_pass_ns_(&registry_->histogram("cache.ctl/prefetch_pass_ns")),
      prefetcher_(kPrefetchMaxWindow),
      bitmap_(layout.bitmap_words()),
      scratch_(kPageSize) {}

CacheEntry DpuCacheControl::fetch_entry(std::uint32_t index,
                                        sim::Nanos& cost) {
  CacheEntry e;
  cost += dma_->read_host(layout_->entry_off(index),
                          std::as_writable_bytes(std::span{&e, 1}),
                          pcie::DmaClass::kDescriptor);
  return e;
}

bool DpuCacheControl::try_read_lock(std::uint32_t index, sim::Nanos& cost) {
  // Read locks are shared: pile onto host readers, fail only against a
  // write lock (§3.3's read/write lock semantics).
  const std::uint64_t off =
      layout_->entry_field_off(index, CacheLayout::EntryField::kLock);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto cur =
        dma_->host().atomic_u32(off).load(std::memory_order_acquire);
    std::uint32_t next;
    if (cur == kLockNone) {
      next = read_lock_word(1);
    } else if (is_read_locked(cur)) {
      next = read_lock_word(read_lock_holders(cur) + 1);
    } else {
      return false;  // write-locked or invalid
    }
    const auto res = dma_->atomic_cas_host(off, cur, next);
    cost += res.cost;
    if (res.success) {
      sim::lockrank::acquire(word_key(dma_->host(), off),
                             sim::LockRank::kCacheEntry, "cache.entry",
                             /*shared=*/true);
      return true;
    }
  }
  return false;
}

void DpuCacheControl::read_unlock(std::uint32_t index, sim::Nanos& cost) {
  // The flusher is the only DPU-side read-locker and it took holders=1;
  // host readers may have piled on meanwhile, so decrement via CAS.
  for (;;) {
    const auto cur = dma_->host()
                         .atomic_u32(layout_->entry_field_off(
                             index, CacheLayout::EntryField::kLock))
                         .load(std::memory_order_acquire);
    DPC_CHECK(is_read_locked(cur));
    const std::uint32_t holders = read_lock_holders(cur);
    const std::uint32_t next =
        holders <= 1 ? kLockNone : read_lock_word(holders - 1);
    const auto res = dma_->atomic_cas_host(
        layout_->entry_field_off(index, CacheLayout::EntryField::kLock), cur,
        next);
    cost += res.cost;
    if (res.success) {
      sim::lockrank::release(word_key(
          dma_->host(),
          layout_->entry_field_off(index, CacheLayout::EntryField::kLock)));
      return;
    }
  }
}

bool DpuCacheControl::try_write_lock(std::uint32_t index, sim::Nanos& cost) {
  const std::uint64_t off =
      layout_->entry_field_off(index, CacheLayout::EntryField::kLock);
  const auto res = dma_->atomic_cas_host(off, kLockNone, kLockWrite);
  cost += res.cost;
  if (res.success) {
    sim::lockrank::acquire(word_key(dma_->host(), off),
                           sim::LockRank::kCacheEntry, "cache.entry");
  }
  return res.success;
}

void DpuCacheControl::write_unlock(std::uint32_t index, sim::Nanos& cost) {
  const std::uint64_t off =
      layout_->entry_field_off(index, CacheLayout::EntryField::kLock);
  sim::lockrank::release(word_key(dma_->host(), off));
  const auto res = dma_->atomic_swap_host(off, kLockNone);
  cost += res.cost;
  DPC_CHECK(res.observed == kLockWrite);
}

void DpuCacheControl::set_status(std::uint32_t index, PageStatus s,
                                 sim::Nanos& cost) {
  const auto res = dma_->atomic_swap_host(
      layout_->entry_field_off(index, CacheLayout::EntryField::kStatus),
      static_cast<std::uint32_t>(s));
  cost += res.cost;
}

void DpuCacheControl::seq_write_begin(std::uint32_t index, sim::Nanos& cost) {
  auto seq = dma_->host().atomic_u32(
      layout_->entry_field_off(index, CacheLayout::EntryField::kSeq));
  // Exclusive writer (entry write lock held via PCIe atomics): bump to odd,
  // release-fence so no mutation is ordered before the odd mark.
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  cost += dma_->note_transaction(pcie::DmaClass::kAtomic,
                                 sizeof(std::uint32_t));
}

void DpuCacheControl::seq_write_end(std::uint32_t index, sim::Nanos& cost) {
  auto seq = dma_->host().atomic_u32(
      layout_->entry_field_off(index, CacheLayout::EntryField::kSeq));
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
  cost += dma_->note_transaction(pcie::DmaClass::kAtomic,
                                 sizeof(std::uint32_t));
}

bool DpuCacheControl::lock_bucket(std::uint32_t bucket, sim::Nanos& cost) {
  const auto res =
      dma_->atomic_cas_host(layout_->bucket_lock_off(bucket), 0, 1);
  cost += res.cost;
  if (res.success) {
    sim::lockrank::acquire(
        word_key(dma_->host(), layout_->bucket_lock_off(bucket)),
        sim::LockRank::kCacheBucket, "cache.bucket");
  }
  return res.success;
}

void DpuCacheControl::unlock_bucket(std::uint32_t bucket, sim::Nanos& cost) {
  sim::lockrank::release(
      word_key(dma_->host(), layout_->bucket_lock_off(bucket)));
  const auto res = dma_->atomic_swap_host(layout_->bucket_lock_off(bucket), 0);
  cost += res.cost;
  DPC_CHECK(res.observed == 1);
}

void DpuCacheControl::bump_free(std::int32_t delta, sim::Nanos& cost) {
  dma_->atomic_fadd_host(layout_->header_field(HeaderOffsets::kFree),
                         static_cast<std::uint32_t>(delta));
  cost += sim::calib::kPcieAtomic;
}

void DpuCacheControl::ingest_dirty(sim::Nanos& cost) {
  cost += dma_->read_host(layout_->dirty_word_off(0),
                          std::as_writable_bytes(std::span{bitmap_}),
                          pcie::DmaClass::kDescriptor);
  for (std::uint32_t w = 0; w < bitmap_.size(); ++w) {
    const std::uint32_t bits = bitmap_[w];
    if (bits == 0) continue;
    // Clear exactly the bits read; one the host sets meanwhile stays for the
    // next drain. Only this side clears bits (under pass_mu_), so every bit
    // read is still set here.
    cost += dma_->atomic_and_host(layout_->dirty_word_off(w), ~bits).cost;
    for (std::uint32_t rest = bits; rest != 0; rest &= rest - 1) {
      const std::uint32_t i = w * 32 + static_cast<std::uint32_t>(
                                           std::countr_zero(rest));
      // The host set the bit after the dirty mark, and this probe follows
      // the clear: a page still dirty is indexed under its current inode; one
      // already cleaned or freed drops out, and dirtying it again sets the
      // bit again.
      const CacheEntry e = fetch_entry(i, cost);
      if (static_cast<PageStatus>(e.status) == PageStatus::kDirty) {
        index_dirty(i, e.inode);
      } else {
        unindex_dirty(i);
      }
    }
  }
}

void DpuCacheControl::index_dirty(std::uint32_t entry, std::uint64_t inode) {
  const auto [it, fresh] = dirty_.try_emplace(entry, inode);
  if (!fresh) {
    if (it->second == inode) return;
    dirty_by_ino_.erase({it->second, entry});  // entry reused by another file
    it->second = inode;
  }
  dirty_by_ino_.insert({inode, entry});
}

void DpuCacheControl::unindex_dirty(std::uint32_t entry) {
  const auto it = dirty_.find(entry);
  if (it == dirty_.end()) return;
  dirty_by_ino_.erase({it->second, entry});
  dirty_.erase(it);
}

std::vector<std::uint32_t> DpuCacheControl::dirty_entries_of(
    std::uint64_t inode) const {
  std::vector<std::uint32_t> out;
  for (auto it = dirty_by_ino_.lower_bound({inode, 0});
       it != dirty_by_ino_.end() && it->first == inode; ++it)
    out.push_back(it->second);
  return out;
}

DpuCacheControl::PassResult DpuCacheControl::flush_pass(int max_pages) {
  if (fault_ != nullptr && fault_->crashed()) return {};
  sim::LockGuard lock(pass_mu_);
  PassResult res;
  ingest_dirty(res.cost);
  for (auto it = dirty_.begin(); it != dirty_.end() && res.pages < max_pages;) {
    const std::uint32_t i = (it++)->first;  // step first: i may be dropped
    if (!flush_entry(i, res)) unindex_dirty(i);
  }
  finish_flush(res);
  return res;
}

DpuCacheControl::PassResult DpuCacheControl::flush_inode(std::uint64_t inode) {
  if (fault_ != nullptr && fault_->crashed()) return {};
  sim::LockGuard lock(pass_mu_);
  PassResult res;
  ingest_dirty(res.cost);
  for (const std::uint32_t i : dirty_entries_of(inode)) {
    if (!flush_entry(i, res)) unindex_dirty(i);
  }
  finish_flush(res);
  return res;
}

bool DpuCacheControl::flush_entry(std::uint32_t i, PassResult& res) {
  // §3.3: "safely flush the selected dirty pages by adding the read locks
  // for them" — a host writer holding the write lock makes us skip.
  if (!try_read_lock(i, res.cost)) {
    ++stats_.flush_lock_conflicts;
    return true;
  }
  // The backend write below and the crash point after it may throw
  // CrashException while this entry's read lock is held.
  ReleaseRecordOnUnwind rank_record{word_key(
      dma_->host(),
      layout_->entry_field_off(i, CacheLayout::EntryField::kLock))};
  const CacheEntry e = fetch_entry(i, res.cost);
  if (static_cast<PageStatus>(e.status) != PageStatus::kDirty) {
    read_unlock(i, res.cost);  // raced with an invalidate
    return false;
  }
  // "DPU temporarily pulls the data to its DRAM by DMA transmission".
  res.cost += dma_->read_host(layout_->page_off(i), scratch_,
                              pcie::DmaClass::kData);
  // "…and performs relevant computing operations (e.g., compression,
  // DIF, EC, etc.)". The DIF stamp is taken at the pull — it is the
  // checksum of the host-DRAM truth the DMA engine carried over.
  const std::uint32_t dif_stamp = ec::crc32c(scratch_);
  ++stats_.dif_checksums;
  // Injection: the DPU-DRAM copy is damaged after the pull (DMA glitch
  // or DRAM bit flip) — the window the DIF verify below closes.
  if (fault_ != nullptr) {
    std::uint64_t entropy = 0;
    if (fault_->should_fail(kFaultFlushCorruptPage, &entropy) &&
        !scratch_.empty()) {
      const std::uint64_t bit = entropy % (scratch_.size() * 8);
      scratch_[bit / 8] ^=
          std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    }
  }
  if (ec::crc32c(scratch_) != dif_stamp) {
    // The copy about to hit the backend is provably not what the host
    // wrote. Never flush it: leave the page dirty — the next pass pulls
    // a fresh (intact) copy from host DRAM, so recovery is free.
    ++stats_.flush_integrity_fails;
    read_unlock(i, res.cost);
    return true;
  }
  const bool flushed =
      !(fault_ != nullptr && fault_->should_fail(kFaultFlushWritePage)) &&
      backend_->write_page(e.inode, e.lpn, scratch_, res.cost);
  if (!flushed) {
    // Transient backend failure: drop the read lock but leave the page
    // dirty — it is re-queued, never lost, and a later pass retries it.
    ++stats_.flush_fails;
    read_unlock(i, res.cost);
    return true;
  }
  // Crash window: the backend write is durable but the meta still says
  // dirty and this side still holds the read lock. Propagates — the TGT
  // absorbs it on the fsync path, poll() absorbs it on the flusher path.
  fault::crash_point(fault_, kFaultFlushCrashBeforeClean);
  // "After completing flushing, DPU releases the read locks … and updates
  // their status to clean".
  set_status(i, PageStatus::kClean, res.cost);
  dma_->atomic_fadd_host(layout_->header_field(HeaderOffsets::kDirty),
                         static_cast<std::uint32_t>(-1));
  res.cost += sim::calib::kPcieAtomic;
  if (wal_ != nullptr && wal_->has_pending(e.inode, e.lpn)) {
    // This is the WAL drain: the backend now holds the bytes, so a
    // marker supersedes the logged copies. A crash in between (or right
    // after — the crash point below) replays the logged copy over the
    // identical backend bytes: idempotent, never lost.
    wal_->note_drained(e.inode, e.lpn, res.cost);
    fault::crash_point(fault_, nvm::kCrashWalAfterDrain);
  }
  read_unlock(i, res.cost);
  ++res.pages;
  ++stats_.pages_flushed;
  return false;
}

void DpuCacheControl::finish_flush(PassResult& res) {
  backend_->end_pass(res.cost);
  if (wal_ != nullptr && (res.pages > 0 || wal_->degraded())) {
    // The pass may have drained the last pending page: checkpoint-truncate
    // (which doubles as the degraded-mode recovery probe).
    wal_->maybe_checkpoint(res.cost);
  }
  // Idle poller passes that flushed nothing would drown the distribution in
  // bitmap-drain costs; record only passes that moved pages.
  if (res.pages > 0) flush_pass_ns_->record(res.cost);
}

DpuCacheControl::WalLogResult DpuCacheControl::wal_log_pass(
    std::uint64_t inode) {
  WalLogResult res;
  if (wal_ == nullptr || (fault_ != nullptr && fault_->crashed())) return res;
  sim::LockGuard lock(pass_mu_);
  res.complete = true;
  ingest_dirty(res.cost);
  for (const std::uint32_t i : dirty_entries_of(inode)) {
    // Same read-lock discipline as the flush: a host writer mid-update
    // means the page bytes are not provably stable — no WAL ack for it.
    if (!try_read_lock(i, res.cost)) {
      ++stats_.flush_lock_conflicts;
      res.complete = false;
      continue;
    }
    ReleaseRecordOnUnwind rank_record{word_key(
        dma_->host(),
        layout_->entry_field_off(i, CacheLayout::EntryField::kLock))};
    const CacheEntry e = fetch_entry(i, res.cost);
    if (e.inode != inode ||
        static_cast<PageStatus>(e.status) != PageStatus::kDirty) {
      read_unlock(i, res.cost);  // raced with an invalidate
      unindex_dirty(i);
      continue;
    }
    res.cost += dma_->read_host(layout_->page_off(i), scratch_,
                                pcie::DmaClass::kData);
    const auto st = wal_->append_data(e.inode, e.lpn, scratch_, res.cost);
    read_unlock(i, res.cost);
    if (st != nvm::AppendStatus::kOk) {
      // kFull / kIoError: the WAL latched degraded; every remaining page
      // would fail the same way, so report incomplete and stop.
      res.complete = false;
      break;
    }
    ++res.pages;
    ++stats_.wal_pages_logged;
  }
  return res;
}

int DpuCacheControl::dirty_pages(std::uint64_t inode, sim::Nanos& cost) {
  if (fault_ != nullptr && fault_->crashed()) return 0;
  sim::LockGuard lock(pass_mu_);
  ingest_dirty(cost);
  int n = 0;
  for (const std::uint32_t i : dirty_entries_of(inode)) {
    const CacheEntry e = fetch_entry(i, cost);
    if (e.inode == inode &&
        static_cast<PageStatus>(e.status) == PageStatus::kDirty) {
      ++n;
    } else {
      unindex_dirty(i);
    }
  }
  return n;
}

DpuCacheControl::PassResult DpuCacheControl::evict(std::uint32_t target_free) {
  if (fault_ != nullptr && fault_->crashed()) return {};
  sim::LockGuard lock(pass_mu_);
  PassResult res;
  const std::uint32_t free_now = free_pages_seen();
  res.cost += sim::calib::kDmaSetup;  // header read
  if (free_now >= target_free) return res;

  std::array<CacheEntry, ClockEviction::kChunk> chunk;
  std::array<std::uint32_t, ClockEviction::kChunk / 32 + 2> accessed_buf;
  std::vector<std::uint32_t> victims;
  clock_.pick_victims(
      layout_->geometry().total_pages, target_free - free_now,
      [&](std::uint32_t first, std::span<SweepSlot> slots) {
        const std::span<CacheEntry> entries{chunk.data(), slots.size()};
        res.cost += dma_->read_host(layout_->entry_off(first),
                                    std::as_writable_bytes(entries),
                                    pcie::DmaClass::kDescriptor);
        const auto n = static_cast<std::uint32_t>(slots.size());
        const AccessedWords accessed =
            read_accessed(first, n, accessed_buf, res.cost);
        for (std::uint32_t k = 0; k < n; ++k)
          slots[k] = {static_cast<PageStatus>(entries[k].status),
                      accessed.referenced(first + k)};
      },
      [&](std::span<const std::uint32_t> spared) {
        // Clear exactly the spared entries' bits, one fetch-and per word; a
        // hit meanwhile on an entry in the mask is spent on this chance.
        for (std::size_t k = 0; k < spared.size();) {
          const std::uint32_t w = spared[k] / 32;
          std::uint32_t mask = 0;
          for (; k < spared.size() && spared[k] / 32 == w; ++k)
            mask |= 1u << (spared[k] % 32);
          res.cost +=
              dma_->atomic_and_host(layout_->accessed_word_off(w), ~mask).cost;
        }
        stats_.second_chances += spared.size();
      },
      victims);
  for (const std::uint32_t i : victims) {
    if (!try_write_lock(i, res.cost)) continue;  // in use; skip
    const CacheEntry e = fetch_entry(i, res.cost);
    if (static_cast<PageStatus>(e.status) == PageStatus::kClean) {
      seq_write_begin(i, res.cost);
      set_status(i, PageStatus::kFree, res.cost);
      seq_write_end(i, res.cost);
      bump_free(1, res.cost);
      ++res.pages;
      ++stats_.pages_evicted;
    }
    write_unlock(i, res.cost);
  }
  // Acknowledge the host's request once space exists.
  if (res.pages > 0) {
    dma_->atomic_swap_host(layout_->header_field(HeaderOffsets::kNeedEvict),
                           0);
    res.cost += sim::calib::kPcieAtomic;
  }
  return res;
}

DpuCacheControl::PassResult DpuCacheControl::prefetch(std::uint64_t inode,
                                                      std::uint64_t start_lpn,
                                                      std::uint32_t pages) {
  if (fault_ != nullptr && fault_->crashed()) return {};
  sim::LockGuard lock(pass_mu_);
  PassResult res;
  const std::uint32_t epb = layout_->entries_per_bucket();
  for (std::uint32_t k = 0; k < pages; ++k) {
    const std::uint64_t lpn = start_lpn + k;
    const std::uint32_t bucket = layout_->bucket_of(inode, lpn);
    if (!lock_bucket(bucket, res.cost)) continue;  // busy; skip this page

    // Walk the bucket (one chunked DMA): skip if present, find a free slot.
    const std::uint32_t head = layout_->bucket_head_entry(bucket);
    std::vector<CacheEntry> entries(epb);
    res.cost += dma_->read_host(layout_->entry_off(head),
                                std::as_writable_bytes(std::span{entries}),
                                pcie::DmaClass::kDescriptor);
    bool present = false;
    std::uint32_t free_slot = kEndOfList;
    for (std::uint32_t j = 0; j < epb; ++j) {
      const auto st = static_cast<PageStatus>(entries[j].status);
      if (st == PageStatus::kFree) {
        if (free_slot == kEndOfList) free_slot = head + j;
      } else if (entries[j].inode == inode && entries[j].lpn == lpn) {
        present = true;
        break;
      }
    }
    if (present) {
      unlock_bucket(bucket, res.cost);
      continue;
    }
    // Prefetch drives its own replacement: with no free entry, reuse a
    // clean one in the same bucket (the flexibility §3.3 gives the
    // offloaded control plane).
    bool reused = false;
    if (free_slot == kEndOfList) {
      const std::uint32_t clean_victim = reuse_victim(head, entries, res.cost);
      if (clean_victim == kEndOfList ||
          !try_write_lock(clean_victim, res.cost)) {
        unlock_bucket(bucket, res.cost);
        continue;
      }
      CacheEntry v = fetch_entry(clean_victim, res.cost);
      if (static_cast<PageStatus>(v.status) != PageStatus::kClean) {
        write_unlock(clean_victim, res.cost);
        unlock_bucket(bucket, res.cost);
        continue;
      }
      free_slot = clean_victim;
      reused = true;
      ++stats_.pages_evicted;
    } else if (!try_write_lock(free_slot, res.cost)) {
      unlock_bucket(bucket, res.cost);
      continue;
    }

    if (!backend_->read_page(inode, lpn, scratch_, res.cost)) {
      write_unlock(free_slot, res.cost);
      unlock_bucket(bucket, res.cost);
      continue;  // past EOF / hole
    }
    // Fill the identity fields, push the page, publish as clean — all
    // inside the entry's seqlock window so a concurrent lock-free host
    // reader discards any half-filled view.
    CacheEntry e = entries[free_slot - head];
    e.inode = inode;
    e.lpn = lpn;
    e.fill = fill_seq_.fetch_add(1, std::memory_order_relaxed);
    seq_write_begin(free_slot, res.cost);
    res.cost += dma_->write_host(
        layout_->entry_field_off(free_slot, CacheLayout::EntryField::kLpn),
        std::as_bytes(std::span{&e.lpn, 1}), pcie::DmaClass::kDescriptor);
    res.cost += dma_->write_host(
        layout_->entry_field_off(free_slot, CacheLayout::EntryField::kInode),
        std::as_bytes(std::span{&e.inode, 1}), pcie::DmaClass::kDescriptor);
    res.cost += dma_->write_host(
        layout_->entry_field_off(free_slot, CacheLayout::EntryField::kFill),
        std::as_bytes(std::span{&e.fill, 1}), pcie::DmaClass::kDescriptor);
    res.cost +=
        dma_->write_host(layout_->page_off(free_slot), scratch_,
                         pcie::DmaClass::kData);
    // Published referenced: a page read ahead but not yet read is spared
    // once by the sweep, not evicted first.
    res.cost += dma_->atomic_or_host(layout_->accessed_word_off(free_slot / 32),
                                     1u << (free_slot % 32))
                    .cost;
    set_status(free_slot, PageStatus::kClean, res.cost);
    seq_write_end(free_slot, res.cost);
    if (!reused) bump_free(-1, res.cost);
    write_unlock(free_slot, res.cost);
    unlock_bucket(bucket, res.cost);
    ++res.pages;
    ++stats_.pages_prefetched;
  }
  if (res.pages > 0) prefetch_pass_ns_->record(res.cost);
  return res;
}

DpuCacheControl::AccessedWords DpuCacheControl::read_accessed(
    std::uint32_t first, std::uint32_t n, std::span<std::uint32_t> buf,
    sim::Nanos& cost) {
  const std::uint32_t w0 = first / 32;
  const std::span<std::uint32_t> words =
      buf.first((first + n - 1) / 32 - w0 + 1);
  cost += dma_->read_host(layout_->accessed_word_off(w0),
                          std::as_writable_bytes(words),
                          pcie::DmaClass::kDescriptor);
  return {w0, words};
}

std::uint32_t DpuCacheControl::reuse_victim(
    std::uint32_t head, std::span<const CacheEntry> entries,
    sim::Nanos& cost) {
  const auto clean = [](const CacheEntry& e) {
    return static_cast<PageStatus>(e.status) == PageStatus::kClean;
  };
  if (std::none_of(entries.begin(), entries.end(), clean)) return kEndOfList;
  const auto n = static_cast<std::uint32_t>(entries.size());
  std::vector<std::uint32_t> buf(n / 32 + 2);
  const AccessedWords accessed = read_accessed(head, n, buf, cost);
  // Host-filled entries carry fill 0, so among the unreferenced they go
  // first; a referenced page (a host hit, or a prefetch not yet read) is
  // reused only when every clean entry is referenced.
  std::uint32_t victim = kEndOfList;
  std::pair<bool, std::uint32_t> victim_key{};
  for (std::uint32_t j = 0; j < entries.size(); ++j) {
    if (!clean(entries[j])) continue;
    const std::pair<bool, std::uint32_t> key{accessed.referenced(head + j),
                                             entries[j].fill};
    if (victim == kEndOfList || key < victim_key) {
      victim = head + j;
      victim_key = key;
    }
  }
  return victim;
}

DpuCacheControl::PassResult DpuCacheControl::on_read_miss(std::uint64_t inode,
                                                          std::uint64_t lpn,
                                                          std::uint32_t span,
                                                          std::uint8_t tenant) {
  SequentialPrefetcher::Advice advice;
  {
    sim::LockGuard lock(pass_mu_);
    advice = prefetcher_.on_miss(inode, lpn, span);
  }
  if (advice.pages == 0) return {};
  const PassResult res = prefetch(inode, advice.start_lpn, advice.pages);
  // Speculative backend work is charged to the tenant whose miss caused it.
  if (qos_ != nullptr && res.pages > 0)
    qos_->count_prefetch_pages(tenant,
                               static_cast<std::uint64_t>(res.pages));
  return res;
}

int DpuCacheControl::poll() {
  if (fault_ != nullptr && fault_->crashed()) return 0;
  try {
    return poll_impl();
  } catch (const fault::CrashException&) {
    // The DPU core died mid-pass (flush crash point, or a KVFS crash point
    // under the cache backend). The crashed() latch is set; every poller
    // goes inert until DpcSystem::restart_dpu() clears it.
    return 0;
  }
}

int DpuCacheControl::poll_impl() {
  int acted = 0;
  // Control hints (need-evict flag, dirty count, free count) are modelled
  // as shadow registers the host pushes with posted MMIO writes, so the
  // DPU's idle poll costs no link transactions.
  const auto need_evict =
      dma_->host()
          .atomic_u32(layout_->header_field(HeaderOffsets::kNeedEvict))
          .load(std::memory_order_acquire);
  const auto dirty =
      dma_->host()
          .atomic_u32(layout_->header_field(HeaderOffsets::kDirty))
          .load(std::memory_order_acquire);

  // Consume the host's readahead hint and extend active streams before the
  // reader runs off the prefetched window (async readahead).
  const auto ra_seq =
      dma_->host()
          .atomic_u32(layout_->header_field(HeaderOffsets::kRaSeq))
          .load(std::memory_order_acquire);
  if (ra_seq != last_ra_seq_.exchange(ra_seq, std::memory_order_acq_rel)) {
    const auto hint_ino =
        dma_->host()
            .atomic_u64(layout_->header_field(HeaderOffsets::kRaInode))
            .load(std::memory_order_relaxed);
    const auto hint_lpn =
        dma_->host()
            .atomic_u64(layout_->header_field(HeaderOffsets::kRaLpn))
            .load(std::memory_order_relaxed);
    SequentialPrefetcher::Advice advice;
    {
      sim::LockGuard lock(pass_mu_);
      advice = prefetcher_.on_hit(hint_ino, hint_lpn);
    }
    if (advice.pages > 0)
      acted += prefetch(hint_ino, advice.start_lpn, advice.pages).pages;
  }

  if (need_evict == 0 && dirty == 0 &&
      free_pages_seen() >= cfg_.evict_low_water) {
    return acted;  // nothing else to do
  }
  if (need_evict != 0 || free_pages_seen() < cfg_.evict_low_water) {
    // Make eviction possible by cleaning first, then reclaim. The host's
    // stall can be bucket-local (one full bucket with plenty free
    // globally), so when the flag is raised we always reclaim a batch on
    // top of the current free count rather than testing a global target.
    acted += flush_pass(static_cast<int>(cfg_.evict_batch)).pages;
    const std::uint32_t target =
        need_evict != 0 ? free_pages_seen() + cfg_.evict_batch
                        : cfg_.evict_low_water + cfg_.evict_batch;
    acted += evict(target).pages;
  } else {
    acted += flush_pass(static_cast<int>(cfg_.evict_batch)).pages;
  }
  return acted;
}

DpuCacheControl::PassResult DpuCacheControl::rebuild() {
  sim::LockGuard lock(pass_mu_);
  PassResult res;
  const std::uint32_t total = layout_->geometry().total_pages;
  // The data plane (meta + pages) lives in host DRAM and survives the DPU
  // dying; everything DPU-side (lock holdings, cached counts, the dirty
  // index, prefetch cursor) is gone. Scan the surviving meta area and
  // rebuild from it.
  std::vector<CacheEntry> entries(total);
  constexpr std::uint32_t kChunk = 128;  // entries per DMA
  for (std::uint32_t at = 0; at < total; at += kChunk) {
    const std::uint32_t n = std::min(kChunk, total - at);
    res.cost += dma_->read_host(
        layout_->entry_off(at),
        std::as_writable_bytes(std::span{entries.data() + at, n}),
        pcie::DmaClass::kDescriptor);
  }
  auto& host = dma_->host();
  std::uint32_t free_count = 0;
  std::uint32_t dirty_count = 0;
  std::uint32_t survivors = 0;
  dirty_.clear();
  dirty_by_ino_.clear();
  for (std::uint32_t i = 0; i < total; ++i) {
    // The dead DPU (or a host thread it stranded) may still hold this
    // entry's lock; both planes are quiesced now, so force it open.
    if (entries[i].lock != kLockNone) {
      host.atomic_u32(layout_->entry_field_off(i,
                                               CacheLayout::EntryField::kLock))
          .store(kLockNone, std::memory_order_release);
      res.cost += sim::calib::kPcieAtomic;
    }
    // A writer that died mid-mutation leaves the seqlock word odd, which
    // would make lock-free readers retry forever; round it up to even (the
    // entry's contents were re-derived above, so the generation is stable).
    if ((entries[i].seq & 1u) != 0) {
      host.atomic_u32(layout_->entry_field_off(i,
                                               CacheLayout::EntryField::kSeq))
          .store(entries[i].seq + 1, std::memory_order_release);
      res.cost += sim::calib::kPcieAtomic;
    }
    switch (static_cast<PageStatus>(entries[i].status)) {
      case PageStatus::kFree:
        ++free_count;
        break;
      case PageStatus::kDirty:
        ++dirty_count;
        ++survivors;
        index_dirty(i, entries[i].inode);
        break;
      default:
        ++survivors;
        break;
    }
  }
  for (std::uint32_t b = 0; b < layout_->geometry().buckets; ++b) {
    host.atomic_u32(layout_->bucket_lock_off(b))
        .store(0, std::memory_order_release);
  }
  res.cost += sim::calib::kPcieAtomic;  // bucket sweep, one posted batch
  // The scan indexed every dirty entry, so the bits announcing them are
  // spent; no host write is in flight to set a new one.
  std::fill(bitmap_.begin(), bitmap_.end(), 0u);
  res.cost += dma_->write_host(layout_->dirty_word_off(0),
                               std::as_bytes(std::span{bitmap_}),
                               pcie::DmaClass::kDescriptor);
  // Recompute the header's shadow registers from ground truth and drop any
  // pre-crash eviction request (poll() re-derives it from the counts).
  host.atomic_u32(layout_->header_field(HeaderOffsets::kFree))
      .store(free_count, std::memory_order_release);
  host.atomic_u32(layout_->header_field(HeaderOffsets::kDirty))
      .store(dirty_count, std::memory_order_release);
  host.atomic_u32(layout_->header_field(HeaderOffsets::kNeedEvict))
      .store(0, std::memory_order_release);
  res.cost += sim::calib::kPcieAtomic * 3;
  // Resync the readahead cursor so a stale pre-crash hint isn't replayed.
  last_ra_seq_.store(
      host.atomic_u32(layout_->header_field(HeaderOffsets::kRaSeq))
          .load(std::memory_order_acquire),
      std::memory_order_release);
  res.pages = static_cast<int>(survivors);
  stats_.rebuild_pages += survivors;
  return res;
}

std::uint32_t DpuCacheControl::free_pages_seen() const {
  return dma_->host()
      .atomic_u32(layout_->header_field(HeaderOffsets::kFree))
      .load(std::memory_order_acquire);
}

}  // namespace dpc::cache
