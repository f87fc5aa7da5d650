// Hybrid-cache memory layout (§3.3, Fig. 5).
//
// The cache is one contiguous block of *host* memory, registered with the
// DPU at mount time:
//
//   [ header | bucket locks | meta area (cache entries) | dirty bitmap |
//     accessed bitmap | data area ]
//
// header     — pagesize, mode (the paper's 0 = read cache, 1 = write
//              cache; always 1 here, and nothing reads it back), total
//              page count, free page count.
//   meta area — a hash table of fixed-size cache entries; entries are
//              grouped into equal-sized buckets and linked by `next`.
//              Each entry i describes data page i:
//                lock   : 0 none, 1 write lock, 2 read lock, 3 invalid
//                status : 0 free, 1 clean, 2 dirty, 3 invalid
//                next   : next entry in the bucket's list
//                lpn    : logical page number within the file
//                inode  : owning file
//   dirty bitmap — one bit per entry, in u32 words (entry i is bit i % 32
//              of word i / 32). The host sets an entry's bit when it turns
//              the page dirty, after the dirty mark; the DPU control plane
//              drains the words into its DPU-resident dirty index, so no
//              pass has to scan the meta area to find dirt.
//   accessed bitmap — same shape as the dirty bitmap. The host sets an
//              entry's bit after a hit on it (a read hit, or a write to a
//              page already cached); the DPU prefetcher publishes the pages
//              it fills with their bit set, and a claim of a free entry by
//              the host clears it. The DPU's clock sweep reads the words
//              covering the chunk under its hand and clears exactly the bits
//              of the clean entries it passes over, one PCIe fetch-and per
//              word: a referenced page gets a second chance, and hits stay
//              host-local.
//   data area — `total` pages; entry i ↔ page i, so locating the entry
//              locates the page.
//
// Engineering addition (DESIGN.md §5.3): a per-bucket lock word
// between the header and the meta area serializes *structural* bucket
// changes (insert / evict) between concurrent host threads and the DPU.
// The paper's per-entry read/write locks (taken with PCIe atomics from the
// DPU side) still guard page data against concurrent flush/modification
// exactly as §3.3 describes; the bucket lock closes the insert/insert race
// the paper does not discuss.
#pragma once

#include <cstdint>

#include "pcie/memory.hpp"

namespace dpc::cache {

enum class LockState : std::uint32_t {
  kNone = 0,
  kWrite = 1,
  kRead = 2,
  kInvalid = 3,
};

enum class PageStatus : std::uint32_t {
  kFree = 0,
  kClean = 1,
  kDirty = 2,
  kInvalid = 3,
};

/// On-"wire" cache entry — one 64-byte cache line in the meta area.
///
/// Grown from 32 to 64 bytes for the lock-free read path: `seq` is the
/// entry's seqlock generation word (even = stable, odd = writer in flight;
/// see DESIGN.md §5.3), and padding the entry out to a
/// full line keeps adjacent entries' hot lock/seq words off each other's
/// cache lines (no false sharing between neighbouring buckets).
struct CacheEntry {
  std::uint32_t lock = 0;    ///< LockState; read-lock holders in bits ≥2
  std::uint32_t status = 0;  ///< PageStatus
  std::uint32_t next = 0;    ///< next entry index in bucket list (kEndOfList)
  std::uint32_t fill = 0;    ///< prefetch fill-sequence stamp (age hint)
  std::uint64_t lpn = 0;     ///< logical page number within the file
  std::uint64_t inode = 0;   ///< owning file
  std::uint32_t seq = 0;     ///< seqlock generation (even=stable, odd=writing)
  std::uint32_t pad[7] = {}; ///< line padding; reserved for future fields
};
static_assert(sizeof(CacheEntry) == 64);

inline constexpr std::uint32_t kEndOfList = 0xFFFFFFFFu;

/// Cache page size: one data-area page per entry. The fs-adapter maps file
/// offset `lpn × kPageSize` onto cache page `lpn`, so both sides share this
/// one constant.
inline constexpr std::uint32_t kPageSize = 4096;

struct CacheGeometry {
  std::uint32_t total_pages = 1024;
  std::uint32_t buckets = 64;
};

/// Field offsets inside the header block.
struct HeaderOffsets {
  static constexpr std::uint64_t kPageSize = 0;
  static constexpr std::uint64_t kMode = 4;       // always 1: write cache
  static constexpr std::uint64_t kTotal = 8;
  static constexpr std::uint64_t kFree = 12;      // atomic
  static constexpr std::uint64_t kBuckets = 16;
  static constexpr std::uint64_t kNeedEvict = 20; // atomic flag host → DPU
  /// Dirty-page count, maintained by the host data plane; the DPU polls it
  /// as a shadow register (modelled as a host-pushed MMIO hint, so reading
  /// it costs the DPU nothing) to avoid scanning a clean meta area.
  static constexpr std::uint64_t kDirty = 24;     // atomic
  /// Readahead hint: on cache-hit reads the host posts the consumed
  /// <inode, lpn> here (three plain stores — cheap posted writes). The DPU
  /// control plane uses it to extend active prefetch streams *before* the
  /// reader runs off the end of the prefetched window — the asynchronous
  /// readahead that makes sequential buffered reads ~all hits.
  static constexpr std::uint64_t kRaSeq = 28;     // atomic, bumped last
  static constexpr std::uint64_t kRaInode = 32;   // u64
  static constexpr std::uint64_t kRaLpn = 40;     // u64
  static constexpr std::uint64_t kSize = 64;
};

/// Computes and initializes the layout inside the host region. Shared
/// read-only by the host plane and the DPU control plane afterwards.
class CacheLayout {
 public:
  CacheLayout(const CacheGeometry& geo, pcie::RegionAllocator& host_alloc);

  const CacheGeometry& geometry() const { return geo_; }
  std::uint32_t entries_per_bucket() const { return epb_; }

  std::uint64_t header_off() const { return base_; }
  std::uint64_t header_field(std::uint64_t field) const {
    return base_ + field;
  }
  std::uint64_t bucket_lock_off(std::uint32_t bucket) const;
  std::uint64_t entry_off(std::uint32_t index) const;
  std::uint64_t entry_field_off(std::uint32_t index,
                                std::uint64_t field) const {
    return entry_off(index) + field;
  }
  std::uint64_t page_off(std::uint32_t index) const;

  /// Words in each per-entry bitmap: entry i is bit (i % 32) of word
  /// (i / 32), in the dirty and in the accessed bitmap alike.
  std::uint32_t bitmap_words() const { return (geo_.total_pages + 31) / 32; }
  std::uint64_t dirty_word_off(std::uint32_t word) const;
  std::uint64_t accessed_word_off(std::uint32_t word) const;

  /// Entry-field byte offsets within a CacheEntry.
  struct EntryField {
    static constexpr std::uint64_t kLock = 0;
    static constexpr std::uint64_t kStatus = 4;
    static constexpr std::uint64_t kNext = 8;
    static constexpr std::uint64_t kFill = 12;
    static constexpr std::uint64_t kLpn = 16;
    static constexpr std::uint64_t kInode = 24;
    static constexpr std::uint64_t kSeq = 32;
  };

  std::uint32_t bucket_of(std::uint64_t inode, std::uint64_t lpn) const;
  std::uint32_t bucket_head_entry(std::uint32_t bucket) const;

  /// Host bytes a cache of `geo` occupies, header through data area, bitmaps
  /// included — the one sizing formula both the layout and the host-region
  /// budget use. The block itself is allocated page-aligned.
  static std::uint64_t footprint_for(const CacheGeometry& geo);
  std::uint64_t footprint() const { return footprint_for(geo_); }

  /// (Re-)initializes the region to an empty cache: header rewritten,
  /// bucket locks and both bitmaps zeroed, every entry free and relinked
  /// into its bucket list. The constructor calls this once; tests call it
  /// again to model a host power loss (all cached pages gone). Callers must
  /// quiesce both planes first.
  void format(pcie::MemoryRegion& region) const;

 private:
  CacheGeometry geo_;
  std::uint32_t epb_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t bucket_locks_ = 0;
  std::uint64_t meta_ = 0;
  std::uint64_t dirty_bitmap_ = 0;
  std::uint64_t accessed_bitmap_ = 0;
  std::uint64_t data_ = 0;
};

/// Read-lock encoding helpers: kRead with N holders is (N << 2) | kRead.
constexpr std::uint32_t read_lock_word(std::uint32_t holders) {
  return (holders << 2) | static_cast<std::uint32_t>(LockState::kRead);
}
constexpr bool is_read_locked(std::uint32_t word) {
  return (word & 3u) == static_cast<std::uint32_t>(LockState::kRead);
}
constexpr std::uint32_t read_lock_holders(std::uint32_t word) {
  return word >> 2;
}

}  // namespace dpc::cache
