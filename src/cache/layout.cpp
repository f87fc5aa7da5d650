#include "cache/layout.hpp"

#include <cstddef>

#include "sim/check.hpp"

namespace dpc::cache {

// The EntryField offsets are the wire contract both planes (and the torn-
// read tests) poke at directly — pin them to the struct layout.
static_assert(offsetof(CacheEntry, lock) == CacheLayout::EntryField::kLock);
static_assert(offsetof(CacheEntry, status) == CacheLayout::EntryField::kStatus);
static_assert(offsetof(CacheEntry, next) == CacheLayout::EntryField::kNext);
static_assert(offsetof(CacheEntry, fill) == CacheLayout::EntryField::kFill);
static_assert(offsetof(CacheEntry, lpn) == CacheLayout::EntryField::kLpn);
static_assert(offsetof(CacheEntry, inode) == CacheLayout::EntryField::kInode);
static_assert(offsetof(CacheEntry, seq) == CacheLayout::EntryField::kSeq);

namespace {

constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

/// Area offsets relative to the header, and the total size.
struct AreaOffsets {
  std::uint64_t bucket_locks;
  std::uint64_t meta;
  std::uint64_t dirty_bitmap;
  std::uint64_t accessed_bitmap;
  std::uint64_t data;
  std::uint64_t end;
};

AreaOffsets areas_of(const CacheGeometry& geo) {
  AreaOffsets a{};
  a.bucket_locks = HeaderOffsets::kSize;
  a.meta = align_up(a.bucket_locks + std::uint64_t{geo.buckets} * 4, 64);
  const std::uint64_t bitmap_bytes =
      std::uint64_t{(geo.total_pages + 31) / 32} * 4;
  a.dirty_bitmap = a.meta + std::uint64_t{geo.total_pages} * sizeof(CacheEntry);
  a.accessed_bitmap = a.dirty_bitmap + bitmap_bytes;
  a.data = align_up(a.accessed_bitmap + bitmap_bytes, kPageSize);
  a.end = a.data + std::uint64_t{geo.total_pages} * kPageSize;
  return a;
}

}  // namespace

std::uint64_t CacheLayout::footprint_for(const CacheGeometry& geo) {
  return areas_of(geo).end;
}

CacheLayout::CacheLayout(const CacheGeometry& geo,
                         pcie::RegionAllocator& host_alloc)
    : geo_(geo) {
  DPC_CHECK(geo.total_pages >= 1 && geo.buckets >= 1);
  DPC_CHECK_MSG(geo.total_pages % geo.buckets == 0,
                "each bucket must own the same number of entries (§3.3)");
  epb_ = geo.total_pages / geo.buckets;

  const AreaOffsets a = areas_of(geo);
  base_ = host_alloc.alloc(a.end, kPageSize);
  bucket_locks_ = base_ + a.bucket_locks;
  meta_ = base_ + a.meta;
  dirty_bitmap_ = base_ + a.dirty_bitmap;
  accessed_bitmap_ = base_ + a.accessed_bitmap;
  data_ = base_ + a.data;

  format(host_alloc.region());
}

void CacheLayout::format(pcie::MemoryRegion& region) const {
  // Initialize header.
  region.store<std::uint32_t>(header_field(HeaderOffsets::kPageSize),
                              kPageSize);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kMode), 1);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kTotal),
                              geo_.total_pages);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kFree),
                              geo_.total_pages);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kBuckets),
                              geo_.buckets);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kNeedEvict), 0);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kDirty), 0);
  region.store<std::uint32_t>(header_field(HeaderOffsets::kRaSeq), 0);
  region.store<std::uint64_t>(header_field(HeaderOffsets::kRaInode), 0);
  region.store<std::uint64_t>(header_field(HeaderOffsets::kRaLpn), 0);

  // Zero bucket locks and both bitmaps; link each bucket's entries into its
  // list.
  for (std::uint32_t b = 0; b < geo_.buckets; ++b)
    region.store<std::uint32_t>(bucket_lock_off(b), 0);
  for (std::uint32_t w = 0; w < bitmap_words(); ++w) {
    region.store<std::uint32_t>(dirty_word_off(w), 0);
    region.store<std::uint32_t>(accessed_word_off(w), 0);
  }
  for (std::uint32_t i = 0; i < geo_.total_pages; ++i) {
    CacheEntry e;
    const std::uint32_t in_bucket = i % epb_;
    e.next = (in_bucket + 1 == epb_) ? kEndOfList : i + 1;
    region.store(entry_off(i), e);
  }
}

std::uint64_t CacheLayout::bucket_lock_off(std::uint32_t bucket) const {
  DPC_CHECK(bucket < geo_.buckets);
  return bucket_locks_ + std::uint64_t{bucket} * 4;
}

std::uint64_t CacheLayout::entry_off(std::uint32_t index) const {
  DPC_CHECK(index < geo_.total_pages);
  return meta_ + std::uint64_t{index} * sizeof(CacheEntry);
}

std::uint64_t CacheLayout::dirty_word_off(std::uint32_t word) const {
  DPC_CHECK(word < bitmap_words());
  return dirty_bitmap_ + std::uint64_t{word} * 4;
}

std::uint64_t CacheLayout::accessed_word_off(std::uint32_t word) const {
  DPC_CHECK(word < bitmap_words());
  return accessed_bitmap_ + std::uint64_t{word} * 4;
}

std::uint64_t CacheLayout::page_off(std::uint32_t index) const {
  DPC_CHECK(index < geo_.total_pages);
  return data_ + std::uint64_t{index} * kPageSize;
}

std::uint32_t CacheLayout::bucket_of(std::uint64_t inode,
                                     std::uint64_t lpn) const {
  // Fibonacci-style mix of <inode, lpn> — the §3.3 hash that maps a page
  // identity to its bucket.
  std::uint64_t h = inode * 0x9e3779b97f4a7c15ULL;
  h ^= lpn + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return static_cast<std::uint32_t>(h % geo_.buckets);
}

std::uint32_t CacheLayout::bucket_head_entry(std::uint32_t bucket) const {
  DPC_CHECK(bucket < geo_.buckets);
  return bucket * epb_;
}

}  // namespace dpc::cache
