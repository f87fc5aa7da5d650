// Ext4like — the local file system baseline of Figs. 7/8 and Table 2.
//
// A classic block file system over the simulated NVMe SSD: on-disk
// superblock, block bitmap, inode table, 12 direct + single + double
// indirect block mapping, directory files of fixed dirents, a journal-lite
// write-ahead region for metadata mutations, and the host page cache in
// front (buffered mode) or bypassed (DIRECT_IO mode).
//
// Every touch of the device is counted and costed with the SSD model's
// service times; each operation returns its modelled latency plus the host
// CPU demand the calibrated Ext4 constants assign. This is the "huge amount
// of host CPU cycles" side of the Fig. 7(c) comparison.
//
// Concurrency: a single filesystem-wide mutex. The baseline's performance
// curves come from the analytic model (SSD channels + host contention), not
// from this code's scaling, so correctness-simple locking is the right
// trade-off here (and is also, not coincidentally, why real local file
// systems burn CPU on lock contention at 256 threads).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/page_cache.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"
#include "ssd/ssd.hpp"

namespace dpc::hostfs {

using Ino = std::uint32_t;
inline constexpr Ino kRootIno = 1;  // 0 = invalid, Ext tradition
inline constexpr std::uint32_t kBlockSize = ssd::kBlockSize;
inline constexpr std::size_t kMaxName = 254;
/// Inode-table size: inode numbers run 1 .. kMaxInodes-1.
inline constexpr std::uint32_t kMaxInodes = 1 << 16;

enum class FileType : std::uint16_t { kRegular = 1, kDirectory = 2 };

struct Stat {
  Ino ino = 0;
  FileType type = FileType::kRegular;
  std::uint16_t mode = 0644;
  std::uint32_t nlink = 1;
  std::uint64_t size = 0;
  std::uint64_t mtime = 0;
};

struct DirEntry {
  std::string name;
  Ino ino = 0;
};

struct Ext4likeOptions {
  std::uint64_t total_blocks = 1 << 20;  ///< 4 GiB device by default
  std::uint32_t page_cache_pages = 16384;
};

/// Modelled cost + device-op accounting for one FS call.
struct OpCost {
  sim::Nanos total{};          ///< modelled latency of the call
  std::uint32_t dev_reads = 0;
  std::uint32_t dev_writes = 0;
};

template <typename T>
struct FsResult {
  int err = 0;  ///< 0 or positive errno
  T value{};
  OpCost cost;
  bool ok() const { return err == 0; }
};

struct FsUnit {};

class Ext4like {
 public:
  /// mkfs + mount on a fresh SSD model.
  explicit Ext4like(ssd::SsdModel& disk, const Ext4likeOptions& opts = {});
  Ext4like(const Ext4like&) = delete;
  Ext4like& operator=(const Ext4like&) = delete;

  // ---- namespace ----
  FsResult<Ino> create(Ino parent, std::string_view name, std::uint16_t mode);
  FsResult<Ino> mkdir(Ino parent, std::string_view name, std::uint16_t mode);
  FsResult<Ino> lookup(Ino parent, std::string_view name);
  FsResult<Ino> resolve(std::string_view path);
  FsResult<FsUnit> unlink(Ino parent, std::string_view name);
  FsResult<FsUnit> rmdir(Ino parent, std::string_view name);
  FsResult<FsUnit> rename(Ino old_parent, std::string_view old_name,
                          Ino new_parent, std::string_view new_name);
  FsResult<std::vector<DirEntry>> readdir(Ino dir);
  FsResult<Stat> getattr(Ino ino);

  // ---- data ----
  /// `direct` bypasses the page cache (the DIRECT_IO mode of Fig. 7).
  FsResult<std::uint32_t> read(Ino ino, std::uint64_t offset,
                               std::span<std::byte> dst, bool direct = false);
  FsResult<std::uint32_t> write(Ino ino, std::uint64_t offset,
                                std::span<const std::byte> src,
                                bool direct = false);
  FsResult<FsUnit> truncate(Ino ino, std::uint64_t new_size);
  FsResult<FsUnit> fsync(Ino ino);
  /// Flushes every dirty page (unmount-style sync).
  FsResult<FsUnit> sync();

  std::uint64_t free_blocks() const { return free_blocks_; }
  const cache::PageCache& page_cache() const { return pcache_; }
  /// CRC-valid WAL records found in the journal region at mount time —
  /// survivors of a previous incarnation on the same device (zero on a
  /// fresh disk). A real ext4 would replay these; the baseline only needs
  /// to count them for the crash-consistency comparison.
  std::uint32_t journal_valid_on_mount() const {
    return journal_valid_on_mount_;
  }

 private:
  // On-disk structures (block-sized serialization).
  struct DiskInode {
    std::uint16_t type = 0;     // 0 = free
    std::uint16_t mode = 0;
    std::uint32_t nlink = 0;
    std::uint64_t size = 0;
    std::uint64_t mtime = 0;
    std::uint64_t direct[12] = {};
    std::uint64_t indirect = 0;
    std::uint64_t dindirect = 0;
    std::uint8_t pad[120] = {};
  };
  static_assert(sizeof(DiskInode) == 256);
  static constexpr std::uint32_t kInodesPerBlock = kBlockSize / 256;
  static constexpr std::uint32_t kPtrsPerBlock = kBlockSize / 8;

  struct Dirent {
    std::uint32_t ino = 0;        // 0 = hole
    std::uint16_t name_len = 0;
    char name[kMaxName] = {};
    std::uint8_t pad[4] = {};
  };
  static_assert(sizeof(Dirent) == 264);

  // ---- device access with accounting ----
  void dev_read(std::uint64_t lba, std::span<std::byte> dst, OpCost& c);
  void dev_write(std::uint64_t lba, std::span<const std::byte> src, OpCost& c);
  /// Journal-lite: one WAL record write per metadata mutation batch.
  void journal(OpCost& c);

  // ---- allocation ----
  std::uint64_t alloc_block(OpCost& c);   // returns LBA; 0 on ENOSPC
  void free_block(std::uint64_t lba, OpCost& c);
  Ino alloc_inode(OpCost& c);             // 0 on exhaustion
  void free_inode(Ino ino, OpCost& c);

  // ---- inode table ----
  DiskInode read_inode(Ino ino, OpCost& c);
  void write_inode(Ino ino, const DiskInode& di, OpCost& c);

  // ---- block mapping ----
  /// Logical file block -> LBA; optionally allocating missing levels.
  std::uint64_t map_block(DiskInode& di, std::uint64_t logical, bool alloc,
                          bool& inode_dirty, OpCost& c);
  void free_file_blocks(DiskInode& di, OpCost& c);
  /// Frees every mapped block with logical index >= first_logical and
  /// clears its mapping (POSIX truncate semantics: regrown ranges read
  /// zero).
  void free_blocks_from(DiskInode& di, std::uint64_t first_logical,
                        std::uint64_t old_size, bool& inode_dirty, OpCost& c);

  // ---- directory files ----
  std::optional<std::pair<Ino, std::uint64_t>> dir_find(
      const DiskInode& dir, std::string_view name, OpCost& c);
  bool dir_insert(DiskInode& dir, Ino dir_ino, std::string_view name, Ino ino,
                  OpCost& c);
  bool dir_remove(DiskInode& dir, Ino dir_ino, std::string_view name,
                  OpCost& c);
  bool dir_is_empty(const DiskInode& dir, OpCost& c);

  /// Raw file data I/O against mapped blocks (no page cache).
  void file_read_raw(const DiskInode& di, std::uint64_t offset,
                     std::span<std::byte> dst, OpCost& c);
  void file_write_raw(DiskInode& di, std::uint64_t offset,
                      std::span<const std::byte> src, bool& inode_dirty,
                      OpCost& c);

  FsResult<Ino> make_node(Ino parent, std::string_view name, FileType type,
                          std::uint16_t mode);
  FsResult<FsUnit> remove_node(Ino parent, std::string_view name, bool dir);

  cache::PageCache::WritebackFn writeback_fn();

  ssd::SsdModel* disk_;
  Ext4likeOptions opts_;
  cache::PageCache pcache_;

  /// One big metadata lock (allocator mirrors + inode table).
  mutable sim::AnnotatedMutex mu_{"ext4like.meta", sim::LockRank::kFs};
  // In-memory mirrors of the allocator state (bitmap blocks are still
  // written through to disk for the write-amplification accounting).
  std::vector<std::uint64_t> block_bitmap_;
  std::vector<bool> inode_used_;
  std::uint64_t free_blocks_ = 0;
  std::uint64_t data_start_ = 0;
  std::uint64_t bitmap_start_ = 0;
  std::uint64_t itable_start_ = 0;
  std::uint64_t journal_start_ = 0;
  std::uint32_t journal_cursor_ = 0;
  std::uint64_t journal_seq_ = 1;
  std::uint32_t journal_valid_on_mount_ = 0;
  std::uint64_t time_ = 1;
  /// Write-through cache of metadata blocks by LBA (inode table, bitmap,
  /// indirect, directory and journal blocks); guarded by mu_, like the
  /// mirrors above. File data never comes through here: buffered data
  /// uses the page cache, direct data goes to the device.
  std::unordered_map<std::uint64_t, std::vector<std::byte>> meta_cache_;
};

}  // namespace dpc::hostfs
