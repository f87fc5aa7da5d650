#include "hostfs/ext4like.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "ec/crc32c.hpp"
#include "sim/check.hpp"

namespace dpc::hostfs {

namespace {
constexpr std::uint32_t kDirentSize = 264;

// Journal-lite WAL record: 64 bytes, magic + sequence up front, CRC32C over
// the first 60 bytes in the last 4 — the jbd2-style self-describing block
// that lets a mount distinguish live records from stale or torn ones.
constexpr char kJournalMagic[4] = {'D', 'P', 'C', 'J'};
constexpr std::size_t kJournalRecSize = 64;
/// Journal ring length in blocks.
constexpr std::uint32_t kJournalBlocks = 256;

void seal_journal_record(std::span<std::byte, kJournalRecSize> rec,
                         std::uint64_t seq) {
  std::memcpy(rec.data(), kJournalMagic, sizeof(kJournalMagic));
  std::memcpy(rec.data() + 4, &seq, sizeof(seq));
  const std::uint32_t crc = ec::crc32c(rec.first(kJournalRecSize - 4));
  std::memcpy(rec.data() + kJournalRecSize - 4, &crc, sizeof(crc));
}

/// Returns the record's sequence number, or nullopt if magic/CRC disagree.
std::optional<std::uint64_t> check_journal_record(
    std::span<const std::byte, kJournalRecSize> rec) {
  if (std::memcmp(rec.data(), kJournalMagic, sizeof(kJournalMagic)) != 0)
    return std::nullopt;
  std::uint32_t stored;
  std::memcpy(&stored, rec.data() + kJournalRecSize - 4, sizeof(stored));
  if (stored != ec::crc32c(rec.first(kJournalRecSize - 4)))
    return std::nullopt;
  std::uint64_t seq;
  std::memcpy(&seq, rec.data() + 4, sizeof(seq));
  return seq;
}

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}
}  // namespace

Ext4like::Ext4like(ssd::SsdModel& disk, const Ext4likeOptions& opts)
    : disk_(&disk),
      opts_(opts),
      pcache_(opts.page_cache_pages, kBlockSize) {
  DPC_CHECK(opts.total_blocks >= 1024);

  const std::uint64_t bitmap_blocks =
      div_ceil(opts.total_blocks, kBlockSize * 8);
  const std::uint64_t itable_blocks =
      div_ceil(kMaxInodes, kInodesPerBlock);
  bitmap_start_ = 1;
  itable_start_ = bitmap_start_ + bitmap_blocks;
  journal_start_ = itable_start_ + itable_blocks;
  data_start_ = journal_start_ + kJournalBlocks;
  DPC_CHECK_MSG(data_start_ < opts.total_blocks, "device too small");

  block_bitmap_.assign(div_ceil(opts.total_blocks, 64), 0);
  inode_used_.assign(kMaxInodes, false);
  free_blocks_ = opts.total_blocks - data_start_;

  // Mount-time journal scan: count CRC-valid WAL records a previous
  // incarnation left on this device, and resume the sequence above the
  // highest survivor so new records always supersede old ones.
  std::vector<std::byte> block(kBlockSize);
  for (std::uint32_t j = 0; j < kJournalBlocks; ++j) {
    disk_->read_block(journal_start_ + j, block);
    const auto seq = check_journal_record(
        std::span<const std::byte, kJournalRecSize>{block.data(),
                                                    kJournalRecSize});
    if (!seq.has_value()) continue;
    ++journal_valid_on_mount_;
    journal_seq_ = std::max(journal_seq_, *seq + 1);
  }

  // mkfs: superblock + root inode + root (empty) directory.
  OpCost c;
  std::array<std::byte, kBlockSize> sb{};
  const char magic[8] = {'D', 'P', 'C', 'E', 'X', 'T', '4', 'L'};
  std::memcpy(sb.data(), magic, sizeof(magic));
  dev_write(0, sb, c);

  inode_used_[0] = true;  // ino 0 invalid
  OpCost mkfs_cost;
  const Ino root = alloc_inode(mkfs_cost);
  DPC_CHECK(root == kRootIno);
  DiskInode ri;
  ri.type = static_cast<std::uint16_t>(FileType::kDirectory);
  ri.mode = 0755;
  ri.nlink = 2;
  ri.mtime = time_++;
  write_inode(root, ri, mkfs_cost);
}

// ----------------------------------------------------------- device access

void Ext4like::dev_read(std::uint64_t lba, std::span<std::byte> dst,
                        OpCost& c) {
  // Metadata path: write-through cached.
  if (const auto it = meta_cache_.find(lba); it != meta_cache_.end()) {
    std::memcpy(dst.data(), it->second.data(), dst.size());
    return;
  }
  std::vector<std::byte>& block = meta_cache_[lba];
  block.resize(kBlockSize);
  disk_->read_block(lba, block);
  std::memcpy(dst.data(), block.data(), dst.size());
  ++c.dev_reads;
  c.total += ssd::SsdModel::random_service(true, kBlockSize);
}

void Ext4like::dev_write(std::uint64_t lba, std::span<const std::byte> src,
                         OpCost& c) {
  DPC_CHECK(src.size() <= kBlockSize);
  const auto [it, cold] = meta_cache_.try_emplace(lba);
  std::vector<std::byte>& block = it->second;
  if (src.size() == kBlockSize) {
    block.assign(src.begin(), src.end());
  } else {
    // Partial metadata update: read-modify-write through the cache.
    block.resize(kBlockSize);
    if (cold) {
      disk_->read_block(lba, block);
      ++c.dev_reads;
      c.total += ssd::SsdModel::random_service(true, kBlockSize);
    }
    std::memcpy(block.data(), src.data(), src.size());
  }
  disk_->write_block(lba, block);
  ++c.dev_writes;
  c.total += ssd::SsdModel::random_service(false, kBlockSize);
}

void Ext4like::journal(OpCost& c) {
  std::array<std::byte, kJournalRecSize> rec{};  // WAL descriptor record
  seal_journal_record(std::span<std::byte, kJournalRecSize>{rec},
                      journal_seq_++);
  const std::uint64_t lba = journal_start_ + journal_cursor_;
  journal_cursor_ = (journal_cursor_ + 1) % kJournalBlocks;
  dev_write(lba, rec, c);
}

// -------------------------------------------------------------- allocation

std::uint64_t Ext4like::alloc_block(OpCost& c) {
  for (std::size_t w = data_start_ / 64; w < block_bitmap_.size(); ++w) {
    if (block_bitmap_[w] == ~0ULL) continue;
    for (int bit = 0; bit < 64; ++bit) {
      const std::uint64_t lba = w * 64 + static_cast<std::uint64_t>(bit);
      if (lba < data_start_) continue;
      if (lba >= opts_.total_blocks) return 0;
      if ((block_bitmap_[w] >> bit) & 1) continue;
      block_bitmap_[w] |= 1ULL << bit;
      --free_blocks_;
      // Persist the bitmap word's block.
      const std::uint64_t bb = bitmap_start_ + lba / (kBlockSize * 8);
      dev_write(bb, std::as_bytes(std::span{&block_bitmap_[w], 1}), c);
      return lba;
    }
  }
  return 0;
}

void Ext4like::free_block(std::uint64_t lba, OpCost& c) {
  DPC_CHECK(lba >= data_start_ && lba < opts_.total_blocks);
  const std::size_t w = lba / 64;
  const int bit = static_cast<int>(lba % 64);
  DPC_CHECK((block_bitmap_[w] >> bit) & 1);
  block_bitmap_[w] &= ~(1ULL << bit);
  ++free_blocks_;
  const std::uint64_t bb = bitmap_start_ + lba / (kBlockSize * 8);
  dev_write(bb, std::as_bytes(std::span{&block_bitmap_[w], 1}), c);
  disk_->trim_block(lba);
}

Ino Ext4like::alloc_inode(OpCost& c) {
  (void)c;
  for (std::uint32_t i = 1; i < inode_used_.size(); ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      return i;
    }
  }
  return 0;
}

void Ext4like::free_inode(Ino ino, OpCost& c) {
  DPC_CHECK(ino != 0 && ino < inode_used_.size() && inode_used_[ino]);
  inode_used_[ino] = false;
  DiskInode zero;
  write_inode(ino, zero, c);
}

// ------------------------------------------------------------- inode table

Ext4like::DiskInode Ext4like::read_inode(Ino ino, OpCost& c) {
  DPC_CHECK(ino != 0 && ino < kMaxInodes);
  const std::uint64_t lba = itable_start_ + ino / kInodesPerBlock;
  std::array<std::byte, kBlockSize> block{};
  dev_read(lba, block, c);
  DiskInode di;
  std::memcpy(&di, block.data() + (ino % kInodesPerBlock) * sizeof(DiskInode),
              sizeof(DiskInode));
  return di;
}

void Ext4like::write_inode(Ino ino, const DiskInode& di, OpCost& c) {
  DPC_CHECK(ino != 0 && ino < kMaxInodes);
  const std::uint64_t lba = itable_start_ + ino / kInodesPerBlock;
  std::array<std::byte, kBlockSize> block{};
  dev_read(lba, block, c);
  std::memcpy(block.data() + (ino % kInodesPerBlock) * sizeof(DiskInode), &di,
              sizeof(DiskInode));
  dev_write(lba, block, c);
}

// ------------------------------------------------------------ block mapping

std::uint64_t Ext4like::map_block(DiskInode& di, std::uint64_t logical,
                                  bool alloc, bool& inode_dirty, OpCost& c) {
  auto get_or_alloc_ptr = [&](std::uint64_t table_lba,
                              std::uint32_t index) -> std::uint64_t {
    std::array<std::byte, kBlockSize> tbl{};
    dev_read(table_lba, tbl, c);
    std::uint64_t v;
    std::memcpy(&v, tbl.data() + index * 8, 8);
    if (v == 0 && alloc) {
      v = alloc_block(c);
      if (v == 0) return 0;
      std::memcpy(tbl.data() + index * 8, &v, 8);
      dev_write(table_lba, tbl, c);
    }
    return v;
  };

  if (logical < 12) {
    std::uint64_t v = di.direct[logical];
    if (v == 0 && alloc) {
      v = alloc_block(c);
      if (v == 0) return 0;
      di.direct[logical] = v;
      inode_dirty = true;
    }
    return v;
  }
  logical -= 12;
  if (logical < kPtrsPerBlock) {
    if (di.indirect == 0) {
      if (!alloc) return 0;
      di.indirect = alloc_block(c);
      if (di.indirect == 0) return 0;
      inode_dirty = true;
      std::array<std::byte, kBlockSize> zero{};
      dev_write(di.indirect, zero, c);
    }
    return get_or_alloc_ptr(di.indirect, static_cast<std::uint32_t>(logical));
  }
  logical -= kPtrsPerBlock;
  DPC_CHECK_MSG(logical < std::uint64_t{kPtrsPerBlock} * kPtrsPerBlock,
                "file exceeds double-indirect capacity");
  if (di.dindirect == 0) {
    if (!alloc) return 0;
    di.dindirect = alloc_block(c);
    if (di.dindirect == 0) return 0;
    inode_dirty = true;
    std::array<std::byte, kBlockSize> zero{};
    dev_write(di.dindirect, zero, c);
  }
  const auto l1 = static_cast<std::uint32_t>(logical / kPtrsPerBlock);
  const auto l2 = static_cast<std::uint32_t>(logical % kPtrsPerBlock);
  std::uint64_t mid = get_or_alloc_ptr(di.dindirect, l1);
  if (mid == 0) return 0;
  // A freshly allocated mid-level table must start zeroed.
  return get_or_alloc_ptr(mid, l2);
}

void Ext4like::free_file_blocks(DiskInode& di, OpCost& c) {
  for (auto& d : di.direct) {
    if (d != 0) {
      free_block(d, c);
      d = 0;
    }
  }
  auto free_table = [&](std::uint64_t table_lba, int depth,
                        auto&& self) -> void {
    std::array<std::byte, kBlockSize> tbl{};
    dev_read(table_lba, tbl, c);
    for (std::uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      std::uint64_t v;
      std::memcpy(&v, tbl.data() + i * 8, 8);
      if (v == 0) continue;
      if (depth > 0) self(v, depth - 1, self);
      free_block(v, c);
    }
  };
  if (di.indirect != 0) {
    free_table(di.indirect, 0, free_table);
    free_block(di.indirect, c);
    di.indirect = 0;
  }
  if (di.dindirect != 0) {
    free_table(di.dindirect, 1, free_table);
    free_block(di.dindirect, c);
    di.dindirect = 0;
  }
}

void Ext4like::free_blocks_from(DiskInode& di, std::uint64_t first_logical,
                                std::uint64_t old_size, bool& inode_dirty,
                                OpCost& c) {
  const std::uint64_t last_logical =
      old_size == 0 ? 0 : (old_size - 1) / kBlockSize + 1;
  for (std::uint64_t logical = first_logical; logical < last_logical;
       ++logical) {
    if (logical < 12) {
      if (di.direct[logical] != 0) {
        free_block(di.direct[logical], c);
        di.direct[logical] = 0;
        inode_dirty = true;
      }
      continue;
    }
    // Indirect levels: locate the table entry holding this pointer.
    std::uint64_t idx = logical - 12;
    std::uint64_t table_lba = 0;
    std::uint32_t slot = 0;
    if (idx < kPtrsPerBlock) {
      if (di.indirect == 0) continue;
      table_lba = di.indirect;
      slot = static_cast<std::uint32_t>(idx);
    } else {
      idx -= kPtrsPerBlock;
      if (di.dindirect == 0) continue;
      std::array<std::byte, kBlockSize> top{};
      dev_read(di.dindirect, top, c);
      std::uint64_t mid;
      std::memcpy(&mid, top.data() + (idx / kPtrsPerBlock) * 8, 8);
      if (mid == 0) continue;
      table_lba = mid;
      slot = static_cast<std::uint32_t>(idx % kPtrsPerBlock);
    }
    std::array<std::byte, kBlockSize> tbl{};
    dev_read(table_lba, tbl, c);
    std::uint64_t v;
    std::memcpy(&v, tbl.data() + slot * 8, 8);
    if (v == 0) continue;
    free_block(v, c);
    v = 0;
    std::memcpy(tbl.data() + slot * 8, &v, 8);
    dev_write(table_lba, tbl, c);
  }
}

// --------------------------------------------------------- raw file data IO

void Ext4like::file_read_raw(const DiskInode& di, std::uint64_t offset,
                             std::span<std::byte> dst, OpCost& c) {
  std::size_t done = 0;
  DiskInode tmp = di;  // map_block wants mutability; alloc=false won't change
  bool dirty = false;
  while (done < dst.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t logical = pos / kBlockSize;
    const auto in_block = static_cast<std::uint32_t>(pos % kBlockSize);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dst.size() - done, kBlockSize - in_block));
    const std::uint64_t lba = map_block(tmp, logical, false, dirty, c);
    if (lba == 0) {
      std::memset(dst.data() + done, 0, chunk);  // hole
    } else {
      std::vector<std::byte> block(kBlockSize);
      disk_->read_block(lba, block);
      ++c.dev_reads;
      c.total += ssd::SsdModel::random_service(true, kBlockSize);
      std::memcpy(dst.data() + done, block.data() + in_block, chunk);
    }
    done += chunk;
  }
}

void Ext4like::file_write_raw(DiskInode& di, std::uint64_t offset,
                              std::span<const std::byte> src,
                              bool& inode_dirty, OpCost& c) {
  std::size_t done = 0;
  while (done < src.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t logical = pos / kBlockSize;
    const auto in_block = static_cast<std::uint32_t>(pos % kBlockSize);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(src.size() - done, kBlockSize - in_block));
    const std::uint64_t lba = map_block(di, logical, true, inode_dirty, c);
    DPC_CHECK_MSG(lba != 0, "ENOSPC");
    if (chunk == kBlockSize) {
      disk_->write_block(lba, src.subspan(done, chunk));
    } else {
      std::vector<std::byte> block(kBlockSize);
      disk_->read_block(lba, block);
      ++c.dev_reads;
      c.total += ssd::SsdModel::random_service(true, kBlockSize);
      std::memcpy(block.data() + in_block, src.data() + done, chunk);
      disk_->write_block(lba, block);
    }
    ++c.dev_writes;
    c.total += ssd::SsdModel::random_service(false, kBlockSize);
    done += chunk;
  }
}

// ------------------------------------------------------------- directories

std::optional<std::pair<Ino, std::uint64_t>> Ext4like::dir_find(
    const DiskInode& dir, std::string_view name, OpCost& c) {
  Dirent de;
  for (std::uint64_t off = 0; off + kDirentSize <= dir.size;
       off += kDirentSize) {
    file_read_raw(dir, off, std::as_writable_bytes(std::span{&de, 1}), c);
    if (de.ino == 0) continue;
    if (std::string_view(de.name, de.name_len) == name)
      return std::make_pair(static_cast<Ino>(de.ino), off);
  }
  return std::nullopt;
}

bool Ext4like::dir_insert(DiskInode& dir, Ino dir_ino, std::string_view name,
                          Ino ino, OpCost& c) {
  DPC_CHECK(name.size() <= kMaxName);
  Dirent de;
  std::uint64_t slot = dir.size;
  // Reuse a hole if present.
  Dirent probe;
  for (std::uint64_t off = 0; off + kDirentSize <= dir.size;
       off += kDirentSize) {
    file_read_raw(dir, off, std::as_writable_bytes(std::span{&probe, 1}), c);
    if (probe.ino == 0) {
      slot = off;
      break;
    }
  }
  de.ino = ino;
  de.name_len = static_cast<std::uint16_t>(name.size());
  std::memcpy(de.name, name.data(), name.size());
  bool inode_dirty = false;
  file_write_raw(dir, slot, std::as_bytes(std::span{&de, 1}), inode_dirty, c);
  if (slot == dir.size) {
    dir.size += kDirentSize;
    inode_dirty = true;
  }
  if (inode_dirty) write_inode(dir_ino, dir, c);
  return true;
}

bool Ext4like::dir_remove(DiskInode& dir, Ino dir_ino, std::string_view name,
                          OpCost& c) {
  const auto found = dir_find(dir, name, c);
  if (!found) return false;
  Dirent hole{};
  bool inode_dirty = false;
  file_write_raw(dir, found->second, std::as_bytes(std::span{&hole, 1}),
                 inode_dirty, c);
  if (inode_dirty) write_inode(dir_ino, dir, c);
  return true;
}

bool Ext4like::dir_is_empty(const DiskInode& dir, OpCost& c) {
  Dirent de;
  for (std::uint64_t off = 0; off + kDirentSize <= dir.size;
       off += kDirentSize) {
    file_read_raw(dir, off, std::as_writable_bytes(std::span{&de, 1}), c);
    if (de.ino != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------- public

FsResult<Ino> Ext4like::make_node(Ino parent, std::string_view name,
                                  FileType type, std::uint16_t mode) {
  FsResult<Ino> res;
  if (name.empty() || name.size() > kMaxName ||
      name.find('/') != std::string_view::npos) {
    res.err = EINVAL;
    return res;
  }
  sim::LockGuard lock(mu_);
  if (parent == 0 || parent >= kMaxInodes || !inode_used_[parent]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode pdi = read_inode(parent, res.cost);
  if (pdi.type != static_cast<std::uint16_t>(FileType::kDirectory)) {
    res.err = ENOTDIR;
    return res;
  }
  if (dir_find(pdi, name, res.cost)) {
    res.err = EEXIST;
    return res;
  }
  const Ino ino = alloc_inode(res.cost);
  if (ino == 0) {
    res.err = ENOSPC;
    return res;
  }
  journal(res.cost);
  DiskInode di;
  di.type = static_cast<std::uint16_t>(type);
  di.mode = mode;
  di.nlink = type == FileType::kDirectory ? 2 : 1;
  di.mtime = time_++;
  write_inode(ino, di, res.cost);
  dir_insert(pdi, parent, name, ino, res.cost);
  pdi.mtime = time_++;
  if (type == FileType::kDirectory) ++pdi.nlink;
  write_inode(parent, pdi, res.cost);
  res.cost.total += sim::calib::kExt4KernelOp;
  res.value = ino;
  return res;
}

FsResult<Ino> Ext4like::create(Ino parent, std::string_view name,
                               std::uint16_t mode) {
  return make_node(parent, name, FileType::kRegular, mode);
}

FsResult<Ino> Ext4like::mkdir(Ino parent, std::string_view name,
                              std::uint16_t mode) {
  return make_node(parent, name, FileType::kDirectory, mode);
}

FsResult<Ino> Ext4like::lookup(Ino parent, std::string_view name) {
  FsResult<Ino> res;
  sim::LockGuard lock(mu_);
  if (parent == 0 || parent >= kMaxInodes || !inode_used_[parent]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode pdi = read_inode(parent, res.cost);
  if (pdi.type != static_cast<std::uint16_t>(FileType::kDirectory)) {
    res.err = ENOTDIR;
    return res;
  }
  const auto found = dir_find(pdi, name, res.cost);
  if (!found) {
    res.err = ENOENT;
    return res;
  }
  res.value = found->first;
  return res;
}

FsResult<Ino> Ext4like::resolve(std::string_view path) {
  FsResult<Ino> res;
  if (path.empty() || path[0] != '/') {
    res.err = EINVAL;
    return res;
  }
  Ino cur = kRootIno;
  std::size_t at = 1;
  while (at < path.size()) {
    const std::size_t slash = path.find('/', at);
    const auto comp = path.substr(
        at, slash == std::string_view::npos ? std::string_view::npos
                                            : slash - at);
    if (!comp.empty()) {
      auto step = lookup(cur, comp);
      res.cost.total += step.cost.total;
      res.cost.dev_reads += step.cost.dev_reads;
      res.cost.dev_writes += step.cost.dev_writes;
      if (!step.ok()) {
        res.err = step.err;
        return res;
      }
      cur = step.value;
    }
    if (slash == std::string_view::npos) break;
    at = slash + 1;
  }
  res.value = cur;
  return res;
}

FsResult<FsUnit> Ext4like::remove_node(Ino parent, std::string_view name,
                                       bool dir) {
  FsResult<FsUnit> res;
  sim::LockGuard lock(mu_);
  if (parent == 0 || parent >= kMaxInodes || !inode_used_[parent]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode pdi = read_inode(parent, res.cost);
  const auto found = dir_find(pdi, name, res.cost);
  if (!found) {
    res.err = ENOENT;
    return res;
  }
  const Ino ino = found->first;
  DiskInode di = read_inode(ino, res.cost);
  const bool is_dir =
      di.type == static_cast<std::uint16_t>(FileType::kDirectory);
  if (dir && !is_dir) {
    res.err = ENOTDIR;
    return res;
  }
  if (!dir && is_dir) {
    res.err = EISDIR;
    return res;
  }
  if (dir && !dir_is_empty(di, res.cost)) {
    res.err = ENOTEMPTY;
    return res;
  }
  journal(res.cost);
  dir_remove(pdi, parent, name, res.cost);
  pcache_.invalidate_inode(ino, writeback_fn());
  di = read_inode(ino, res.cost);  // writebacks may have allocated blocks
  free_file_blocks(di, res.cost);
  free_inode(ino, res.cost);
  pdi = read_inode(parent, res.cost);
  pdi.mtime = time_++;
  if (dir && pdi.nlink > 2) --pdi.nlink;
  write_inode(parent, pdi, res.cost);
  res.cost.total += sim::calib::kExt4KernelOp;
  return res;
}

FsResult<FsUnit> Ext4like::unlink(Ino parent, std::string_view name) {
  return remove_node(parent, name, false);
}

FsResult<FsUnit> Ext4like::rmdir(Ino parent, std::string_view name) {
  return remove_node(parent, name, true);
}

FsResult<FsUnit> Ext4like::rename(Ino old_parent, std::string_view old_name,
                                  Ino new_parent, std::string_view new_name) {
  FsResult<FsUnit> res;
  sim::LockGuard lock(mu_);
  DiskInode opdi = read_inode(old_parent, res.cost);
  const auto src = dir_find(opdi, old_name, res.cost);
  if (!src) {
    res.err = ENOENT;
    return res;
  }
  DiskInode npdi =
      new_parent == old_parent ? opdi : read_inode(new_parent, res.cost);
  if (const auto dst = dir_find(npdi, new_name, res.cost)) {
    if (dst->first == src->first) return res;
    DiskInode ddi = read_inode(dst->first, res.cost);
    const bool dst_dir =
        ddi.type == static_cast<std::uint16_t>(FileType::kDirectory);
    if (dst_dir && !dir_is_empty(ddi, res.cost)) {
      res.err = ENOTEMPTY;
      return res;
    }
    journal(res.cost);
    dir_remove(npdi, new_parent, new_name, res.cost);
    pcache_.invalidate_inode(dst->first, writeback_fn());
    ddi = read_inode(dst->first, res.cost);
    free_file_blocks(ddi, res.cost);
    free_inode(dst->first, res.cost);
    if (new_parent == old_parent) opdi = npdi = read_inode(new_parent, res.cost);
  }
  journal(res.cost);
  if (new_parent == old_parent) {
    dir_remove(opdi, old_parent, old_name, res.cost);
    opdi = read_inode(old_parent, res.cost);
    dir_insert(opdi, old_parent, new_name, src->first, res.cost);
  } else {
    dir_remove(opdi, old_parent, old_name, res.cost);
    dir_insert(npdi, new_parent, new_name, src->first, res.cost);
  }
  res.cost.total += sim::calib::kExt4KernelOp;
  return res;
}

FsResult<std::vector<DirEntry>> Ext4like::readdir(Ino dir) {
  FsResult<std::vector<DirEntry>> res;
  sim::LockGuard lock(mu_);
  if (dir == 0 || dir >= kMaxInodes || !inode_used_[dir]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode di = read_inode(dir, res.cost);
  if (di.type != static_cast<std::uint16_t>(FileType::kDirectory)) {
    res.err = ENOTDIR;
    return res;
  }
  Dirent de;
  for (std::uint64_t off = 0; off + kDirentSize <= di.size;
       off += kDirentSize) {
    file_read_raw(di, off, std::as_writable_bytes(std::span{&de, 1}),
                  res.cost);
    if (de.ino == 0) continue;
    res.value.push_back(
        {std::string(de.name, de.name_len), static_cast<Ino>(de.ino)});
  }
  return res;
}

FsResult<Stat> Ext4like::getattr(Ino ino) {
  FsResult<Stat> res;
  sim::LockGuard lock(mu_);
  if (ino == 0 || ino >= kMaxInodes || !inode_used_[ino]) {
    res.err = ENOENT;
    return res;
  }
  const DiskInode di = read_inode(ino, res.cost);
  res.value = {ino, static_cast<FileType>(di.type), di.mode, di.nlink,
               di.size, di.mtime};
  return res;
}

cache::PageCache::WritebackFn Ext4like::writeback_fn() {
  return [this](std::uint64_t ino, std::uint64_t lpn,
                std::span<const std::byte> data) {
    // Writeback happens with mu_ held by the caller.
    OpCost c;
    DiskInode di = read_inode(static_cast<Ino>(ino), c);
    bool dirty = false;
    file_write_raw(di, lpn * kBlockSize, data, dirty, c);
    if (dirty) write_inode(static_cast<Ino>(ino), di, c);
  };
}

FsResult<std::uint32_t> Ext4like::read(Ino ino, std::uint64_t offset,
                                       std::span<std::byte> dst, bool direct) {
  FsResult<std::uint32_t> res;
  sim::LockGuard lock(mu_);
  if (ino == 0 || ino >= kMaxInodes || !inode_used_[ino]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode di = read_inode(ino, res.cost);
  if (di.type != static_cast<std::uint16_t>(FileType::kRegular)) {
    res.err = EISDIR;
    return res;
  }
  if (offset >= di.size || dst.empty()) {
    res.value = 0;
    return res;
  }
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(dst.size(), di.size - offset));

  if (direct) {
    file_read_raw(di, offset, dst.first(n), res.cost);
  } else {
    // Page-cache path: per 4 KB page, hit or fill. The inode is re-read on
    // every miss: a fill-triggered eviction may have written this file
    // back and allocated blocks a stale copy would not see.
    std::uint32_t done = 0;
    std::vector<std::byte> page(kBlockSize);
    while (done < n) {
      const std::uint64_t pos = offset + done;
      const std::uint64_t lpn = pos / kBlockSize;
      const auto in_page = static_cast<std::uint32_t>(pos % kBlockSize);
      const std::uint32_t chunk =
          std::min<std::uint32_t>(n - done, kBlockSize - in_page);
      if (!pcache_.read(ino, lpn, page)) {
        DiskInode fresh = read_inode(ino, res.cost);
        file_read_raw(fresh, lpn * kBlockSize, page, res.cost);
        pcache_.fill(ino, lpn, page, writeback_fn());
      }
      std::memcpy(dst.data() + done, page.data() + in_page, chunk);
      done += chunk;
    }
  }
  res.cost.total += sim::calib::kExt4KernelOp;
  res.value = n;
  return res;
}

FsResult<std::uint32_t> Ext4like::write(Ino ino, std::uint64_t offset,
                                        std::span<const std::byte> src,
                                        bool direct) {
  FsResult<std::uint32_t> res;
  sim::LockGuard lock(mu_);
  if (ino == 0 || ino >= kMaxInodes || !inode_used_[ino]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode di = read_inode(ino, res.cost);
  if (di.type != static_cast<std::uint16_t>(FileType::kRegular)) {
    res.err = EISDIR;
    return res;
  }
  bool inode_dirty = false;
  if (direct) {
    file_write_raw(di, offset, src, inode_dirty, res.cost);
  } else {
    std::uint32_t done = 0;
    std::vector<std::byte> page(kBlockSize);
    const auto n = static_cast<std::uint32_t>(src.size());
    while (done < n) {
      const std::uint64_t pos = offset + done;
      const std::uint64_t lpn = pos / kBlockSize;
      const auto in_page = static_cast<std::uint32_t>(pos % kBlockSize);
      const std::uint32_t chunk =
          std::min<std::uint32_t>(n - done, kBlockSize - in_page);
      if (chunk == kBlockSize) {
        pcache_.write(ino, lpn, src.subspan(done, chunk), writeback_fn());
      } else {
        // Partial page: read-merge-write through the cache. The inode is
        // re-read because a cache eviction inside pcache_.write() may have
        // written this very file back and allocated blocks — a stale copy
        // would read zeros where the writeback just put data.
        if (!pcache_.read(ino, lpn, page)) {
          DiskInode fresh = read_inode(ino, res.cost);
          file_read_raw(fresh, lpn * kBlockSize, page, res.cost);
        }
        std::memcpy(page.data() + in_page, src.data() + done, chunk);
        pcache_.write(ino, lpn, page, writeback_fn());
      }
      done += chunk;
    }
    // Same staleness hazard for the final size update: evictions during
    // the loop may have updated the on-disk inode's block pointers.
    const std::uint64_t want_size = di.size;
    di = read_inode(ino, res.cost);
    di.size = std::max(di.size, want_size);
    inode_dirty = true;
  }
  const std::uint64_t new_size =
      std::max<std::uint64_t>(di.size, offset + src.size());
  if (new_size != di.size || inode_dirty) {
    di.size = new_size;
    di.mtime = time_++;
    journal(res.cost);
    write_inode(ino, di, res.cost);
  }
  res.cost.total += sim::calib::kExt4KernelOp;
  res.value = static_cast<std::uint32_t>(src.size());
  return res;
}

FsResult<FsUnit> Ext4like::truncate(Ino ino, std::uint64_t new_size) {
  FsResult<FsUnit> res;
  sim::LockGuard lock(mu_);
  if (ino == 0 || ino >= kMaxInodes || !inode_used_[ino]) {
    res.err = ENOENT;
    return res;
  }
  DiskInode di = read_inode(ino, res.cost);
  if (di.type != static_cast<std::uint16_t>(FileType::kRegular)) {
    res.err = EISDIR;
    return res;
  }
  pcache_.invalidate_inode(ino, writeback_fn());
  // The writebacks above may have allocated blocks and rewritten the
  // inode; refresh our copy or the final write_inode would clobber them.
  di = read_inode(ino, res.cost);
  if (new_size < di.size) {
    bool dirty = false;
    if (new_size == 0) {
      free_file_blocks(di, res.cost);
    } else {
      // Free whole blocks past the new end and zero the tail of the
      // boundary block, so a later regrow reads zeros (POSIX).
      const std::uint64_t keep_blocks =
          (new_size + kBlockSize - 1) / kBlockSize;
      free_blocks_from(di, keep_blocks, di.size, dirty, res.cost);
      const auto tail = static_cast<std::uint32_t>(new_size % kBlockSize);
      if (tail != 0) {
        const std::uint64_t lba =
            map_block(di, new_size / kBlockSize, false, dirty, res.cost);
        if (lba != 0) {
          std::vector<std::byte> block(kBlockSize);
          disk_->read_block(lba, block);
          std::fill(block.begin() + tail, block.end(), std::byte{0});
          disk_->write_block(lba, block);
          ++res.cost.dev_reads;
          ++res.cost.dev_writes;
          res.cost.total += ssd::SsdModel::random_service(true, kBlockSize);
          res.cost.total += ssd::SsdModel::random_service(false, kBlockSize);
        }
      }
    }
  }
  journal(res.cost);
  di.size = new_size;
  di.mtime = time_++;
  write_inode(ino, di, res.cost);
  return res;
}

FsResult<FsUnit> Ext4like::fsync(Ino ino) {
  FsResult<FsUnit> res;
  sim::LockGuard lock(mu_);
  if (ino == 0 || ino >= kMaxInodes || !inode_used_[ino]) {
    res.err = ENOENT;
    return res;
  }
  journal(res.cost);
  const std::size_t before_writes = res.cost.dev_writes;
  pcache_.flush(writeback_fn());
  (void)before_writes;  // flush cost lands inside writeback_fn's OpCost
  res.cost.total += sim::calib::kSsdWriteLat;  // flush barrier
  return res;
}

FsResult<FsUnit> Ext4like::sync() {
  FsResult<FsUnit> res;
  sim::LockGuard lock(mu_);
  pcache_.flush(writeback_fn());
  res.cost.total += sim::calib::kSsdWriteLat;
  return res;
}

}  // namespace dpc::hostfs
