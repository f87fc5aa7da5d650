// KVFS on-store types (§3.4): the four KV flavors and their key encodings.
//
//   Inode KV     [key: p_ino + name; value: ino]
//       — directory entries. The parent inode number is a key *prefix*, so
//         a prefix scan lists a directory.
//   Attribute KV [key: ino; value: 256-byte attribute]
//   Small-file KV[key: ino; value: ≤ 8 KB of data] — rewritten whole on
//         update; promoted to a big-file KV when the file outgrows 8 KB.
//   Big-file KV  [key: ino + page; value: extent page] — the file object's
//         extent index, mapping the file's contiguous logical space onto
//         discrete 8 KB physical blocks (tag 'B' + be64 id) that are updated
//         in place at 8 KB granularity. The index is split into fixed
//         pages of kExtentPageSlots block ids (4 KiB, covering 4 MiB of
//         file) so a read or overwrite fetches one page whatever the file
//         size. An absent page is all holes; page 0 always exists once a
//         file is big (promotion writes it: the promotion commit point).
//
// The store is one keyspace, so each flavor carries a one-byte tag prefix;
// integer key components are big-endian so lexicographic order matches
// numeric order (required for clean prefix scans).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "kv/kv_store.hpp"

namespace dpc::kvfs {

using Ino = std::uint64_t;

/// "In KVFS, the root directory has a unique inode number 0."
inline constexpr Ino kRootIno = 0;
/// Files up to this size live in a small-file KV (§3.4: "less than 8KB").
inline constexpr std::uint32_t kSmallFileMax = 8 * 1024;
/// In-place update granularity of big-file KVs.
inline constexpr std::uint32_t kBigBlock = 8 * 1024;
/// Block ids per extent-index page: a 4 KiB value covering 4 MiB of file.
inline constexpr std::uint64_t kExtentPageSlots = 512;
/// "we have limited the length of the file or directory name to 1024 bytes"
inline constexpr std::size_t kMaxNameLen = 1024;

enum class FileType : std::uint32_t {
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,  ///< target path stored in the small-file KV
};

/// The 256-byte attribute value (§3.4: "a 256-byte data structure that
/// describes the file or directory's privilege, size, ownership, creation
/// time, and so on").
struct Attr {
  Ino ino = 0;
  FileType type = FileType::kRegular;
  std::uint32_t mode = 0644;
  std::uint64_t size = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t ctime = 0;  ///< logical timestamps (deterministic sim clock)
  std::uint64_t mtime = 0;
  std::uint64_t atime = 0;
  std::uint32_t nlink = 1;
  /// True once the file data moved to a big-file KV.
  std::uint32_t big_file = 0;
  std::uint8_t reserved[192] = {};
};
static_assert(sizeof(Attr) == 256, "attribute KV value is 256 bytes");

// ------------------------------------------------------------- key builders

/// Inode KV key: tag 'D' + big-endian parent ino + name.
std::string inode_key(Ino p_ino, std::string_view name);
/// Prefix covering all entries of a directory (for readdir scans).
std::string inode_key_prefix(Ino p_ino);
/// Extracts the entry name back out of an inode-KV key.
std::string_view name_of_inode_key(std::string_view key);

/// Attribute KV key: tag 'A' + big-endian ino.
std::string attr_key(Ino ino);
/// Small-file KV key: tag 'S' + big-endian ino.
std::string small_key(Ino ino);
/// Extent-index page key: tag 'O' + big-endian ino + big-endian page.
std::string extent_page_key(Ino ino, std::uint32_t page);
/// Prefix covering every extent page of one file, in page order.
std::string extent_page_prefix(Ino ino);
/// Recovers the page number of an extent-page key.
std::uint32_t page_of_extent_key(std::string_view key);
/// Physical 8 KB block key: tag 'B' + big-endian block id.
std::string block_key(std::uint64_t block_id);

/// Cluster-wide allocation counters (tag 'C'): shared mounts draw inode
/// and block ids from these via the store's atomic increment.
std::string ino_counter_key();
std::string block_counter_key();

/// Recovers the integer component of a tagged key ('A'/'S'/'O'/'B' + be64;
/// the ino of an extent-page key).
std::uint64_t id_of_tagged_key(std::string_view key);
/// Recovers the parent ino of an inode-KV key ('D' + be64 + name).
Ino parent_of_inode_key(std::string_view key);

/// Value codecs.
kv::Bytes encode_ino(Ino ino);
Ino decode_ino(const kv::Bytes& v);
kv::Bytes encode_attr(const Attr& a);
Attr decode_attr(const kv::Bytes& v);

/// One extent-index page: the physical block ids of logical blocks
/// [page * kExtentPageSlots, (page + 1) * kExtentPageSlots), 0 = hole.
/// Serialized as the dense array itself, no header.
using ExtentPage = std::array<std::uint64_t, kExtentPageSlots>;
static_assert(sizeof(ExtentPage) == 4096, "extent page value is 4 KiB");

inline std::uint32_t page_of_block(std::uint64_t logical) {
  return static_cast<std::uint32_t>(logical / kExtentPageSlots);
}
inline std::size_t slot_of_block(std::uint64_t logical) {
  return static_cast<std::size_t>(logical % kExtentPageSlots);
}

kv::Bytes encode_extent_page(const ExtentPage& page);
ExtentPage decode_extent_page(const kv::Bytes& v);

/// One readdir result row.
struct DirEntry {
  std::string name;
  Ino ino = 0;
};

}  // namespace dpc::kvfs
