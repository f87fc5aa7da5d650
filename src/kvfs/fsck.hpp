// Offline consistency checker for a KVFS keyspace.
//
// KVFS spreads one file system across four KV flavors (inode / attribute /
// small-file / big-file extent pages + block KVs); a crash mid-operation or a
// buggy client can leave them disagreeing. Fsck cross-checks every
// invariant the §3.4 layout implies:
//
//   * every dentry points at an existing attribute (no dangling names);
//   * every attribute except the root is reachable from the root directory
//     (no orphaned inodes / disconnected subtrees);
//   * regular files have exactly the data KVs their `big_file` flag says
//     (small-file KV xor extent pages, page 0 always present for a big
//     file), and small files respect the 8 KB limit;
//   * every block id in an extent page resolves to a block KV, and no
//     block, page or data KV exists without an owner;
//   * directories carry no data KVs, and their link counts match their
//     subdirectory counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kv/kv_store.hpp"
#include "kvfs/types.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dpc::kvfs {

enum class FsckIssueKind : std::uint8_t {
  kDanglingDentry,   ///< inode KV names an ino with no attribute KV
  kUnreachableInode, ///< attribute exists but no path from the root
  kMissingSmallData, ///< (informational) small file > 0 bytes with no KV
  kMissingObject,    ///< big_file attr without extent page 0
  kMissingBlock,     ///< extent page references a block KV that is gone
  kOrphanData,       ///< small KV / extent pages without an attribute
  kOrphanBlock,      ///< block KV no extent page references
  kBadSmallSize,     ///< small file larger than the 8 KB limit
  kConflictingData,  ///< small KV and extent pages disagree with the flag
  kDirectoryHasData, ///< data KVs attached to a directory inode
  kBadLinkCount,     ///< directory nlink != 2 + subdirectories
  kBadSymlink,       ///< symlink without / with inconsistent target data
};

const char* to_string(FsckIssueKind k);

struct FsckIssue {
  FsckIssueKind kind = FsckIssueKind::kDanglingDentry;
  Ino ino = 0;  ///< the affected inode (the block id for kOrphanBlock)
  std::string detail;
  // Repair-mode context — lets fsck_repair act on an issue without
  // re-deriving global state:
  Ino parent = 0;          ///< dangling dentry: directory holding the entry
  std::string name;        ///< dangling dentry: entry name
  std::uint64_t aux = 0;   ///< expected nlink / referenced block id / size
  std::uint32_t page = 0;  ///< missing block: extent page holding the id
};

struct FsckReport {
  std::vector<FsckIssue> issues;
  std::uint64_t inodes = 0;
  std::uint64_t directories = 0;
  std::uint64_t regular_files = 0;
  std::uint64_t small_files = 0;
  std::uint64_t big_files = 0;
  std::uint64_t symlinks = 0;
  std::uint64_t blocks = 0;
  std::uint64_t data_bytes = 0;

  bool clean() const { return issues.empty(); }
  std::size_t count(FsckIssueKind k) const;
};

/// Runs all checks against the raw keyspace (offline: callers must ensure
/// no concurrent mutation).
FsckReport fsck(const kv::KvStore& store);

struct FsckRepairReport {
  std::uint64_t repairs = 0;  ///< individual fixes applied (all passes)
  std::uint32_t passes = 0;   ///< fsck+fix rounds run
  bool clean = false;         ///< final fsck pass found nothing
  sim::Nanos cost{};          ///< modelled remote-KV cost of scans + fixes
};

/// Repair mode: iterates fsck + fixes until the keyspace is clean (or the
/// pass budget runs out — pathological keyspaces only). Every FsckIssueKind
/// has a fix:
///   * dangling dentries are dropped;
///   * unreachable subtree roots are reattached under /lost+found (created
///     on demand); unreachable *empty* regular files are reaped;
///   * missing data is neutralized (zero-fill small files, clear big_file /
///     zero a dead block id in the one page holding it) and orphan
///     data/pages/blocks are erased;
///   * conflicting data trusts the big_file flag — except page 0 with the
///     flag still clear, which is the tail of an interrupted promotion and
///     gets the flag set (the small KV was already superseded);
///   * link counts are recomputed, symlink sizes resynced (target-less
///     symlinks are reaped).
/// Fixes are re-guarded against the live keyspace before applying, so the
/// healthy remainder of the tree is never touched. Offline, like fsck.
/// `registry` (optional) feeds the "fsck/repairs" counter.
FsckRepairReport fsck_repair(kv::KvStore& store,
                             obs::Registry* registry = nullptr);

}  // namespace dpc::kvfs
