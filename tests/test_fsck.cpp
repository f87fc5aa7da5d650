#include "kvfs/fsck.hpp"

#include <gtest/gtest.h>

#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"
#include "sim/rng.hpp"

namespace dpc::kvfs {
namespace {

struct FsckFixture : ::testing::Test {
  FsckFixture() : remote(store), fs(remote) {}

  std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<std::byte> v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
    return v;
  }

  /// Builds a healthy little tree and returns some inos for corruption.
  struct Handles {
    Ino dir, small, big;
  };
  Handles populate() {
    Handles h;
    h.dir = fs.mkdir(kRootIno, "dir", 0755).value;
    h.small = fs.create(h.dir, "small", 0644).value;
    EXPECT_TRUE(fs.write(h.small, 0, bytes(100, 1)).ok());
    h.big = fs.create(h.dir, "big", 0644).value;
    EXPECT_TRUE(fs.write(h.big, 0, bytes(3 * kBigBlock, 2)).ok());
    EXPECT_TRUE(fs.create(kRootIno, "empty", 0644).ok());
    return h;
  }

  kv::KvStore store;
  kv::RemoteKv remote;
  Kvfs fs;
};

TEST_F(FsckFixture, HealthyFilesystemIsClean) {
  populate();
  const auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << report.issues.size() << " issues, first: "
      << (report.issues.empty()
              ? ""
              : std::string(to_string(report.issues[0].kind)) + " " +
                    report.issues[0].detail);
  EXPECT_EQ(report.directories, 2u);  // root + dir
  EXPECT_EQ(report.regular_files, 3u);
  EXPECT_EQ(report.small_files, 2u);  // small + empty
  EXPECT_EQ(report.big_files, 1u);
  EXPECT_EQ(report.blocks, 3u);
}

TEST_F(FsckFixture, CleanAfterChurn) {
  auto h = populate();
  ASSERT_TRUE(fs.rename(h.dir, "small", kRootIno, "moved").ok());
  ASSERT_TRUE(fs.truncate(h.big, kBigBlock).ok());
  ASSERT_TRUE(fs.unlink(kRootIno, "empty").ok());
  const auto sub = fs.mkdir(h.dir, "sub", 0755).value;
  ASSERT_TRUE(fs.rename(h.dir, "sub", kRootIno, "sub-moved").ok());
  (void)sub;
  const auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
}

TEST_F(FsckFixture, DanglingDentryDetected) {
  const auto h = populate();
  store.erase(attr_key(h.small));
  const auto report = fsck(store);
  EXPECT_GE(report.count(FsckIssueKind::kDanglingDentry), 1u);
}

TEST_F(FsckFixture, UnreachableInodeDetected) {
  const auto h = populate();
  store.erase(inode_key(h.dir, "big"));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kUnreachableInode), 1u);
  EXPECT_EQ(report.issues[0].ino, h.big);
}

TEST_F(FsckFixture, MissingObjectDetected) {
  const auto h = populate();
  store.erase(extent_page_key(h.big, 0));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kMissingObject), 1u);
  // Its blocks become orphans too.
  EXPECT_GE(report.count(FsckIssueKind::kOrphanBlock), 3u);
}

TEST_F(FsckFixture, BigFileWithoutPageZeroIsMissingObject) {
  // Later pages do not make a file big: page 0 is the promotion commit
  // point, so a big file that lost it is kMissingObject even though the
  // rest of its index survives.
  const auto h = populate();
  ASSERT_TRUE(fs.write(h.big, kExtentPageSlots * kBigBlock,
                       bytes(kBigBlock, 3)).ok());
  ASSERT_TRUE(store.contains(extent_page_key(h.big, 1)));
  store.erase(extent_page_key(h.big, 0));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kMissingObject), 1u);
  EXPECT_EQ(report.issues[0].ino, h.big);
}

TEST_F(FsckFixture, MissingBlockDetected) {
  const auto h = populate();
  const auto page0 = decode_extent_page(*store.get(extent_page_key(h.big, 0)));
  store.erase(block_key(page0[1]));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kMissingBlock), 1u);
}

TEST_F(FsckFixture, PageWithoutAttrIsOrphanData) {
  populate();
  ExtentPage ids{};
  store.put(extent_page_key(31337, 2), encode_extent_page(ids));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kOrphanData), 1u);
  EXPECT_EQ(report.issues[0].ino, 31337u);
}

TEST_F(FsckFixture, OrphanDataDetected) {
  populate();
  store.put(small_key(31337), kv::to_bytes("ghost"));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kOrphanData), 1u);
}

TEST_F(FsckFixture, OrphanBlockDetected) {
  populate();
  store.put(block_key(999999), kv::to_bytes("lost block"));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kOrphanBlock), 1u);
}

TEST_F(FsckFixture, ConflictingDataDetected) {
  const auto h = populate();
  // A big file that still has a stale small KV.
  store.put(small_key(h.big), kv::to_bytes("stale"));
  const auto report = fsck(store);
  EXPECT_GE(report.count(FsckIssueKind::kConflictingData), 1u);
}

TEST_F(FsckFixture, BadSmallSizeDetected) {
  const auto h = populate();
  auto attr = decode_attr(*store.get(attr_key(h.small)));
  attr.size = 1 << 20;  // claims 1 MB while flagged small
  store.put(attr_key(h.small), encode_attr(attr));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kBadSmallSize), 1u);
}

TEST_F(FsckFixture, DirectoryWithDataDetected) {
  const auto h = populate();
  store.put(small_key(h.dir), kv::to_bytes("dir data?!"));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kDirectoryHasData), 1u);
}

TEST_F(FsckFixture, BadLinkCountDetected) {
  const auto h = populate();
  auto attr = decode_attr(*store.get(attr_key(h.dir)));
  attr.nlink = 9;
  store.put(attr_key(h.dir), encode_attr(attr));
  const auto report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kBadLinkCount), 1u);
}

TEST_F(FsckFixture, HardLinksCleanAndCounted) {
  const auto h = populate();
  ASSERT_TRUE(fs.link(h.small, kRootIno, "alias1").ok());
  ASSERT_TRUE(fs.link(h.small, h.dir, "alias2").ok());
  auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
  // Corrupt the link count → flagged.
  auto attr = decode_attr(*store.get(attr_key(h.small)));
  attr.nlink = 1;
  store.put(attr_key(h.small), encode_attr(attr));
  report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kBadLinkCount), 1u);
}

TEST_F(FsckFixture, SymlinksCheckedForTargets) {
  populate();
  const auto l = fs.symlink("/dir/small", kRootIno, "ln");
  ASSERT_TRUE(l.ok());
  auto report = fsck(store);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.symlinks, 1u);
  // Damage: drop the target-text KV.
  store.erase(small_key(l.value));
  report = fsck(store);
  EXPECT_EQ(report.count(FsckIssueKind::kBadSymlink), 1u);
}

TEST_F(FsckFixture, StressChurnStaysClean) {
  sim::Rng rng(7);
  std::vector<std::pair<Ino, std::string>> files;
  for (int i = 0; i < 200; ++i) {
    const auto pick = rng.next_below(100);
    if (pick < 50 || files.empty()) {
      const std::string name = "f" + std::to_string(i);
      const auto c = fs.create(kRootIno, name, 0644);
      ASSERT_TRUE(c.ok());
      fs.write(c.value, 0,
               bytes(rng.next_below(4 * kBigBlock) + 1,
                     static_cast<std::uint64_t>(i)));
      files.emplace_back(c.value, name);
    } else if (pick < 75) {
      const auto victim = rng.next_below(files.size());
      ASSERT_TRUE(fs.unlink(kRootIno, files[victim].second).ok());
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto victim = rng.next_below(files.size());
      fs.truncate(files[victim].first, rng.next_below(2 * kBigBlock));
    }
  }
  const auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
}

// ---------------------------------------------------------- repair mode
//
// One test per FsckIssueKind: corrupt, repair, assert the keyspace ends
// clean and the healthy remainder survived.

struct FsckRepairTest : FsckFixture {
  FsckRepairReport repair() {
    const auto rep = fsck_repair(store);
    EXPECT_TRUE(rep.clean) << "repair left issues after " << rep.passes
                           << " passes";
    EXPECT_TRUE(fsck(store).clean());
    // Repair rewrote the raw keyspace under the live mount; drop its
    // volatile dentry/attr caches as recover() would.
    fs.drop_caches();
    return rep;
  }
};

TEST_F(FsckRepairTest, DanglingDentryDropped) {
  const auto h = populate();
  store.erase(attr_key(h.small));
  const auto rep = repair();
  EXPECT_GE(rep.repairs, 1u);
  EXPECT_FALSE(fs.lookup(h.dir, "small").ok());
  // The healthy sibling survived.
  EXPECT_TRUE(fs.lookup(h.dir, "big").ok());
}

TEST_F(FsckRepairTest, UnreachableInodeReattachedToLostFound) {
  const auto h = populate();
  store.erase(inode_key(h.dir, "big"));
  repair();
  const auto lf = fs.lookup(kRootIno, "lost+found");
  ASSERT_TRUE(lf.ok());
  const auto back = fs.lookup(lf.value, "ino" + std::to_string(h.big));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value, h.big);
  // Data rides along with the reattached inode.
  std::vector<std::byte> buf(3 * kBigBlock);
  const auto r = fs.read(h.big, 0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 3 * kBigBlock);
  EXPECT_EQ(buf, bytes(3 * kBigBlock, 2));
}

TEST_F(FsckRepairTest, UnreachableEmptyFileReaped) {
  populate();
  const auto e = fs.lookup(kRootIno, "empty");
  ASSERT_TRUE(e.ok());
  store.erase(inode_key(kRootIno, "empty"));
  repair();
  // A zero-byte orphan carries no data worth salvaging: reaped, not moved.
  EXPECT_FALSE(store.contains(attr_key(e.value)));
}

TEST_F(FsckRepairTest, MissingSmallDataZeroFilled) {
  const auto h = populate();
  store.erase(small_key(h.small));
  repair();
  std::vector<std::byte> buf(100);
  const auto r = fs.read(h.small, 0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 100u);
  EXPECT_EQ(buf, std::vector<std::byte>(100));  // zeros, size preserved
}

TEST_F(FsckRepairTest, MissingObjectNeutralized) {
  const auto h = populate();
  store.erase(extent_page_key(h.big, 0));
  repair();
  const auto attr = decode_attr(*store.get(attr_key(h.big)));
  EXPECT_EQ(attr.big_file, 0u);
  EXPECT_EQ(attr.size, 0u);
}

TEST_F(FsckRepairTest, MissingPageZeroDropsTheRestOfTheIndex) {
  const auto h = populate();
  ASSERT_TRUE(fs.write(h.big, kExtentPageSlots * kBigBlock,
                       bytes(kBigBlock, 3)).ok());
  store.erase(extent_page_key(h.big, 0));
  repair();
  EXPECT_FALSE(store.contains(extent_page_key(h.big, 1)));
  EXPECT_EQ(decode_attr(*store.get(attr_key(h.big))).big_file, 0u);
}

TEST_F(FsckRepairTest, OrphanPageErased) {
  const auto h = populate();
  // The orphan page's own block goes with it; the live file's blocks stay.
  ExtentPage ids{};
  ids[0] = decode_extent_page(*store.get(extent_page_key(h.big, 0)))[0] + 1000;
  store.put(block_key(ids[0]), kv::to_bytes("orphan"));
  store.put(extent_page_key(31337, 0), encode_extent_page(ids));
  repair();
  EXPECT_FALSE(store.contains(extent_page_key(31337, 0)));
  EXPECT_FALSE(store.contains(block_key(ids[0])));
  std::vector<std::byte> buf(3 * kBigBlock);
  ASSERT_TRUE(fs.read(h.big, 0, buf).ok());
  EXPECT_EQ(buf, bytes(3 * kBigBlock, 2));
}

TEST_F(FsckRepairTest, MissingBlockFixRewritesOnlyItsPage) {
  const auto h = populate();
  const std::uint64_t page1 = kExtentPageSlots * kBigBlock;
  ASSERT_TRUE(fs.write(h.big, page1, bytes(kBigBlock, 3)).ok());
  const auto page0_before = *store.get(extent_page_key(h.big, 0));
  auto ids = decode_extent_page(*store.get(extent_page_key(h.big, 1)));
  store.erase(block_key(ids[0]));
  repair();
  // The dead id became a hole in page 1; page 0 is byte-identical.
  EXPECT_EQ(*store.get(extent_page_key(h.big, 0)), page0_before);
  ids = decode_extent_page(*store.get(extent_page_key(h.big, 1)));
  EXPECT_EQ(ids[0], 0u);
  std::vector<std::byte> buf(kBigBlock);
  ASSERT_TRUE(fs.read(h.big, page1, buf).ok());
  EXPECT_EQ(buf, std::vector<std::byte>(kBigBlock));
}

TEST_F(FsckRepairTest, MissingBlockZeroedInObject) {
  const auto h = populate();
  const auto page0 = decode_extent_page(*store.get(extent_page_key(h.big, 0)));
  store.erase(block_key(page0[1]));
  repair();
  // The dead reference is gone; the untouched blocks still read back.
  std::vector<std::byte> buf(3 * kBigBlock);
  ASSERT_TRUE(fs.read(h.big, 0, buf).ok());
  const auto want = bytes(3 * kBigBlock, 2);
  EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + kBigBlock, want.begin()));
  EXPECT_TRUE(std::all_of(buf.begin() + kBigBlock,
                          buf.begin() + 2 * kBigBlock,
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST_F(FsckRepairTest, OrphanDataErased) {
  populate();
  store.put(small_key(31337), kv::to_bytes("ghost"));
  repair();
  EXPECT_FALSE(store.contains(small_key(31337)));
}

TEST_F(FsckRepairTest, OrphanBlockErased) {
  populate();
  store.put(block_key(999999), kv::to_bytes("lost block"));
  repair();
  EXPECT_FALSE(store.contains(block_key(999999)));
}

TEST_F(FsckRepairTest, BadSmallSizeClamped) {
  const auto h = populate();
  auto attr = decode_attr(*store.get(attr_key(h.small)));
  attr.size = 1 << 20;
  store.put(attr_key(h.small), encode_attr(attr));
  repair();
  EXPECT_LE(decode_attr(*store.get(attr_key(h.small))).size, kSmallFileMax);
}

TEST_F(FsckRepairTest, ConflictingDataTrustsFlag) {
  const auto h = populate();
  store.put(small_key(h.big), kv::to_bytes("stale"));
  repair();
  EXPECT_FALSE(store.contains(small_key(h.big)));
  EXPECT_TRUE(store.contains(extent_page_key(h.big, 0)));
}

TEST_F(FsckRepairTest, InterruptedPromotionCompleted) {
  const auto h = populate();
  // Object exists but the flag never flipped — the tail of a promotion the
  // crash interrupted. Repair finishes the flip instead of dropping data.
  auto attr = decode_attr(*store.get(attr_key(h.big)));
  attr.big_file = 0;
  store.put(attr_key(h.big), encode_attr(attr));
  repair();
  EXPECT_EQ(decode_attr(*store.get(attr_key(h.big))).big_file, 1u);
  std::vector<std::byte> buf(3 * kBigBlock);
  ASSERT_TRUE(fs.read(h.big, 0, buf).ok());
  EXPECT_EQ(buf, bytes(3 * kBigBlock, 2));
}

TEST_F(FsckRepairTest, DirectoryDataErased) {
  const auto h = populate();
  store.put(small_key(h.dir), kv::to_bytes("dir data?!"));
  repair();
  EXPECT_FALSE(store.contains(small_key(h.dir)));
  EXPECT_TRUE(fs.lookup(h.dir, "small").ok());
}

TEST_F(FsckRepairTest, BadLinkCountRecomputed) {
  const auto h = populate();
  auto attr = decode_attr(*store.get(attr_key(h.dir)));
  attr.nlink = 9;
  store.put(attr_key(h.dir), encode_attr(attr));
  repair();
  EXPECT_EQ(decode_attr(*store.get(attr_key(h.dir))).nlink, 2u);
}

TEST_F(FsckRepairTest, BadSymlinkReaped) {
  populate();
  const auto l = fs.symlink("/dir/small", kRootIno, "ln");
  ASSERT_TRUE(l.ok());
  store.erase(small_key(l.value));
  repair();
  EXPECT_FALSE(fs.lookup(kRootIno, "ln").ok());
}

TEST_F(FsckRepairTest, CompoundCorruptionConverges) {
  const auto h = populate();
  store.erase(attr_key(h.small));                        // dangling + orphan
  store.erase(inode_key(h.dir, "big"));                  // unreachable
  store.put(block_key(999999), kv::to_bytes("lost"));    // orphan block
  store.put(small_key(h.dir), kv::to_bytes("dir data")); // dir data
  auto attr = decode_attr(*store.get(attr_key(h.dir)));
  attr.nlink = 9;
  store.put(attr_key(h.dir), encode_attr(attr));         // bad link count
  const auto rep = repair();
  EXPECT_GE(rep.repairs, 5u);
  EXPECT_LE(rep.passes, 8u);
}

TEST_F(FsckRepairTest, CleanKeyspaceIsUntouched) {
  populate();
  const auto before = store.size();
  const auto rep = repair();
  EXPECT_EQ(rep.repairs, 0u);
  EXPECT_EQ(rep.passes, 1u);
  EXPECT_EQ(store.size(), before);
}

}  // namespace
}  // namespace dpc::kvfs
