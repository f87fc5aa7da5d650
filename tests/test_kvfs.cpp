#include "kvfs/kvfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "core/dpc_system.hpp"
#include "nvm/device.hpp"
#include "nvm/wal.hpp"
#include "sim/calib.hpp"
#include "sim/rng.hpp"

namespace dpc::kvfs {
namespace {

struct KvfsFixture : ::testing::Test {
  KvfsFixture() : remote(store), fs(remote) {}
  kv::KvStore store;
  kv::RemoteKv remote;
  Kvfs fs;

  std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<std::byte> v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
    return v;
  }

  /// This mount's view of [off, off + n) of `ino` — error, length and bytes
  /// — equals that of a fresh mount over the same store, which has no
  /// cache to be stale.
  void expect_coherent(Ino ino, std::uint64_t off, std::size_t n) {
    Kvfs fresh(remote);
    std::vector<std::byte> ours(n), truth(n);
    const auto a = fs.read(ino, off, ours);
    const auto b = fresh.read(ino, off, truth);
    EXPECT_EQ(a.err, b.err) << "ino " << ino << " off " << off;
    EXPECT_EQ(a.value, b.value) << "ino " << ino << " off " << off;
    EXPECT_TRUE(ours == truth) << "ino " << ino << " off " << off;
  }
};

TEST_F(KvfsFixture, RootExists) {
  const auto attr = fs.getattr(kRootIno);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.type, FileType::kDirectory);
  EXPECT_EQ(attr.value.ino, kRootIno);
}

TEST_F(KvfsFixture, CreateLookupGetattr) {
  const auto c = fs.create(kRootIno, "file.txt", 0644);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.cost.ns, 0);  // remote KV round trips were modelled
  const auto l = fs.lookup(kRootIno, "file.txt");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.value, c.value);
  const auto a = fs.getattr(c.value);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value.type, FileType::kRegular);
  EXPECT_EQ(a.value.size, 0u);
  EXPECT_EQ(a.value.mode, 0644u);
}

TEST_F(KvfsFixture, CreateDuplicateFails) {
  ASSERT_TRUE(fs.create(kRootIno, "x", 0644).ok());
  EXPECT_EQ(fs.create(kRootIno, "x", 0644).err, EEXIST);
}

TEST_F(KvfsFixture, LookupMissingIsEnoent) {
  EXPECT_EQ(fs.lookup(kRootIno, "ghost").err, ENOENT);
  EXPECT_EQ(fs.getattr(999).err, ENOENT);
}

TEST_F(KvfsFixture, InvalidNamesRejected) {
  EXPECT_EQ(fs.create(kRootIno, "", 0644).err, EINVAL);
  EXPECT_EQ(fs.create(kRootIno, "a/b", 0644).err, EINVAL);
  EXPECT_EQ(fs.create(kRootIno, ".", 0644).err, EINVAL);
  EXPECT_EQ(fs.create(kRootIno, std::string(kMaxNameLen + 1, 'x'), 0644).err,
            EINVAL);
  // Exactly the 1024-byte limit from §3.4 is allowed.
  EXPECT_TRUE(fs.create(kRootIno, std::string(kMaxNameLen, 'y'), 0644).ok());
}

TEST_F(KvfsFixture, SmallFileWholeKvRewrite) {
  const auto ino = fs.create(kRootIno, "small", 0644).value;
  const auto data = bytes(100, 1);
  ASSERT_TRUE(fs.write(ino, 0, data).ok());
  // §3.4: small files are one KV rewritten whole.
  EXPECT_EQ(fs.stats().small_rewrites.load(), 1u);
  EXPECT_TRUE(store.contains(small_key(ino)));
  EXPECT_FALSE(store.contains(extent_page_key(ino, 0)));

  std::vector<std::byte> out(100);
  const auto r = fs.read(ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 100u);
  EXPECT_EQ(out, data);
}

TEST_F(KvfsFixture, SmallFileSparseWrite) {
  const auto ino = fs.create(kRootIno, "sparse", 0644).value;
  ASSERT_TRUE(fs.write(ino, 50, bytes(10, 2)).ok());
  EXPECT_EQ(fs.getattr(ino).value.size, 60u);
  std::vector<std::byte> out(60);
  ASSERT_TRUE(fs.read(ino, 0, out).ok());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], std::byte{0});
}

TEST_F(KvfsFixture, PromotionAt8K) {
  const auto ino = fs.create(kRootIno, "grow", 0644).value;
  const auto small = bytes(kSmallFileMax, 3);
  ASSERT_TRUE(fs.write(ino, 0, small).ok());
  EXPECT_EQ(fs.stats().promotions.load(), 0u);  // exactly 8K stays small

  // One more byte → promote: small KV deleted, big-file KV created (§3.4);
  // promotion always writes extent page 0.
  ASSERT_TRUE(fs.write(ino, kSmallFileMax, bytes(1, 4)).ok());
  EXPECT_EQ(fs.stats().promotions.load(), 1u);
  EXPECT_FALSE(store.contains(small_key(ino)));
  EXPECT_TRUE(store.contains(extent_page_key(ino, 0)));
  EXPECT_EQ(fs.getattr(ino).value.big_file, 1u);

  // Original bytes survive the promotion.
  std::vector<std::byte> out(kSmallFileMax);
  ASSERT_TRUE(fs.read(ino, 0, out).ok());
  EXPECT_EQ(out, small);
}

TEST_F(KvfsFixture, BigFileInPlaceUpdates) {
  const auto ino = fs.create(kRootIno, "big", 0644).value;
  const auto block0 = bytes(kBigBlock, 5);
  const auto block3 = bytes(kBigBlock, 6);
  ASSERT_TRUE(fs.write(ino, 0, block0).ok());
  ASSERT_TRUE(fs.write(ino, 3 * kBigBlock, block3).ok());  // promotes + hole
  EXPECT_EQ(fs.getattr(ino).value.size, 4u * kBigBlock);

  // Holes read as zeros.
  std::vector<std::byte> hole(kBigBlock);
  ASSERT_TRUE(fs.read(ino, kBigBlock, hole).ok());
  for (auto b : hole) ASSERT_EQ(b, std::byte{0});

  std::vector<std::byte> out(kBigBlock);
  ASSERT_TRUE(fs.read(ino, 3 * kBigBlock, out).ok());
  EXPECT_EQ(out, block3);

  // In-place rewrite of one 8K block touches block KVs, not whole files.
  const auto before = fs.stats().big_inplace_writes.load();
  ASSERT_TRUE(fs.write(ino, 3 * kBigBlock, block0).ok());
  EXPECT_GT(fs.stats().big_inplace_writes.load(), before);
}

TEST_F(KvfsFixture, UnalignedBigWriteSpansBlocks) {
  const auto ino = fs.create(kRootIno, "span", 0644).value;
  const auto data = bytes(3 * kBigBlock, 7);
  ASSERT_TRUE(fs.write(ino, kBigBlock / 2, data).ok());
  std::vector<std::byte> out(3 * kBigBlock);
  ASSERT_TRUE(fs.read(ino, kBigBlock / 2, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(KvfsFixture, ReadPastEofShortens) {
  const auto ino = fs.create(kRootIno, "short", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(10, 8)).ok());
  std::vector<std::byte> out(100);
  const auto r = fs.read(ino, 5, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 5u);
  const auto r2 = fs.read(ino, 100, out);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value, 0u);
}

TEST_F(KvfsFixture, MkdirReaddirScan) {
  const auto dir = fs.mkdir(kRootIno, "d", 0755).value;
  ASSERT_TRUE(fs.create(dir, "b", 0644).ok());
  ASSERT_TRUE(fs.create(dir, "a", 0644).ok());
  ASSERT_TRUE(fs.mkdir(dir, "c", 0755).ok());
  const auto list = fs.readdir(dir);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value.size(), 3u);
  // Prefix scan returns entries in name order.
  EXPECT_EQ(list.value[0].name, "a");
  EXPECT_EQ(list.value[1].name, "b");
  EXPECT_EQ(list.value[2].name, "c");
  EXPECT_EQ(fs.readdir(list.value[0].ino).err, ENOTDIR);
}

TEST_F(KvfsFixture, ResolveWalksFromRoot) {
  const auto a = fs.mkdir(kRootIno, "a", 0755).value;
  const auto b = fs.mkdir(a, "b", 0755).value;
  const auto f = fs.create(b, "f.txt", 0644).value;
  EXPECT_EQ(fs.resolve("/a/b/f.txt").value, f);
  EXPECT_EQ(fs.resolve("/a/b").value, b);
  EXPECT_EQ(fs.resolve("/").value, kRootIno);
  EXPECT_EQ(fs.resolve("/a//b/").value, b);  // empty components skipped
  EXPECT_EQ(fs.resolve("/nope").err, ENOENT);
  EXPECT_EQ(fs.resolve("relative").err, EINVAL);
}

TEST_F(KvfsFixture, UnlinkRemovesAllKvs) {
  const auto ino = fs.create(kRootIno, "gone", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(3 * kBigBlock, 9)).ok());  // big file
  ASSERT_TRUE(fs.unlink(kRootIno, "gone").ok());
  EXPECT_EQ(fs.lookup(kRootIno, "gone").err, ENOENT);
  EXPECT_EQ(fs.getattr(ino).err, ENOENT);
  // Every KV (inode, attr, extent page, blocks) is gone: only the root attr and
  // the two allocation counters remain.
  EXPECT_EQ(store.size(), 3u);
}

TEST_F(KvfsFixture, RmdirSemantics) {
  const auto dir = fs.mkdir(kRootIno, "dir", 0755).value;
  ASSERT_TRUE(fs.create(dir, "child", 0644).ok());
  EXPECT_EQ(fs.rmdir(kRootIno, "dir").err, ENOTEMPTY);
  ASSERT_TRUE(fs.unlink(dir, "child").ok());
  EXPECT_TRUE(fs.rmdir(kRootIno, "dir").ok());
  EXPECT_EQ(fs.rmdir(kRootIno, "dir").err, ENOENT);
  // rmdir on a file / unlink on a dir.
  ASSERT_TRUE(fs.create(kRootIno, "f", 0644).ok());
  EXPECT_EQ(fs.rmdir(kRootIno, "f").err, ENOTDIR);
  ASSERT_TRUE(fs.mkdir(kRootIno, "d2", 0755).ok());
  EXPECT_EQ(fs.unlink(kRootIno, "d2").err, EISDIR);
}

TEST_F(KvfsFixture, RenameMovesAndReplaces) {
  const auto a = fs.mkdir(kRootIno, "a", 0755).value;
  const auto b = fs.mkdir(kRootIno, "b", 0755).value;
  const auto f = fs.create(a, "f", 0644).value;
  ASSERT_TRUE(fs.write(f, 0, bytes(10, 10)).ok());

  ASSERT_TRUE(fs.rename(a, "f", b, "g").ok());
  EXPECT_EQ(fs.lookup(a, "f").err, ENOENT);
  EXPECT_EQ(fs.lookup(b, "g").value, f);

  // Replace an existing destination file.
  const auto h = fs.create(b, "h", 0644).value;
  ASSERT_TRUE(fs.write(h, 0, bytes(20, 11)).ok());
  ASSERT_TRUE(fs.rename(b, "g", b, "h").ok());
  EXPECT_EQ(fs.lookup(b, "h").value, f);
  EXPECT_EQ(fs.getattr(h).err, ENOENT);

  // Rename onto itself is a no-op success.
  EXPECT_TRUE(fs.rename(b, "h", b, "h").ok());
  // Missing source.
  EXPECT_EQ(fs.rename(b, "zz", b, "yy").err, ENOENT);
}

/// Renaming a directory over an empty one drops the replaced directory's
/// ".." link from the parent's count.
TEST_F(KvfsFixture, RenameOverEmptyDirectoryDropsItsLink) {
  const Ino a = fs.mkdir(kRootIno, "a", 0755).value;
  ASSERT_TRUE(fs.mkdir(kRootIno, "b", 0755).ok());
  const Ino d = fs.mkdir(kRootIno, "d", 0755).value;
  ASSERT_TRUE(fs.mkdir(d, "e", 0755).ok());
  ASSERT_EQ(fs.getattr(kRootIno).value.nlink, 5u);
  ASSERT_TRUE(fs.rename(kRootIno, "a", kRootIno, "b").ok());
  EXPECT_EQ(fs.lookup(kRootIno, "b").value, a);
  EXPECT_EQ(fs.getattr(kRootIno).value.nlink, 4u);
  // Across parents: d/e replaces the root's b (once a).
  ASSERT_TRUE(fs.rename(d, "e", kRootIno, "b").ok());
  EXPECT_EQ(fs.getattr(kRootIno).value.nlink, 4u);
  EXPECT_EQ(fs.getattr(d).value.nlink, 2u);
  const auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty() ? "" : report.issues[0].detail);
}

TEST_F(KvfsFixture, TruncateGrowShrink) {
  const auto ino = fs.create(kRootIno, "t", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(4 * kBigBlock, 12)).ok());
  ASSERT_TRUE(fs.truncate(ino, kBigBlock + 5).ok());
  EXPECT_EQ(fs.getattr(ino).value.size, kBigBlock + 5);
  // Shrink released trailing block KVs.
  std::vector<std::byte> out(10);
  EXPECT_EQ(fs.read(ino, kBigBlock + 4, out).value, 1u);
  // Grow back: the reappearing range is a hole.
  ASSERT_TRUE(fs.truncate(ino, 3 * kBigBlock).ok());
  std::vector<std::byte> tail(kBigBlock);
  ASSERT_TRUE(fs.read(ino, 2 * kBigBlock, tail).ok());
  for (auto byte : tail) ASSERT_EQ(byte, std::byte{0});
}

TEST_F(KvfsFixture, SmallTruncatePromotes) {
  const auto ino = fs.create(kRootIno, "tp", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(100, 13)).ok());
  ASSERT_TRUE(fs.truncate(ino, 100 * 1024).ok());
  EXPECT_EQ(fs.getattr(ino).value.big_file, 1u);
  EXPECT_EQ(fs.getattr(ino).value.size, 100u * 1024);
}

TEST_F(KvfsFixture, DentryAndAttrCachesHit) {
  const auto ino = fs.create(kRootIno, "cached", 0644).value;
  (void)fs.lookup(kRootIno, "cached");
  const auto hits_before = fs.stats().dentry_hits.load();
  (void)fs.lookup(kRootIno, "cached");
  EXPECT_GT(fs.stats().dentry_hits.load(), hits_before);
  (void)fs.getattr(ino);
  const auto attr_hits = fs.stats().attr_hits.load();
  (void)fs.getattr(ino);
  EXPECT_GT(fs.stats().attr_hits.load(), attr_hits);
  fs.drop_caches();
  const auto misses = fs.stats().dentry_misses.load();
  (void)fs.lookup(kRootIno, "cached");
  EXPECT_GT(fs.stats().dentry_misses.load(), misses);
}

TEST_F(KvfsFixture, WriteToDirectoryFails) {
  const auto dir = fs.mkdir(kRootIno, "dir", 0755).value;
  EXPECT_EQ(fs.write(dir, 0, bytes(10, 14)).err, EISDIR);
  std::vector<std::byte> out(10);
  EXPECT_EQ(fs.read(dir, 0, out).err, EISDIR);
  EXPECT_EQ(fs.truncate(dir, 0).err, EISDIR);
}

TEST_F(KvfsFixture, FsyncOnExistingFile) {
  const auto ino = fs.create(kRootIno, "sync", 0644).value;
  EXPECT_TRUE(fs.fsync(ino).ok());
  EXPECT_EQ(fs.fsync(31337).err, ENOENT);
}

TEST_F(KvfsFixture, ConcurrentCreatesInOneDirectory) {
  constexpr int kThreads = 8;
  constexpr int kFiles = 50;
  std::vector<std::thread> ts;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([this, t, &errors] {
      for (int i = 0; i < kFiles; ++i) {
        const auto res = fs.create(
            kRootIno, "f" + std::to_string(t) + "_" + std::to_string(i),
            0644);
        if (!res.ok()) ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(fs.readdir(kRootIno).value.size(),
            static_cast<std::size_t>(kThreads) * kFiles);
}

TEST_F(KvfsFixture, ConcurrentWritersDistinctFiles) {
  std::vector<Ino> inos;
  for (int t = 0; t < 8; ++t)
    inos.push_back(fs.create(kRootIno, "w" + std::to_string(t), 0644).value);
  std::vector<std::thread> ts;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([this, &inos, t, &errors] {
      const auto data = bytes(kBigBlock, static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20; ++i) {
        if (!fs.write(inos[static_cast<std::size_t>(t)],
                      static_cast<std::uint64_t>(i) * kBigBlock, data)
                 .ok())
          ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(fs.getattr(inos[static_cast<std::size_t>(t)]).value.size,
              20u * kBigBlock);
  }
}

TEST_F(KvfsFixture, KeyEncodingsAreOrderedAndTagged) {
  // Big-endian ino keeps lexicographic == numeric order (scan correctness).
  EXPECT_LT(inode_key_prefix(1), inode_key_prefix(2));
  EXPECT_LT(inode_key_prefix(255), inode_key_prefix(256));
  EXPECT_EQ(name_of_inode_key(inode_key(7, "abc")), "abc");
  // Tags keep the four KV spaces disjoint.
  EXPECT_NE(attr_key(5)[0], small_key(5)[0]);
  EXPECT_NE(small_key(5)[0], extent_page_key(5, 0)[0]);
  EXPECT_NE(extent_page_key(5, 0)[0], block_key(5)[0]);
  // Extent pages: the ino prefix lists a file's pages in page order, and
  // the tagged-key decoder still yields the ino.
  const std::string k = extent_page_key(7, 300);
  EXPECT_EQ(k.rfind(extent_page_prefix(7), 0), 0u);
  EXPECT_EQ(id_of_tagged_key(k), 7u);
  EXPECT_EQ(page_of_extent_key(k), 300u);
  EXPECT_LT(extent_page_key(7, 255), extent_page_key(7, 256));
  EXPECT_NE(extent_page_key(7, 0).rfind(extent_page_prefix(8), 0), 0u);
}

TEST_F(KvfsFixture, ExtentPageCodecRoundTrip) {
  ExtentPage page{};
  page[0] = 11;
  page[5] = 22;
  page[kExtentPageSlots - 1] = 33;
  const auto enc = encode_extent_page(page);
  EXPECT_EQ(enc.size(), 4096u);  // dense, no header
  EXPECT_EQ(decode_extent_page(enc), page);
  EXPECT_EQ(page_of_block(kExtentPageSlots - 1), 0u);
  EXPECT_EQ(page_of_block(kExtentPageSlots), 1u);
  EXPECT_EQ(slot_of_block(kExtentPageSlots + 3), 3u);
}

TEST_F(KvfsFixture, HardLinkSharesData) {
  const auto ino = fs.create(kRootIno, "orig", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(100, 20)).ok());
  ASSERT_TRUE(fs.link(ino, kRootIno, "alias").ok());
  EXPECT_EQ(fs.getattr(ino).value.nlink, 2u);
  EXPECT_EQ(fs.lookup(kRootIno, "alias").value, ino);
  // Writes through one name are visible through the other (same inode).
  ASSERT_TRUE(fs.write(ino, 0, bytes(50, 21)).ok());
  std::vector<std::byte> out(50);
  const auto alias_ino = fs.lookup(kRootIno, "alias").value;
  ASSERT_TRUE(fs.read(alias_ino, 0, out).ok());
  EXPECT_EQ(out, bytes(50, 21));
}

TEST_F(KvfsFixture, UnlinkKeepsDataWhileLinksRemain) {
  const auto ino = fs.create(kRootIno, "a", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(3 * kBigBlock, 22)).ok());
  ASSERT_TRUE(fs.link(ino, kRootIno, "b").ok());
  ASSERT_TRUE(fs.unlink(kRootIno, "a").ok());
  // Data still there through the surviving link.
  EXPECT_EQ(fs.getattr(ino).value.nlink, 1u);
  std::vector<std::byte> out(3 * kBigBlock);
  ASSERT_TRUE(fs.read(ino, 0, out).ok());
  EXPECT_EQ(out, bytes(3 * kBigBlock, 22));
  // Last unlink purges everything.
  ASSERT_TRUE(fs.unlink(kRootIno, "b").ok());
  EXPECT_EQ(fs.getattr(ino).err, ENOENT);
  EXPECT_EQ(store.size(), 3u);  // root attr + 2 counters
}

TEST_F(KvfsFixture, LinkRejectsDirectoriesAndDuplicates) {
  const auto dir = fs.mkdir(kRootIno, "d", 0755).value;
  EXPECT_EQ(fs.link(dir, kRootIno, "dlink").err, EPERM);
  const auto f = fs.create(kRootIno, "f", 0644).value;
  EXPECT_EQ(fs.link(f, kRootIno, "f").err, EEXIST);
  EXPECT_EQ(fs.link(999, kRootIno, "x").err, ENOENT);
  EXPECT_EQ(fs.link(f, 999, "x").err, ENOENT);
}

TEST_F(KvfsFixture, SymlinkCreateAndReadlink) {
  const auto f = fs.create(kRootIno, "real", 0644).value;
  (void)f;
  const auto l = fs.symlink("/real", kRootIno, "ln");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(fs.getattr(l.value).value.type, FileType::kSymlink);
  EXPECT_EQ(fs.readlink(l.value).value, "/real");
  EXPECT_EQ(fs.readlink(f).err, EINVAL);  // not a symlink
}

TEST_F(KvfsFixture, ResolveFollowsAbsoluteAndRelative) {
  const auto dir = fs.mkdir(kRootIno, "data", 0755).value;
  const auto f = fs.create(dir, "file", 0644).value;
  ASSERT_TRUE(fs.symlink("/data/file", kRootIno, "abs").ok());
  ASSERT_TRUE(fs.symlink("file", dir, "rel").ok());
  ASSERT_TRUE(fs.symlink("/data", kRootIno, "dirlink").ok());
  EXPECT_EQ(fs.resolve("/abs").value, f);
  EXPECT_EQ(fs.resolve("/data/rel").value, f);
  // Symlink in the middle of a path.
  EXPECT_EQ(fs.resolve("/dirlink/file").value, f);
  EXPECT_EQ(fs.resolve("/dirlink/rel").value, f);
}

TEST_F(KvfsFixture, SymlinkLoopsBounded) {
  ASSERT_TRUE(fs.symlink("/b", kRootIno, "a").ok());
  ASSERT_TRUE(fs.symlink("/a", kRootIno, "b").ok());
  EXPECT_EQ(fs.resolve("/a").err, ELOOP);
}

TEST_F(KvfsFixture, DanglingSymlinkResolvesToEnoent) {
  ASSERT_TRUE(fs.symlink("/nothing", kRootIno, "dangling").ok());
  EXPECT_EQ(fs.resolve("/dangling").err, ENOENT);
  // Unlinking a symlink removes it and its target data KV.
  ASSERT_TRUE(fs.unlink(kRootIno, "dangling").ok());
  EXPECT_EQ(store.size(), 2u);  // root attr + the ino counter
}

// ------------------------------------------------- paged extent index
//
// The big-file extent index is split into 4 KiB pages of kExtentPageSlots
// block ids, so per-op cost does not depend on file size.

constexpr std::uint64_t kMiB = 1 << 20;

std::size_t count_prefix(const kv::KvStore& store, std::string_view prefix) {
  return store.scan_prefix(
      prefix, [](std::string_view, const kv::Bytes&) { return true; });
}

/// An 8 KiB read and an 8 KiB overwrite of an allocated block cost the same
/// modelled time and the same number of KV ops on a 1 MiB file, a sparse
/// 256 MiB file and a sparse 1 TiB file, with the index page cold (one page
/// get each) or cached (none), whatever the size.
struct KvfsSizeIndependence : ::testing::Test {
  struct Probe {
    sim::Nanos read_cost, write_cost;
    std::uint64_t read_ops = 0, write_ops = 0;
  };

  /// Reads then overwrites the last block of a `file_bytes` file. Cold
  /// drops the caches before each op and re-warms only the attr, so the
  /// page is the one thing fetched.
  static Probe probe(std::uint64_t file_bytes, bool cold) {
    kv::KvStore store;
    fault::FaultInjector fi(1);
    // A site that never fires: its draw counter counts remote KV ops.
    fi.arm(kv::RemoteKv::kFaultSite, 1e-12);
    kv::RemoteKv remote(store, &fi);
    Kvfs fs(remote);
    const Ino ino = fs.create(kRootIno, "f", 0644).value;
    const std::uint64_t last = file_bytes - kBigBlock;
    std::vector<std::byte> data(file_bytes <= kMiB ? file_bytes : 2 * kBigBlock,
                                std::byte{0x5a});
    EXPECT_TRUE(fs.write(ino, 0, data).ok());
    std::vector<std::byte> block(kBigBlock, std::byte{0xa5});
    if (file_bytes > kMiB) {
      // Sparse: one block at the end. It stores one index page, not a
      // table covering every block before it.
      const std::uint64_t stored = store.bytes_stored();
      EXPECT_TRUE(fs.write(ino, last, block).ok());
      EXPECT_LT(store.bytes_stored() - stored, 4 * kBigBlock);
      EXPECT_EQ(count_prefix(store, extent_page_prefix(ino)), 2u);
      EXPECT_TRUE(store.contains(
          extent_page_key(ino, page_of_block(last / kBigBlock))));
    }
    EXPECT_EQ(fs.getattr(ino).value.size, file_bytes);
    const auto cool = [&] {
      if (!cold) return;
      fs.drop_caches();
      EXPECT_TRUE(fs.getattr(ino).ok());
    };

    Probe p;
    cool();
    const std::uint64_t ops0 = fi.draws(kv::RemoteKv::kFaultSite);
    const auto r = fs.read(ino, last, block);
    EXPECT_TRUE(r.ok() && r.value == kBigBlock);
    const std::uint64_t ops1 = fi.draws(kv::RemoteKv::kFaultSite);
    cool();
    const std::uint64_t ops2 = fi.draws(kv::RemoteKv::kFaultSite);
    const auto w = fs.write(ino, last, block);
    EXPECT_TRUE(w.ok());
    const std::uint64_t ops3 = fi.draws(kv::RemoteKv::kFaultSite);
    p.read_cost = r.cost;
    p.write_cost = w.cost;
    p.read_ops = ops1 - ops0;
    p.write_ops = ops3 - ops2;
    return p;
  }

  static void expect_flat(bool cold, std::uint64_t read_ops,
                          std::uint64_t write_ops) {
    const Probe small = probe(kMiB, cold);
    EXPECT_EQ(small.read_ops, read_ops);
    EXPECT_EQ(small.write_ops, write_ops);
    for (const std::uint64_t size : {256 * kMiB, kMiB << 20}) {
      const Probe big = probe(size, cold);
      EXPECT_EQ(big.read_cost.ns, small.read_cost.ns) << size;
      EXPECT_EQ(big.write_cost.ns, small.write_cost.ns) << size;
      EXPECT_EQ(big.read_ops, small.read_ops) << size;
      EXPECT_EQ(big.write_ops, small.write_ops) << size;
    }
  }
};

TEST_F(KvfsSizeIndependence, ColdReadAndOverwriteCostIsFlat) {
  // Read: page get + block read_sub. Overwrite: page get + one batch of
  // block write_sub + attr put (two round trips); no index put (the attr
  // comes from the cache both times).
  expect_flat(/*cold=*/true, 2, 2);
}

TEST_F(KvfsSizeIndependence, WarmReadAndOverwriteCostIsFlat) {
  // The cached page drops the page get: read = block read_sub; overwrite =
  // one batch of the block write_sub and the attr put.
  expect_flat(/*cold=*/false, 1, 1);
}

/// Shrinking a 256 MiB file drops every page past the cut (page 0 stays)
/// and the dropped ids from the boundary page; growing it again exposes
/// zeros. The file is dense over its first 12 MiB and sparse after.
TEST_F(KvfsFixture, TruncateBigFileDropsPagesAndZeroesPastTheCut) {
  const Ino ino = fs.create(kRootIno, "t256", 0644).value;
  const auto head = bytes(12 * kMiB, 30);
  ASSERT_TRUE(fs.write(ino, 0, head).ok());
  const std::uint64_t page_bytes = kExtentPageSlots * kBigBlock;
  for (std::uint64_t off = 12 * kMiB; off < 256 * kMiB; off += page_bytes)
    ASSERT_TRUE(fs.write(ino, off, bytes(kBigBlock, off)).ok());
  ASSERT_TRUE(fs.write(ino, 256 * kMiB - kBigBlock, bytes(kBigBlock, 31)).ok());
  ASSERT_EQ(fs.getattr(ino).value.size, 256 * kMiB);
  ASSERT_EQ(count_prefix(store, extent_page_prefix(ino)), 64u);

  const std::uint64_t cut = 5 * kMiB + 100;
  ASSERT_TRUE(fs.truncate(ino, cut).ok());
  ASSERT_TRUE(fs.truncate(ino, 9 * kMiB).ok());
  EXPECT_EQ(fs.getattr(ino).value.size, 9 * kMiB);

  std::vector<std::byte> out(9 * kMiB);
  const auto r = fs.read(ino, 0, out);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value, 9 * kMiB);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + cut, head.begin()));
  EXPECT_TRUE(std::all_of(out.begin() + cut, out.end(),
                          [](std::byte b) { return b == std::byte{0}; }));

  const auto report = fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty() ? "" : report.issues[0].detail);
  // Page 0 and the boundary page remain, holding exactly the kept blocks.
  EXPECT_EQ(count_prefix(store, extent_page_prefix(ino)), 2u);
  EXPECT_EQ(count_prefix(store, "B"), (cut + kBigBlock - 1) / kBigBlock);
}

// ------------------------------------------------------- extent cache
//
// Each case warms the extent cache, mutates the index, and checks the
// mount's bytes against a fresh mount's.

/// Shrinking a cached 256 MiB file and regrowing it with truncate reads
/// zeros past the cut, through every page the cache held.
TEST_F(KvfsFixture, ExtentCacheFollowsShrinkAndRegrow) {
  const Ino ino = fs.create(kRootIno, "t256", 0644).value;
  const std::uint64_t page_bytes = kExtentPageSlots * kBigBlock;
  for (std::uint64_t off = 0; off < 256 * kMiB; off += page_bytes)
    ASSERT_TRUE(fs.write(ino, off, bytes(2 * kBigBlock, off)).ok());
  for (std::uint64_t off = 0; off < 256 * kMiB; off += page_bytes)
    expect_coherent(ino, off, 2 * kBigBlock);  // every page cached

  const std::uint64_t cut = 3 * page_bytes + kBigBlock + 100;
  ASSERT_TRUE(fs.truncate(ino, cut).ok());
  ASSERT_TRUE(fs.truncate(ino, 256 * kMiB).ok());
  // The erased pages left the cache: reading one is a miss.
  const std::uint64_t misses = fs.stats().extent_misses.load();
  std::vector<std::byte> out(2 * kBigBlock);
  ASSERT_TRUE(fs.read(ino, 5 * page_bytes, out).ok());
  EXPECT_EQ(fs.stats().extent_misses.load(), misses + 1);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  for (std::uint64_t off = 0; off < 256 * kMiB; off += page_bytes)
    expect_coherent(ino, off, 2 * kBigBlock);
  // An overwrite of a block the shrink dropped allocates afresh.
  ASSERT_TRUE(fs.write(ino, 3 * page_bytes + kBigBlock, bytes(kBigBlock, 7))
                  .ok());
  expect_coherent(ino, 3 * page_bytes, 2 * kBigBlock);
  EXPECT_TRUE(fsck(store).clean());
}

/// Unlink drops the file's pages; the recreated name is a new inode whose
/// holes read as zeros.
TEST_F(KvfsFixture, ExtentCacheFollowsUnlinkAndRecreate) {
  const Ino old_ino = fs.create(kRootIno, "f", 0644).value;
  ASSERT_TRUE(fs.write(old_ino, 0, bytes(8 * kBigBlock, 1)).ok());
  expect_coherent(old_ino, 0, 8 * kBigBlock);
  ASSERT_TRUE(fs.unlink(kRootIno, "f").ok());
  std::vector<std::byte> out(kBigBlock);
  EXPECT_EQ(fs.read(old_ino, 0, out).err, ENOENT);

  const Ino ino = fs.create(kRootIno, "f", 0644).value;
  ASSERT_NE(ino, old_ino);
  ASSERT_TRUE(fs.write(ino, 4 * kBigBlock, bytes(4 * kBigBlock, 2)).ok());
  expect_coherent(ino, 0, 8 * kBigBlock);
  expect_coherent(old_ino, 0, kBigBlock);
  EXPECT_TRUE(fsck(store).clean());
}

/// Rename over a big file purges the replaced file's pages; the name now
/// reads the source's bytes.
TEST_F(KvfsFixture, ExtentCacheFollowsRenameOverBigFile) {
  const Ino src = fs.create(kRootIno, "src", 0644).value;
  const Ino dst = fs.create(kRootIno, "dst", 0644).value;
  const auto src_bytes = bytes(4 * kBigBlock, 3);
  ASSERT_TRUE(fs.write(src, 0, src_bytes).ok());
  ASSERT_TRUE(fs.write(dst, 0, bytes(6 * kBigBlock, 4)).ok());
  expect_coherent(src, 0, 4 * kBigBlock);
  expect_coherent(dst, 0, 6 * kBigBlock);

  ASSERT_TRUE(fs.rename(kRootIno, "src", kRootIno, "dst").ok());
  EXPECT_EQ(fs.lookup(kRootIno, "dst").value, src);
  std::vector<std::byte> out(4 * kBigBlock);
  ASSERT_TRUE(fs.read(src, 0, out).ok());
  EXPECT_EQ(out, src_bytes);
  expect_coherent(src, 0, 4 * kBigBlock);
  expect_coherent(dst, 0, 6 * kBigBlock);
  EXPECT_TRUE(fsck(store).clean());
}

/// An allocating write that fails under remote-KV faults leaves no cached
/// page the store lacks: the mount still reads the hole. The new block and
/// the page naming it ride one batch, so a failure stores neither.
TEST(KvfsExtentCache, FailedPagePutLeavesNothingCached) {
  const std::uint64_t hole = 64 * kBigBlock;
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 400 && failures < 3; ++seed) {
    kv::KvStore store;
    fault::FaultInjector fi(seed);
    fi.arm(kv::RemoteKv::kFaultSite, 0.3);
    fi.set_enabled(kv::RemoteKv::kFaultSite, false);
    kv::RemoteKv remote(store, &fi, nullptr, fault::RetryPolicy{1});
    Kvfs fs(remote);
    const Ino ino = fs.create(kRootIno, "f", 0644).value;
    ASSERT_TRUE(fs.write(ino, 0, std::vector<std::byte>(kBigBlock,
                                                        std::byte{1}))
                    .ok());
    ASSERT_TRUE(fs.truncate(ino, 2 * hole).ok());
    std::vector<std::byte> out(kBigBlock);
    ASSERT_TRUE(fs.read(ino, hole, out).ok());  // caches page 0, hole here
    const std::size_t blocks = count_prefix(store, "B");

    fi.set_enabled(kv::RemoteKv::kFaultSite, true);
    const auto w = fs.write(ino, hole, std::vector<std::byte>(kBigBlock,
                                                               std::byte{2}));
    fi.set_enabled(kv::RemoteKv::kFaultSite, false);
    if (w.ok()) continue;
    ++failures;
    EXPECT_EQ(w.err, EIO);
    EXPECT_EQ(count_prefix(store, "B"), blocks) << "seed " << seed;

    ASSERT_TRUE(fs.read(ino, hole, out).ok());
    Kvfs fresh(remote);
    std::vector<std::byte> truth(kBigBlock);
    ASSERT_TRUE(fresh.read(ino, hole, truth).ok());
    EXPECT_EQ(out, truth) << "seed " << seed;
    EXPECT_TRUE(fsck(store).clean()) << "seed " << seed;
  }
  EXPECT_GE(failures, 1);
}

/// A warm overwrite that grows the file is one guarded batch of its block
/// write_subs and the attr (guarded equal to the attr it replaces), costing
/// two round trips like the write_sub + put it replaced.
TEST(KvfsExtentCache, WarmOverwriteIsOneTwoRoundTripBatch) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  Kvfs fs(remote);
  const Ino ino = fs.create(kRootIno, "f", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, std::vector<std::byte>(10000, std::byte{1}))
                  .ok());
  const auto page = decode_extent_page(*store.get(extent_page_key(ino, 0)));
  const kv::Bytes before = *store.get(attr_key(ino));
  const std::vector<std::byte> tail(2000, std::byte{2});
  const std::uint64_t hits = fs.stats().extent_hits.load();
  const auto w = fs.write(ino, 10000, tail);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(fs.stats().extent_hits.load(), hits + 1);  // took the warm path

  Attr grown = fs.getattr(ino).value;
  EXPECT_EQ(grown.size, 12000u);
  kv::Batch b;
  b.write_sub(block_key(page[1]), 10000 - kBigBlock, tail,
              kv::Batch::Guard::kPresent);
  b.expect(b.put(attr_key(ino), encode_attr(grown)), kv::Bytes(before));
  EXPECT_EQ(w.cost.ns, kv::RemoteKv::batch_cost(b).ns);
  const sim::Nanos rt = sim::calib::kNetHop * 2 + sim::calib::kKvServerOp;
  EXPECT_EQ(w.cost.ns, (rt * 2 + sim::calib::kv_write_transfer(
                                     b.wire_bytes()))
                           .ns);
}

/// Under single-attempt remote-KV faults, a warm overwrite that grows a
/// file is acked only when a fresh mount reads the new size and bytes; a
/// failed one leaves the old size.
TEST(KvfsExtentCache, AckedWarmGrowthReachesAFreshMount) {
  int acked = 0;
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 90; ++seed) {
    kv::KvStore store;
    fault::FaultInjector fi(seed);
    fi.arm(kv::RemoteKv::kFaultSite, 0.5);
    fi.set_enabled(kv::RemoteKv::kFaultSite, false);
    kv::RemoteKv remote(store, &fi, nullptr, fault::RetryPolicy{1});
    Kvfs fs(remote);
    const Ino ino = fs.create(kRootIno, "f", 0644).value;
    ASSERT_TRUE(fs.write(ino, 0, std::vector<std::byte>(10000, std::byte{1}))
                    .ok());
    const std::vector<std::byte> tail(2000, std::byte{2});
    const std::uint64_t hits = fs.stats().extent_hits.load();
    fi.set_enabled(kv::RemoteKv::kFaultSite, true);
    const auto w = fs.write(ino, 10000, tail);
    fi.set_enabled(kv::RemoteKv::kFaultSite, false);
    EXPECT_EQ(fs.stats().extent_hits.load(), hits + 1) << "seed " << seed;

    Kvfs fresh(remote);
    const auto a = fresh.getattr(ino);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    EXPECT_TRUE(fsck(store).clean()) << "seed " << seed;
    if (!w.ok()) {
      ++failed;
      EXPECT_EQ(w.err, EIO) << "seed " << seed;
      EXPECT_EQ(a.value.size, 10000u) << "seed " << seed;
      continue;
    }
    ++acked;
    EXPECT_EQ(a.value.size, 12000u) << "seed " << seed;
    std::vector<std::byte> out(tail.size());
    const auto r = fresh.read(ino, 10000, out);
    EXPECT_TRUE(r.ok() && r.value == tail.size()) << "seed " << seed;
    EXPECT_EQ(out, tail) << "seed " << seed;
  }
  EXPECT_GE(acked, 10);
  EXPECT_GE(failed, 10);
}

/// A crash right after a page-straddling write's batch, then a DPU
/// restart: the write landed whole, and the index is what the mount reads.
TEST(KvfsExtentCache, CrashAfterStraddlingCommitThenRestart) {
  fault::FaultInjector fi(1);
  core::DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 64 * 1024;
  o.with_dfs = false;
  o.fault = &fi;
  core::DpcSystem sys(o);
  const Ino ino = sys.create(kRootIno, "straddle").ino;
  const std::uint64_t off = kExtentPageSlots * kBigBlock - kBigBlock;
  ASSERT_TRUE(sys.write(ino, 0, std::vector<std::byte>(2 * kBigBlock,
                                                       std::byte{1}),
                        true)
                  .ok());
  ASSERT_TRUE(sys.truncate(ino, off + 2 * kBigBlock).ok());
  std::vector<std::byte> out(2 * kBigBlock);
  ASSERT_TRUE(sys.read(ino, off, out, true).ok());  // warm pages 0 and 1

  fi.arm_crash("kvfs.write/crash_after_commit");
  const std::vector<std::byte> data(2 * kBigBlock, std::byte{0x77});
  (void)sys.write(ino, off, data, true);
  ASSERT_TRUE(fi.crashed());
  fi.disarm_crash("kvfs.write/crash_after_commit");
  const auto rep = sys.restart_dpu();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.fs.fsck.repairs, 0u);

  kv::RemoteKv remote(sys.kv_store());
  Kvfs fresh(remote);
  std::vector<std::byte> truth(2 * kBigBlock);
  ASSERT_TRUE(sys.read(ino, off, out, true).ok());
  ASSERT_TRUE(fresh.read(ino, off, truth).ok());
  EXPECT_EQ(out, truth);
  EXPECT_EQ(out, data);  // the batch carried both pages and both blocks
  EXPECT_TRUE(fsck(sys.kv_store()).clean());
}

/// recover() runs fsck on the raw store after the WAL replay's writes have
/// refilled the caches; what it rewrote must be what
/// the mount then serves.
struct KvfsRecoverCaches : KvfsFixture {
  obs::Registry reg;
  nvm::NvmDevice dev{1 << 20, nullptr, &reg};
  nvm::WriteAheadLog wal{dev, reg};
  Kvfs walfs{remote, [&] {
               KvfsOptions o;
               o.wal = &wal;
               return o;
             }()};
  sim::Nanos c{};

  void expect_store_values(Ino ino) {
    Kvfs fresh(remote);
    const auto ours = walfs.getattr(ino);
    const auto truth = fresh.getattr(ino);
    EXPECT_EQ(ours.err, truth.err);
    EXPECT_EQ(ours.value.size, truth.value.size);
    EXPECT_EQ(ours.value.nlink, truth.value.nlink);
    EXPECT_EQ(ours.value.big_file, truth.value.big_file);
    std::vector<std::byte> a(2 * kBigBlock), b(2 * kBigBlock);
    const auto ra = walfs.read(ino, 0, a);
    const auto rb = fresh.read(ino, 0, b);
    EXPECT_EQ(ra.err, rb.err);
    EXPECT_EQ(ra.value, rb.value);
    EXPECT_EQ(a, b);
  }
};

TEST_F(KvfsRecoverCaches, FsckRewritesWhatWalDataCached) {
  const Ino ino = walfs.create(kRootIno, "y", 0644).value;
  ASSERT_TRUE(walfs.write(ino, 0, bytes(2 * kBigBlock, 7)).ok());
  // Damage fsck repairs: a link count no dentry backs, and a lost block
  // (its id is zeroed in the page). Replaying the logged page caches the
  // attr and the page before fsck runs.
  Attr a = decode_attr(*store.get(attr_key(ino)));
  a.nlink = 2;
  store.put(attr_key(ino), encode_attr(a));
  const std::uint64_t lost = decode_extent_page(
      *store.get(extent_page_key(ino, 0)))[1];
  ASSERT_TRUE(store.erase(block_key(lost)));
  ASSERT_EQ(wal.append_data(ino, 0, bytes(4096, 8), c), nvm::AppendStatus::kOk);

  const auto rep = walfs.recover();
  EXPECT_TRUE(rep.clean());
  EXPECT_GE(rep.fsck.repairs, 2u);
  EXPECT_EQ(walfs.getattr(ino).value.nlink, 1u);
  expect_store_values(ino);
}

// ------------------------------------------------------ one batch per op

/// Every key and value of `store` except the id counters ('C').
std::map<std::string, kv::Bytes> keyspace(const kv::KvStore& store) {
  std::map<std::string, kv::Bytes> out;
  store.scan_prefix("", [&](std::string_view k, const kv::Bytes& v) {
    if (k.substr(0, 1) != "C") out.emplace(std::string(k), v);
    return true;
  });
  return out;
}

std::uint64_t decode_u64(const std::optional<kv::Bytes>& v) {
  std::uint64_t x = 0;
  if (v && v->size() == sizeof(x)) std::memcpy(&x, v->data(), sizeof(x));
  return x;
}

/// One mutation under test: `run` performs it on a mount whose caches are
/// warm, `landed` checks its effect through a fresh mount.
struct BatchCase {
  const char* name;
  std::function<int(Kvfs&)> run;
  std::function<void(Kvfs&)> landed;
};

/// The namespace every case starts from: d/f (4 KiB small file), big
/// (24 KiB, promoted), sub (an empty directory), and their inos.
struct BatchTree {
  Ino d = 0, f = 0, big = 0;
  explicit BatchTree(Kvfs& fs) {
    d = fs.mkdir(kRootIno, "d", 0755).value;
    f = fs.create(d, "f", 0644).value;
    big = fs.create(kRootIno, "big", 0644).value;
    EXPECT_TRUE(fs.write(f, 0, std::vector<std::byte>(4096, std::byte{1}))
                    .ok());
    EXPECT_TRUE(fs.write(big, 0, std::vector<std::byte>(3 * kBigBlock,
                                                        std::byte{2}))
                    .ok());
    EXPECT_TRUE(fs.mkdir(kRootIno, "sub", 0755).ok());
  }
};

std::vector<BatchCase> batch_cases(const BatchTree& t) {
  const std::vector<std::byte> data(2 * kBigBlock, std::byte{3});
  const auto named = [](Kvfs& fs, Ino parent, const char* name) {
    return fs.lookup(parent, name);
  };
  return {
      {"create", [](Kvfs& fs) { return fs.create(kRootIno, "new", 0644).err; },
       [=](Kvfs& fs) {
         const auto l = named(fs, kRootIno, "new");
         ASSERT_TRUE(l.ok());
         EXPECT_EQ(fs.getattr(l.value).value.type, FileType::kRegular);
       }},
      {"mkdir", [](Kvfs& fs) { return fs.mkdir(kRootIno, "nd", 0755).err; },
       [=](Kvfs& fs) {
         const auto l = named(fs, kRootIno, "nd");
         ASSERT_TRUE(l.ok());
         EXPECT_EQ(fs.getattr(l.value).value.type, FileType::kDirectory);
         EXPECT_EQ(fs.getattr(kRootIno).value.nlink, 5u);
       }},
      {"symlink",
       [](Kvfs& fs) { return fs.symlink("d/f", kRootIno, "ln").err; },
       [=](Kvfs& fs) {
         const auto l = named(fs, kRootIno, "ln");
         ASSERT_TRUE(l.ok());
         EXPECT_EQ(fs.readlink(l.value).value, "d/f");
       }},
      {"unlink", [t](Kvfs& fs) { return fs.unlink(t.d, "f").err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(named(fs, t.d, "f").err, ENOENT);
         EXPECT_EQ(fs.getattr(t.f).err, ENOENT);
       }},
      {"rmdir", [](Kvfs& fs) { return fs.rmdir(kRootIno, "sub").err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(named(fs, kRootIno, "sub").err, ENOENT);
         EXPECT_EQ(fs.getattr(kRootIno).value.nlink, 3u);
       }},
      {"rename",
       [t](Kvfs& fs) { return fs.rename(t.d, "f", kRootIno, "moved").err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(named(fs, kRootIno, "moved").value, t.f);
         EXPECT_EQ(named(fs, t.d, "f").err, ENOENT);
       }},
      {"rename-replacing",
       [t](Kvfs& fs) { return fs.rename(t.d, "f", kRootIno, "big").err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(named(fs, kRootIno, "big").value, t.f);
         EXPECT_EQ(fs.getattr(t.big).err, ENOENT);
       }},
      {"link", [t](Kvfs& fs) { return fs.link(t.f, kRootIno, "alias").err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(named(fs, kRootIno, "alias").value, t.f);
         EXPECT_EQ(fs.getattr(t.f).value.nlink, 2u);
       }},
      {"truncate-shrink",
       [t](Kvfs& fs) { return fs.truncate(t.big, 10000).err; },
       [=](Kvfs& fs) {
         EXPECT_EQ(fs.getattr(t.big).value.size, 10000u);
         std::vector<std::byte> out(kBigBlock);
         ASSERT_TRUE(fs.read(t.big, kBigBlock, out).ok());
         EXPECT_EQ(out[10000 - kBigBlock - 1], std::byte{2});
       }},
      {"truncate-grow",
       [t](Kvfs& fs) { return fs.truncate(t.f, 100000).err; },
       [=](Kvfs& fs) {
         const auto a = fs.getattr(t.f).value;
         EXPECT_EQ(a.size, 100000u);
         EXPECT_EQ(a.big_file, 1u);  // the growth promoted the file
       }},
      {"warm-overwrite",
       [t, data](Kvfs& fs) { return fs.write(t.big, 4096, data).err; },
       [=](Kvfs& fs) {
         std::vector<std::byte> out(data.size());
         ASSERT_TRUE(fs.read(t.big, 4096, out).ok());
         EXPECT_EQ(out, data);
       }},
      {"allocating-write",
       [t, data](Kvfs& fs) {
         return fs.write(t.big, 8 * kBigBlock, data).err;
       },
       [=](Kvfs& fs) {
         std::vector<std::byte> out(data.size());
         ASSERT_TRUE(fs.read(t.big, 8 * kBigBlock, out).ok());
         EXPECT_EQ(out, data);
       }},
  };
}

/// Under single-attempt remote-KV faults every mutation is all or nothing:
/// it returns 0 with an fsck-clean keyspace a fresh mount sees, or EIO with
/// the keyspace as it was (id counters aside: a failure burns ids).
TEST(KvfsBatch, SingleKvFailureIsAllOrNothing) {
  std::size_t kinds = 0;
  {
    kv::KvStore store;
    kv::RemoteKv remote(store);
    Kvfs fs(remote);
    kinds = batch_cases(BatchTree(fs)).size();
  }
  for (std::size_t k = 0; k < kinds; ++k) {
    int ok = 0;
    int eio = 0;
    std::string name;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      kv::KvStore store;
      fault::FaultInjector fi(seed);
      fi.arm(kv::RemoteKv::kFaultSite, 0.3);
      fi.set_enabled(kv::RemoteKv::kFaultSite, false);
      kv::RemoteKv remote(store, &fi, nullptr, fault::RetryPolicy{1});
      Kvfs fs(remote);
      const BatchTree tree(fs);
      const BatchCase c = batch_cases(tree)[k];
      name = c.name;
      ASSERT_TRUE(fsck(store).clean()) << name;
      const auto before = keyspace(store);

      fi.set_enabled(kv::RemoteKv::kFaultSite, true);
      const int err = c.run(fs);
      fi.set_enabled(kv::RemoteKv::kFaultSite, false);
      if (err == 0) {
        ++ok;
        const auto report = fsck(store);
        EXPECT_TRUE(report.clean())
            << name << " seed " << seed << ": "
            << (report.issues.empty() ? "" : report.issues[0].detail);
        Kvfs fresh(remote);
        c.landed(fresh);
      } else {
        ++eio;
        EXPECT_EQ(err, EIO) << name << " seed " << seed;
        EXPECT_TRUE(keyspace(store) == before)
            << name << " seed " << seed << ": a failed op changed the store";
      }
    }
    EXPECT_GE(ok, 1) << name;
    EXPECT_GE(eio, 1) << name;
  }
}

/// With warm caches each mutation is its reads, its id increments, and
/// exactly one apply — e.g. create = 1 increment + 1 apply.
TEST(KvfsBatch, EachMutationIsOneBatch) {
  struct Expect {
    const char* name;
    const char* op;  ///< crash-site prefix counting its commits
    std::uint64_t reads, increments;
  };
  // rmdir scans the directory for emptiness; rename looks up the absent
  // destination; replacing a big file and shrinking one scan its index
  // pages; truncate-grow and the small write read the small KV (to
  // move or rewrite it); the warm overwrite reads nothing (its page and
  // attr are cached); the allocating write fetches its index page and
  // allocates two blocks.
  const Expect expect[] = {
      {"create", "kvfs.create", 0, 1},
      {"mkdir", "kvfs.mkdir", 0, 1},
      {"symlink", "kvfs.symlink", 0, 1},
      {"unlink", "kvfs.unlink", 0, 0},
      {"rmdir", "kvfs.rmdir", 1, 0},
      {"rename", "kvfs.rename", 1, 0},
      {"rename-replacing", "kvfs.rename", 1, 0},
      {"link", "kvfs.link", 0, 0},
      {"truncate-shrink", "kvfs.truncate", 1, 0},
      {"truncate-grow", "kvfs.truncate", 1, 1},
      {"warm-overwrite", "kvfs.write", 0, 0},
      {"allocating-write", "kvfs.write", 1, 2},
  };
  for (std::size_t k = 0; k < std::size(expect); ++k) {
    kv::KvStore store;
    fault::FaultInjector fi(1);
    fi.arm(kv::RemoteKv::kFaultSite, 1e-12);  // counts every remote op
    KvfsOptions opts;
    opts.fault = &fi;
    kv::RemoteKv remote(store, &fi);
    Kvfs fs(remote, opts);
    const BatchTree tree(fs);
    const BatchCase c = batch_cases(tree)[k];
    ASSERT_STREQ(c.name, expect[k].name);
    const std::string site = std::string(expect[k].op) + "/crash_before_commit";
    fi.arm_crash(site, /*skip=*/1000);  // never fires; counts arrivals
    const auto counters = [&] {
      return decode_u64(store.get(ino_counter_key())) +
             decode_u64(store.get(block_counter_key()));
    };
    const std::uint64_t ops0 = fi.draws(kv::RemoteKv::kFaultSite);
    const std::uint64_t ids0 = counters();
    ASSERT_EQ(c.run(fs), 0) << c.name;
    const std::uint64_t ops = fi.draws(kv::RemoteKv::kFaultSite) - ops0;
    const std::uint64_t increments = counters() - ids0;
    const std::uint64_t applies = fi.crash_arrivals(site);
    EXPECT_EQ(applies, 1u) << c.name;
    EXPECT_EQ(increments, expect[k].increments) << c.name;
    EXPECT_EQ(ops, expect[k].reads + increments + applies) << c.name;
  }
}

/// A mount over a shared store whose root probe fails (the get ran out of
/// retries) must not reset the live root attr: the install is one batch
/// guarded absent, never a blind put.
TEST(KvfsMount, SecondMountNeverResetsALiveRoot) {
  int probe_failed = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    kv::KvStore store;
    fault::FaultInjector fi(seed);
    kv::RemoteKv remote(store, &fi);
    Kvfs first(remote);
    ASSERT_TRUE(first.mkdir(kRootIno, "d", 0755).ok());
    const auto root = store.get(attr_key(kRootIno));
    ASSERT_TRUE(root.has_value());
    ASSERT_EQ(decode_attr(*root).nlink, 3u);

    fi.arm(kv::RemoteKv::kFaultSite, 0.6);
    Kvfs second(remote);
    // More draws than one op's attempts: the probe ran dry.
    probe_failed +=
        fi.draws(kv::RemoteKv::kFaultSite) > fault::RetryPolicy{}.max_attempts;
    fi.disarm(kv::RemoteKv::kFaultSite);
    EXPECT_TRUE(store.get(attr_key(kRootIno)) == root) << "seed " << seed;
    EXPECT_EQ(second.getattr(kRootIno).value.nlink, 3u) << "seed " << seed;
  }
  EXPECT_GT(probe_failed, 0);  // the failed-probe path ran
}

/// The modelled cost and the batches of five big-file writes. A warm write
/// that does not grow the file sends its sub-writes alone (lazy mtime);
/// every other write's attr put carries a 256 B guard operand (the attr
/// it replaces). The truncated-away case is a warm batch refused by a
/// block guard, the attr reloaded, then the write through the store's
/// index; a promotion's small-KV erase draws no fault, so it is not among
/// the values.
TEST(KvfsWriteCost, OneWritePathKeepsEveryBatchAndCost) {
  struct Case {
    const char* name;
    std::uint64_t small_size;  ///< file size before the write (0 = 16 KiB big)
    std::uint64_t offset;
    bool truncated_elsewhere;  ///< another mount cut the file to 8 KiB first
    std::int64_t cost_ns;
    std::uint64_t batches;  ///< kvfs.write batches sent
    std::uint64_t values;   ///< puts and sub-writes across them
    std::uint64_t subs;     ///< of which sub-writes
  };
  const Case cases[] = {
      {"warm 8K overwrite", 0, 0, false, 26608, 1, 1, 1},
      {"warm straddle", 0, 4096, false, 51609, 1, 2, 2},
      {"hole", 0, 64 * 1024, false, 103047, 1, 3, 0},
      {"8K->16K promotion", 8192, 8192, false, 130190, 1, 4, 0},
      {"truncated away", 0, 8192, true, 154688, 2, 4, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    kv::KvStore store;
    fault::FaultInjector fi(1);
    store.attach_fault(&fi);
    kv::RemoteKv remote(store);
    Kvfs fs(remote, KvfsOptions{&fi, nullptr});
    const Ino ino = fs.create(kRootIno, "f", 0644).value;
    const std::vector<std::byte> old(c.small_size ? c.small_size : 16384,
                                     std::byte{1});
    ASSERT_TRUE(fs.write(ino, 0, old).ok());
    if (c.truncated_elsewhere) {
      Kvfs other(remote);
      ASSERT_TRUE(other.truncate(ino, 8192).ok());
    }
    // From here on: every batch reaches the crash point (which never
    // fires), and every value mutation draws at a probability only an
    // exact-zero draw meets, so the draws count the ops.
    constexpr std::string_view kBefore = "kvfs.write/crash_before_commit";
    fi.arm_crash(kBefore, ~std::uint64_t{0});
    fi.arm(kv::kFaultKvBitRot, std::numeric_limits<double>::denorm_min());
    fi.arm(kv::kFaultKvTornWrite, std::numeric_limits<double>::denorm_min());
    const auto w = fs.write(ino, c.offset, std::vector<std::byte>(8192,
                                                                 std::byte{2}));
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.cost.ns, c.cost_ns);
    EXPECT_EQ(fi.crash_arrivals(kBefore), c.batches);
    EXPECT_EQ(fi.draws(kv::kFaultKvBitRot), c.values);
    EXPECT_EQ(fi.draws(kv::kFaultKvTornWrite), c.subs);
    std::vector<std::byte> back(8192);
    ASSERT_TRUE(fs.read(ino, c.offset, back).ok());
    EXPECT_EQ(back, std::vector<std::byte>(8192, std::byte{2}));
  }
}

// ------------------------------------------------------------ lazy mtime
//
// A warm overwrite that does not grow the file bumps mtime in the cached
// attr only. A same-mount getattr sees it at once; the attr KV catches up
// in any batch that puts the attr anyway, in fsync, at the end of a cache
// flush pass, and never loses a dirty mtime for space.

Attr stored_attr(const kv::KvStore& store, Ino ino) {
  return decode_attr(*store.get(attr_key(ino)));
}

struct LazyMtime : KvfsFixture {
  Ino big_file(const std::string& name) {
    const Ino ino = fs.create(kRootIno, name, 0644).value;
    EXPECT_TRUE(fs.write(ino, 0, bytes(16384, ino)).ok());
    return ino;
  }
  std::uint64_t overwrite(Ino ino, std::uint64_t seed) {
    EXPECT_TRUE(fs.write(ino, 0, bytes(8192, seed)).ok());
    return fs.getattr(ino).value.mtime;
  }
};

TEST_F(LazyMtime, SameMountGetattrSeesEachOverwrite) {
  const Ino ino = big_file("f");
  const Attr durable = stored_attr(store, ino);
  std::uint64_t prev = durable.mtime;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::uint64_t m = overwrite(ino, i);
    EXPECT_GT(m, prev);
    prev = m;
    // Only the block changed in the store, and a fresh mount still reads
    // the durable attr.
    EXPECT_TRUE(store.get(attr_key(ino)) == encode_attr(durable));
    Kvfs fresh(remote);
    EXPECT_EQ(fresh.getattr(ino).value.mtime, durable.mtime);
  }
  EXPECT_EQ(fs.getattr(ino).value.size, 16384u);
}

TEST_F(LazyMtime, FsyncMakesItDurableInOneRoundTrip) {
  const Ino ino = big_file("f");
  const Attr durable = stored_attr(store, ino);
  const std::uint64_t m = overwrite(ino, 1);
  Attr now = durable;
  now.mtime = m;
  // The barrier round trip carries the attr, guarded equal to the durable
  // one.
  kv::Batch put;
  put.expect(put.put(attr_key(ino), encode_attr(now)), encode_attr(durable));
  const auto f = fs.fsync(ino);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.cost.ns, kv::RemoteKv::batch_cost(put).ns);
  EXPECT_EQ(stored_attr(store, ino).mtime, m);
  Kvfs fresh(remote);
  EXPECT_EQ(fresh.getattr(ino).value.mtime, m);
  // Clean now: the next fsync is the bare barrier.
  EXPECT_EQ(fs.fsync(ino).cost.ns, kv::RemoteKv::op_cost(false, 0).ns);
  EXPECT_EQ(fs.sync_mtime(ino).cost.ns, 0);
}

TEST_F(LazyMtime, GrowingWriteAndTruncatePersistIt) {
  const Ino ino = big_file("f");
  const std::uint64_t lazy = overwrite(ino, 1);
  ASSERT_NE(stored_attr(store, ino).mtime, lazy);
  ASSERT_TRUE(fs.write(ino, 16384, bytes(100, 2)).ok());  // grows
  const Attr grown = fs.getattr(ino).value;
  EXPECT_GT(grown.mtime, lazy);
  EXPECT_TRUE(store.get(attr_key(ino)) == encode_attr(grown));

  ASSERT_NE(stored_attr(store, ino).mtime, overwrite(ino, 3));
  ASSERT_TRUE(fs.truncate(ino, 8192).ok());
  EXPECT_TRUE(store.get(attr_key(ino)) == encode_attr(fs.getattr(ino).value));

  // Any other attr batch (here a hard link's count) carries it too.
  ASSERT_NE(stored_attr(store, ino).mtime, overwrite(ino, 4));
  ASSERT_TRUE(fs.link(ino, kRootIno, "g").ok());
  EXPECT_TRUE(store.get(attr_key(ino)) == encode_attr(fs.getattr(ino).value));
}

/// More files than the attr cache holds, each overwritten warm: every
/// mtime a same-mount getattr saw survives, a bounded share stays lazy
/// (the rest carried their attr), and fsync makes every one durable.
TEST_F(LazyMtime, MoreFilesThanTheCacheNeverLoseOne) {
  constexpr int kFiles = 9000;  // > Kvfs::kCacheEntries (8192)
  std::vector<std::pair<Ino, std::uint64_t>> seen;
  for (int i = 0; i < kFiles; ++i) {
    const Ino ino = big_file("f" + std::to_string(i));
    seen.emplace_back(ino, overwrite(ino, i));
  }
  int dirty = 0;
  for (const auto& [ino, m] : seen) {
    ASSERT_EQ(fs.getattr(ino).value.mtime, m) << "ino " << ino;
    dirty += stored_attr(store, ino).mtime != m;
  }
  EXPECT_GT(dirty, 0);
  EXPECT_LE(dirty, 8192 / 2);
  for (const auto& [ino, m] : seen) ASSERT_TRUE(fs.fsync(ino).ok());
  Kvfs fresh(remote);
  for (const auto& [ino, m] : seen)
    ASSERT_EQ(fresh.getattr(ino).value.mtime, m) << "ino " << ino;
}

/// A DPU restart may roll mtime back to its durable value; size and data
/// never roll back.
TEST(LazyMtimeRestart, RestartKeepsSizeAndData) {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.with_dfs = false;
  o.cache_geo = {64, 8};
  core::DpcSystem sys(o);
  const auto f = sys.create(kRootIno, "f");
  ASSERT_TRUE(f.ok());
  std::vector<std::byte> data(64 * 1024, std::byte{7});
  ASSERT_TRUE(sys.write(f.ino, 0, data, /*direct=*/true).ok());
  Attr before;
  ASSERT_TRUE(sys.getattr(f.ino, &before).ok());
  const std::vector<std::byte> mid(8192, std::byte{9});
  ASSERT_TRUE(sys.write(f.ino, 8192, mid, /*direct=*/true).ok());
  std::copy(mid.begin(), mid.end(), data.begin() + 8192);
  Attr lazy;
  ASSERT_TRUE(sys.getattr(f.ino, &lazy).ok());
  ASSERT_GT(lazy.mtime, before.mtime);

  sys.restart_dpu();
  Attr after;
  ASSERT_TRUE(sys.getattr(f.ino, &after).ok());
  EXPECT_EQ(after.size, data.size());
  EXPECT_GE(after.mtime, before.mtime);
  EXPECT_LE(after.mtime, lazy.mtime);
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(sys.read(f.ino, 0, back, /*direct=*/true).ok());
  EXPECT_EQ(back, data);
}

/// A crash on either side of fsync's attr put leaves a whole attr: after
/// the restart the size and data are intact, fsck needs no repair, and
/// mtime is the durable one or the fsynced one.
TEST(LazyMtimeRestart, CrashAroundTheWriteBackLeavesAWholeAttr) {
  for (const char* site :
       {"kvfs.mtime/crash_before_commit", "kvfs.mtime/crash_after_commit"}) {
    SCOPED_TRACE(site);
    fault::FaultInjector fi(1);
    core::DpcOptions o;
    o.queues = 1;
    o.queue_depth = 8;
    o.with_dfs = false;
    o.cache_geo = {64, 8};
    o.fault = &fi;
    core::DpcSystem sys(o);
    const Ino ino = sys.create(kRootIno, "f").ino;
    std::vector<std::byte> data(32768, std::byte{1});
    ASSERT_TRUE(sys.write(ino, 0, data, true).ok());
    const Attr durable = stored_attr(sys.kv_store(), ino);
    const std::vector<std::byte> mid(8192, std::byte{2});
    ASSERT_TRUE(sys.write(ino, 8192, mid, true).ok());
    std::copy(mid.begin(), mid.end(), data.begin() + 8192);
    Attr lazy;
    ASSERT_TRUE(sys.getattr(ino, &lazy).ok());

    fi.arm_crash(site);
    (void)sys.fsync(ino);
    ASSERT_TRUE(fi.crashed());
    fi.disarm_crash(site);
    const auto rep = sys.restart_dpu();
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.fs.fsck.repairs, 0u);
    Attr after;
    ASSERT_TRUE(sys.getattr(ino, &after).ok());
    EXPECT_EQ(after.size, data.size());
    EXPECT_TRUE(after.mtime == durable.mtime || after.mtime == lazy.mtime);
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(sys.read(ino, 0, back, true).ok());
    EXPECT_EQ(back, data);
  }
}

/// The cache flusher drains 4 KiB pages into a file's blocks: each is a
/// warm overwrite, and the end of the pass makes the file's mtime durable
/// with one attr put however many pages it wrote.
TEST(LazyMtimeFlush, FlushPassMakesTheMtimeDurable) {
  core::DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.with_dfs = false;
  o.cache_geo = {64, 8};
  core::DpcSystem sys(o);
  const auto f = sys.create(kRootIno, "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(sys.write(f.ino, 0, std::vector<std::byte>(65536, std::byte{1}),
                        /*direct=*/true)
                  .ok());
  const Attr durable = stored_attr(sys.kv_store(), f.ino);
  ASSERT_TRUE(sys.write(f.ino, 0, std::vector<std::byte>(16384, std::byte{2}),
                        /*direct=*/false)
                  .ok());
  const auto pass = sys.cache_control()->flush_pass();
  ASSERT_EQ(pass.pages, 4);
  Attr seen;
  ASSERT_TRUE(sys.getattr(f.ino, &seen).ok());
  EXPECT_GT(seen.mtime, durable.mtime);
  EXPECT_EQ(stored_attr(sys.kv_store(), f.ino).mtime, seen.mtime);
  EXPECT_EQ(seen.size, 65536u);
}

}  // namespace
}  // namespace dpc::kvfs
