#include "hostfs/ext4like.hpp"

#include <gtest/gtest.h>

#include <cerrno>

#include "sim/rng.hpp"

namespace dpc::hostfs {
namespace {

struct HostfsFixture : ::testing::Test {
  HostfsFixture() : fs(disk, opts()) {}

  static Ext4likeOptions opts() {
    Ext4likeOptions o;
    o.total_blocks = 1 << 16;  // 256 MB device keeps tests snappy
    o.page_cache_pages = 512;
    return o;
  }

  std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<std::byte> v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
    return v;
  }

  ssd::SsdModel disk;
  Ext4like fs;
};

TEST_F(HostfsFixture, RootDirectoryExists) {
  const auto st = fs.getattr(kRootIno);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value.type, FileType::kDirectory);
}

TEST_F(HostfsFixture, CreateLookupStat) {
  const auto c = fs.create(kRootIno, "hello", 0644);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.cost.total.ns, 0);
  EXPECT_GT(c.cost.dev_writes, 0u);  // journal + inode + dirent
  EXPECT_EQ(fs.lookup(kRootIno, "hello").value, c.value);
  EXPECT_EQ(fs.lookup(kRootIno, "nope").err, ENOENT);
  const auto st = fs.getattr(c.value);
  EXPECT_EQ(st.value.type, FileType::kRegular);
  EXPECT_EQ(st.value.size, 0u);
}

TEST_F(HostfsFixture, DuplicateCreateFails) {
  ASSERT_TRUE(fs.create(kRootIno, "x", 0644).ok());
  EXPECT_EQ(fs.create(kRootIno, "x", 0644).err, EEXIST);
}

TEST_F(HostfsFixture, WriteReadDirect) {
  const auto ino = fs.create(kRootIno, "f", 0644).value;
  const auto data = bytes(10000, 1);
  const auto w = fs.write(ino, 0, data, /*direct=*/true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value, 10000u);
  EXPECT_GT(w.cost.dev_writes, 2u);  // 3 data blocks + metadata
  std::vector<std::byte> out(10000);
  const auto r = fs.read(ino, 0, out, /*direct=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs.getattr(ino).value.size, 10000u);
}

TEST_F(HostfsFixture, BufferedWritesAbsorbedByPageCache) {
  const auto ino = fs.create(kRootIno, "buf", 0644).value;
  const auto data = bytes(4096, 2);
  const auto w1 = fs.write(ino, 0, data, /*direct=*/false);
  ASSERT_TRUE(w1.ok());
  // A buffered 4K write costs metadata updates but no data-block write.
  const auto direct_cost =
      fs.write(ino, 8192, data, /*direct=*/true).cost.total;
  const auto buffered_cost =
      fs.write(ino, 4096, data, /*direct=*/false).cost.total;
  EXPECT_LT(buffered_cost.ns, direct_cost.ns);
  // Buffered data readable back through the cache.
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(fs.read(ino, 0, out, /*direct=*/false).ok());
  EXPECT_EQ(out, data);
}

TEST_F(HostfsFixture, FsyncPersistsBufferedData) {
  const auto ino = fs.create(kRootIno, "durable", 0644).value;
  const auto data = bytes(8192, 3);
  ASSERT_TRUE(fs.write(ino, 0, data, /*direct=*/false).ok());
  ASSERT_TRUE(fs.fsync(ino).ok());
  // Direct read bypasses the cache: data must be on the device now.
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(fs.read(ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, data);
}

TEST_F(HostfsFixture, HolesReadZero) {
  const auto ino = fs.create(kRootIno, "holey", 0644).value;
  ASSERT_TRUE(fs.write(ino, 1 << 20, bytes(10, 4), true).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(fs.read(ino, 4096, out, true).ok());
  for (auto b : out) ASSERT_EQ(b, std::byte{0});
}

TEST_F(HostfsFixture, IndirectAndDoubleIndirectMapping) {
  const auto ino = fs.create(kRootIno, "large", 0644).value;
  // Past 12 direct blocks (48 KB) and past the single-indirect range
  // (48 KB + 2 MB).
  const auto probe = [&](std::uint64_t off, std::uint64_t seed) {
    const auto data = bytes(4096, seed);
    ASSERT_TRUE(fs.write(ino, off, data, true).ok());
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(fs.read(ino, off, out, true).ok());
    EXPECT_EQ(out, data) << "offset " << off;
  };
  probe(0, 10);
  probe(11 * 4096, 11);                      // last direct
  probe(12 * 4096, 12);                      // first indirect
  probe((12 + 511) * 4096, 13);              // last indirect
  probe((12 + 512) * 4096, 14);              // first double-indirect
  probe((12 + 512 + 512 * 3 + 7) * 4096, 15);  // deep double-indirect
}

TEST_F(HostfsFixture, MkdirReaddirUnlinkRmdir) {
  const auto d = fs.mkdir(kRootIno, "dir", 0755).value;
  ASSERT_TRUE(fs.create(d, "a", 0644).ok());
  ASSERT_TRUE(fs.create(d, "b", 0644).ok());
  const auto list = fs.readdir(d);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value.size(), 2u);
  EXPECT_EQ(fs.rmdir(kRootIno, "dir").err, ENOTEMPTY);
  ASSERT_TRUE(fs.unlink(d, "a").ok());
  ASSERT_TRUE(fs.unlink(d, "b").ok());
  EXPECT_TRUE(fs.rmdir(kRootIno, "dir").ok());
  EXPECT_EQ(fs.lookup(kRootIno, "dir").err, ENOENT);
}

TEST_F(HostfsFixture, UnlinkFreesBlocks) {
  const auto free0 = fs.free_blocks();
  const auto ino = fs.create(kRootIno, "fat", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(1 << 20, 5), true).ok());
  EXPECT_LT(fs.free_blocks(), free0);
  ASSERT_TRUE(fs.unlink(kRootIno, "fat").ok());
  // Directory block stays allocated; data + indirect blocks come back.
  EXPECT_GE(fs.free_blocks() + 2, free0);
}

TEST_F(HostfsFixture, RenameWithinAndAcrossDirs) {
  const auto d1 = fs.mkdir(kRootIno, "d1", 0755).value;
  const auto d2 = fs.mkdir(kRootIno, "d2", 0755).value;
  const auto f = fs.create(d1, "f", 0644).value;
  ASSERT_TRUE(fs.rename(d1, "f", d1, "g").ok());
  EXPECT_EQ(fs.lookup(d1, "g").value, f);
  ASSERT_TRUE(fs.rename(d1, "g", d2, "h").ok());
  EXPECT_EQ(fs.lookup(d1, "g").err, ENOENT);
  EXPECT_EQ(fs.lookup(d2, "h").value, f);
  // Replace existing destination.
  const auto victim = fs.create(d2, "i", 0644).value;
  ASSERT_TRUE(fs.rename(d2, "h", d2, "i").ok());
  EXPECT_EQ(fs.lookup(d2, "i").value, f);
  EXPECT_EQ(fs.getattr(victim).err, ENOENT);
}

TEST_F(HostfsFixture, ResolvePaths) {
  const auto a = fs.mkdir(kRootIno, "a", 0755).value;
  const auto f = fs.create(a, "f", 0644).value;
  EXPECT_EQ(fs.resolve("/a/f").value, f);
  EXPECT_EQ(fs.resolve("/").value, kRootIno);
  EXPECT_EQ(fs.resolve("/a/missing").err, ENOENT);
}

TEST_F(HostfsFixture, TruncateToZeroFreesData) {
  const auto ino = fs.create(kRootIno, "t", 0644).value;
  ASSERT_TRUE(fs.write(ino, 0, bytes(1 << 18, 6), true).ok());
  const auto free_before = fs.free_blocks();
  ASSERT_TRUE(fs.truncate(ino, 0).ok());
  EXPECT_GT(fs.free_blocks(), free_before);
  EXPECT_EQ(fs.getattr(ino).value.size, 0u);
}

TEST_F(HostfsFixture, CostAccountingSeparatesReadAndWrite) {
  const auto ino = fs.create(kRootIno, "cost", 0644).value;
  const auto data = bytes(4096, 7);
  const auto w = fs.write(ino, 0, data, true);
  EXPECT_GT(w.cost.dev_writes, 0u);
  const auto r = fs.read(ino, 0,
                         std::span<std::byte>(const_cast<std::byte*>(
                                                  data.data()),
                                              data.size()),
                         true);
  EXPECT_GT(r.cost.dev_reads, 0u);
  EXPECT_EQ(r.cost.dev_writes, 0u);
}

TEST_F(HostfsFixture, ReaddirSkipsHolesFromUnlink) {
  const auto d = fs.mkdir(kRootIno, "holes", 0755).value;
  ASSERT_TRUE(fs.create(d, "a", 0644).ok());
  ASSERT_TRUE(fs.create(d, "b", 0644).ok());
  ASSERT_TRUE(fs.create(d, "c", 0644).ok());
  ASSERT_TRUE(fs.unlink(d, "b").ok());
  const auto list = fs.readdir(d).value;
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "a");
  EXPECT_EQ(list[1].name, "c");
  // The freed dirent slot is reused.
  ASSERT_TRUE(fs.create(d, "d", 0644).ok());
  EXPECT_EQ(fs.readdir(d).value.size(), 3u);
}

TEST_F(HostfsFixture, WriteToDirectoryRejected) {
  const auto d = fs.mkdir(kRootIno, "nd", 0755).value;
  std::vector<std::byte> buf(16);
  EXPECT_EQ(fs.write(d, 0, buf, true).err, EISDIR);
  EXPECT_EQ(fs.read(d, 0, buf, true).err, EISDIR);
}

/// Journal-lite WAL records survive an unclean unmount: a second mount on
/// the same device scans the journal region, CRC32C-validates each record,
/// and rejects torn ones.
TEST(HostfsJournal, MountScanCountsSurvivorsAndRejectsCorruptRecords) {
  ssd::SsdModel disk;
  const auto o = HostfsFixture::opts();
  {
    Ext4like fs1(disk, o);
    EXPECT_EQ(fs1.journal_valid_on_mount(), 0u) << "fresh disk has no WAL";
    ASSERT_TRUE(fs1.create(kRootIno, "a", 0644).ok());
    ASSERT_TRUE(fs1.mkdir(kRootIno, "d", 0755).ok());
    ASSERT_TRUE(fs1.rename(kRootIno, "a", kRootIno, "b").ok());
  }  // torn down without journal truncation — models a host crash

  Ext4like fs2(disk, o);
  const std::uint32_t survivors = fs2.journal_valid_on_mount();
  EXPECT_GE(survivors, 3u) << "every metadata mutation logs one record";

  // Flip one byte inside a record's sequence field: the CRC must reject
  // exactly that record on the next mount. Records are located by their
  // on-disk magic so the test stays independent of private layout math.
  std::vector<std::byte> block(kBlockSize);
  bool corrupted = false;
  for (std::uint64_t lba = 1; lba < o.total_blocks && !corrupted; ++lba) {
    disk.read_block(lba, block);
    if (block[0] == std::byte{'D'} && block[1] == std::byte{'P'} &&
        block[2] == std::byte{'C'} && block[3] == std::byte{'J'}) {
      block[8] ^= std::byte{0x40};
      disk.write_block(lba, block);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no WAL record found on the raw device";
  Ext4like fs3(disk, o);
  EXPECT_EQ(fs3.journal_valid_on_mount(), survivors - 1);
}

}  // namespace
}  // namespace dpc::hostfs
