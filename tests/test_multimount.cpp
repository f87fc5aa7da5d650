// Several DPC mounts (application servers) sharing one disaggregated KV
// store — the paper's diskless deployment. Namespace and data written by
// one mount must be visible to the others, and allocation must never
// collide across mounts.
#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <thread>

#include "core/dpc_system.hpp"
#include "kvfs/fsck.hpp"
#include "sim/rng.hpp"

namespace dpc::core {
namespace {

DpcOptions mount_opts(kv::KvStore* store) {
  DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 64 * 1024;
  o.with_dfs = false;
  o.cache_geo = {64, 8};
  o.shared_store = store;
  // Cross-mount visibility requires bypassing the per-mount caches for the
  // checks below; tests drop caches explicitly where needed.
  return o;
}

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

TEST(MultiMount, NamespaceVisibleAcrossMounts) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));

  const auto dir = a.mkdir(kvfs::kRootIno, "shared");
  ASSERT_TRUE(dir.ok());
  const auto f = a.create(dir.ino, "hello");
  ASSERT_TRUE(f.ok());
  const auto data = bytes(8192, 1);
  ASSERT_TRUE(a.write(f.ino, 0, data, /*direct=*/true).ok());

  // Mount b sees the namespace and the bytes.
  const auto found = b.resolve("/shared/hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.ino, f.ino);
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(b.read(found.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, data);
}

TEST(MultiMount, AllocationNeverCollides) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));

  std::vector<std::uint64_t> inos;
  for (int i = 0; i < 20; ++i) {
    const auto fa = a.create(kvfs::kRootIno, "a" + std::to_string(i));
    const auto fb = b.create(kvfs::kRootIno, "b" + std::to_string(i));
    ASSERT_TRUE(fa.ok());
    ASSERT_TRUE(fb.ok());
    inos.push_back(fa.ino);
    inos.push_back(fb.ino);
  }
  std::sort(inos.begin(), inos.end());
  EXPECT_EQ(std::adjacent_find(inos.begin(), inos.end()), inos.end())
      << "duplicate inode numbers across mounts";
}

/// Two mounts race an unlink of one hard-linked name, then a rename of one
/// source onto one target, both with every name and attr cached. Each op's
/// batch guards the name it removes, so exactly one of each pair wins, the
/// other gets ENOENT, and the link count drops once.
TEST(MultiMount, GuardedUnlinkAndRenameHaveOneWinner) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  const auto f = a.create(kvfs::kRootIno, "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(a.link(f.ino, kvfs::kRootIno, "g").ok());
  const auto src = a.create(kvfs::kRootIno, "src");
  const auto dst = a.create(kvfs::kRootIno, "dst");
  ASSERT_TRUE(src.ok() && dst.ok());
  for (DpcSystem* m : {&a, &b}) {
    for (const char* name : {"g", "src", "dst"})
      ASSERT_TRUE(m->lookup(kvfs::kRootIno, name).ok());
    for (const auto ino : {f.ino, src.ino, dst.ino, kvfs::kRootIno})
      ASSERT_TRUE(m->getattr(ino).ok());
  }
  const auto race = [&](const std::function<Io(DpcSystem&)>& op) {
    Io ra, rb;
    std::thread ta([&] { ra = op(a); });
    std::thread tb([&] { rb = op(b); });
    ta.join();
    tb.join();
    EXPECT_NE(ra.ok(), rb.ok()) << "errs " << ra.err << " / " << rb.err;
    EXPECT_EQ((ra.ok() ? rb : ra).err, ENOENT);
  };

  race([](DpcSystem& m) { return m.unlink(kvfs::kRootIno, "g"); });
  const auto attr = kvfs::decode_attr(*store.get(kvfs::attr_key(f.ino)));
  EXPECT_EQ(attr.nlink, 1u);
  EXPECT_FALSE(store.contains(kvfs::inode_key(kvfs::kRootIno, "g")));

  race([](DpcSystem& m) {
    return m.rename(kvfs::kRootIno, "src", kvfs::kRootIno, "dst");
  });
  const auto moved = store.get(kvfs::inode_key(kvfs::kRootIno, "dst"));
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(kvfs::decode_ino(*moved), src.ino);
  EXPECT_FALSE(store.contains(kvfs::inode_key(kvfs::kRootIno, "src")));
  EXPECT_FALSE(store.contains(kvfs::attr_key(dst.ino)));
  EXPECT_TRUE(kvfs::fsck(store).clean());
}

TEST(MultiMount, ConcurrentMountsStayConsistent) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  std::atomic<int> errors{0};
  auto churn = [&errors](DpcSystem& sys, int id) {
    for (int i = 0; i < 40; ++i) {
      const auto name = "m" + std::to_string(id) + "-" + std::to_string(i);
      const auto c = sys.create(kvfs::kRootIno, name);
      if (!c.ok()) {
        ++errors;
        continue;
      }
      if (!sys.write(c.ino, 0, bytes(3 * 8192, static_cast<std::uint64_t>(i)),
                     true)
               .ok())
        ++errors;
      if (i % 3 == 0 && !sys.unlink(kvfs::kRootIno, name).ok()) ++errors;
    }
  };
  std::thread ta([&] { churn(a, 1); });
  std::thread tb([&] { churn(b, 2); });
  ta.join();
  tb.join();
  EXPECT_EQ(errors.load(), 0);

  // The shared keyspace is still structurally sound.
  const auto report = kvfs::fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(kvfs::to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
}

TEST(MultiMount, DirectWritesVisibleWithoutFsync) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  const auto f = a.create(kvfs::kRootIno, "direct");
  const auto v1 = bytes(4096, 10);
  const auto v2 = bytes(4096, 11);
  ASSERT_TRUE(a.write(f.ino, 0, v1, true).ok());
  std::vector<std::byte> out(4096);
  // b reads direct (its own cache is cold and not polluted).
  ASSERT_TRUE(b.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, v1);
  ASSERT_TRUE(a.write(f.ino, 0, v2, true).ok());
  b.kvfs().drop_caches();  // attribute freshness across mounts
  ASSERT_TRUE(b.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, v2);
}

/// B caches a file's index with a hole in it, then A fills the hole. B's
/// DIRECT read re-reads the page on the cached hole and returns A's bytes,
/// with no drop_caches(): the extent cache adds no staleness.
TEST(MultiMount, FilledHoleVisibleThroughCachedIndex) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  const auto f = a.create(kvfs::kRootIno, "holey");
  ASSERT_TRUE(a.write(f.ino, 0, bytes(8192, 20), true).ok());
  ASSERT_TRUE(a.write(f.ino, 2 * 8192, bytes(8192, 21), true).ok());
  std::vector<std::byte> out(3 * 8192);
  ASSERT_TRUE(b.read(f.ino, 0, out, true).ok());  // caches the hole

  const auto filled = bytes(8192, 22);
  ASSERT_TRUE(a.write(f.ino, 8192, filled, true).ok());
  std::vector<std::byte> mid(8192);
  ASSERT_TRUE(b.read(f.ino, 8192, mid, true).ok());
  EXPECT_EQ(mid, filled);
}

/// A truncates away and regrows a file B has cached, then rewrites one
/// block (a new block id). B's overwrite through its stale cached id must
/// not resurrect the erased block, and B's reads return A's bytes.
TEST(MultiMount, TruncateRegrowUnderCachedIndex) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  constexpr std::size_t kBlock = 8192;
  const auto f = a.create(kvfs::kRootIno, "regrow");
  ASSERT_TRUE(a.write(f.ino, 0, bytes(8 * kBlock, 30), true).ok());
  std::vector<std::byte> out(8 * kBlock);
  ASSERT_TRUE(b.read(f.ino, 0, out, true).ok());  // caches every id

  ASSERT_TRUE(a.truncate(f.ino, 0).ok());
  ASSERT_TRUE(a.truncate(f.ino, 8 * kBlock).ok());
  const auto a3 = bytes(kBlock, 31);
  ASSERT_TRUE(a.write(f.ino, 3 * kBlock, a3, true).ok());

  const auto b5 = bytes(kBlock, 32);
  ASSERT_TRUE(b.write(f.ino, 5 * kBlock, b5, true).ok());
  std::vector<std::byte> expect(8 * kBlock, std::byte{0});
  std::copy(a3.begin(), a3.end(), expect.begin() + 3 * kBlock);
  std::copy(b5.begin(), b5.end(), expect.begin() + 5 * kBlock);
  ASSERT_TRUE(b.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, expect);
  ASSERT_TRUE(a.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, expect);

  const auto report = kvfs::fsck(store);
  EXPECT_TRUE(report.clean())
      << (report.issues.empty()
              ? ""
              : std::string(kvfs::to_string(report.issues[0].kind)) + ": " +
                    report.issues[0].detail);
}

/// A writes 64 KiB, B truncates the file to 0, then A writes 4 KiB at 0
/// through its stale cached attr (size 64 KiB). A's attr put is guarded
/// equal to the attr it last saw, so the write reloads B's and lands on
/// top of it: a fresh mount reads size 4 096 and A's bytes, not a
/// resurrected 64 KiB.
TEST(MultiMount, StaleCachedAttrNeverUndoesATruncate) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  const auto f = a.create(kvfs::kRootIno, "cut");
  ASSERT_TRUE(a.write(f.ino, 0, bytes(64 * 1024, 40), true).ok());
  ASSERT_TRUE(b.truncate(f.ino, 0).ok());
  const auto mine = bytes(4096, 41);
  ASSERT_TRUE(a.write(f.ino, 0, mine, true).ok());

  DpcSystem fresh(mount_opts(&store));
  kvfs::Attr attr;
  ASSERT_TRUE(fresh.getattr(f.ino, &attr).ok());
  EXPECT_EQ(attr.size, 4096u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(fresh.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, mine);
  EXPECT_TRUE(kvfs::fsck(store).clean());
}

/// Mount A caches a 64 KiB size; mount B truncates the file to 0. A's
/// truncate to 65 536 equals its stale cached size, yet must not return
/// success without sending anything: its attr put is guarded equal to the
/// attr A last saw, is refused, and the truncate reloads and lands.
TEST(MultiMount, SameSizeTruncateOnAStaleCachedAttrLands) {
  kv::KvStore store;
  DpcSystem a(mount_opts(&store));
  DpcSystem b(mount_opts(&store));
  const auto f = a.create(kvfs::kRootIno, "same");
  ASSERT_TRUE(a.write(f.ino, 0, bytes(64 * 1024, 42), true).ok());
  ASSERT_TRUE(b.truncate(f.ino, 0).ok());
  ASSERT_TRUE(a.truncate(f.ino, 65536).ok());

  DpcSystem fresh(mount_opts(&store));
  kvfs::Attr attr;
  ASSERT_TRUE(fresh.getattr(f.ino, &attr).ok());
  EXPECT_EQ(attr.size, 65536u);
  // B's cut stands: the regrown range reads as a hole.
  std::vector<std::byte> out(4096, std::byte{1});
  ASSERT_TRUE(fresh.read(f.ino, 0, out, true).ok());
  EXPECT_EQ(out, std::vector<std::byte>(4096));
  EXPECT_TRUE(kvfs::fsck(store).clean());
}

}  // namespace
}  // namespace dpc::core
