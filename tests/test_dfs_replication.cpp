// Replication mode and the full-stripe write fast path —
// the DFS features beyond the Fig. 9 core.
#include <gtest/gtest.h>

#include "dfs/client.hpp"
#include "sim/rng.hpp"

namespace dpc::dfs {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

struct ReplFixture : ::testing::Test {
  ReplFixture() : mds(4), ds(8) {}
  MdsCluster mds;
  DataServers ds;

  ClientConfig repl_cfg() {
    auto cfg = ClientConfig::optimized();
    cfg.use_replication = true;
    return cfg;
  }
};

TEST_F(ReplFixture, ReplicatedRoundTrip) {
  DfsClient client(1, mds, ds, repl_cfg());
  const auto c = client.create("/r", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(32 * 1024, 1);
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(ReplFixture, ThreeCopiesExist) {
  DfsClient client(1, mds, ds, repl_cfg());
  const auto c = client.create("/copies", 1 << 20);
  ASSERT_TRUE(client.write(c.ino, 0, bytes(8192, 2)).ok());
  for (std::uint32_t r = 0; r < 3; ++r)
    EXPECT_TRUE(ds.has_shard(c.ino, 0, r)) << "replica " << r;
  EXPECT_FALSE(ds.has_shard(c.ino, 0, 3));
}

TEST_F(ReplFixture, SurvivesTwoLostReplicas) {
  DfsClient client(1, mds, ds, repl_cfg());
  const auto c = client.create("/tolerant", 1 << 20);
  const auto data = bytes(8192, 3);
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 0));
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 1));
  std::vector<std::byte> out(data.size());
  const auto r = client.read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  // All three gone → unrecoverable.
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 2));
  EXPECT_EQ(client.read(c.ino, 0, out).err, EIO);
}

TEST_F(ReplFixture, CopyWriteLostToDownServerIsNotAHole) {
  // The primary copy's server misses the write: once it is back, that copy
  // must read as lost (the next replica serves), not as a hole of zeros.
  DfsClient client(1, mds, ds, repl_cfg());
  const auto c = client.create("/missed", 1 << 20);
  const auto data = bytes(8192, 12);
  const int victim = ds.server_of(c.ino, 0, 0);
  ds.fail_server(victim);
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());
  ds.heal_server(victim);
  EXPECT_FALSE(ds.has_shard(c.ino, 0, 0));
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
  // A partial write's read-merge must not merge into those zeros either.
  const auto patch = bytes(100, 13);
  ASSERT_TRUE(client.write(c.ino, 100, patch).ok());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  auto want = data;
  std::copy(patch.begin(), patch.end(), want.begin() + 100);
  EXPECT_EQ(out, want);
}

TEST_F(ReplFixture, UnalignedReplicatedWrite) {
  DfsClient client(1, mds, ds, repl_cfg());
  const auto c = client.create("/unaligned", 1 << 20);
  ASSERT_TRUE(client.write(c.ino, 0, bytes(16 * 1024, 4)).ok());
  const auto patch = bytes(100, 5);
  ASSERT_TRUE(client.write(c.ino, 5000, patch).ok());
  std::vector<std::byte> out(100);
  ASSERT_TRUE(client.read(c.ino, 5000, out).ok());
  EXPECT_EQ(out, patch);
  // Replicas stay identical after the read-merge-write.
  std::vector<std::byte> a(8192), b(8192);
  OpProfile prof;
  ds.read_shard(c.ino, 0, 0, a, prof);
  ds.read_shard(c.ino, 0, 2, b, prof);
  EXPECT_EQ(a, b);
}

TEST_F(ReplFixture, ReplicationWriteAmplificationVsEc) {
  // Ablation: 8K write costs r shard-writes under replication vs the
  // 6-op delta-parity RMW under RS(4,2).
  DfsClient repl(1, mds, ds, repl_cfg());
  DfsClient ecc(2, mds, ds, ClientConfig::optimized());
  const auto cr = repl.create("/wa-r", 1 << 20);
  const auto ce = ecc.create("/wa-e", 1 << 20);
  const auto data = bytes(8192, 6);
  ASSERT_TRUE(repl.write(cr.ino, 0, data).ok());
  ASSERT_TRUE(ecc.write(ce.ino, 0, data).ok());
  const auto wr = repl.write(cr.ino, 0, data);
  const auto we = ecc.write(ce.ino, 0, data);
  EXPECT_EQ(wr.prof.ds_ops, 3u);  // three copies
  EXPECT_EQ(we.prof.ds_ops, 6u);  // RMW: rd+wr data, 2x (rd+wr) parity
}

TEST_F(ReplFixture, FullStripeWriteSkipsRmwReads) {
  DfsClient client(1, mds, ds, ClientConfig::optimized());
  const auto c = client.create("/stripe", 1 << 20);
  // Aligned full stripe (4 x 8K): k+m = 6 pure writes, no reads.
  const auto full = client.write(c.ino, 0, bytes(32 * 1024, 7));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.prof.ds_ops, 6u);
  // Sub-stripe write: RMW (1+1 data + 2x(1+1) parity = 6 ops for 1 shard).
  const auto sub = client.write(c.ino, 0, bytes(8192, 8));
  EXPECT_EQ(sub.prof.ds_ops, 6u);
  // …but the full-stripe one moved no read traffic; verify parity stays
  // consistent either way via a degraded read.
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 2));
  std::vector<std::byte> out(32 * 1024);
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
}

TEST_F(ReplFixture, FullStripeContentCorrect) {
  DfsClient client(1, mds, ds, ClientConfig::optimized());
  const auto c = client.create("/stripes", 8 << 20);
  const auto data = bytes(128 * 1024, 9);  // 4 full stripes
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
  // Mixed: unaligned span covering partial + full + partial stripes.
  const auto mixed = bytes(96 * 1024, 10);
  ASSERT_TRUE(client.write(c.ino, 16 * 1024, mixed).ok());
  std::vector<std::byte> out2(mixed.size());
  ASSERT_TRUE(client.read(c.ino, 16 * 1024, out2).ok());
  EXPECT_EQ(out2, mixed);
}

TEST_F(ReplFixture, NfsClientInteroperatesWithReplicatedFiles) {
  DfsClient writer(1, mds, ds, repl_cfg());
  DfsClient nfs(2, mds, ds, ClientConfig::standard_nfs());
  const auto c = writer.create("/shared-repl", 1 << 20);
  const auto data = bytes(8192, 14);
  ASSERT_TRUE(writer.write(c.ino, 0, data).ok());
  // The server-side proxy path reads through striped_read, which for a
  // replicated file must hit the primary copies.
  std::vector<std::byte> out(data.size());
  const auto r = nfs.read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace dpc::dfs
