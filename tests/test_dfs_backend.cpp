#include "dfs/backend.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "fault/injector.hpp"
#include "sim/rng.hpp"

namespace dpc::dfs {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

TEST(Mds, NamespaceBasics) {
  Mds mds;
  EXPECT_FALSE(mds.lookup("/f").has_value());
  EXPECT_TRUE(mds.add_name("/f", 1));
  EXPECT_FALSE(mds.add_name("/f", 2));  // duplicate
  EXPECT_EQ(mds.lookup("/f"), 1u);
  EXPECT_EQ(mds.remove_name("/f"), 1u);
  EXPECT_FALSE(mds.lookup("/f").has_value());
  EXPECT_FALSE(mds.remove_name("/f").has_value());
}

TEST(Mds, FileRecordBasics) {
  Mds mds;
  EXPECT_FALSE(mds.stat(1).has_value());
  EXPECT_EQ(mds.add_file(1, 100).size, 100u);
  const auto meta = mds.stat(1);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->size, 100u);
  EXPECT_TRUE(mds.update_size(1, 200));
  EXPECT_EQ(mds.stat(1)->size, 200u);
  EXPECT_TRUE(mds.update_size(1, 50));  // accepted…
  EXPECT_EQ(mds.stat(1)->size, 200u);   // …but the size never shrinks
  mds.remove_file(1);
  EXPECT_FALSE(mds.stat(1).has_value());
  EXPECT_FALSE(mds.update_size(1, 300));
}

TEST(Mds, DelegationExclusivity) {
  Mds mds;
  EXPECT_EQ(mds.acquire_delegation(1, 10), Grant::kUnknownIno);
  mds.add_file(1, 0);
  EXPECT_EQ(mds.acquire_delegation(1, 10), Grant::kGranted);
  EXPECT_EQ(mds.acquire_delegation(1, 10), Grant::kGranted);  // holder again
  EXPECT_EQ(mds.acquire_delegation(1, 20), Grant::kBusy);  // another client
  EXPECT_EQ(mds.stat(1)->delegation, 10u);
  mds.remove_file(1);
  EXPECT_EQ(mds.acquire_delegation(1, 20), Grant::kUnknownIno);
}

TEST(MdsCluster, ForwardingChargedWhenNotDirect) {
  MdsCluster cluster(4);
  // Find a path whose home differs from entry MDS 0.
  std::string path = "/a";
  while (cluster.home_of(path) == 0) path += "x";

  OpProfile indirect;
  cluster.create(path, 0, /*entry=*/0, /*direct=*/false, indirect);
  EXPECT_EQ(indirect.forwards, 1u);

  OpProfile direct;
  cluster.lookup(path, 0, /*direct=*/true, direct);
  EXPECT_EQ(direct.forwards, 0u);
  EXPECT_LT(direct.mds.ns, indirect.mds.ns);
  EXPECT_LT(direct.net.ns, indirect.net.ns);
}

TEST(MdsCluster, NoForwardWhenEntryIsHome) {
  MdsCluster cluster(4);
  std::string path = "/b";
  while (cluster.home_of(path) != 2) path += "y";
  OpProfile prof;
  cluster.create(path, 0, /*entry=*/2, /*direct=*/false, prof);
  EXPECT_EQ(prof.forwards, 0u);
}

TEST(MdsCluster, StatFindsMetaAcrossServers) {
  MdsCluster cluster(4);
  OpProfile prof;
  const auto meta = cluster.create("/file", 4096, 0, false, prof);
  ASSERT_TRUE(meta.has_value());
  const auto found = cluster.stat(meta->ino, 1, true, prof);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size, 4096u);
  EXPECT_TRUE(cluster.find_meta(meta->ino).has_value());
  EXPECT_FALSE(cluster.find_meta(777).has_value());
}

/// A file whose path home differs from its ino home: the FileMeta lives on
/// the ino's home, so stat, update_size and acquire_delegation are each one
/// RPC to that MDS. A limp there stretches them; one on the path's home
/// (which holds only the name) does not.
TEST(MdsCluster, InoKeyedOpsGoToTheInoHomeOnly) {
  MdsCluster cluster(4);
  fault::FaultInjector fi(5);
  cluster.attach_fault(&fi);
  const Ino ino = 1;  // the first create's ino
  const int ino_home = cluster.home_of(ino);
  std::string path = "/split";
  while (cluster.home_of(path) == ino_home) path += "x";
  const int path_home = cluster.home_of(path);

  OpProfile created;
  const auto meta = cluster.create(path, 0, 0, /*direct=*/true, created);
  ASSERT_TRUE(meta.has_value());
  ASSERT_EQ(meta->ino, ino);

  // Each op's MDS service time, every op one RPC. The holder re-acquiring
  // its delegation is granted each round.
  constexpr ClientId kClient = 7;
  const auto mds_ns = [&] {
    OpProfile st;
    EXPECT_TRUE(cluster.stat(ino, 0, true, st).has_value());
    OpProfile up;
    EXPECT_TRUE(cluster.update_size(ino, 4096, 0, true, up));
    OpProfile dg;
    EXPECT_EQ(cluster.acquire_delegation(ino, kClient, 0, true, dg),
              Grant::kGranted);
    EXPECT_EQ(st.mds_ops, 1u);
    EXPECT_EQ(up.mds_ops, 1u);
    EXPECT_EQ(dg.mds_ops, 1u);
    return std::array<std::int64_t, 3>{st.mds.ns, up.mds.ns, dg.mds.ns};
  };
  const auto healthy = mds_ns();
  for (const std::int64_t ns : healthy) EXPECT_EQ(ns, sim::calib::kMdsOp.ns);

  fault::FaultInjector::SlowSpec limp;
  limp.multiplier = 10.0;
  limp.peer = path_home;
  fi.arm_slow(kFaultMdsSlow, limp);
  EXPECT_EQ(mds_ns(), healthy) << "a limp on the path's home stretched an "
                                  "ino-keyed op";

  limp.peer = ino_home;
  fi.arm_slow(kFaultMdsSlow, limp);
  for (const std::int64_t ns : mds_ns())
    EXPECT_EQ(ns, sim::calib::kMdsOp.ns * 10);
  fi.disarm_slow(kFaultMdsSlow);

  // create and remove each pay one internal hop to the other home.
  OpProfile removed;
  EXPECT_TRUE(cluster.remove(path, 0, true, removed));
  EXPECT_EQ(removed.net, created.net);
  EXPECT_EQ(removed.net, sim::calib::kNetHop * 3);
  EXPECT_FALSE(cluster.find_meta(ino).has_value());
  EXPECT_FALSE(cluster.lookup(path, 0, true, removed).has_value());
}

/// When a path and its ino share a home MDS, create and remove are each one
/// client round trip with no internal hop.
TEST(MdsCluster, CoLocatedHomesPayNoInternalHop) {
  MdsCluster cluster(4);
  const Ino ino = 1;  // the first create's ino
  std::string path = "/together";
  while (cluster.home_of(path) != cluster.home_of(ino)) path += "x";

  OpProfile created;
  const auto meta = cluster.create(path, 0, 0, /*direct=*/true, created);
  ASSERT_TRUE(meta.has_value());
  ASSERT_EQ(meta->ino, ino);
  EXPECT_EQ(created.mds_ops, 1u);
  EXPECT_EQ(created.net, sim::calib::kNetHop * 2);
  EXPECT_TRUE(cluster.find_meta(ino).has_value());

  OpProfile removed;
  EXPECT_TRUE(cluster.remove(path, 0, true, removed));
  EXPECT_EQ(removed.mds_ops, 1u);
  EXPECT_EQ(removed.net, sim::calib::kNetHop * 2);
  EXPECT_FALSE(cluster.find_meta(ino).has_value());
  OpProfile again;
  EXPECT_FALSE(cluster.remove(path, 0, true, again));
}

/// A delegation lives in its file's record, so remove drops it: the old
/// ino is unknown afterwards, and a file re-created at the same path is a
/// new ino that another client acquires freely.
TEST(MdsCluster, RemovedFileTakesItsDelegationWithIt) {
  MdsCluster cluster(4);
  OpProfile p;
  const auto first = cluster.create("/lease", 0, 0, true, p);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cluster.acquire_delegation(first->ino, 10, 0, true, p),
            Grant::kGranted);
  EXPECT_EQ(cluster.acquire_delegation(first->ino, 20, 0, true, p),
            Grant::kBusy);

  ASSERT_TRUE(cluster.remove("/lease", 0, true, p));
  EXPECT_EQ(cluster.acquire_delegation(first->ino, 20, 0, true, p),
            Grant::kUnknownIno);

  const auto second = cluster.create("/lease", 0, 0, true, p);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->ino, first->ino);
  EXPECT_EQ(second->delegation, 0u);
  EXPECT_EQ(cluster.acquire_delegation(second->ino, 20, 0, true, p),
            Grant::kGranted);
  EXPECT_EQ(cluster.stat(second->ino, 0, true, p)->delegation, 20u);
}

TEST(DataServers, ShardPlacementRotates) {
  DataServers ds(8);
  // Same stripe, different roles → different servers (rotation).
  const int s0 = ds.server_of(1, 0, 0);
  const int s1 = ds.server_of(1, 0, 1);
  EXPECT_NE(s0, s1);
  // Deterministic.
  EXPECT_EQ(ds.server_of(1, 0, 0), s0);
}

TEST(DataServers, ShardReadWriteAndDrop) {
  DataServers ds(4);
  OpProfile prof;
  const auto data = bytes(8192, 1);
  ds.write_shard(1, 0, 0, data, prof);
  EXPECT_EQ(prof.ds_ops, 1u);
  EXPECT_GT(prof.net.ns, 0);

  std::vector<std::byte> out(8192);
  EXPECT_TRUE(ds.read_shard(1, 0, 0, out, prof));
  EXPECT_EQ(out, data);
  EXPECT_FALSE(ds.read_shard(1, 0, 1, out, prof));  // absent → zeros
  EXPECT_EQ(out[0], std::byte{0});

  EXPECT_TRUE(ds.has_shard(1, 0, 0));
  EXPECT_TRUE(ds.drop_shard(1, 0, 0));
  EXPECT_FALSE(ds.has_shard(1, 0, 0));
  ds.write_shard(1, 0, 0, data, prof);
  ds.write_shard(1, 1, 2, data, prof);
  ds.purge(1);
  EXPECT_FALSE(ds.has_shard(1, 0, 0));
  EXPECT_FALSE(ds.has_shard(1, 1, 2));
}

TEST(DataServers, DroppedShardIsLostNotAHole) {
  DataServers ds(4);
  OpProfile prof;
  const auto data = bytes(8192, 1);
  ds.write_shard(1, 0, 0, data, prof);
  ASSERT_TRUE(ds.drop_shard(1, 0, 0));
  EXPECT_FALSE(ds.drop_shard(1, 0, 0));  // already lost
  EXPECT_FALSE(ds.drop_shard(1, 0, 1));  // nothing stored to lose
  std::vector<std::byte> out(8192, std::byte{7});
  bool failed = false;
  EXPECT_FALSE(ds.read_shard(1, 0, 0, out, prof, &failed));
  EXPECT_TRUE(failed);  // lost reads as failed…
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_FALSE(ds.read_shard(1, 0, 1, out, prof, &failed));
  EXPECT_FALSE(failed);  // …while a hole is still a hole
  // Absent to every other query, so the scrubber walks past it.
  EXPECT_FALSE(ds.has_shard(1, 0, 0));
  EXPECT_EQ(ds.verify_shard(1, 0, 0), ShardState::kAbsent);
  EXPECT_FALSE(ds.corrupt_shard(1, 0, 0));
  EXPECT_TRUE(ds.stored_shards().empty());
  ds.write_shard(1, 0, 0, data, prof);  // a new version clears the mark
  EXPECT_TRUE(ds.read_shard(1, 0, 0, out, prof));
  EXPECT_EQ(out, data);
}

struct StripeFixture : ::testing::Test {
  StripeFixture() : ds(8), rs(4, 2) {
    meta.ino = 42;
    meta.stripe_unit = 8 * 1024;
    meta.k = 4;
    meta.m = 2;
  }
  DataServers ds;
  ec::ReedSolomon rs;
  FileMeta meta;
};

TEST_F(StripeFixture, WriteReadRoundTrip) {
  OpProfile prof;
  const auto data = bytes(64 * 1024, 2);  // two full stripes
  striped_write(ds, rs, meta, 0, data, prof);
  std::vector<std::byte> out(64 * 1024);
  striped_read(ds, rs, meta, 0, out, prof);
  EXPECT_EQ(out, data);
}

TEST_F(StripeFixture, UnalignedWriteWithinShard) {
  OpProfile prof;
  striped_write(ds, rs, meta, 0, bytes(32 * 1024, 3), prof);
  const auto patch = bytes(100, 4);
  striped_write(ds, rs, meta, 5000, patch, prof);
  std::vector<std::byte> out(100);
  striped_read(ds, rs, meta, 5000, out, prof);
  EXPECT_EQ(out, patch);
}

TEST_F(StripeFixture, ParityStaysConsistentAfterPartialUpdates) {
  OpProfile prof;
  striped_write(ds, rs, meta, 0, bytes(32 * 1024, 5), prof);
  // Update shard 2 of stripe 0 (offset 16K..24K).
  striped_write(ds, rs, meta, 2 * 8192, bytes(8192, 6), prof);

  // Gather the stripe and verify parity algebraically.
  std::vector<std::vector<std::byte>> shards(6,
                                             std::vector<std::byte>(8192));
  for (std::uint32_t r = 0; r < 6; ++r)
    ds.read_shard(meta.ino, 0, r, shards[r], prof);
  std::vector<std::span<const std::byte>> views(shards.begin(), shards.end());
  EXPECT_TRUE(rs.verify(views));
}

TEST_F(StripeFixture, DegradedReadReconstructs) {
  OpProfile prof;
  const auto data = bytes(32 * 1024, 7);  // one full stripe
  striped_write(ds, rs, meta, 0, data, prof);
  // Lose two shards (the code tolerance m=2), one of them data shard 1.
  ASSERT_TRUE(ds.drop_shard(meta.ino, 0, 1));
  ASSERT_TRUE(ds.drop_shard(meta.ino, 0, 4));

  std::vector<std::byte> out(32 * 1024);
  ASSERT_TRUE(striped_read(ds, rs, meta, 0, out, prof));
  EXPECT_EQ(out, data);
}

TEST_F(StripeFixture, TooManyLossesFailCleanly) {
  OpProfile prof;
  striped_write(ds, rs, meta, 0, bytes(32 * 1024, 8), prof);
  ds.drop_shard(meta.ino, 0, 0);
  ds.drop_shard(meta.ino, 0, 1);
  ds.drop_shard(meta.ino, 0, 2);
  std::vector<std::byte> out(8192);
  EXPECT_FALSE(striped_read(ds, rs, meta, 0, out, prof));
}

TEST_F(StripeFixture, ServerSideWriteChargesMds) {
  MdsCluster cluster(4);
  OpProfile cprof;
  const auto created = cluster.create("/f", 1 << 20, 0, false, cprof);
  ASSERT_TRUE(created.has_value());

  OpProfile prof;
  const auto data = bytes(8192, 9);
  ASSERT_TRUE(cluster.server_side_write(ds, rs, created->ino, 0, data, 0,
                                        false, prof));
  // Server-side EC: the MDS burns the encode cost, not the client.
  EXPECT_GT(prof.mds.ns, sim::calib::kMdsOp.ns);
  EXPECT_EQ(prof.host_cpu.ns, 0);
  EXPECT_GT(prof.ds_ops, 0u);

  std::vector<std::byte> out(8192);
  OpProfile rprof;
  ASSERT_TRUE(
      cluster.server_side_read(ds, rs, created->ino, 0, out, 0, false, rprof));
  EXPECT_EQ(out, data);
}

TEST(OpProfile, AccumulatesAllFields) {
  OpProfile a, b;
  a.host_cpu = sim::micros(1);
  a.mds_ops = 1;
  b.host_cpu = sim::micros(2);
  b.dpu_cpu = sim::micros(3);
  b.forwards = 2;
  a += b;
  EXPECT_EQ(a.host_cpu.ns, 3000);
  EXPECT_EQ(a.dpu_cpu.ns, 3000);
  EXPECT_EQ(a.mds_ops, 1u);
  EXPECT_EQ(a.forwards, 2u);
}

// ------------------------------------------------------ fan-out latency
//
// A wave of shard I/Os issued together adds only its slowest shard to the
// critical path (OpProfile::latency()); the station demands still count
// every shard (ds_ops, ds, net).

/// One 8 KiB shard round trip: data-server service, the two hops, and the
/// payload on the DFS fabric.
sim::Nanos shard_trip(bool is_read) {
  using namespace sim::calib;
  const double gbps = is_read ? kDfsReadGBps : kDfsWriteGBps;
  return kDataServerOp + kNetHop * 2 +
         sim::Nanos{static_cast<std::int64_t>(8192.0 / (gbps * 1e9) * 1e9)};
}

struct DfsFanOut : StripeFixture {};

TEST_F(DfsFanOut, SubStripeRmwIsTwoWaves) {
  OpProfile full;
  striped_write(ds, rs, meta, 0, bytes(32 * 1024, 10), full);
  OpProfile prof;
  ASSERT_TRUE(striped_write(ds, rs, meta, 5000, bytes(100, 11), prof));
  // Reads: the data shard and both parities; writes: the same three.
  EXPECT_EQ(prof.ds_ops, 6u);
  EXPECT_EQ((prof.ds + prof.net).ns,
            (shard_trip(true) * 3 + shard_trip(false) * 3).ns);
  EXPECT_EQ(prof.crit.ns, (shard_trip(true) + shard_trip(false)).ns);
  EXPECT_EQ(prof.latency().ns, (shard_trip(true) + shard_trip(false)).ns);
}

TEST_F(DfsFanOut, MultiStripeReadIsOneWavePerStripe) {
  OpProfile wprof;
  const auto data = bytes(64 * 1024, 12);
  ASSERT_TRUE(striped_write(ds, rs, meta, 0, data, wprof));
  EXPECT_EQ(wprof.ds_ops, 12u);
  EXPECT_EQ(wprof.latency().ns, (shard_trip(false) * 2).ns);
  OpProfile prof;
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(striped_read(ds, rs, meta, 0, out, prof));
  EXPECT_EQ(out, data);
  EXPECT_EQ(prof.ds_ops, 8u);
  EXPECT_EQ(prof.latency().ns, (shard_trip(true) * 2).ns);
}

TEST_F(DfsFanOut, DegradedGatherIsOneWave) {
  OpProfile wprof;
  const auto data = bytes(32 * 1024, 13);
  ASSERT_TRUE(striped_write(ds, rs, meta, 0, data, wprof));
  ASSERT_TRUE(ds.drop_shard(meta.ino, 0, 1));
  OpProfile prof;
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(striped_read(ds, rs, meta, 8192, out, prof));
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 8192));
  // The lost data shard, then k recovery reads once its failure is known.
  EXPECT_EQ(prof.ds_ops, 5u);
  EXPECT_EQ(prof.latency().ns, (shard_trip(true) * 2).ns);
}

TEST_F(DfsFanOut, ReplicatedWriteIsOneWave) {
  meta.redundancy = Redundancy::kReplication;
  meta.replicas = 3;
  OpProfile prof;
  ASSERT_TRUE(replicated_write(ds, meta, 0, bytes(8192, 14), prof));
  EXPECT_EQ(prof.ds_ops, 3u);
  EXPECT_EQ((prof.ds + prof.net).ns, (shard_trip(false) * 3).ns);
  EXPECT_EQ(prof.latency().ns, shard_trip(false).ns);
}

/// The hedged engines time their own waves: `crit` is the stripe's winning
/// time, as before, and latency() counts the committed shards only there.
TEST_F(DfsFanOut, HedgedReadKeepsItsCritAndCountsShardsOnce) {
  obs::Registry reg;
  fault::FaultInjector fi(7, &reg);
  DataServers ds(sim::calib::kDataServers, &fi, &reg);
  ds.enable_health();
  meta.ino = 5;
  const auto data = bytes(32 * 1024, 1);
  OpProfile wp;
  ASSERT_TRUE(striped_write(ds, rs, meta, 0, data, wp));
  std::vector<std::byte> buf(data.size());
  OpProfile healthy;
  ASSERT_TRUE(striped_read(ds, rs, meta, 0, buf, healthy));
  EXPECT_EQ(healthy.ds_ops, 4u);
  EXPECT_EQ(healthy.crit.ns, shard_trip(true).ns);
  EXPECT_EQ(healthy.latency().ns, shard_trip(true).ns);
  for (int i = 0; i < 31; ++i)
    ASSERT_TRUE(striped_read(ds, rs, meta, 0, buf, healthy));

  // Data shard 0 stalls 80 µs: parity is hedged in and wins.
  fault::FaultInjector::SlowSpec s;
  s.stall = sim::micros(80.0);
  s.stall_probability = 1.0;
  s.peer = ds.server_of(meta.ino, 0, 0);
  fi.arm_slow(kFaultDsSlow, s);
  OpProfile prof;
  bool reconstructed = false;
  ASSERT_TRUE(striped_read(ds, rs, meta, 0, buf, prof, &reconstructed));
  EXPECT_TRUE(reconstructed);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  EXPECT_EQ(prof.ds_ops, 4u);
  // The stripe completes at the board's hedge delay (49 365 ns after the
  // warm-up) plus one clean parity shard.
  EXPECT_EQ(prof.crit.ns, 49'365 + shard_trip(true).ns);
  EXPECT_EQ(prof.overlapped.ns, (prof.ds + prof.net).ns);
  EXPECT_EQ(prof.latency().ns, prof.crit.ns);
}

}  // namespace
}  // namespace dpc::dfs
