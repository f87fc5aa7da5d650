#include "dfs/client.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "sim/calib.hpp"
#include "sim/rng.hpp"

namespace dpc::dfs {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

struct ClientFixture : ::testing::Test {
  ClientFixture()
      : mds(4),
        ds(8),
        nfs(1, mds, ds, ClientConfig::standard_nfs()),
        opt(2, mds, ds, ClientConfig::optimized()),
        dpc(3, mds, ds, ClientConfig::dpc_offloaded()) {}

  MdsCluster mds;
  DataServers ds;
  DfsClient nfs, opt, dpc;
};

TEST_F(ClientFixture, AllClientsFunctionallyEquivalent) {
  for (DfsClient* c : {&nfs, &opt, &dpc}) {
    const std::string path =
        "/f" + std::to_string(reinterpret_cast<std::uintptr_t>(c));
    const auto created = c->create(path, 1 << 20);
    ASSERT_TRUE(created.ok());
    const auto data = bytes(8192, 1);
    ASSERT_TRUE(c->write(created.ino, 8192, data).ok());
    std::vector<std::byte> out(8192);
    ASSERT_TRUE(c->read(created.ino, 8192, out).ok());
    EXPECT_EQ(out, data);
    ASSERT_TRUE(c->open(path).ok());
    ASSERT_TRUE(c->remove(path).ok());
    EXPECT_EQ(c->open(path).err, ENOENT);
  }
}

TEST_F(ClientFixture, ClientsInteroperateOnSharedFiles) {
  const auto created = opt.create("/shared", 1 << 20);
  ASSERT_TRUE(created.ok());
  const auto data = bytes(8192, 2);
  ASSERT_TRUE(opt.write(created.ino, 0, data).ok());
  // Another client reads what the first wrote (shared DFS semantics).
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(nfs.read(created.ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(ClientFixture, HostCpuProfileOrdering) {
  // Fig. 1 / Fig. 9: optimized burns far more host CPU than standard NFS;
  // DPC pushes the work to the DPU.
  const auto c1 = nfs.create("/n", 1 << 20);
  const auto c2 = opt.create("/o", 1 << 20);
  const auto c3 = dpc.create("/d", 1 << 20);
  const auto data = bytes(8192, 3);

  const auto wn = nfs.write(c1.ino, 0, data);
  const auto wo = opt.write(c2.ino, 0, data);
  const auto wd = dpc.write(c3.ino, 0, data);

  EXPECT_GT(wo.prof.host_cpu.ns, 3 * wn.prof.host_cpu.ns / 2)
      << "optimized client must burn more per-op CPU than standard NFS "
         "(Fig. 1's core-count gap also multiplies with its higher IOPS)";
  EXPECT_LT(wd.prof.host_cpu.ns, wn.prof.host_cpu.ns / 3)
      << "DPC host CPU must be far below even the standard NFS stack";
  EXPECT_GT(wd.prof.dpu_cpu.ns, 0);
  EXPECT_EQ(wn.prof.dpu_cpu.ns, 0);
  EXPECT_EQ(wo.prof.dpu_cpu.ns, 0);
  EXPECT_GT(wd.prof.pcie.ns, 0);  // nvme-fs transport
}

TEST_F(ClientFixture, StandardClientPaysMdsPerWrite) {
  const auto c = nfs.create("/per-op", 1 << 20);
  const auto data = bytes(8192, 4);
  (void)nfs.write(c.ino, 0, data);
  const auto w2 = nfs.write(c.ino, 8192, data);
  // Delegation (lock) acquired through the MDS on every op + proxied data.
  EXPECT_GE(w2.prof.mds_ops, 2u);
}

TEST_F(ClientFixture, OptimizedClientAmortizesDelegation) {
  const auto c = opt.create("/deleg", 1 << 20);
  const auto data = bytes(8192, 5);
  const auto w1 = opt.write(c.ino, 0, data);
  const auto w2 = opt.write(c.ino, 8192, data);
  // First write acquires the delegation; the second is MDS-free (the
  // preallocated size also suppresses size updates).
  EXPECT_GE(w1.prof.mds_ops, 1u);
  EXPECT_EQ(w2.prof.mds_ops, 0u);
}

TEST_F(ClientFixture, DelegationConflictsSurface) {
  const auto c = opt.create("/contested", 1 << 20);
  const auto data = bytes(8192, 6);
  ASSERT_TRUE(opt.write(c.ino, 0, data).ok());  // opt holds the delegation
  const auto res = dpc.write(c.ino, 0, data);
  EXPECT_EQ(res.err, EAGAIN);
}

TEST_F(ClientFixture, SizeGrowthUpdatesMetadataLazily) {
  const auto c = opt.create("/growing", 0);  // no preallocation
  const auto data = bytes(8192, 7);
  const auto w = opt.write(c.ino, 0, data);
  EXPECT_TRUE(w.ok());
  const auto st = opt.stat(c.ino);
  EXPECT_EQ(st.bytes, 8192u);
}

TEST_F(ClientFixture, DegradedReadReconstructsThroughClient) {
  const auto c = opt.create("/faulty", 1 << 20);
  const auto data = bytes(32 * 1024, 8);
  ASSERT_TRUE(opt.write(c.ino, 0, data).ok());
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 0));
  std::vector<std::byte> out(32 * 1024);
  const auto r = opt.read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(r.prof.host_cpu.ns, 0);
}

TEST_F(ClientFixture, ShardWriteLostToDownServerIsNotAHole) {
  // A full-stripe write while data shard 1's server is down, then the
  // server comes back: the shard it missed must read as lost, not as a
  // hole of zeros, so the read reconstructs it.
  const auto c = dpc.create("/missed", 1 << 20);
  const auto data = bytes(32 * 1024, 12);
  const int victim = ds.server_of(c.ino, 0, 1);
  ds.fail_server(victim);
  ASSERT_TRUE(dpc.write(c.ino, 0, data).ok());
  ds.heal_server(victim);
  EXPECT_FALSE(ds.has_shard(c.ino, 0, 1));
  EXPECT_EQ(ds.verify_shard(c.ino, 0, 1), ShardState::kAbsent);
  std::vector<std::byte> out(data.size());
  for (DfsClient* client : {&dpc, &nfs}) {  // direct and MDS-proxied reads
    std::fill(out.begin(), out.end(), std::byte{0});
    ASSERT_TRUE(client->read(c.ino, 0, out).ok());
    EXPECT_EQ(out, data);
  }
}

TEST_F(ClientFixture, EcComputeOnWritesAndReconstructsOnly) {
  using namespace sim::calib;
  const auto c = dpc.create("/ec-cpu", 1 << 20);
  const auto data = bytes(32 * 1024, 13);
  const auto w = dpc.write(c.ino, 0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.prof.dpu_cpu.ns,
            (kDpuDfsWriteOp + ec::ReedSolomon::dpu_encode_cost(data.size()))
                .ns);
  std::vector<std::byte> out(data.size());
  const auto healthy = dpc.read(c.ino, 0, out);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.prof.dpu_cpu.ns, kDpuDfsReadOp.ns);  // nothing decoded
  ASSERT_TRUE(ds.drop_shard(c.ino, 0, 2));
  const auto degraded = dpc.read(c.ino, 0, out);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(degraded.prof.dpu_cpu.ns,
            (kDpuDfsReadOp + ec::ReedSolomon::dpu_encode_cost(data.size()))
                .ns);
  // The optimized host client: the same rule on the host CPU.
  const auto o = opt.read(c.ino, 0, out);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o.prof.host_cpu.ns,
            (kSyscallVfs + kNfsClientOp + kOptClientExtraOp +
             ec::ReedSolomon::host_encode_cost(data.size()))
                .ns);
}

/// A read with one data server down: the three live primaries, the failed
/// one, and one parity read issued when the failure is known — five shard
/// reads over two round trips, reconstructed once.
TEST_F(ClientFixture, ReadWithServerDownIsTwoWaves) {
  const auto c = dpc.create("/down", 1 << 20);
  const auto data = bytes(32 * 1024, 14);
  ASSERT_TRUE(dpc.write(c.ino, 0, data).ok());
  ds.fail_server(ds.server_of(c.ino, 0, 1));
  std::vector<std::byte> out(data.size());
  const auto r = dpc.read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(r.prof.ds_ops, 5u);
  EXPECT_EQ(r.prof.latency().ns, 2 * 32'910);
  EXPECT_EQ(dpc.stats().degraded_reads.value(), 1u);
}

TEST_F(ClientFixture, SmallFileCreateWriteWorkload) {
  // Fig. 9's "8K file creation write" — per-client functional smoke.
  for (int i = 0; i < 50; ++i) {
    const auto c = dpc.create("/small/f" + std::to_string(i), 0);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(dpc.write(c.ino, 0, bytes(8192, 9)).ok());
  }
}

TEST_F(ClientFixture, ConcurrentClientsDisjointFiles) {
  constexpr int kThreads = 6;
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([this, t, &errors] {
      DfsClient client(static_cast<ClientId>(100 + t), mds, ds,
                       ClientConfig::optimized());
      const auto c =
          client.create("/mt/" + std::to_string(t), 1 << 20);
      if (!c.ok()) {
        ++errors;
        return;
      }
      const auto data = bytes(8192, static_cast<std::uint64_t>(t));
      std::vector<std::byte> out(8192);
      for (int i = 0; i < 50; ++i) {
        if (!client.write(c.ino, static_cast<std::uint64_t>(i) * 8192, data)
                 .ok())
          ++errors;
        if (!client.read(c.ino, static_cast<std::uint64_t>(i) * 8192, out)
                 .ok())
          ++errors;
        if (out != data) ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(errors.load(), 0);
}

// ------------------------------------------------------ fan-out latency
//
// The offloaded client sends a stripe's shards out as one wave: a 32 KiB
// full-stripe read or write costs one data-server round trip on the
// critical path, while ds_ops and the station demands count every shard.

struct DfsFanOut : ClientFixture {
  static constexpr std::uint64_t kStripe = 32 * 1024;
  /// One 8 KiB shard round trip: service, two hops, the payload.
  static sim::Nanos shard_trip(bool is_read) {
    using namespace sim::calib;
    const double gbps = is_read ? kDfsReadGBps : kDfsWriteGBps;
    return kDataServerOp + kNetHop * 2 +
           sim::Nanos{static_cast<std::int64_t>(8192.0 / (gbps * 1e9) * 1e9)};
  }
};

TEST_F(DfsFanOut, FullStripeReadIsOneWave) {
  const auto c = dpc.create("/wave-r", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(kStripe, 20);
  ASSERT_TRUE(dpc.write(c.ino, 0, data).ok());
  std::vector<std::byte> out(kStripe);
  const auto r = dpc.read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(r.prof.ds_ops, 4u);
  EXPECT_EQ(r.prof.mds_ops, 0u);  // the view came with the create
  EXPECT_EQ((r.prof.ds + r.prof.net).ns, (shard_trip(true) * 4).ns);
  EXPECT_EQ(r.prof.latency().ns, shard_trip(true).ns);
  EXPECT_EQ(r.prof.latency().ns, 32'910);
}

TEST_F(DfsFanOut, FullStripeWriteIsOneWave) {
  const auto c = dpc.create("/wave-w", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto w = dpc.write(c.ino, 0, bytes(kStripe, 21));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.prof.ds_ops, 6u);
  EXPECT_EQ(w.prof.mds_ops, 0u);  // delegation granted with the create
  EXPECT_EQ((w.prof.ds + w.prof.net).ns, (shard_trip(false) * 6).ns);
  EXPECT_EQ(w.prof.latency().ns, shard_trip(false).ns);
  EXPECT_EQ(w.prof.latency().ns, 33'260);
}

TEST_F(DfsFanOut, ColdViewStatIsSerial) {
  const auto c = opt.create("/wave-s", 4096);
  ASSERT_TRUE(c.ok());
  const auto st = dpc.stat(c.ino);  // dpc has not cached this file's view
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.prof.mds_ops, 1u);
  EXPECT_EQ(st.prof.ds_ops, 0u);
  EXPECT_EQ(st.prof.crit.ns, 0);
  EXPECT_EQ(st.prof.overlapped.ns, 0);
  EXPECT_EQ(st.prof.latency().ns,
            (st.prof.mds + st.prof.ds + st.prof.net).ns);
}

TEST_F(DfsFanOut, BackendHistogramRecordsLatency) {
  obs::Registry reg;
  DfsClient client(4, mds, ds, ClientConfig::dpc_offloaded(), &reg);
  const auto c = client.create("/wave-h", 1 << 20);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(client.write(c.ino, 0, bytes(kStripe, 22)).ok());
  std::vector<std::byte> out(kStripe);
  ASSERT_TRUE(client.read(c.ino, 0, out).ok());
  const auto& h = reg.histogram("dfs.client/backend_ns");
  // create, write, read: the read's one wave is the smallest of the three.
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min().ns, shard_trip(true).ns);
}

}  // namespace
}  // namespace dpc::dfs
