#include "core/dpc_system.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <thread>

#include "cache/control_plane.hpp"
#include "core/io_dispatch.hpp"
#include "pcie/dma.hpp"
#include "sim/calib.hpp"

#include "sim/rng.hpp"

namespace dpc::core {
namespace {

DpcOptions small_opts(bool with_cache = true) {
  DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.enable_cache = with_cache;
  o.cache_geo = {64, 8};
  o.cache_ctl.evict_low_water = 4;
  o.cache_ctl.evict_batch = 8;
  o.with_dfs = true;
  o.dpu_workers = 2;
  return o;
}

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

TEST(DpcSystem, NamespaceOpsOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "file");
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.ino, 0u);
  EXPECT_GT(c.cost.ns, 0);

  const auto l = sys.lookup(kvfs::kRootIno, "file");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.ino, c.ino);

  EXPECT_EQ(sys.lookup(kvfs::kRootIno, "ghost").err, ENOENT);
  EXPECT_EQ(sys.create(kvfs::kRootIno, "file").err, EEXIST);

  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.ino, c.ino);
  EXPECT_EQ(attr.type, kvfs::FileType::kRegular);
}

TEST(DpcSystem, MkdirReaddirRenameUnlink) {
  DpcSystem sys(small_opts());
  const auto d = sys.mkdir(kvfs::kRootIno, "dir");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(sys.create(d.ino, "a").ok());
  ASSERT_TRUE(sys.create(d.ino, "b").ok());
  std::vector<kvfs::DirEntry> entries;
  ASSERT_TRUE(sys.readdir(d.ino, &entries).ok());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");

  ASSERT_TRUE(sys.rename(d.ino, "a", kvfs::kRootIno, "a-moved").ok());
  EXPECT_TRUE(sys.resolve("/a-moved").ok());
  ASSERT_TRUE(sys.unlink(d.ino, "b").ok());
  ASSERT_TRUE(sys.rmdir(kvfs::kRootIno, "dir").ok());
}

TEST(DpcSystem, DirectWriteReadRoundTrip) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "data");
  const auto data = bytes(64 * 1024, 1);
  const auto w = sys.write(c.ino, 0, data, /*direct=*/true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, data.size());
  EXPECT_FALSE(w.cache_hit);

  std::vector<std::byte> out(data.size());
  const auto r = sys.read(c.ino, 0, out, /*direct=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, BufferedWriteLandsInHybridCache) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "cached");
  const auto data = bytes(8192, 2);
  const auto w = sys.write(c.ino, 0, data, /*direct=*/false);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.cache_hit);  // absorbed by host memory
  EXPECT_EQ(sys.cache_stats()->writes_cached.load(), 2u);  // two 4K pages

  // Re-read hits the host cache: zero PCIe data traffic for the payload.
  const auto data_ops_before =
      sys.dma_counters().ops(pcie::DmaClass::kData);
  std::vector<std::byte> out(8192);
  const auto r = sys.read(c.ino, 0, out, /*direct=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(out, data);
  EXPECT_EQ(sys.dma_counters().ops(pcie::DmaClass::kData), data_ops_before);
}

TEST(DpcSystem, FsyncFlushesDirtyPagesToKvfs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "durable");
  const auto data = bytes(4096, 3);
  ASSERT_TRUE(sys.write(c.ino, 0, data, false).ok());
  ASSERT_TRUE(sys.fsync(c.ino).ok());
  EXPECT_GT(sys.control_stats()->pages_flushed, 0u);
  // Direct read bypasses the cache: KVFS must hold the bytes now.
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(c.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, data);
}

// The synchronous fsync (WAL off) flushes only its own inode: another
// inode's dirt stays dirty, and the fsync's DMA count does not depend on how
// much of it there is.
TEST(DpcSystem, FsyncFlushesOnlyItsOwnInode) {
  std::vector<std::uint64_t> fsync_dma_ops;
  for (const int b_pages : {1, 8}) {
    auto o = small_opts();
    o.with_dfs = false;
    o.cache_geo = {1024, 64};
    o.cache_ctl.evict_batch = 0;  // the poller drains bits, flushes nothing
    DpcSystem sys(o);
    const auto a = sys.create(kvfs::kRootIno, "a").ino;
    const auto b = sys.create(kvfs::kRootIno, "b").ino;
    ASSERT_TRUE(
        sys.write(b, 0, bytes(4096 * static_cast<std::size_t>(b_pages), 5),
                  false)
            .ok());
    // A flusher pass has already drained B's dirty bits into the index.
    ASSERT_EQ(sys.cache_control()->flush_pass(0).pages, 0);
    ASSERT_TRUE(sys.write(a, 0, bytes(4096, 6), false).ok());

    const pcie::DmaScope scope(sys.dma_counters());
    ASSERT_TRUE(sys.fsync(a).ok());
    fsync_dma_ops.push_back(scope.ops());
    sim::Nanos cost{};
    EXPECT_EQ(sys.cache_control()->dirty_pages(a, cost), 0);
    EXPECT_EQ(sys.cache_control()->dirty_pages(b, cost), b_pages);
  }
  EXPECT_EQ(fsync_dma_ops[0], fsync_dma_ops[1]);
}

// A one-page fsync costs the same DMA count at every cache size, WAL on or
// off; its modelled cost differs by no more than the dirty-bitmap read.
TEST(DpcSystem, OnePageFsyncCostIndependentOfCacheSize) {
  for (const bool wal : {false, true}) {
    std::optional<std::uint64_t> small_ops;
    sim::Nanos small_cost{};
    for (const std::uint32_t pages : {256u, 4096u, 65536u}) {
      auto o = small_opts();
      o.with_dfs = false;
      o.enable_nvm_wal = wal;
      o.cache_geo = {pages, pages / 16};
      DpcSystem sys(o);
      const auto ino = sys.create(kvfs::kRootIno, "f").ino;
      ASSERT_TRUE(sys.write(ino, 0, bytes(4096, 9), false).ok());
      const pcie::DmaScope scope(sys.dma_counters());
      const Io f = sys.fsync(ino);
      ASSERT_TRUE(f.ok());
      if (!small_ops) {
        small_ops = scope.ops();
        small_cost = f.cost;
        continue;
      }
      EXPECT_EQ(scope.ops(), *small_ops)
          << pages << " pages, WAL " << (wal ? "on" : "off");
      EXPECT_LE(std::abs((f.cost - small_cost).ns),
                sim::calib::pcie_transfer(pages / 8).ns)
          << pages << " pages, WAL " << (wal ? "on" : "off");
    }
  }
}

TEST(DpcSystem, ReadMissFillsCacheClean) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "fill");
  const auto data = bytes(4096, 4);
  ASSERT_TRUE(sys.write(c.ino, 0, data, /*direct=*/true).ok());
  std::vector<std::byte> out(4096);
  const auto r1 = sys.read(c.ino, 0, out, false);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.cache_hit);
  const auto r2 = sys.read(c.ino, 0, out, false);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, BufferedSizeGrowthVisibleInGetattr) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "grow");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(8192, 5), false).ok());
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.size, 8192u);
}

TEST(DpcSystem, TruncateInvalidatesCachedTail) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "trunc");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(16384, 6), false).ok());
  ASSERT_TRUE(sys.truncate(c.ino, 4096).ok());
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.size, 4096u);
  std::vector<std::byte> out(4096);
  const auto r = sys.read(c.ino, 4096, out, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 0u);  // past EOF
}

TEST(DpcSystem, UnalignedIoBypassesCache) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "unaligned");
  const auto data = bytes(100, 7);
  const auto w = sys.write(c.ino, 3, data, false);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.cache_hit);  // write-through
  std::vector<std::byte> out(100);
  const auto r = sys.read(c.ino, 3, out, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, CachePressureFallsBackToWriteThrough) {
  auto o = small_opts();
  o.cache_geo = {16, 2};  // tiny cache
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "pressure");
  // Write far more pages than the cache holds; all writes must succeed.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(sys.write(c.ino, static_cast<std::uint64_t>(i) * 4096,
                          bytes(4096, static_cast<std::uint64_t>(i)), false)
                    .ok())
        << i;
  }
  ASSERT_TRUE(sys.fsync(c.ino).ok());
  // Everything readable back (direct — straight from KVFS).
  for (int i = 0; i < 64; ++i) {
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(sys.read(c.ino, static_cast<std::uint64_t>(i) * 4096, out,
                         true)
                    .ok());
    EXPECT_EQ(out, bytes(4096, static_cast<std::uint64_t>(i))) << i;
  }
}

TEST(DpcSystem, WithDpuWorkersRunning) {
  DpcSystem sys(small_opts());
  sys.start_dpu();
  const auto c = sys.create(kvfs::kRootIno, "workers");
  ASSERT_TRUE(c.ok());
  const auto data = bytes(8192, 8);
  ASSERT_TRUE(sys.write(c.ino, 0, data, true).ok());
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.read(c.ino, 0, out, true).ok());
  EXPECT_EQ(out, data);
  sys.stop_dpu();
}

TEST(DpcSystem, ConcurrentThreadsWithWorkers) {
  auto o = small_opts();
  o.queues = 4;
  o.queue_depth = 16;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sys, t, &errors] {
      const auto c =
          sys.create(kvfs::kRootIno, "thread" + std::to_string(t));
      if (!c.ok()) {
        ++errors;
        return;
      }
      const auto data = bytes(8192, static_cast<std::uint64_t>(t));
      std::vector<std::byte> out(8192);
      for (int i = 0; i < 30; ++i) {
        if (!sys.write(c.ino, static_cast<std::uint64_t>(i % 4) * 8192, data,
                       true)
                 .ok())
          ++errors;
        if (!sys.read(c.ino, static_cast<std::uint64_t>(i % 4) * 8192, out,
                      true)
                 .ok())
          ++errors;
        else if (out != data)
          ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  sys.stop_dpu();
  EXPECT_EQ(errors.load(), 0);
}

TEST(DpcSystem, DfsPathThroughDispatchBit) {
  DpcSystem sys(small_opts());
  const auto c = sys.dfs_create("/dfs/file", 1 << 20);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(sys.dfs_open("/dfs/file").ino, c.ino);
  const auto data = bytes(8192, 9);
  ASSERT_TRUE(sys.dfs_write(c.ino, 0, data).ok());
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.dfs_read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(sys.dispatch_stats().dfs_ops.load(), 0u);
  // The data really lives EC-striped on the data servers.
  EXPECT_TRUE(sys.data_servers()->has_shard(c.ino, 0, 0));
  EXPECT_TRUE(sys.data_servers()->has_shard(c.ino, 0, 4));  // parity
}

TEST(DpcSystem, ErrorsPropagateThroughCqe) {
  DpcSystem sys(small_opts());
  std::vector<std::byte> out(4096);
  EXPECT_EQ(sys.read(31337, 0, out, true).err, ENOENT);
  EXPECT_EQ(sys.write(31337, 0, bytes(4096, 1), true).err, ENOENT);
  EXPECT_EQ(sys.truncate(31337, 0).err, ENOENT);
  EXPECT_EQ(sys.fsync(31337).err, ENOENT);
}

TEST(DpcSystem, NoCacheModeWorks) {
  DpcSystem sys(small_opts(/*with_cache=*/false));
  EXPECT_EQ(sys.cache_stats(), nullptr);
  const auto c = sys.create(kvfs::kRootIno, "nocache");
  const auto data = bytes(8192, 10);
  const auto w = sys.write(c.ino, 0, data, false);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.cache_hit);
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.read(c.ino, 0, out, false).ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, DispatchStatsAccumulate) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "stats");
  (void)sys.write(c.ino, 0, bytes(4096, 11), true);
  std::vector<std::byte> out(4096);
  (void)sys.read(c.ino, 0, out, true);
  const auto& st = sys.dispatch_stats();
  EXPECT_GE(st.header_ops.load(), 1u);
  EXPECT_GE(st.inline_writes.load(), 1u);
  EXPECT_GE(st.inline_reads.load(), 1u);
  EXPECT_GT(sys.mean_backend_cost().ns, 0);
}

TEST(DpcSystem, LargeSegmentedIo) {
  auto o = small_opts();
  o.max_io = 64 * 1024;
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "huge");
  const auto data = bytes(300 * 1024, 42);  // > 4 segments
  const auto w = sys.write(c.ino, 0, data, true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, data.size());
  std::vector<std::byte> out(data.size());
  const auto r = sys.read(c.ino, 0, out, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, data.size());
  EXPECT_EQ(out, data);
  // Short segmented read at EOF.
  std::vector<std::byte> tail(128 * 1024);
  const auto rt = sys.read(c.ino, 200 * 1024, tail, true);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.bytes, 100u * 1024);
}

TEST(DpcSystem, MaxIoValidatedAtConstruction) {
  // The largest max_io whose command plus header page and CRC trailer still
  // fits the INI's one-page PRP list (512 entries).
  constexpr std::uint32_t kLargest =
      512 * nvme::kPageSize - nvme::kPageSize - nvme::kPayloadCrcBytes;
  auto o = small_opts(/*with_cache=*/false);
  o.queues = 1;
  o.queue_depth = 2;
  o.max_io = 0;  // the segmentation loops would step by zero forever
  EXPECT_THROW(DpcSystem{o}, CheckFailure);
  o.max_io = kLargest + 1;  // the first full-size op would overflow the list
  EXPECT_THROW(DpcSystem{o}, CheckFailure);

  o.max_io = kLargest;
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "full");
  const auto data = bytes(kLargest, 80);
  ASSERT_TRUE(sys.write(c.ino, 0, data, true).ok());
  std::vector<std::byte> out(kLargest);
  const auto r = sys.read(c.ino, 0, out, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, kLargest);
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, HardLinkOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "target");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(4096, 60), true).ok());
  ASSERT_TRUE(sys.link(c.ino, kvfs::kRootIno, "hard").ok());
  const auto l = sys.lookup(kvfs::kRootIno, "hard");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.ino, c.ino);
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.nlink, 2u);
  EXPECT_EQ(sys.link(c.ino, kvfs::kRootIno, "hard").err, EEXIST);
}

TEST(DpcSystem, SymlinkOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto d = sys.mkdir(kvfs::kRootIno, "data");
  const auto f = sys.create(d.ino, "real");
  ASSERT_TRUE(sys.write(f.ino, 0, bytes(100, 70), true).ok());
  ASSERT_TRUE(sys.symlink("/data/real", kvfs::kRootIno, "ln").ok());
  std::string target;
  const auto lnk = sys.lookup(kvfs::kRootIno, "ln");
  ASSERT_TRUE(lnk.ok());
  ASSERT_TRUE(sys.readlink(lnk.ino, &target).ok());
  EXPECT_EQ(target, "/data/real");
  // resolve follows the link through the whole offloaded stack.
  const auto r = sys.resolve("/ln");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ino, f.ino);
  EXPECT_EQ(sys.readlink(f.ino, &target).err, EINVAL);
}

TEST(DpcSystem, LatencyHistogramsRecordPerClass) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "hist");
  const auto data = bytes(4096, 50);
  std::vector<std::byte> out(4096);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys.write(c.ino, 0, data, true).ok());
    ASSERT_TRUE(sys.read(c.ino, 0, out, true).ok());
  }
  EXPECT_GE(sys.latency(DpcSystem::OpClass::kMeta).count(), 1u);
  EXPECT_EQ(sys.latency(DpcSystem::OpClass::kWrite).count(), 10u);
  EXPECT_EQ(sys.latency(DpcSystem::OpClass::kRead).count(), 10u);
  // Direct ops are far slower than buffered hits; sanity the magnitudes.
  EXPECT_GT(sys.latency(DpcSystem::OpClass::kRead).mean().us(), 50.0);
  EXPECT_FALSE(sys.latency_summary().empty());
}

TEST(DpcSystem, DfsIoLargerThanMaxIoIsSegmented) {
  // Like read/write, the DFS target splits I/O into max_io-sized commands.
  DpcOptions o = small_opts();
  o.max_io = 64 * 1024;
  DpcSystem sys(o);
  const auto c = sys.dfs_create("/dfs/big", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(128 * 1024, 60);
  const auto w = sys.dfs_write(c.ino, 0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, data.size());
  std::vector<std::byte> out(data.size());
  const auto r = sys.dfs_read(c.ino, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, data.size());
  EXPECT_EQ(out, data);
}

// ------------------------------------------------------ DFS fan-out
//
// The offloaded DFS client sends a 32 KiB stripe's four data shards out as
// one wave: the dispatcher charges one data-server round trip (kDataServerOp
// + two hops + 8 KiB at kDfsReadGBps = 32 910 ns), not four.

constexpr std::int64_t kStripeReadWaveNs = 32'910;

TEST(DfsFanOut, WarmStripeReadChargesOneWave) {
  DpcSystem sys(small_opts());
  const auto c = sys.dfs_create("/dfs/wave", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(32 * 1024, 30);
  ASSERT_TRUE(sys.dfs_write(c.ino, 0, data).ok());
  std::vector<std::byte> out(data.size());
  const std::uint64_t before = sys.dispatch_stats().backend_ns.load();
  ASSERT_TRUE(sys.dfs_read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(sys.dispatch_stats().backend_ns.load() - before,
            static_cast<std::uint64_t>(kStripeReadWaveNs));
}

/// The handler's service time (CQE telemetry, the op's modelled latency)
/// adds the DPU's DFS-client compute to the one wave.
TEST(DfsFanOut, DispatchServiceIsDpuCpuPlusOneWave) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);
  dfs::MdsCluster mds;
  dfs::DataServers ds;
  dfs::DfsClient client(1, mds, ds, dfs::ClientConfig::dpc_offloaded());
  obs::Registry reg;
  IoDispatch dispatch(fs, &client, nullptr, reg, nullptr, nullptr);
  const auto handler = dispatch.handler();
  const auto c = client.create("/wave", 1 << 20);
  ASSERT_TRUE(c.ok());
  const auto data = bytes(32 * 1024, 31);
  ASSERT_TRUE(client.write(c.ino, 0, data).ok());
  std::vector<std::byte> out(data.size());
  const auto direct = client.read(c.ino, 0, out);  // the same read, undispatched
  ASSERT_TRUE(direct.ok());

  nvme::NvmeFsCmd cmd;
  cmd.target = nvme::DispatchTarget::kDistributed;
  cmd.inline_op = nvme::InlineOp::kRead;
  cmd.inode = c.ino;
  const auto r = handler(cmd, {}, out);
  ASSERT_EQ(r.status, nvme::Status::kSuccess);
  EXPECT_EQ(out, data);
  EXPECT_GT(direct.prof.dpu_cpu.ns, 0);
  EXPECT_EQ(r.backend_cost.ns, direct.prof.dpu_cpu.ns + kStripeReadWaveNs);
  EXPECT_EQ(dispatch.stats().backend_ns.load(),
            static_cast<std::uint64_t>(kStripeReadWaveNs));
}

}  // namespace
}  // namespace dpc::core
