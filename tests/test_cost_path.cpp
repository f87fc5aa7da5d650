// One cost path from the DPU to Io::cost: everything IoDispatch charges to
// "dispatch/backend_ns" for a command reaches the Io of the op that sent it
// — failed commands and the adapter's side commands (a buffered op's size
// getattr, a growing write's truncate) included — and an unlink is one
// nvme-fs command whose reply tells the adapter whether the inode is gone.
#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <string>
#include <vector>

#include "core/dpc_system.hpp"
#include "fault/injector.hpp"
#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "sim/calib.hpp"

namespace dpc::core {
namespace {

/// Host work every nvme-fs command pays on top of what the DPU reports.
constexpr std::int64_t kHostNs = (sim::calib::kSyscallVfs +
                                  sim::calib::kFsAdapterOp +
                                  sim::calib::kHostNvmeCompletion)
                                     .ns;
/// Host work plus SQE/CQE transport of a payload-less inline command
/// (truncate, fsync): its Io::cost minus what the DPU charged.
constexpr std::int64_t kInlineNoPayloadNs = 5050;
constexpr std::uint64_t kMissingIno = 999'999;

DpcOptions opts() {
  DpcOptions o;
  o.queues = 1;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.cache_geo = {64, 8};
  o.cache_ctl.evict_batch = 0;  // the poller flushes nothing on its own
  o.with_dfs = true;
  return o;
}

std::vector<std::byte> fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, std::byte{v});
}

/// One op, with what the DPU saw meanwhile: the commands it dispatched
/// ("dispatch/ops") and what it charged them ("dispatch/backend_ns").
struct Measured {
  Io io;
  std::int64_t backend_ns = 0;
  std::uint64_t commands = 0;
};

Measured measure(DpcSystem& sys, const std::function<Io()>& op) {
  const auto& st = sys.dispatch_stats();
  const std::uint64_t ns0 = st.backend_ns.load();
  const std::uint64_t ops0 = st.ops.load();
  Measured m;
  m.io = op();
  m.backend_ns = static_cast<std::int64_t>(st.backend_ns.load() - ns0);
  m.commands = st.ops.load() - ops0;
  return m;
}

/// Everything the DPU charged reaches the op, plus each command's host work.
void expect_carried(const Measured& m) {
  EXPECT_GE(m.io.cost.ns,
            m.backend_ns + static_cast<std::int64_t>(m.commands) * kHostNs)
      << "backend " << m.backend_ns << " ns over " << m.commands
      << " command(s)";
}

struct Case {
  std::string name;
  bool ok;
  std::function<Io(DpcSystem&, std::uint64_t kvfs_ino,
                   std::uint64_t dfs_ino)>
      op;
};

TEST(CostPath, EveryInlineAndHeaderOpCarriesItsBackendCost) {
  const auto page = fill(8192, 7);
  std::vector<std::byte> out(8192);
  const std::vector<Case> cases = {
      {"kvfs read", true,
       [&](DpcSystem& s, auto f, auto) { return s.read(f, 0, out, true); }},
      {"kvfs read missing", false,
       [&](DpcSystem& s, auto, auto) {
         return s.read(kMissingIno, 0, out, true);
       }},
      {"kvfs write", true,
       [&](DpcSystem& s, auto f, auto) { return s.write(f, 0, page, true); }},
      {"kvfs write missing", false,
       [&](DpcSystem& s, auto, auto) {
         return s.write(kMissingIno, 0, page, true);
       }},
      {"kvfs truncate", true,
       [](DpcSystem& s, auto f, auto) { return s.truncate(f, 4096); }},
      {"kvfs truncate missing", false,
       [](DpcSystem& s, auto, auto) { return s.truncate(kMissingIno, 0); }},
      {"kvfs fsync", true,
       [](DpcSystem& s, auto f, auto) { return s.fsync(f); }},
      {"kvfs fsync missing", false,
       [](DpcSystem& s, auto, auto) { return s.fsync(kMissingIno); }},
      {"dfs read", true,
       [&](DpcSystem& s, auto, auto d) { return s.dfs_read(d, 0, out); }},
      {"dfs read missing", false,
       [&](DpcSystem& s, auto, auto) {
         return s.dfs_read(kMissingIno, 0, out);
       }},
      {"dfs write", true,
       [&](DpcSystem& s, auto, auto d) { return s.dfs_write(d, 0, page); }},
      {"dfs write missing", false,
       [&](DpcSystem& s, auto, auto) {
         return s.dfs_write(kMissingIno, 0, page);
       }},
      {"lookup", true,
       [](DpcSystem& s, auto, auto) {
         return s.lookup(kvfs::kRootIno, "f");
       }},
      {"lookup missing", false,
       [](DpcSystem& s, auto, auto) {
         return s.lookup(kvfs::kRootIno, "ghost");
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    DpcSystem sys(opts());
    const auto f = sys.create(kvfs::kRootIno, "f");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(sys.write(f.ino, 0, page, true).ok());
    const auto d = sys.dfs_create("/d", 1 << 20);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(sys.dfs_write(d.ino, 0, page).ok());
    const auto errors = sys.dispatch_stats().errors.load();

    const Measured m = measure(sys, [&] { return c.op(sys, f.ino, d.ino); });
    EXPECT_EQ(m.io.ok(), c.ok) << "err " << m.io.err;
    EXPECT_EQ(m.commands, 1u);
    EXPECT_EQ(sys.dispatch_stats().errors.load() - errors, c.ok ? 0u : 1u);
    if (!c.ok) {
      EXPECT_GT(m.backend_ns, 0);  // a failed op is not free
    }
    expect_carried(m);
  }
}

/// An fsync whose NVM-WAL log pass stops early (the ring fills) takes the
/// synchronous flush, and its command carries both: what the unfinished log
/// pass pulled and appended is charged like the flush after it. A twin
/// system, driven alike, runs the same three passes by hand.
TEST(CostPath, FsyncCarriesAnUnfinishedLogPass) {
  DpcOptions o = opts();
  o.enable_nvm_wal = true;
  o.nvm_log_bytes = 24 * 1024;  // a handful of page records
  const auto page = fill(4096, 9);
  DpcSystem sys(o);
  DpcSystem twin(o);
  std::uint64_t ino = 0;
  for (DpcSystem* s : {&sys, &twin}) {
    const auto f = s->create(kvfs::kRootIno, "f");
    ASSERT_TRUE(f.ok());
    ino = f.ino;
    for (std::uint64_t p = 0; p < 16; ++p)
      ASSERT_TRUE(s->write(f.ino, p * 4096, page, false).ok());
  }
  const Measured m = measure(sys, [&] { return sys.fsync(ino); });
  ASSERT_TRUE(m.io.ok());
  EXPECT_EQ(m.commands, 1u);
  EXPECT_EQ(sys.dispatch_stats().wal_fallbacks.load(), 1u);
  expect_carried(m);

  const auto log = twin.cache_control()->wal_log_pass(ino);
  ASSERT_FALSE(log.complete);
  ASSERT_GT(log.pages, 0);
  const auto flush = twin.cache_control()->flush_inode(ino);
  EXPECT_EQ(flush.pages, 16);
  const auto synced = twin.kvfs().fsync(ino);
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(m.backend_ns, (log.cost + flush.cost + synced.cost).ns)
      << "log pass " << log.cost.ns << " ns, flush " << flush.cost.ns
      << " ns, kvfs fsync " << synced.cost.ns << " ns";
}

/// A DFS write to an inode no MDS knows is refused at once, as a read of it
/// is: ENOENT after one metadata round trip, not EAGAIN after the retries
/// meant for a delegation another client holds.
TEST(CostPath, DfsWriteOfUnknownInoIsEnoentAtReadCost) {
  DpcSystem sys(opts());
  std::vector<std::byte> out(8192);
  const Measured r =
      measure(sys, [&] { return sys.dfs_read(kMissingIno, 0, out); });
  const Measured w =
      measure(sys, [&] { return sys.dfs_write(kMissingIno, 0, fill(8192, 3)); });
  EXPECT_EQ(r.io.err, ENOENT);
  EXPECT_EQ(w.io.err, ENOENT);
  EXPECT_EQ(w.commands, 1u);
  EXPECT_LE(w.backend_ns, 2 * r.backend_ns)
      << "write " << w.backend_ns << " ns, read " << r.backend_ns << " ns";
  expect_carried(w);
}

/// A truncate costs its transport plus exactly what the DPU charged, and
/// neither depends on the file size.
TEST(CostPath, TruncateCostIsTransportPlusBackendAtEverySize) {
  std::vector<std::int64_t> grow, shrink;
  for (const std::uint64_t size : {1ULL << 20, 1ULL << 30, 1ULL << 40}) {
    SCOPED_TRACE(size);
    DpcSystem sys(opts());
    const auto f = sys.create(kvfs::kRootIno, "t");
    ASSERT_TRUE(sys.write(f.ino, 0, fill(16384, 3), true).ok());
    Measured m = measure(sys, [&] { return sys.truncate(f.ino, size); });
    ASSERT_TRUE(m.io.ok());
    EXPECT_GT(m.backend_ns, 0);
    EXPECT_EQ(m.io.cost.ns, kInlineNoPayloadNs + m.backend_ns);
    grow.push_back(m.io.cost.ns);
    m = measure(sys, [&] { return sys.truncate(f.ino, 8192); });
    ASSERT_TRUE(m.io.ok());
    EXPECT_EQ(m.io.cost.ns, kInlineNoPayloadNs + m.backend_ns);
    shrink.push_back(m.io.cost.ns);
  }
  EXPECT_EQ(grow[0], grow[1]);
  EXPECT_EQ(grow[0], grow[2]);
  EXPECT_EQ(shrink[0], shrink[1]);
  EXPECT_EQ(shrink[0], shrink[2]);
}

/// The size getattr and the growth truncate a buffered write sends on its
/// own behalf are the write's cost.
TEST(CostPath, BufferedGrowingWritePaysItsSideCommands) {
  DpcSystem sys(opts());
  const auto f = sys.create(kvfs::kRootIno, "g");
  const Measured m =
      measure(sys, [&] { return sys.write(f.ino, 0, fill(4096, 1), false); });
  ASSERT_TRUE(m.io.ok());
  EXPECT_TRUE(m.io.cache_hit);
  EXPECT_EQ(m.commands, 2u);
  expect_carried(m);
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(f.ino, &attr).ok());
  EXPECT_EQ(attr.size, 4096u);
}

/// A buffered read of an inode whose size the adapter does not know pays
/// for the getattr it sends first. The second mount's caches are cold and
/// its KV slow, so that getattr is dear.
TEST(CostPath, BufferedReadOfUnknownSizePaysItsGetattr) {
  kv::KvStore store;
  auto o = opts();
  o.shared_store = &store;
  DpcSystem writer(o);
  const auto f = writer.create(kvfs::kRootIno, "u");
  ASSERT_TRUE(writer.write(f.ino, 0, fill(8192, 9), true).ok());

  fault::FaultInjector fi;
  fi.arm_slow(kv::RemoteKv::kSlowSite, {.multiplier = 10.0});
  o.fault = &fi;
  DpcSystem reader(o);
  std::vector<std::byte> out(8192);
  const Measured m =
      measure(reader, [&] { return reader.read(f.ino, 0, out, false); });
  ASSERT_TRUE(m.io.ok());
  EXPECT_FALSE(m.io.cache_hit);
  EXPECT_EQ(out, fill(8192, 9));
  EXPECT_EQ(m.commands, 2u);
  expect_carried(m);
}

/// Unlink is one header command, found or not, and carries its cost; the
/// reply names the inode whose last link went.
TEST(CostPath, UnlinkIsOneCommand) {
  DpcSystem sys(opts());
  const auto f = sys.create(kvfs::kRootIno, "x");
  const auto headers = sys.dispatch_stats().header_ops.load();
  Measured m = measure(sys, [&] { return sys.unlink(kvfs::kRootIno, "x"); });
  ASSERT_TRUE(m.io.ok());
  EXPECT_EQ(m.io.ino, f.ino);
  EXPECT_EQ(m.commands, 1u);
  expect_carried(m);

  m = measure(sys, [&] { return sys.unlink(kvfs::kRootIno, "x"); });
  EXPECT_EQ(m.io.err, ENOENT);
  EXPECT_EQ(m.commands, 1u);
  expect_carried(m);
  EXPECT_EQ(sys.dispatch_stats().header_ops.load() - headers, 2u);
}

/// Unlinking one name of a hard-linked file keeps its acked buffered
/// writes: the inode lives on under the other name.
TEST(CostPath, UnlinkOfOneHardLinkKeepsBufferedWrites) {
  DpcSystem sys(opts());
  const auto f = sys.create(kvfs::kRootIno, "f");
  ASSERT_TRUE(sys.write(f.ino, 0, fill(8192, 0x00), true).ok());
  ASSERT_TRUE(sys.link(f.ino, kvfs::kRootIno, "g").ok());
  ASSERT_TRUE(sys.write(f.ino, 0, fill(4096, 0xAB), false).ok());
  const Io u = sys.unlink(kvfs::kRootIno, "f");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.ino, 0u);  // "g" still names it
  ASSERT_TRUE(sys.fsync(f.ino).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(f.ino, 0, out, true).ok());
  EXPECT_TRUE(out == fill(4096, 0xAB))
      << "byte 0 reads " << std::to_integer<int>(out[0]);

  // The last name: the reply names the inode, and its pages go with it.
  const Io last = sys.unlink(kvfs::kRootIno, "g");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.ino, f.ino);
  EXPECT_EQ(sys.read(f.ino, 0, out, false).err, ENOENT);
}

}  // namespace
}  // namespace dpc::core
