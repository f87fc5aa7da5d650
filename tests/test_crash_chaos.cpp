// Crash-point chaos: halt the DPU at every crash site under a mixed
// metadata + data workload, power-cycle it with DpcSystem::restart_dpu(),
// and hold the crash-consistency contract:
//
//   (a) recovery leaves the keyspace fsck-clean with zero repairs: every
//       KVFS mutation is one atomic batch, so no crash can tear one,
//   (b) no acknowledged write is ever lost or corrupted,
//   (c) the operation in flight at the crash is atomically absent or
//       atomically present — never half-applied.
//
// "In flight" ops get exactly the POSIX crash guarantees and no more: a
// write that was never acknowledged may land partially at block
// granularity (each byte reads as old or new, never garbage), and a file
// whose unlink/replacement was in flight may be gone. The golden model
// below encodes precisely that contract.
//
// The master seed comes from DPC_FAULT_SEED (CI sweeps several); it varies
// the file contents and, in the deep-crash test, how far into the workload
// the DPU dies.
#include "core/dpc_system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/control_plane.hpp"
#include "fault/injector.hpp"
#include "kvfs/fsck.hpp"
#include "nvm/wal.hpp"
#include "nvme/tgt.hpp"
#include "sim/rng.hpp"

namespace dpc::core {
namespace {

std::uint64_t chaos_seed() {
  return fault::FaultInjector::seed_from_env(42);
}

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

/// Every crash site wired into the stack. The kvfs.* sites sit just before
/// and just after each mutation's one KV batch; the cache site dies
/// mid-flush with the page durable but still marked dirty; the tgt site
/// dies with the op fully applied but the completion never posted.
constexpr std::string_view kKvfsCrashSites[] = {
    "kvfs.create/crash_before_commit",   "kvfs.create/crash_after_commit",
    "kvfs.mkdir/crash_before_commit",    "kvfs.mkdir/crash_after_commit",
    "kvfs.symlink/crash_before_commit",  "kvfs.symlink/crash_after_commit",
    "kvfs.unlink/crash_before_commit",   "kvfs.unlink/crash_after_commit",
    "kvfs.rmdir/crash_before_commit",    "kvfs.rmdir/crash_after_commit",
    "kvfs.rename/crash_before_commit",   "kvfs.rename/crash_after_commit",
    "kvfs.link/crash_before_commit",     "kvfs.link/crash_after_commit",
    "kvfs.truncate/crash_before_commit", "kvfs.truncate/crash_after_commit",
    "kvfs.write/crash_before_commit",    "kvfs.write/crash_after_commit",
};

std::vector<std::string_view> all_crash_sites() {
  std::vector<std::string_view> v(std::begin(kKvfsCrashSites),
                                  std::end(kKvfsCrashSites));
  v.push_back(cache::kFaultFlushCrashBeforeClean);
  v.push_back(nvme::kFaultTgtCrashBeforeCqe);
  return v;
}

DpcOptions crash_opts(fault::FaultInjector* fi) {
  DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.cache_geo = {64, 8};
  o.cache_ctl.evict_low_water = 4;
  o.cache_ctl.evict_batch = 8;
  o.with_dfs = false;
  o.fault = fi;
  o.nvme_retry.max_attempts = 4;
  return o;
}

/// Shared state of one chaos run: the system under test, the injector, and
/// the golden copy of every byte the application saw acknowledged.
struct State {
  DpcSystem& sys;
  fault::FaultInjector& fi;
  std::map<std::uint64_t, std::vector<std::byte>> golden;
  int restarts = 0;
  /// The one write currently in flight (not yet acknowledged). Bytes in
  /// its range may read as old or new after a crash — POSIX write
  /// semantics are block-atomic, not call-atomic.
  std::uint64_t pending_ino = 0;
  std::uint64_t pending_off = 0;
  std::vector<std::byte> pending_data;
};

void recover_if_crashed(State& st);
constexpr int kMaxAttempts = 8;

/// Invariant (b): every acknowledged byte reads back exactly — except
/// inside the range of the one unacknowledged in-flight write, where each
/// byte may be old or new (but never anything else).
void verify_golden(State& st, bool direct) {
  for (const auto& [ino, data] : st.golden) {
    std::vector<std::byte> out(data.size());
    Io r = st.sys.read(ino, 0, out, direct);
    // A crash armed deep into the workload can fire inside this read (a
    // multi-MiB file spans many nvme-fs commands): recover and re-read.
    for (int a = 1; a < kMaxAttempts && !r.ok() && st.fi.crashed(); ++a) {
      recover_if_crashed(st);
      r = st.sys.read(ino, 0, out, direct);
    }
    ASSERT_TRUE(r.ok()) << "read failed, ino " << ino << ", err " << r.err
                        << ", restarts " << st.restarts;
    if (ino != st.pending_ino) {
      ASSERT_EQ(out, data) << "acked data lost, ino " << ino
                           << (direct ? " (direct)" : " (buffered)");
      continue;
    }
    const std::uint64_t plo = st.pending_off;
    const std::uint64_t phi = st.pending_off + st.pending_data.size();
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      if (out[i] == data[i]) continue;
      const bool in_flight =
          i >= plo && i < phi && out[i] == st.pending_data[i - plo];
      ASSERT_TRUE(in_flight)
          << "byte " << i << " of ino " << ino
          << " is neither the acked nor the in-flight value";
    }
  }
}

/// Invariant (a): if the op just attempted crashed the DPU, power-cycle it
/// and check recovery left the system clean and lost nothing acked.
void recover_if_crashed(State& st) {
  if (!st.fi.crashed()) return;
  const auto rep = st.sys.restart_dpu();
  ++st.restarts;
  EXPECT_TRUE(rep.clean()) << "fsck not clean after restart " << st.restarts
                           << " (repairs=" << rep.fs.fsck.repairs
                           << ", passes=" << rep.fs.fsck.passes << ")";
  EXPECT_EQ(rep.queues_reset, st.sys.options().queues);
  // Crash points sit only between whole batches: nothing is torn, so fsck
  // has nothing to repair.
  EXPECT_EQ(rep.fs.fsck.repairs, 0u) << "restart " << st.restarts;
  verify_golden(st, /*direct=*/false);
}

/// Runs one op attempt and handles a crash it may have triggered. Callers
/// loop over this, converging idempotently.
template <typename Fn>
Io attempt(State& st, Fn&& op) {
  const Io r = op();
  recover_if_crashed(st);
  return r;
}

/// Crash-aware lookup for post-op verification: a crash can fire during
/// the verification command itself, so retry through recovery until the
/// answer is definitive (found or ENOENT).
Io stable_lookup(State& st, std::uint64_t parent, const std::string& name) {
  Io l{};
  for (int a = 0; a < kMaxAttempts; ++a) {
    l = attempt(st, [&] { return st.sys.lookup(parent, name); });
    if (l.ok() || l.err == ENOENT) return l;
  }
  return l;
}

/// create: after a crash either the name is absent (create succeeds on
/// retry) or fully present (EEXIST and lookup resolves — a dangling
/// dentry would fail the lookup). Both are atomic outcomes.
std::uint64_t chaos_create(State& st, std::uint64_t parent,
                           const std::string& name) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io c = attempt(st, [&] { return st.sys.create(parent, name); });
    if (c.ok()) return c.ino;
    if (c.err == EEXIST) {
      const Io l = stable_lookup(st, parent, name);
      EXPECT_TRUE(l.ok()) << "dangling dentry survived recovery: " << name;
      if (l.ok()) return l.ino;
    }
  }
  ADD_FAILURE() << "create never converged: " << name;
  return 0;
}

std::uint64_t chaos_mkdir(State& st, std::uint64_t parent,
                          const std::string& name) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io c = attempt(st, [&] { return st.sys.mkdir(parent, name); });
    if (c.ok()) return c.ino;
    if (c.err == EEXIST) {
      const Io l = stable_lookup(st, parent, name);
      EXPECT_TRUE(l.ok()) << "dangling dentry survived recovery: " << name;
      if (l.ok()) return l.ino;
    }
  }
  ADD_FAILURE() << "mkdir never converged: " << name;
  return 0;
}

void chaos_symlink(State& st, const std::string& target, std::uint64_t parent,
                   const std::string& name) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io c =
        attempt(st, [&] { return st.sys.symlink(target, parent, name); });
    if (c.ok() || c.err == EEXIST) {
      // Present: the link must be whole — name, attr, and target text.
      const Io l = stable_lookup(st, parent, name);
      ASSERT_TRUE(l.ok()) << "symlink dentry dangling: " << name;
      std::string got;
      Io rl = attempt(st, [&] { return st.sys.readlink(l.ino, &got); });
      for (int b = 1; b < kMaxAttempts && !rl.ok(); ++b)
        rl = attempt(st, [&] { return st.sys.readlink(l.ino, &got); });
      ASSERT_TRUE(rl.ok()) << "readlink never converged: " << name;
      EXPECT_EQ(got, target) << "symlink target torn: " << name;
      return;
    }
  }
  ADD_FAILURE() << "symlink never converged: " << name;
}

/// write: golden is updated only when the stack acknowledged the write —
/// the definition of invariant (b). While unacknowledged, the write is
/// "pending": verify_golden tolerates old-or-new bytes in its range.
void chaos_write(State& st, std::uint64_t ino, std::uint64_t off,
                 const std::vector<std::byte>& src, bool direct) {
  st.pending_ino = ino;
  st.pending_off = off;
  st.pending_data = src;
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io w =
        attempt(st, [&] { return st.sys.write(ino, off, src, direct); });
    if (!w.ok()) continue;
    auto& g = st.golden[ino];
    if (g.size() < off + src.size()) g.resize(off + src.size());
    std::copy(src.begin(), src.end(),
              g.begin() + static_cast<std::ptrdiff_t>(off));
    st.pending_ino = 0;
    st.pending_data.clear();
    return;
  }
  st.pending_ino = 0;
  st.pending_data.clear();
  ADD_FAILURE() << "write never converged, ino " << ino;
}

/// unlink/rmdir: after convergence the name must be gone — absent after
/// the crash (ENOENT: the batch landed) and present (the retry succeeds)
/// are both atomic outcomes. Unlinking a file's last name is a pending
/// delete of its bytes.
void chaos_remove(State& st, std::uint64_t parent, const std::string& name,
                  bool dir) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io u = attempt(st, [&] {
      return dir ? st.sys.rmdir(parent, name) : st.sys.unlink(parent, name);
    });
    if (u.ok() || u.err == ENOENT) {
      EXPECT_EQ(stable_lookup(st, parent, name).err, ENOENT);
      return;
    }
  }
  ADD_FAILURE() << "remove never converged: " << name;
}

void chaos_unlink(State& st, std::uint64_t parent, const std::string& name,
                  std::uint64_t ino) {
  st.golden.erase(ino);
  chaos_remove(st, parent, name, /*dir=*/false);
}

/// link: EEXIST on a retry means the crashed attempt landed; either way the
/// name resolves to the inode and the link count rose exactly once.
void chaos_link(State& st, std::uint64_t ino, std::uint64_t parent,
                const std::string& name, std::uint32_t nlink_after) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io l = attempt(st, [&] { return st.sys.link(ino, parent, name); });
    if (!l.ok() && l.err != EEXIST) continue;
    EXPECT_EQ(stable_lookup(st, parent, name).ino, ino);
    kvfs::Attr attr;
    Io g = attempt(st, [&] { return st.sys.getattr(ino, &attr); });
    for (int b = 1; b < kMaxAttempts && !g.ok(); ++b)
      g = attempt(st, [&] { return st.sys.getattr(ino, &attr); });
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(attr.nlink, nlink_after) << "link count torn: " << name;
    return;
  }
  ADD_FAILURE() << "link never converged: " << name;
}

/// truncate: until acknowledged, the bytes it cuts may read as old or as
/// zeros (the in-flight range); after it, golden takes the new size.
void chaos_truncate(State& st, std::uint64_t ino, std::uint64_t size) {
  auto& g = st.golden[ino];
  if (size < g.size()) {
    st.pending_ino = ino;
    st.pending_off = size;
    st.pending_data.assign(g.size() - size, std::byte{0});
  }
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io t = attempt(st, [&] { return st.sys.truncate(ino, size); });
    if (!t.ok()) continue;
    st.golden[ino].resize(size);
    st.pending_ino = 0;
    st.pending_data.clear();
    return;
  }
  st.pending_ino = 0;
  st.pending_data.clear();
  ADD_FAILURE() << "truncate never converged, ino " << ino;
}

/// rename: the file must always be reachable under exactly one of the two
/// names. The one-batch commit is what rules out the third state (purged
/// from the old name, not yet inserted at the new one). A pre-existing
/// destination becomes a pending delete (POSIX replace semantics).
void chaos_rename(State& st, std::uint64_t parent, const std::string& from,
                  const std::string& to, std::uint64_t ino) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io existing = stable_lookup(st, parent, to);
    if (existing.ok() && existing.ino != ino) st.golden.erase(existing.ino);
    const Io r = attempt(
        st, [&] { return st.sys.rename(parent, from, parent, to); });
    const Io at_new = stable_lookup(st, parent, to);
    const Io at_old = stable_lookup(st, parent, from);
    if (at_new.ok() && at_new.ino == ino) {
      EXPECT_EQ(at_old.err, ENOENT)
          << "rename left the file under both names: " << from;
      return;
    }
    ASSERT_TRUE(at_old.ok() && at_old.ino == ino)
        << "rename made the file unreachable: " << from << " -> " << to
        << " (err " << r.err << ")";
  }
  ADD_FAILURE() << "rename never converged: " << from;
}

void chaos_fsync(State& st, std::uint64_t ino) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    const Io f = attempt(st, [&] { return st.sys.fsync(ino); });
    if (f.ok()) return;
  }
  ADD_FAILURE() << "fsync never converged, ino " << ino;
}

/// The mixed workload. Reaches every crash site at least once: the
/// namespace ops (create/mkdir/symlink/rename/link/unlink/rmdir, plus a
/// rename over an existing destination — the only path that purges a
/// replaced file), a small->big promotion plus in-place and page-straddling
/// big-file extents, a shrinking and a promoting truncate, buffered pages
/// flushed by fsync, and plenty of nvme-fs commands for the transport
/// site.
void run_crash_workload(State& st, std::uint64_t seed) {
  const auto dir = chaos_mkdir(st, kvfs::kRootIno, "d");
  ASSERT_NE(dir, 0u);

  std::vector<std::uint64_t> files;
  for (int i = 0; i < 4; ++i) {
    const auto ino = chaos_create(st, dir, "f" + std::to_string(i));
    ASSERT_NE(ino, 0u);
    files.push_back(ino);
    // Whole 4K pages buffered (exact cache view) alternating with direct.
    chaos_write(st, ino, 0, bytes(4096, seed ^ static_cast<unsigned>(i)),
                /*direct=*/i % 2 == 0);
  }

  // Small file grown past kSmallFileMax: promotion to the big-file KV
  // inside the write's batch, then an in-place extent update inside the
  // promoted file, then an allocating write straddling the first 4 MiB
  // index-page boundary (both pages in one batch).
  const auto big = chaos_create(st, dir, "big");
  ASSERT_NE(big, 0u);
  chaos_write(st, big, 0, bytes(4096, seed ^ 100), true);
  chaos_write(st, big, 0, bytes(24 * 1024, seed ^ 101), true);
  chaos_write(st, big, 8192, bytes(4096, seed ^ 102), true);
  chaos_write(st, big, kvfs::kExtentPageSlots * kvfs::kBigBlock - 4096,
              bytes(8192, seed ^ 103), true);

  chaos_symlink(st, "d/f0", dir, "ln");
  chaos_rename(st, dir, "f1", "f1-renamed", files[1]);
  // Rename over an existing destination: exercises the replaced-file purge.
  const auto victim = chaos_create(st, dir, "victim");
  ASSERT_NE(victim, 0u);
  chaos_write(st, victim, 0, bytes(4096, seed ^ 200), false);
  chaos_rename(st, dir, "f3", "victim", files[3]);
  chaos_unlink(st, dir, "f2", files[2]);
  // A hard link and its removal (the link-count path of unlink: the data
  // stays), an empty directory's removal, a shrinking truncate that drops
  // pages and zeroes the boundary block, and a promoting one.
  chaos_link(st, files[0], dir, "f0-link", 2);
  chaos_remove(st, dir, "f0-link", /*dir=*/false);
  ASSERT_NE(chaos_mkdir(st, dir, "empty"), 0u);
  chaos_remove(st, dir, "empty", /*dir=*/true);
  chaos_truncate(st, big, 20000);
  chaos_truncate(st, files[0], 3 * kvfs::kSmallFileMax);

  // Flush every dirty page (drives the mid-flush crash site).
  for (const auto ino : files)
    if (ino != files[2]) chaos_fsync(st, ino);
  chaos_fsync(st, big);

  // WAL-acked fsyncs leave their pages for the background drain; push them
  // down (crash-tolerantly — the drain has its own crash point) before
  // auditing the backend directly.
  if (st.sys.wal() != nullptr && st.sys.cache_control() != nullptr) {
    for (int a = 0; a < kMaxAttempts && st.sys.wal()->pending_pages() > 0;
         ++a) {
      try {
        st.sys.cache_control()->flush_pass();
      } catch (const fault::CrashException&) {
      }
      recover_if_crashed(st);
    }
    EXPECT_EQ(st.sys.wal()->pending_pages(), 0u)
        << "WAL drain never converged";
  }

  // Invariant (b), both views: the coherent cache view and — after the
  // fsyncs above — the backend itself via DIRECT_IO.
  verify_golden(st, /*direct=*/false);
  verify_golden(st, /*direct=*/true);
}

class CrashChaosEverySite : public ::testing::TestWithParam<std::string_view> {
};

/// The tentpole sweep: one full workload per crash site, DPU halted at the
/// site's first arrival, power-cycled, and the three invariants checked.
TEST_P(CrashChaosEverySite, RecoversConsistentlyPumpMode) {
  const std::string_view site = GetParam();
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed(), &fault_reg);
  DpcSystem sys(crash_opts(&fi));
  State st{sys, fi, {}, 0, 0, 0, {}};

  // Arm only after construction so mkfs runs clean.
  fi.arm_crash(site, /*skip=*/0);
  run_crash_workload(st, chaos_seed() ^ std::hash<std::string_view>{}(site));

  EXPECT_GE(st.restarts, 1) << "site never crashed the DPU: " << site;
  EXPECT_GE(fi.crash_arrivals(site), 1u);
  EXPECT_EQ(fault_reg.counter("fault/crashes").value(),
            static_cast<std::uint64_t>(st.restarts));
  EXPECT_EQ(sys.metrics().counter("nvme.ini/resets").value(),
            static_cast<std::uint64_t>(st.restarts * sys.options().queues));
  EXPECT_GE(sys.metrics().histogram("recovery/restart_ns").count(),
            static_cast<std::uint64_t>(st.restarts));
  // A final verification pass directly against the store agrees: clean.
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, CrashChaosEverySite, ::testing::ValuesIn(all_crash_sites()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '.' || c == '/') c = '_';
      return name;
    });

/// Crash depth sweep: the DPU dies progressively deeper into the workload
/// (skip = arrivals survived before the halt), including repeated
/// crash/restart cycles within one system lifetime. Seed shifts the depths.
TEST(CrashChaos, RepeatedCrashesDeeperIntoWorkload) {
  const std::uint64_t seed = chaos_seed();
  obs::Registry fault_reg;
  fault::FaultInjector fi(seed, &fault_reg);
  DpcSystem sys(crash_opts(&fi));
  State st{sys, fi, {}, 0, 0, 0, {}};

  // The transport site sees every nvme-fs command, so any skip depth is
  // reachable; re-arm deeper after each recovery.
  int armed = 0;
  for (const std::uint64_t skip : {seed % 7, 20 + seed % 13, 60 + seed % 17}) {
    fi.arm_crash(nvme::kFaultTgtCrashBeforeCqe, skip);
    ++armed;
    run_crash_workload(st, seed ^ static_cast<std::uint64_t>(armed));
    // Each round's workload reuses names; converging wrappers absorb the
    // EEXIST/ENOENT outcomes from earlier rounds.
  }
  EXPECT_GE(st.restarts, 2) << "repeated crash cycles did not all fire";
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// Worker-mode smoke: real DPU poller threads, a crash mid-run, idle TGT
/// passes detecting the dead controller, and a restart that brings the
/// worker pool back.
TEST(CrashChaos, WorkerModeCrashAndRestart) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0x777, &fault_reg);
  auto opts = crash_opts(&fi);
  opts.dpu_workers = 2;
  DpcSystem sys(opts);
  sys.start_dpu();
  State st{sys, fi, {}, 0, 0, 0, {}};

  fi.arm_crash(nvme::kFaultTgtCrashBeforeCqe, /*skip=*/3);
  run_crash_workload(st, chaos_seed() ^ 0x777);

  EXPECT_GE(st.restarts, 1);
  // The restart resumed worker mode: ops below run without pump fallback.
  const auto post = bytes(4096, 0xabcd);
  const auto ino = chaos_create(st, kvfs::kRootIno, "post-restart");
  ASSERT_NE(ino, 0u);
  chaos_write(st, ino, 0, post, true);
  std::vector<std::byte> out(post.size());
  ASSERT_TRUE(sys.read(ino, 0, out, true).ok());
  EXPECT_EQ(out, post);
  sys.stop_dpu();
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// The kvfs.* sites again with real DPU poller threads: the crash fires on
/// a worker, the host sees lost completions, and recovery still finds
/// nothing to repair.
class CrashChaosWorkerSite
    : public ::testing::TestWithParam<std::string_view> {};

TEST_P(CrashChaosWorkerSite, RecoversConsistentlyWorkerMode) {
  const std::string_view site = GetParam();
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0x3a7, &fault_reg);
  auto opts = crash_opts(&fi);
  opts.dpu_workers = 2;
  DpcSystem sys(opts);
  sys.start_dpu();
  State st{sys, fi, {}, 0, 0, 0, {}};

  fi.arm_crash(site, /*skip=*/0);
  run_crash_workload(st, chaos_seed() ^ std::hash<std::string_view>{}(site));

  EXPECT_GE(st.restarts, 1) << "site never crashed the DPU: " << site;
  sys.stop_dpu();
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

INSTANTIATE_TEST_SUITE_P(
    KvfsSites, CrashChaosWorkerSite, ::testing::ValuesIn(kKvfsCrashSites),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '.' || c == '/') c = '_';
      return name;
    });

/// Two worker-mode callers loop an 8 KiB DIRECT_IO write and read-verify,
/// each on its own file, while the main thread runs `cycle` 20 times, 2 ms
/// apart. No fault is armed: every op must succeed, every read must return
/// the bytes last written, and no CQE may arrive for a reclaimed cid.
void run_live_worker_callers(DpcSystem& sys,
                             const std::function<void()>& cycle) {
  std::uint64_t inos[2];
  for (int t = 0; t < 2; ++t) {
    inos[t] = sys.create(kvfs::kRootIno, "live" + std::to_string(t)).ino;
    ASSERT_NE(inos[t], 0u);
  }
  sys.start_dpu();
  std::atomic<bool> stop{false};
  std::atomic<int> failed_ops{0};
  std::atomic<int> bad_reads{0};
  std::atomic<int> rounds{0};
  // The first failed op, described: errno, last nvme status, submissions.
  std::mutex first_mu;
  std::string first_failure;
  const auto failed = [&](int t, unsigned i, const char* what, const Io& io) {
    failed_ops.fetch_add(1);
    std::lock_guard lock(first_mu);
    if (!first_failure.empty()) return;
    first_failure = "caller " + std::to_string(t) + " round " +
                    std::to_string(i) + ": " + what + " failed with errno " +
                    std::to_string(io.err) + ", nvme status " +
                    std::to_string(static_cast<int>(io.status)) + ", after " +
                    std::to_string(io.attempts) + " attempt(s)";
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      std::vector<std::byte> data(8192);
      std::vector<std::byte> out(data.size());
      for (unsigned i = 0; !stop.load(std::memory_order_acquire); ++i) {
        for (std::size_t k = 0; k < data.size(); ++k)
          data[k] = static_cast<std::byte>((k * 131 + i * 7 + t * 97) & 0xFF);
        std::memcpy(data.data(), &i, sizeof(i));
        if (const Io w = sys.write(inos[t], 0, data, /*direct=*/true);
            !w.ok()) {
          failed(t, i, "write", w);
          continue;
        }
        if (const Io r = sys.read(inos[t], 0, out, /*direct=*/true); !r.ok()) {
          failed(t, i, "read", r);
          continue;
        }
        if (out != data) bad_reads.fetch_add(1);
        rounds.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cycle();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : callers) th.join();
  sys.stop_dpu();

  EXPECT_GT(rounds.load(), 0);
  EXPECT_EQ(failed_ops.load(), 0) << "first failure: " << first_failure;
  EXPECT_EQ(bad_reads.load(), 0) << "a read returned bytes other than the "
                                    "ones last written";
  EXPECT_EQ(sys.metrics().counter("nvme.ini/late_cqes").value(), 0u)
      << "a CQE arrived for a cid the host had already reclaimed";
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

DpcOptions live_worker_opts() {
  DpcOptions o = crash_opts(nullptr);
  o.dpu_workers = 2;
  // Each restart aborts every in-flight command once; leave room for an op
  // whose attempts straddle several.
  o.nvme_retry.max_attempts = 8;
  return o;
}

/// restart_dpu() under live worker-mode callers: a caller that falls back
/// to pumping inside the restart's stop_dpu() window must never share the
/// TGT with the restarted workers. The only aborts are the restart's own.
TEST(CrashChaos, RestartUnderLiveWorkerCallers) {
  DpcSystem sys(live_worker_opts());
  std::uint64_t aborted = 0;
  run_live_worker_callers(
      sys, [&] { aborted += sys.restart_dpu().aborted_cids; });
  EXPECT_EQ(sys.metrics().counter("nvme.ini/timeouts").value(), aborted)
      << "a live command was declared lost outside the restarts";
}

/// stop_dpu()/start_dpu() under live worker-mode callers: a caller waiting
/// across the stop pumps for itself, and no command is ever declared lost.
TEST(CrashChaos, StopStartUnderLiveWorkerCallers) {
  DpcSystem sys(live_worker_opts());
  run_live_worker_callers(sys, [&] {
    sys.stop_dpu();
    sys.start_dpu();
  });
  EXPECT_EQ(sys.metrics().counter("nvme.ini/timeouts").value(), 0u)
      << "a live command was declared lost";
}

// ===================================================== NVM-WAL chaos =====
//
// Same contract, durability tier on: every fsync may now ack at NVM
// persistence with its pages still undrained, so the crash set grows by the
// WAL's own sites (torn append, crash after the drain marker, crash mid
// replay). Zero acked-fsync loss and an fsck-clean keyspace must hold
// through all of them.

DpcOptions wal_chaos_opts(fault::FaultInjector* fi) {
  auto o = crash_opts(fi);
  o.enable_nvm_wal = true;
  // No opportunistic drain on poll: fsync'd pages stay WAL-resident until
  // the explicit drain (workload end / fsync fallback / restart), which is
  // what puts the log's own crash sites in play.
  o.cache_ctl.evict_batch = 0;
  return o;
}

constexpr std::string_view kWalCrashSites[] = {
    nvm::kCrashWalMidAppend,
    nvm::kCrashWalAfterDrain,
    "kvfs.unlink/crash_after_commit",  // before its WAL truncate marker
    "kvfs.truncate/crash_after_commit",
    "kvfs.rename/crash_before_commit",
    "kvfs.write/crash_before_commit",
    cache::kFaultFlushCrashBeforeClean,
    nvme::kFaultTgtCrashBeforeCqe,
};

class CrashChaosWalSite : public ::testing::TestWithParam<std::string_view> {};

TEST_P(CrashChaosWalSite, RecoversConsistentlyPumpMode) {
  const std::string_view site = GetParam();
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0xa1, &fault_reg);
  DpcSystem sys(wal_chaos_opts(&fi));
  State st{sys, fi, {}, 0, 0, 0, {}};

  fi.arm_crash(site, /*skip=*/0);
  run_crash_workload(st, chaos_seed() ^ std::hash<std::string_view>{}(site));

  EXPECT_GE(st.restarts, 1) << "site never crashed the DPU: " << site;
  EXPECT_GE(fi.crash_arrivals(site), 1u);
  // The durability tier was actually in play, not just configured.
  EXPECT_GE(sys.metrics().counter("wal/appends").value(), 1u);
  EXPECT_GE(sys.metrics().counter("wal/recoveries").value(),
            static_cast<std::uint64_t>(st.restarts));
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

INSTANTIATE_TEST_SUITE_P(
    WalSites, CrashChaosWalSite, ::testing::ValuesIn(kWalCrashSites),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '.' || c == '/') c = '_';
      return name;
    });

/// Crash *during WAL replay*: the first power cycle dies mid-replay (report
/// says interrupted, crash latch set again); the second replays the intact
/// log from scratch and converges — replay is idempotent.
TEST(CrashChaosWal, CrashDuringWalReplayConverges) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0x31337, &fault_reg);
  DpcSystem sys(wal_chaos_opts(&fi));

  const auto ino = sys.create(kvfs::kRootIno, "r").ino;
  ASSERT_NE(ino, 0u);
  const auto d = bytes(8192, chaos_seed() ^ 0x31337);
  ASSERT_TRUE(sys.write(ino, 0, d, false).ok());
  ASSERT_TRUE(sys.fsync(ino).ok());
  ASSERT_GE(sys.wal()->pending_pages(), 1u);

  fi.arm_crash(nvme::kFaultTgtCrashBeforeCqe, /*skip=*/0);
  (void)sys.getattr(ino);
  ASSERT_TRUE(fi.crashed());

  fi.arm_crash(nvm::kCrashWalMidReplay, /*skip=*/0);
  const auto rep1 = sys.restart_dpu();
  EXPECT_TRUE(rep1.interrupted);
  EXPECT_TRUE(fi.crashed());

  const auto rep2 = sys.restart_dpu();
  EXPECT_TRUE(rep2.clean());
  EXPECT_GE(rep2.fs.wal.scanned, 1u);

  std::vector<std::byte> out(d.size());
  ASSERT_TRUE(sys.read(ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, d) << "acked fsync lost across an interrupted replay";
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// The flusher dies at crash_before_clean after its drain has cleared the
/// dirty bits of every page it read, so those pages live only in the
/// DPU-side dirty index, which dies with it. restart_dpu() must rebuild the
/// index from the meta scan: the reflush finds the crashed page, and a
/// later WAL-on fsync still logs pre-crash dirt whose bits are gone.
TEST(CrashChaos, FlushCrashAfterDrainRebuildsDirtyIndex) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0xd1, &fault_reg);
  DpcSystem sys(wal_chaos_opts(&fi));
  const auto a = sys.create(kvfs::kRootIno, "a").ino;
  const auto b = sys.create(kvfs::kRootIno, "b").ino;
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  const auto flush_crash = [&] {
    fi.arm_crash(cache::kFaultFlushCrashBeforeClean, /*skip=*/0);
    EXPECT_THROW(sys.cache_control()->flush_pass(), fault::CrashException);
    ASSERT_TRUE(fi.crashed());
  };

  // Crash 1: the reflush after the restart finds the page anyway.
  const auto a_data = bytes(4096, chaos_seed() ^ 0xa);
  ASSERT_TRUE(sys.write(a, 0, a_data, false).ok());
  flush_crash();
  const auto rep1 = sys.restart_dpu();
  EXPECT_TRUE(rep1.clean());
  EXPECT_GE(rep1.reflushed_pages, 1);
  std::vector<std::byte> out(a_data.size());
  ASSERT_TRUE(sys.read(a, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, a_data) << "the reflush did not write the last bytes";

  // Crash 2: every flush write fails across the restart, so the rebuilt
  // index alone carries B's pages to the WAL-on fsync.
  const auto b_data = bytes(8192, chaos_seed() ^ 0xb);
  ASSERT_TRUE(sys.write(b, 0, b_data, false).ok());
  flush_crash();
  fi.arm(cache::kFaultFlushWritePage, 1.0);
  const auto rep2 = sys.restart_dpu();
  fi.disarm(cache::kFaultFlushWritePage);
  EXPECT_TRUE(rep2.clean());
  EXPECT_EQ(rep2.reflushed_pages, 0);
  const std::uint64_t logged = sys.control_stats()->wal_pages_logged.load();
  ASSERT_TRUE(sys.fsync(b).ok());
  EXPECT_EQ(sys.control_stats()->wal_pages_logged.load() - logged, 2u)
      << "a WAL-on fsync acked without logging pre-crash dirty pages";
  out.resize(b_data.size());
  ASSERT_TRUE(sys.read(b, 0, out, /*direct=*/false).ok());
  EXPECT_EQ(out, b_data);
  EXPECT_EQ(sys.cache_control()->flush_pass().pages, 2);
  ASSERT_TRUE(sys.read(b, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, b_data);
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

/// Worker mode with the durability tier on: real poller threads (the
/// background flusher drains the WAL concurrently), a crash mid-run, and a
/// restart that recovers through the log.
TEST(CrashChaosWal, WorkerModeCrashAndRestart) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(chaos_seed() ^ 0x717, &fault_reg);
  auto opts = wal_chaos_opts(&fi);
  opts.dpu_workers = 2;
  DpcSystem sys(opts);
  sys.start_dpu();
  State st{sys, fi, {}, 0, 0, 0, {}};

  fi.arm_crash(nvme::kFaultTgtCrashBeforeCqe, /*skip=*/3);
  run_crash_workload(st, chaos_seed() ^ 0x717);

  EXPECT_GE(st.restarts, 1);
  EXPECT_GE(sys.metrics().counter("wal/appends").value(), 1u);
  const auto post = bytes(4096, 0xab1e);
  const auto ino = chaos_create(st, kvfs::kRootIno, "post-restart");
  ASSERT_NE(ino, 0u);
  chaos_write(st, ino, 0, post, true);
  std::vector<std::byte> out(post.size());
  ASSERT_TRUE(sys.read(ino, 0, out, true).ok());
  EXPECT_EQ(out, post);
  sys.stop_dpu();
  EXPECT_TRUE(kvfs::fsck(sys.kv_store()).clean());
}

}  // namespace
}  // namespace dpc::core
