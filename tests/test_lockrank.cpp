// Lock-rank / lock-order detector tests.
//
// With DPC_LOCKRANK_ENABLED (debug builds, sanitizer builds, or an explicit
// -DDPC_LOCKRANK=1) a rank inversion and a two-mutex acquired-before cycle
// must each be detected deterministically — on the first offending
// acquisition, with both lock sets in the message. In release builds the
// detector compiles out entirely and the same sequences must be silent.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "sim/lockrank.hpp"
#include "sim/thread_annotations.hpp"

#include "core/dpc_system.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "pcie/dma.hpp"

namespace dpc::sim {
namespace {

class LockRankFixture : public ::testing::Test {
 protected:
  void SetUp() override { lockrank::reset_for_test(); }
  void TearDown() override { lockrank::reset_for_test(); }
};

#if DPC_LOCKRANK_ENABLED

TEST_F(LockRankFixture, DescendingAcquisitionIsClean) {
  AnnotatedMutex hi{"t.hi", LockRank::kSystem};
  AnnotatedMutex lo{"t.lo", LockRank::kDriver};
  LockGuard a(hi);
  LockGuard b(lo);
  EXPECT_EQ(lockrank::held_count(), 2u);
}

TEST_F(LockRankFixture, RankInversionThrowsOnFirstBadAcquire) {
  AnnotatedMutex hi{"t.hi", LockRank::kSystem};
  AnnotatedMutex lo{"t.lo", LockRank::kDriver};
  {
    LockGuard a(lo);
    try {
      LockGuard b(hi);
      FAIL() << "rank inversion not detected";
    } catch (const LockOrderError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank inversion"), std::string::npos) << msg;
      EXPECT_NE(msg.find("t.hi"), std::string::npos) << msg;
      EXPECT_NE(msg.find("t.lo"), std::string::npos) << msg;
    }
    EXPECT_EQ(lockrank::held_count(), 1u);
  }
  // The failed acquisition left the mutex untouched: it is still free.
  EXPECT_TRUE(hi.try_lock());
  hi.unlock();
}

TEST_F(LockRankFixture, SameRankConsistentOrderIsClean) {
  AnnotatedMutex a{"t.stripe_a", LockRank::kShard};
  AnnotatedMutex b{"t.stripe_b", LockRank::kShard};
  for (int i = 0; i < 3; ++i) {
    LockGuard la(a);
    LockGuard lb(b);
  }
  EXPECT_EQ(lockrank::held_count(), 0u);
}

TEST_F(LockRankFixture, TwoMutexCycleDetectedDeterministically) {
  AnnotatedMutex a{"t.cycle_a", LockRank::kShard};
  AnnotatedMutex b{"t.cycle_b", LockRank::kShard};
  // Record the A → B edge on a second thread: the edge graph is global,
  // the reverse acquisition below happens on this thread — exactly the
  // cross-thread shape a real AB/BA deadlock has.
  std::thread([&] {
    LockGuard la(a);
    LockGuard lb(b);
  }).join();
  LockGuard lb(b);
  try {
    LockGuard la(a);
    FAIL() << "acquired-before cycle not detected";
  } catch (const LockOrderError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t.cycle_a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t.cycle_b"), std::string::npos) << msg;
    // Both lock sets: this thread's holds and the first-seen holder of
    // the reverse edge.
    EXPECT_NE(msg.find("this thread holds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("opposite order was first taken while holding"),
              std::string::npos)
        << msg;
  }
}

TEST_F(LockRankFixture, SharedAcquisitionsParticipate) {
  AnnotatedSharedMutex rw{"t.rw", LockRank::kStore};
  AnnotatedMutex hi{"t.hi2", LockRank::kSystem};
  SharedLockGuard s(rw);
  EXPECT_THROW(hi.lock(), LockOrderError);
}

TEST_F(LockRankFixture, PumpLocksUnderRestartFollowIndexOrder) {
  // restart_dpu()'s all-queue pump freeze takes every per-queue pump lock in
  // index order. All pump locks share one rank, so the rank check alone says
  // nothing — the acquired-before graph must pin the order. After a restart
  // has seeded edge q0 -> q1, a pump-mode caller repeating that order is
  // clean and a reversed acquisition is reported as a cycle.
  core::DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.enable_cache = false;
  o.with_dfs = false;
  o.dpu_workers = 1;
  core::DpcSystem sys(o);
  ASSERT_GE(sys.pump_queue_count(), 2);

  const auto rep = sys.restart_dpu();  // index-order freeze: records q0 -> q1
  EXPECT_TRUE(rep.clean());
  {
    LockGuard l0(sys.pump_lock_for_test(0));
    LockGuard l1(sys.pump_lock_for_test(1));  // same order as the freeze
  }

  LockGuard l1(sys.pump_lock_for_test(1));
  try {
    LockGuard l0(sys.pump_lock_for_test(0));
    FAIL() << "reversed pump-lock acquisition not detected";
  } catch (const LockOrderError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dpc.pump"), std::string::npos) << msg;
    EXPECT_NE(msg.find("opposite order was first taken while holding"),
              std::string::npos)
        << msg;
  }
}

TEST_F(LockRankFixture, NvmeCompletionWaitRejectsLowRankedLocks) {
  // A thread polling for an NVMe completion may hold the fs-adapter size
  // view (kAdapter, designed to span a round trip) and nothing ranked
  // below it: the DPU side may need that lock to post the completion.
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);
  nvme::QpConfig qc;
  qc.depth = 4;
  nvme::QueuePair qp(qc, halloc, dalloc);
  nvme::IniDriver ini(dma, qp);

  AnnotatedMutex adapter{"t.adapter", LockRank::kAdapter};
  AnnotatedMutex shard{"t.shard", LockRank::kShard};
  {
    LockGuard a(adapter);
    EXPECT_FALSE(ini.try_take(0).has_value());
  }
  LockGuard s(shard);
  try {
    (void)ini.try_take(0);
    FAIL() << "kShard lock held at a completion wait not detected";
  } catch (const LockOrderError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nvme.ini.try_take"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t.shard"), std::string::npos) << msg;
  }
  EXPECT_THROW(ini.wait(0), LockOrderError);
}

TEST_F(LockRankFixture, RecursiveAcquisitionThrows) {
  AnnotatedMutex m{"t.rec", LockRank::kDriver};
  m.lock();
  EXPECT_THROW(m.lock(), LockOrderError);
  m.unlock();
}

#else  // !DPC_LOCKRANK_ENABLED

TEST_F(LockRankFixture, CompiledOutInRelease) {
  // The exact sequences the enabled build must reject are silent here,
  // and the bookkeeping reports nothing held.
  AnnotatedMutex hi{"t.hi", LockRank::kSystem};
  AnnotatedMutex lo{"t.lo", LockRank::kDriver};
  {
    LockGuard a(lo);
    LockGuard b(hi);  // rank inversion — must not throw
    EXPECT_EQ(lockrank::held_count(), 0u);
  }
  AnnotatedMutex x{"t.x", LockRank::kShard};
  AnnotatedMutex y{"t.y", LockRank::kShard};
  {
    LockGuard lx(x);
    LockGuard ly(y);
  }
  {
    LockGuard ly(y);
    LockGuard lx(x);  // reverse order — must not throw
    lockrank::require_none_below(LockRank::kAdapter, "t.wait");  // silent
  }
}

#endif  // DPC_LOCKRANK_ENABLED

}  // namespace
}  // namespace dpc::sim
