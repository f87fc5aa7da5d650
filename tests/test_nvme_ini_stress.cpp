// Multi-threaded IniDriver stress: cid exhaustion (the condition-variable
// queue-full path), CQ phase wrap, doorbell coalescing, and counter
// accounting under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/virtual_client.hpp"
#include "fault/injector.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/tgt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pcie/dma.hpp"

namespace dpc {
namespace {

using core::NvmeRawHarness;

/// Deterministic cv-path check: fill every cid, show a third submitter
/// blocks (queue_full_waits ticks) and only returns once release() frees a
/// slot.
TEST(NvmeIniStress, SubmitBlocksOnCidExhaustionUntilRelease) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);

  nvme::QpConfig qc;
  qc.depth = 3;  // NVMe convention: depth-1 = 2 usable cids
  nvme::QueuePair qp(qc, halloc, dalloc);
  obs::Registry reg;
  obs::QueueTraces traces(reg, qc.depth);
  nvme::IniDriver ini(dma, qp, &traces);
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd&, std::span<const std::byte>,
                         std::span<std::byte>) {
                        return nvme::HandlerResult{};
                      },
                      &traces);

  nvme::IniDriver::Request req(/*tenant=*/0);
  req.inline_op = nvme::InlineOp::kFsync;
  const auto s1 = ini.submit(req);
  const auto s2 = ini.submit(req);
  ASSERT_EQ(ini.inflight(), 2);

  obs::Counter& waits = reg.counter("nvme.ini/queue_full_waits");
  std::atomic<bool> got3{false};
  std::uint16_t cid3 = 0;
  std::thread blocked([&] {
    const auto s3 = ini.submit(req);  // all cids busy: must block
    cid3 = s3.cid;
    got3.store(true, std::memory_order_release);
  });

  // The waiter announces itself via the counter before sleeping on the cv.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (waits.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(waits.load(), 1u) << "submitter never hit the queue-full path";
  EXPECT_FALSE(got3.load(std::memory_order_acquire));

  tgt.process_available();
  ini.wait(s1.cid);
  ini.release(s1.cid);  // wakes the blocked submitter
  blocked.join();
  EXPECT_TRUE(got3.load());

  tgt.process_available();
  ini.wait(s2.cid);
  ini.release(s2.cid);
  ini.wait(cid3);
  ini.release(cid3);
  EXPECT_EQ(ini.inflight(), 0);
  EXPECT_EQ(reg.counter("nvme.ini/submits").load(), 3u);
  EXPECT_EQ(reg.counter("nvme.ini/reaps").load(), 3u);
}

/// Controller reset with commands in every state: completed-unreleased,
/// in-flight without a CQE, and free. reset() must abort exactly the
/// in-flight ones, never clobber a recorded completion, leak no cid, and
/// leave the rings usable (phase protocol restarts cleanly at slot 0).
TEST(NvmeIniStress, ResetAbortsInflightAndRingsRestartClean) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);

  nvme::QpConfig qc;
  qc.depth = 4;  // 3 usable cids
  nvme::QueuePair qp(qc, halloc, dalloc);
  obs::Registry reg;
  obs::QueueTraces traces(reg, qc.depth);
  nvme::IniDriver ini(dma, qp, &traces);
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd&, std::span<const std::byte>,
                         std::span<std::byte>) {
                        return nvme::HandlerResult{};
                      },
                      &traces);

  nvme::IniDriver::Request req(/*tenant=*/0);
  req.inline_op = nvme::InlineOp::kFsync;
  const auto s1 = ini.submit(req);
  const auto s2 = ini.submit(req);
  const auto s3 = ini.submit(req);
  tgt.process_available(1);  // only s1's SQE is consumed and completed
  const auto done1 = ini.wait(s1.cid);
  EXPECT_EQ(done1.status, nvme::Status::kSuccess);

  // "DPU power-cycle": TGT rewinds first, then the host side aborts.
  tgt.reset();
  EXPECT_EQ(ini.reset(), 2) << "exactly the two unacked commands abort";
  EXPECT_EQ(reg.counter("nvme.ini/resets").load(), 1u);

  // s1's recorded completion survived the reset unclobbered.
  const auto after1 = ini.try_take(s1.cid);
  ASSERT_TRUE(after1.has_value());
  EXPECT_EQ(after1->status, nvme::Status::kSuccess);
  for (const std::uint16_t cid : {s2.cid, s3.cid}) {
    const auto c = ini.try_take(cid);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->status, nvme::Status::kAbortedByRequest);
    EXPECT_TRUE(nvme::is_retryable(c->status));
  }
  ini.release(s1.cid);
  ini.release(s2.cid);
  ini.release(s3.cid);
  EXPECT_EQ(ini.inflight(), 0) << "no leaked cids after reset";

  // The reset rings serve fresh traffic: every cid usable, completions
  // land, and no stale CQE is mistaken for a new one.
  for (int round = 0; round < 6; ++round) {
    const auto s = ini.submit(req);
    tgt.process_available();
    const auto c = ini.wait(s.cid);
    EXPECT_EQ(c.status, nvme::Status::kSuccess) << "round " << round;
    ini.release(s.cid);
  }
  EXPECT_EQ(reg.counter("nvme.ini/late_cqes").load(), 0u);
}

/// 8 threads hammer one depth-4 queue: cid starvation is constant, the CQ
/// phase bit wraps hundreds of times, and every op must still complete
/// correctly with exact counter accounting.
TEST(NvmeIniStress, ThreadsHammerTinyQueue) {
  NvmeRawHarness::Options o;
  o.queues = 1;
  o.depth = 4;
  o.max_io = 16 * 1024;
  NvmeRawHarness h(o);

  constexpr int kThreads = 8;
  constexpr int kOps = 200;  // write+read each → 3200 submissions total
  std::atomic<int> failures{0};
  // The first failure, described: which op, and the completion it got.
  std::mutex first_mu;
  std::string first;
  const auto fail = [&](int t, int i, const char* what,
                        const nvme::Completion* c) {
    ++failures;
    std::ostringstream why;
    why << "thread " << t << " op " << i << ": " << what;
    if (c != nullptr)
      why << " completed with nvme status " << static_cast<int>(c->status)
          << ", result (bytes or errno) " << c->result
          << ", after 1 submission (the raw harness never retries)";
    std::lock_guard lock(first_mu);
    if (first.empty()) first = why.str();
  };
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t, &fail] {
      std::vector<std::byte> data(4096, static_cast<std::byte>(t + 1));
      std::vector<std::byte> dst(4096);
      for (int i = 0; i < kOps; ++i) {
        nvme::Completion c;
        if (!h.do_write(0, data, &c)) fail(t, i, "write", &c);
        if (!h.do_read(0, dst, &c)) fail(t, i, "read", &c);
        // The virtual client serves reads from its pattern buffer.
        for (std::size_t b = 0; b < dst.size(); b += 509) {
          if (dst[b] != static_cast<std::byte>((b * 131) & 0xFF)) {
            fail(t, i, "read returned bytes other than the pattern", nullptr);
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0) << "first failure: " << first;

  obs::Registry& reg = h.metrics();
  const std::uint64_t total = 2ULL * kThreads * kOps;
  EXPECT_EQ(reg.counter("nvme.ini/submits").load(), total);
  EXPECT_EQ(reg.counter("nvme.ini/reaps").load(), total);
  // 8 threads vs 4 cids: the queue-full cv path must have been exercised.
  EXPECT_GT(reg.counter("nvme.ini/queue_full_waits").load(), 0u);
  // Doorbell coalescing: one CQ-head ring per drained batch, never more
  // than one per reaped completion.
  const auto doorbells = reg.counter("nvme.ini/cq_doorbells").load();
  EXPECT_GE(doorbells, 1u);
  EXPECT_LE(doorbells, total);
  // Every completed op traced end-to-end.
  EXPECT_EQ(reg.histogram("trace/submit_to_reap_ns").count(), total);
}

/// submit() racing abort(): a submit on an empty cid pool parks on
/// free_cv_ while another thread aborts a timed-out command and releases
/// its cid, which the parked submit then takes. The aborted command's
/// synthetic completion must not be clobbered, a CQE that lands after an
/// abort is discarded (late_cqes), and every cid stays reusable afterwards.
TEST(NvmeIniStress, SubmitParkedOnEmptyPoolRacesAbortKeepsCidsClean) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);

  nvme::QpConfig qc;
  qc.depth = 4;  // 3 usable cids
  nvme::QueuePair qp(qc, halloc, dalloc);
  obs::Registry reg;
  obs::QueueTraces traces(reg, qc.depth);
  fault::FaultInjector fi(0x1234, &reg);
  nvme::IniDriver ini(dma, qp, &traces);
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd&, std::span<const std::byte>,
                         std::span<std::byte>) {
                        return nvme::HandlerResult{};
                      },
                      &traces, &fi);

  nvme::IniDriver::Request req(/*tenant=*/0);
  req.inline_op = nvme::InlineOp::kFsync;

  // s1's CQE is dropped on the floor (the only way a command times out
  // here), so abort() must synthesize its completion.
  fi.arm(nvme::kFaultTgtDropCqe, 1.0);
  const auto s1 = ini.submit(req);
  tgt.process_available(1);
  fi.disarm(nvme::kFaultTgtDropCqe);
  // Fill the remaining cids so the submit below starts with zero free.
  const auto s2 = ini.submit(req);
  const auto s3 = ini.submit(req);
  ASSERT_EQ(ini.inflight(), 3);

  obs::Counter& waits = reg.counter("nvme.ini/queue_full_waits");
  const std::uint64_t waits_before = waits.load();
  nvme::IniDriver::Submitted parked;
  std::atomic<bool> parked_done{false};
  std::thread submitter([&] {
    parked = ini.submit(req);  // no free cid: parks on free_cv_
    parked_done.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (waits.load() == waits_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(waits.load(), waits_before) << "submit never hit queue-full";
  EXPECT_FALSE(parked_done.load(std::memory_order_acquire));

  // Abort the timed-out s1 while the submit is parked; release() hands its
  // cid to the parked submit, the only cid free.
  const auto aborted = ini.abort(s1.cid);
  EXPECT_EQ(aborted.status, nvme::Status::kAbortedByRequest);
  EXPECT_TRUE(nvme::is_retryable(aborted.status));
  const auto still = ini.try_take(s1.cid);
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->status, nvme::Status::kAbortedByRequest)
      << "abort record clobbered before release";
  ini.release(s1.cid);
  submitter.join();
  EXPECT_TRUE(parked_done.load());
  EXPECT_EQ(parked.cid, s1.cid) << "aborted cid never reissued";

  // Complete s2, s3 and the parked command on the recycled cid.
  tgt.process_available();
  EXPECT_EQ(ini.wait(s2.cid).status, nvme::Status::kSuccess);
  ini.release(s2.cid);
  EXPECT_EQ(ini.wait(s3.cid).status, nvme::Status::kSuccess);
  ini.release(s3.cid);
  EXPECT_EQ(ini.wait(parked.cid).status, nvme::Status::kSuccess)
      << "parked command on recycled cid " << parked.cid;
  ini.release(parked.cid);
  EXPECT_EQ(ini.inflight(), 0);
  EXPECT_EQ(reg.counter("nvme.ini/late_cqes").load(), 0u)
      << "dropped CQE can never arrive late";

  // Now the documented race the late-CQE guard exists for: abort() lands
  // while the CQE is still in flight (SQE consumed after the abort). The
  // late CQE must be discarded, not delivered as the abort's completion.
  const auto s4 = ini.submit(req);
  const auto aborted4 = ini.abort(s4.cid);  // before the TGT runs
  EXPECT_EQ(aborted4.status, nvme::Status::kAbortedByRequest);
  tgt.process_available();  // posts the real CQE for s4's cid
  const auto after = ini.try_take(s4.cid);  // drains → discards late CQE
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, nvme::Status::kAbortedByRequest)
      << "late CQE clobbered the abort record";
  EXPECT_EQ(reg.counter("nvme.ini/late_cqes").load(), 1u);
  ini.release(s4.cid);

  // The queue still serves fresh traffic on every cid, no cross-talk.
  for (int round = 0; round < 6; ++round) {
    const auto s = ini.submit(req);
    tgt.process_available();
    EXPECT_EQ(ini.wait(s.cid).status, nvme::Status::kSuccess)
        << "round " << round;
    ini.release(s.cid);
  }
  EXPECT_EQ(reg.counter("nvme.ini/late_cqes").load(), 1u);
}

/// Single-threaded soak on a depth-4 queue: 400 ops force ~100 full ring
/// wraps, flipping the CQ phase tag every wrap.
TEST(NvmeIniStress, PhaseTagSurvivesManyWraps) {
  NvmeRawHarness::Options o;
  o.queues = 1;
  o.depth = 4;
  o.max_io = 16 * 1024;
  NvmeRawHarness h(o);
  std::vector<std::byte> data(4096, std::byte{0x3C});
  std::vector<std::byte> dst(4096);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(h.do_write(0, data)) << "op " << i;
    ASSERT_TRUE(h.do_read(0, dst)) << "op " << i;
  }
  EXPECT_EQ(h.metrics().counter("nvme.ini/reaps").load(), 400u);
}

}  // namespace
}  // namespace dpc
