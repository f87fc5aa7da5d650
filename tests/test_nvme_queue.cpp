#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/virtual_client.hpp"
#include "nvme/ini.hpp"
#include "nvme/queue_pair.hpp"
#include "nvme/tgt.hpp"
#include "pcie/dma.hpp"

namespace dpc {
namespace {

using core::NvmeRawHarness;

NvmeRawHarness::Options small_opts() {
  NvmeRawHarness::Options o;
  o.queues = 2;
  o.depth = 8;
  o.max_io = 64 * 1024;
  return o;
}

TEST(NvmeQueue, WriteEchoCompletes) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{0x42});
  EXPECT_TRUE(h.do_write(0, data));
}

TEST(NvmeQueue, ReadReturnsPattern) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  ASSERT_TRUE(h.do_read(0, dst));
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::byte>((i * 131) & 0xFF)) << i;
}

TEST(NvmeQueue, EightKWriteCostsExactlyFourDmas) {
  // The headline Fig. 4 claim: SQE fetch + PRP-list fetch + payload + CQE.
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{1});
  pcie::DmaScope scope(h.counters());
  ASSERT_TRUE(h.do_write(0, data));
  EXPECT_EQ(scope.ops() - h.counters().ops(pcie::DmaClass::kDoorbell), 4u)
      << "descriptor+data DMAs";
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData), 1u);
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kDescriptor), 3u);
}

TEST(NvmeQueue, EightKReadAlsoFourDmas) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  h.counters().reset();
  ASSERT_TRUE(h.do_read(0, dst));
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData), 1u);
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kDescriptor), 3u);
}

TEST(NvmeQueue, FourKWriteFourDmas) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> data(4096, std::byte{1});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(0, data));
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData) +
                h.counters().ops(pcie::DmaClass::kDescriptor),
            4u);
}

TEST(NvmeQueue, PayloadBytesMatchTransfer) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> data(12345, std::byte{7});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(0, data));
  // Payload + the CRC32C integrity trailer that rides in the same DMA.
  EXPECT_EQ(h.counters().bytes(pcie::DmaClass::kData),
            12345u + nvme::kPayloadCrcBytes);
}

TEST(NvmeQueue, ManySequentialOpsWrapTheRings) {
  NvmeRawHarness h(small_opts());  // depth 8 → forces several wraps
  std::vector<std::byte> data(4096, std::byte{9});
  std::vector<std::byte> dst(4096);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.do_write(0, data)) << "op " << i;
    ASSERT_TRUE(h.do_read(0, dst)) << "op " << i;
  }
}

TEST(NvmeQueue, QueuesAreIndependent) {
  NvmeRawHarness h(small_opts());
  std::vector<std::byte> data(4096, std::byte{3});
  ASSERT_TRUE(h.do_write(0, data));
  ASSERT_TRUE(h.do_write(1, data));
}

TEST(NvmeQueue, ConcurrentThreadsPerQueue) {
  NvmeRawHarness::Options o;
  o.queues = 4;
  o.depth = 16;
  o.max_io = 16 * 1024;
  NvmeRawHarness h(o);
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t, &failures] {
      const int q = t % 4;
      std::vector<std::byte> data(8192,
                                  static_cast<std::byte>(t));
      std::vector<std::byte> dst(8192);
      for (int i = 0; i < kOps; ++i) {
        if (!h.do_write(q, data)) ++failures;
        if (!h.do_read(q, dst)) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NvmeQueue, SqeFetchedFromHostMemoryVerbatim) {
  // White-box: build a qpair directly and check the TGT sees the encoded
  // SQE the INI produced.
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);

  nvme::QpConfig qc;
  qc.depth = 4;
  qc.max_write = 8192;
  qc.max_read = 8192;
  nvme::QueuePair qp(qc, halloc, dalloc);
  nvme::IniDriver ini(dma, qp);

  nvme::NvmeFsCmd seen;
  std::atomic<bool> got{false};
  nvme::TgtDriver tgt(dma, qp,
                      [&](const nvme::NvmeFsCmd& cmd,
                          std::span<const std::byte>,
                          std::span<std::byte>) {
                        seen = cmd;
                        got = true;
                        return nvme::HandlerResult{};
                      });

  nvme::IniDriver::Request req(/*tenant=*/0);
  req.inline_op = nvme::InlineOp::kTruncate;
  req.inode = 0xABCD;
  req.offset = 0x1234567;
  const auto sub = ini.submit(req);
  tgt.process_available();
  ASSERT_TRUE(got.load());
  EXPECT_EQ(seen.inline_op, nvme::InlineOp::kTruncate);
  EXPECT_EQ(seen.inode, 0xABCDu);
  EXPECT_EQ(seen.offset, 0x1234567u);
  EXPECT_EQ(seen.cid, sub.cid);
  const auto c = ini.wait(sub.cid);
  EXPECT_EQ(c.status, nvme::Status::kSuccess);
  ini.release(sub.cid);
}

TEST(NvmeQueue, SglRejectedAsInvalidField) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);
  nvme::QpConfig qc;
  qc.depth = 4;
  nvme::QueuePair qp(qc, halloc, dalloc);
  nvme::IniDriver ini(dma, qp);
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd&, std::span<const std::byte>,
                         std::span<std::byte>) {
                        ADD_FAILURE() << "handler must not run for SGL";
                        return nvme::HandlerResult{};
                      });

  // Hand-encode an SGL command directly into the SQ.
  nvme::NvmeFsCmd cmd;
  cmd.write_psdt = nvme::Psdt::kSgl;
  cmd.cid = 0;
  host.store(qp.sqe_off(0), encode_nvme_fs(cmd));
  dma.doorbell(qp.sq_tail_db_off(), 1);
  tgt.process_available();
  // CQE must carry kInvalidField (phase 1, slot 0).
  const auto last =
      host.atomic_u32(qp.cqe_off(0) + 12).load(std::memory_order_acquire);
  EXPECT_EQ(static_cast<nvme::Status>((last >> 16) >> 1),
            nvme::Status::kInvalidField);
}

TEST(NvmeQueue, InflightAccounting) {
  pcie::MemoryRegion host("host", 8 << 20);
  pcie::RegionAllocator halloc(host);
  pcie::MemoryRegion dpu("dpu", 1 << 20);
  pcie::RegionAllocator dalloc(dpu);
  pcie::DmaEngine dma(host, dpu);
  nvme::QpConfig qc;
  qc.depth = 8;
  nvme::QueuePair qp(qc, halloc, dalloc);
  nvme::IniDriver ini(dma, qp);
  nvme::TgtDriver tgt(dma, qp,
                      [](const nvme::NvmeFsCmd&, std::span<const std::byte>,
                         std::span<std::byte>) {
                        return nvme::HandlerResult{};
                      });
  EXPECT_EQ(ini.inflight(), 0);
  nvme::IniDriver::Request req(/*tenant=*/0);
  req.inline_op = nvme::InlineOp::kFsync;
  const auto s1 = ini.submit(req);
  const auto s2 = ini.submit(req);
  EXPECT_EQ(ini.inflight(), 2);
  tgt.process_available();
  ini.wait(s1.cid);
  ini.wait(s2.cid);
  ini.release(s1.cid);
  ini.release(s2.cid);
  EXPECT_EQ(ini.inflight(), 0);
}

}  // namespace
}  // namespace dpc
