#include "core/virtual_client.hpp"
#include "virtio/virtio_fs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace dpc {
namespace {

using core::VirtioRawHarness;

VirtioRawHarness::Options small_opts() {
  VirtioRawHarness::Options o;
  o.queue_size = 64;
  o.request_slots = 8;
  o.max_io = 64 * 1024;
  return o;
}

TEST(VirtioFs, WriteEcho) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{0x11});
  EXPECT_TRUE(h.do_write(data));
}

TEST(VirtioFs, ReadReturnsPattern) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  ASSERT_TRUE(h.do_read(dst));
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::byte>((i * 131) & 0xFF)) << i;
}

TEST(VirtioFs, EightKWriteCostsExactlyElevenDmas) {
  // The Fig. 2(b) claim: "the number of DMA operations involved in
  // virtio-fs reaches up to unbearable 11" for an 8 KB write:
  //   ① avail idx, ② ring entry, ③–⑥ four descriptors, ⑦ command
  //   (in-header + write-in, contiguous), ⑧ data, ⑨ response,
  //   ⑩ used elem, ⑪ used idx.
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{1});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(data));
  const auto descriptor = h.counters().ops(pcie::DmaClass::kDescriptor);
  const auto payload = h.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(descriptor + payload, 11u)
      << "descriptor=" << descriptor << " data=" << payload;
  EXPECT_EQ(payload, 3u);     // command read, data read, response write
  EXPECT_EQ(descriptor, 8u);  // idx, ring, 4 desc, used elem, used idx
}

TEST(VirtioFs, EightKReadAlsoElevenDmas) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  h.counters().reset();
  ASSERT_TRUE(h.do_read(dst));
  const auto total = h.counters().ops(pcie::DmaClass::kDescriptor) +
                     h.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(total, 11u);
}

TEST(VirtioFs, NvmeFsMovesFarFewerDmasThanVirtio) {
  // Cross-check the motivating ratio (2–3× more DMA ops in virtio-fs).
  VirtioRawHarness v(small_opts());
  core::NvmeRawHarness::Options no;
  no.queues = 1;
  no.depth = 8;
  no.max_io = 64 * 1024;
  core::NvmeRawHarness n(no);

  std::vector<std::byte> data(8192, std::byte{1});
  v.counters().reset();
  ASSERT_TRUE(v.do_write(data));
  n.counters().reset();
  ASSERT_TRUE(n.do_write(0, data));

  const auto virtio_ops = v.counters().ops(pcie::DmaClass::kDescriptor) +
                          v.counters().ops(pcie::DmaClass::kData);
  const auto nvme_ops = n.counters().ops(pcie::DmaClass::kDescriptor) +
                        n.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(virtio_ops, 11u);
  EXPECT_EQ(nvme_ops, 4u);
  EXPECT_GE(static_cast<double>(virtio_ops) / nvme_ops, 2.0);
}

// Fig. 4 counts link transactions per request, not per page: a multi-page
// payload is one burst. So each transport's per-op count is the same at
// every I/O size the harnesses carry.
class TransportDmaCount : public ::testing::TestWithParam<std::size_t> {
 protected:
  static std::uint64_t link_ops(pcie::DmaCounters& c) {
    return c.ops(pcie::DmaClass::kDescriptor) + c.ops(pcie::DmaClass::kData);
  }
  static core::NvmeRawHarness::Options nvme_opts() {
    core::NvmeRawHarness::Options o;
    o.queues = 1;
    o.depth = 8;
    o.max_io = 128 * 1024;
    return o;
  }
  static VirtioRawHarness::Options virtio_opts() {
    auto o = small_opts();
    o.max_io = 128 * 1024;
    return o;
  }
};

TEST_P(TransportDmaCount, VirtioWriteIsEleven) {
  VirtioRawHarness h(virtio_opts());
  std::vector<std::byte> data(GetParam(), std::byte{7});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(data));
  EXPECT_EQ(link_ops(h.counters()), 11u);
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData), 3u);
}

TEST_P(TransportDmaCount, VirtioReadIsEleven) {
  VirtioRawHarness h(virtio_opts());
  std::vector<std::byte> dst(GetParam());
  h.counters().reset();
  ASSERT_TRUE(h.do_read(dst));
  EXPECT_EQ(link_ops(h.counters()), 11u);
}

TEST_P(TransportDmaCount, NvmeWriteIsFour) {
  core::NvmeRawHarness h(nvme_opts());
  std::vector<std::byte> data(GetParam(), std::byte{7});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(0, data));
  EXPECT_EQ(link_ops(h.counters()), 4u);
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData), 1u);
}

TEST_P(TransportDmaCount, NvmeReadIsFour) {
  core::NvmeRawHarness h(nvme_opts());
  std::vector<std::byte> dst(GetParam());
  h.counters().reset();
  ASSERT_TRUE(h.do_read(0, dst));
  EXPECT_EQ(link_ops(h.counters()), 4u);
  EXPECT_EQ(h.counters().ops(pcie::DmaClass::kData), 1u);
}

INSTANTIATE_TEST_SUITE_P(IoSizes, TransportDmaCount,
                         ::testing::Values(4096, 8192, 16384, 65536));

TEST(VirtioFs, UnknownOpcodeReturnsEnosys) {
  VirtioRawHarness h(small_opts());
  auto& guest = h.guest();
  const auto sub = h.guest().submit(virtio::FuseOpcode::kDestroy, 1, {}, {}, 0);
  virtio::FuseReplyView reply;
  while (!guest.try_wait(sub.ticket, &reply)) h.pump();
  EXPECT_EQ(reply.error, -38);
  guest.release(sub.ticket);
}

TEST(VirtioFs, SlotsRecycleUnderSustainedLoad) {
  VirtioRawHarness h(small_opts());  // only 8 slots
  std::vector<std::byte> data(4096, std::byte{5});
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(h.do_write(data)) << i;
}

TEST(VirtioFs, ConcurrentGuestsSingleHal) {
  VirtioRawHarness::Options o;
  o.queue_size = 256;
  o.request_slots = 32;
  o.max_io = 16 * 1024;
  VirtioRawHarness h(o);
  constexpr int kThreads = 8;
  constexpr int kOps = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, &failures, t] {
      std::vector<std::byte> data(8192, static_cast<std::byte>(t));
      std::vector<std::byte> dst(8192);
      for (int i = 0; i < kOps; ++i) {
        if (!h.do_write(data)) ++failures;
        if (!h.do_read(dst)) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace dpc
