// Reproduces Fig. 2(b) vs Fig. 4: the DMA-operation count of one 8 KB write
// (and read) through virtio-fs/DPFS versus nvme-fs/DPC.
//
// Nothing here is asserted from constants — the counts are read off the
// counting DmaEngine after driving the *real* ring protocols.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/virtual_client.hpp"

namespace {

using namespace dpc;

struct Sample {
  std::uint64_t descriptor = 0;
  std::uint64_t data = 0;
  std::uint64_t doorbell = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total() const { return descriptor + data; }
};

Sample run_nvme(bool write, std::uint32_t size) {
  core::NvmeRawHarness::Options o;
  o.queues = 1;
  o.depth = 8;
  o.max_io = 1 << 20;
  core::NvmeRawHarness h(o);
  std::vector<std::byte> buf(size, std::byte{0x5A});
  h.counters().reset();
  if (write)
    h.do_write(0, buf);
  else
    h.do_read(0, buf);
  Sample s;
  s.descriptor = h.counters().ops(pcie::DmaClass::kDescriptor);
  s.data = h.counters().ops(pcie::DmaClass::kData);
  s.doorbell = h.counters().ops(pcie::DmaClass::kDoorbell);
  s.bytes = h.counters().total_bytes();
  return s;
}

Sample run_virtio(bool write, std::uint32_t size) {
  core::VirtioRawHarness::Options o;
  o.queue_size = 64;
  o.request_slots = 8;
  o.max_io = 1 << 20;
  core::VirtioRawHarness h(o);
  std::vector<std::byte> buf(size, std::byte{0x5A});
  h.counters().reset();
  if (write)
    h.do_write(buf);
  else
    h.do_read(buf);
  Sample s;
  s.descriptor = h.counters().ops(pcie::DmaClass::kDescriptor);
  s.data = h.counters().ops(pcie::DmaClass::kData);
  s.doorbell = h.counters().ops(pcie::DmaClass::kDoorbell);
  s.bytes = h.counters().total_bytes();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline("Fig. 2(b) / Fig. 4 — DMA operations per I/O",
                  "virtio-fs needs 11 DMA ops for an 8 KB write; "
                  "nvme-fs needs 4");

  sim::Table t({"transport", "op", "size", "desc DMAs", "data DMAs",
                "total DMAs", "doorbells", "bytes moved"});
  for (const std::uint32_t size : {4096u, 8192u, 65536u}) {
    for (const bool write : {true, false}) {
      const auto n = run_nvme(write, size);
      const auto v = run_virtio(write, size);
      const char* op = write ? "write" : "read";
      t.add_row({"nvme-fs", op, std::to_string(size),
                 std::to_string(n.descriptor), std::to_string(n.data),
                 std::to_string(n.total()), std::to_string(n.doorbell),
                 std::to_string(n.bytes)});
      t.add_row({"virtio-fs", op, std::to_string(size),
                 std::to_string(v.descriptor), std::to_string(v.data),
                 std::to_string(v.total()), std::to_string(v.doorbell),
                 std::to_string(v.bytes)});
    }
  }
  bench::print_table(t, args);

  const auto n8 = run_nvme(true, 8192);
  const auto v8 = run_virtio(true, 8192);
  std::cout << "paper: 8K write = 11 DMAs (virtio-fs) vs 4 (nvme-fs)\n"
            << "measured: " << v8.total() << " vs " << n8.total() << "  ("
            << sim::Table::fmt(
                   static_cast<double>(v8.total()) /
                       static_cast<double>(n8.total()),
                   2)
            << "x)\n";

  // Metrics trail: one harness, a batch of 8K ops, so the JSON carries the
  // per-stage trace histograms (submit→fetch→dispatch→backend→cqe→reap),
  // plus the 8K-write descriptor + data DMA totals above as counters, which
  // bench/regress gates exactly.
  {
    core::NvmeRawHarness::Options o;
    o.queues = 1;
    o.depth = 8;
    o.max_io = 1 << 20;
    core::NvmeRawHarness h(o);
    std::vector<std::byte> buf(8192, std::byte{0x5A});
    for (int i = 0; i < 64; ++i) {
      h.do_write(0, buf);
      h.do_read(0, buf);
    }
    h.metrics().counter("fig4/nvme_fs_write_8k_dmas").add(n8.total());
    h.metrics().counter("fig4/virtio_fs_write_8k_dmas").add(v8.total());
    bench::emit_metrics_json(h.metrics(), "fig2_fig4_dma_count");
  }
  return 0;
}
