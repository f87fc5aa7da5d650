#include "sim/workload.hpp"

#include "sim/check.hpp"

namespace dpc::sim {

WorkloadGen::WorkloadGen(const WorkloadSpec& spec, std::uint64_t stream_id)
    : spec_(spec),
      rng_(spec.seed * 0x9e3779b97f4a7c15ULL + stream_id + 1),
      stream_id_(stream_id) {
  DPC_CHECK(spec_.io_size > 0);
  DPC_CHECK(spec_.file_size >= spec_.io_size);
  DPC_CHECK(spec_.file_count >= 1);
  DPC_CHECK(spec_.read_fraction >= 0.0 && spec_.read_fraction <= 1.0);
  DPC_CHECK(spec_.locality >= 0.0 && spec_.locality <= 1.0);
  DPC_CHECK(spec_.hot_fraction > 0.0 && spec_.hot_fraction <= 1.0);
}

std::uint64_t WorkloadGen::aligned_slots() const {
  return spec_.file_size / spec_.io_size;
}

std::uint64_t WorkloadGen::random_offset() {
  const std::uint64_t slots = aligned_slots();
  std::uint64_t slot;
  if (spec_.locality > 0.0 && rng_.next_bool(spec_.locality)) {
    const auto hot =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       static_cast<double>(slots) *
                                       spec_.hot_fraction));
    slot = rng_.next_below(hot);
  } else {
    slot = rng_.next_below(slots);
  }
  return slot * spec_.io_size;
}

IoOp WorkloadGen::next() {
  IoOp op;
  op.length = spec_.io_size;
  op.file_id = spec_.file_count == 1 ? 0 : rng_.next_below(spec_.file_count);
  switch (spec_.pattern) {
    case Pattern::kRandRead:
      op.type = OpType::kRead;
      op.offset = random_offset();
      break;
    case Pattern::kRandWrite:
      op.type = OpType::kWrite;
      op.offset = random_offset();
      break;
    case Pattern::kSeqRead:
    case Pattern::kSeqWrite: {
      op.type = spec_.pattern == Pattern::kSeqRead ? OpType::kRead
                                                   : OpType::kWrite;
      const std::uint64_t slots = aligned_slots();
      op.offset = (seq_cursor_ % slots) * spec_.io_size;
      ++seq_cursor_;
      break;
    }
    case Pattern::kMixed:
      op.type = rng_.next_bool(spec_.read_fraction) ? OpType::kRead
                                                    : OpType::kWrite;
      op.offset = random_offset();
      break;
    case Pattern::kCreate:
      op.type = OpType::kCreate;
      // Each stream creates its own namespace of files so concurrent
      // creators never collide (matches vdbench's per-thread directories).
      op.file_id = (stream_id_ << 40) | create_cursor_++;
      op.offset = 0;
      break;
  }
  return op;
}

std::vector<int> default_thread_sweep(int max_threads) {
  DPC_CHECK(max_threads >= 1);
  std::vector<int> out;
  for (int n = 1; n <= max_threads; n *= 2) out.push_back(n);
  return out;
}

}  // namespace dpc::sim
