// Deterministic workload generators modelled after the fio / vdbench
// configurations in the paper's evaluation (§4): random/sequential read and
// write at 4K/8K/1M, the 70:30 mixed workload of Fig. 1, file-creation
// streams for the small-file tests of Fig. 9, and a locality knob used by
// the hybrid-cache experiment (Fig. 8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace dpc::sim {

enum class OpType : std::uint8_t {
  kRead,
  kWrite,
  kCreate,  ///< create + first write of a small file
};

/// One generated I/O.
struct IoOp {
  OpType type = OpType::kRead;
  std::uint64_t file_id = 0;   ///< which file (inode surrogate)
  std::uint64_t offset = 0;    ///< byte offset within the file
  std::uint32_t length = 0;    ///< bytes
};

enum class Pattern : std::uint8_t {
  kRandRead,
  kRandWrite,
  kSeqRead,
  kSeqWrite,
  kMixed,    ///< read_fraction of reads, rest writes, random offsets
  kCreate,   ///< stream of file creations (small-file workload)
};

struct WorkloadSpec {
  Pattern pattern = Pattern::kRandRead;
  std::uint32_t io_size = 8 * 1024;
  std::uint64_t file_size = std::uint64_t{1} << 30;  ///< paper: >1 GB big files
  std::uint64_t file_count = 1;
  double read_fraction = 0.7;  ///< used by kMixed (Fig. 1: 70% read)
  /// Probability that a random access re-touches the hot region (fraction
  /// `hot_fraction` of the file). locality=0 → uniform. Used by Fig. 8.
  double locality = 0.0;
  double hot_fraction = 0.1;
  std::uint64_t seed = 42;
};

/// Stateful generator; one instance per simulated thread keeps streams
/// independent and reproducible (seed is mixed with the stream id).
class WorkloadGen {
 public:
  WorkloadGen(const WorkloadSpec& spec, std::uint64_t stream_id);

  IoOp next();

  const WorkloadSpec& spec() const { return spec_; }

 private:
  std::uint64_t aligned_slots() const;
  std::uint64_t random_offset();

  WorkloadSpec spec_;
  Rng rng_;
  std::uint64_t seq_cursor_ = 0;
  std::uint64_t create_cursor_ = 0;
  std::uint64_t stream_id_ = 0;
};

/// The thread-count sweep used across the paper's figures.
std::vector<int> default_thread_sweep(int max_threads);

}  // namespace dpc::sim
