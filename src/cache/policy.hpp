// Cache-management policies the DPU control plane runs (§3.3): the clock
// sweep that picks eviction victims and the sequential prefetcher. §3.3
// argues that offloading the control plane is what makes such policies
// easy to customize; a second policy belongs here once a workload needs it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "cache/layout.hpp"

namespace dpc::cache {

/// Clock sweep: a rotating cursor over the meta area, reclaiming clean
/// pages in scan order — approximates LRU without per-hit bookkeeping,
/// which matters because hits happen on the host without DPU involvement.
/// The statuses arrive a chunk at a time, so a sweep reads only as far past
/// the hand as it needs to find its victims.
class ClockEviction {
 public:
  /// Entries per status chunk (one 8 KiB descriptor DMA of the meta area).
  static constexpr std::uint32_t kChunk = 128;

  /// Sweeps at most once around `total` entries from the hand, appending up
  /// to `want` clean entry indices to `out` in hand order. Statuses come
  /// from `read_chunk(first, status)`, which fills `status` for entries
  /// [first, first + status.size()): at most kChunk of them, never wrapping
  /// past the last entry. No chunk is read once `want` victims are found.
  template <typename ReadChunk>
  void pick_victims(std::uint32_t total, std::uint32_t want,
                    ReadChunk&& read_chunk, std::vector<std::uint32_t>& out) {
    if (total == 0) return;
    if (hand_ >= total) hand_ = 0;
    std::array<PageStatus, kChunk> status;
    std::uint32_t scanned = 0;
    while (want > 0 && scanned < total) {
      const std::uint32_t n =
          std::min({kChunk, total - hand_, total - scanned});
      read_chunk(hand_, std::span<PageStatus>{status.data(), n});
      for (std::uint32_t k = 0; k < n && want > 0; ++k) {
        if (status[k] == PageStatus::kClean) {
          out.push_back(hand_);
          --want;
        }
        hand_ = hand_ + 1 == total ? 0 : hand_ + 1;
        ++scanned;
      }
    }
  }

 private:
  std::uint32_t hand_ = 0;
};

/// Detects per-inode sequential read streams from the misses the DPU sees
/// and recommends a readahead window (Fig. 8's "actively prefetch data for
/// sequential reads").
class SequentialPrefetcher {
 public:
  explicit SequentialPrefetcher(std::uint32_t max_window = 64,
                                std::size_t tracked_streams = 256);

  struct Advice {
    std::uint64_t start_lpn = 0;
    std::uint32_t pages = 0;  ///< 0 = don't prefetch
  };

  /// Reports a read miss covering `span` pages starting at `lpn` (a single
  /// request is one miss event, however many cache pages it covers).
  /// Returns the pages to prefetch beyond the request.
  Advice on_miss(std::uint64_t inode, std::uint64_t lpn,
                 std::uint32_t span = 1);

  /// Reports a cache-hit consumption (from the host's readahead hint).
  /// When the reader crosses the second half of the prefetched range, the
  /// stream is extended asynchronously — returns the extension window.
  Advice on_hit(std::uint64_t inode, std::uint64_t lpn);

  void reset();

 private:
  struct Stream {
    std::uint64_t next_lpn = 0;
    std::uint32_t run = 0;
    std::uint64_t ahead_end = 0;  ///< exclusive end of the prefetched range
    std::uint32_t window = 0;     ///< last window size
  };
  std::uint32_t max_window_;
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Stream> streams_;
  std::list<std::uint64_t> lru_;  // front = most recent inode
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> pos_;

  void touch(std::uint64_t inode);
};

}  // namespace dpc::cache
