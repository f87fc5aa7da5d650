// Cache-management policies the DPU control plane runs (§3.3): the clock
// sweep that picks eviction victims and the sequential prefetcher. §3.3
// argues that offloading the control plane is what makes such policies
// easy to customize; a second policy belongs here once a workload needs it.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/layout.hpp"

namespace dpc::cache {

/// Clock sweep: a rotating cursor over the meta area, reclaiming clean
/// pages in scan order — approximates LRU without per-hit bookkeeping,
/// which matters because hits happen on the host without DPU involvement.
class ClockEviction {
 public:
  /// Given the per-entry statuses, appends up to `want` victim entry
  /// indices (clean pages only) to `out`.
  void pick_victims(const std::vector<PageStatus>& status, std::uint32_t want,
                    std::vector<std::uint32_t>& out);

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
