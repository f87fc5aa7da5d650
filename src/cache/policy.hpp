// Cache-management policies the DPU control plane runs (§3.3): the clock
// sweep that picks eviction victims and the sequential prefetcher. §3.3
// argues that offloading the control plane is what makes such policies
// easy to customize: replacement here runs on recency the host publishes
// with one bit per hit, not on per-hit messages to the DPU.
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

/// What the sweep sees of one entry: its status, and whether its accessed
/// bit is set (the host hit it, or the prefetcher filled it, since the hand
/// last passed it).
struct SweepSlot {
  PageStatus status = PageStatus::kFree;
  bool referenced = false;
};

/// CLOCK with second chance: a rotating cursor over the meta area. A clean
/// entry whose accessed bit is set is spared once, and its bit is cleared; a
/// clean entry with the bit clear is a victim; other entries are passed over
/// with their bits untouched. Approximates LRU while hits stay on the host:
/// they cost the DPU nothing until the hand comes round. The slots arrive a
/// chunk at a time, so a sweep reads only as far past the hand as it needs to
/// find its victims.
class ClockEviction {
 public:
  /// Entries per status chunk (one 8 KiB descriptor DMA of the meta area).
  static constexpr std::uint32_t kChunk = 128;

  /// Sweeps once around `total` entries from the hand, appending up to
  /// `want` distinct clean entry indices to `out` in hand order, and a
  /// second time if the first lap spared any entry: the second lap finds
  /// victims when every clean page was referenced. Slots come from
  /// `read_chunk(first, slots)`, which fills `slots` for entries
  /// [first, first + slots.size()): at most kChunk of them, never wrapping
  /// past the last entry. After each chunk, `spare(entries)` receives the
  /// referenced clean entries the hand passed in it, ascending, whose bits
  /// the caller must clear before the next chunk is read; entries past the
  /// point where the hand stopped keep theirs. No chunk is read once `want`
  /// victims are found.
  template <typename ReadChunk, typename Spare>
  void pick_victims(std::uint32_t total, std::uint32_t want,
                    ReadChunk&& read_chunk, Spare&& spare,
                    std::vector<std::uint32_t>& out) {
    if (total == 0) return;
    if (hand_ >= total) hand_ = 0;
    // The first lap's victims are still clean in the meta area when the
    // second lap meets them, in the same order; `repeat` is the next one.
    std::size_t repeat = out.size();
    std::array<SweepSlot, kChunk> slot;
    std::array<std::uint32_t, kChunk> spared;
    std::uint32_t scanned = 0;
    std::uint32_t laps = 1;
    while (want > 0 && scanned < laps * total) {
      const std::uint32_t n =
          std::min({kChunk, total - hand_, laps * total - scanned});
      read_chunk(hand_, std::span<SweepSlot>{slot.data(), n});
      std::uint32_t n_spared = 0;
      for (std::uint32_t k = 0; k < n && want > 0; ++k) {
        if (scanned >= total && repeat < out.size() && out[repeat] == hand_) {
          ++repeat;
        } else if (slot[k].status == PageStatus::kClean) {
          if (slot[k].referenced) {
            spared[n_spared++] = hand_;
          } else {
            out.push_back(hand_);
            --want;
          }
        }
        hand_ = hand_ + 1 == total ? 0 : hand_ + 1;
        ++scanned;
      }
      if (n_spared > 0) {
        spare(std::span<const std::uint32_t>{spared.data(), n_spared});
        laps = 2;
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
