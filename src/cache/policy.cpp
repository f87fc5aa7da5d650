#include "cache/policy.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dpc::cache {

SequentialPrefetcher::SequentialPrefetcher(std::uint32_t max_window,
                                           std::size_t tracked_streams)
    : max_window_(max_window), capacity_(tracked_streams) {
  DPC_CHECK(max_window >= 1 && tracked_streams >= 1);
}

void SequentialPrefetcher::touch(std::uint64_t inode) {
  if (const auto it = pos_.find(inode); it != pos_.end()) {
    lru_.erase(it->second);
  } else if (lru_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    pos_.erase(victim);
    streams_.erase(victim);
  }
  lru_.push_front(inode);
  pos_[inode] = lru_.begin();
}

SequentialPrefetcher::Advice SequentialPrefetcher::on_miss(
    std::uint64_t inode, std::uint64_t lpn, std::uint32_t span) {
  if (span == 0) span = 1;
  touch(inode);
  Stream& s = streams_[inode];
  // Pages at or before the stream's expected position were already covered
  // by earlier advice (e.g. a straggling miss inside an advised window) —
  // ignore them instead of resetting the run.
  if (s.run > 0 && lpn < s.next_lpn &&
      s.next_lpn - lpn <= 2ull * max_window_) {
    return {};
  }
  if (s.run > 0 && lpn == s.next_lpn) {
    ++s.run;
  } else {
    s.run = 1;
  }

  if (s.run < 2) {
    s.next_lpn = lpn + span;
    return {};  // not yet sequential
  }
  // Exponential ramp-up capped at the window, like the kernel's readahead.
  const std::uint32_t window =
      std::min<std::uint32_t>(max_window_, 1u << std::min(s.run, 24u));
  // The advised pages will be *hits* (they never reach the prefetcher), so
  // the stream's next expected miss is the first page past the window.
  s.next_lpn = lpn + span + window;
  s.ahead_end = s.next_lpn;
  s.window = window;
  return {lpn + span, window};
}

SequentialPrefetcher::Advice SequentialPrefetcher::on_hit(
    std::uint64_t inode, std::uint64_t lpn) {
  const auto it = streams_.find(inode);
  if (it == streams_.end()) return {};
  Stream& s = it->second;
  if (s.window == 0 || lpn >= s.ahead_end) return {};
  // Async extension once the reader enters the trailing half of the
  // prefetched range (the kernel-readahead "marker page" rule).
  if (s.ahead_end - lpn > s.window / 2 + 1) return {};
  const std::uint32_t window = std::min(max_window_, s.window * 2);
  const Advice advice{s.ahead_end, window};
  s.ahead_end += window;
  s.next_lpn = s.ahead_end;
  s.window = window;
  return advice;
}

void SequentialPrefetcher::reset() {
  streams_.clear();
  lru_.clear();
  pos_.clear();
}

}  // namespace dpc::cache
