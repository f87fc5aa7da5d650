// Backing store interface for the hybrid cache's DPU control plane: where
// flushed dirty pages go and where prefetched pages come from. Implemented
// by KVFS (big-file KV pages), the DFS client (data servers), and by test
// fakes.
#pragma once

#include <cstdint>
#include <span>

#include "sim/time.hpp"

namespace dpc::cache {

class CacheBackend {
 public:
  virtual ~CacheBackend() = default;

  /// Fills `dst` with the page's bytes; returns false if the page does not
  /// exist in the backend (prefetch then skips it). Adds the backend's
  /// modelled latency to `cost` — the caller charges it to whichever op
  /// (or background pass) waited on the fetch.
  virtual bool read_page(std::uint64_t inode, std::uint64_t lpn,
                         std::span<std::byte> dst, sim::Nanos& cost) = 0;

  /// Persists one page (called by the flusher with the page read-locked, so
  /// the content is stable for the duration). Returns false on a transient
  /// backend failure — the flusher keeps the page dirty and retries on a
  /// later pass instead of dropping the data. Adds the backend's modelled
  /// write latency to `cost`: a synchronous flush (fsync's fallback rung)
  /// genuinely waits for this write, so under-charging it here would make
  /// the sync path look artificially close to the NVM-log fast path.
  virtual bool write_page(std::uint64_t inode, std::uint64_t lpn,
                          std::span<const std::byte> src,
                          sim::Nanos& cost) = 0;

  /// Called once at the end of every flush pass, after its last
  /// write_page: a backend that defers per-file metadata across page writes
  /// (KVFS's lazy mtime) makes it durable here, adding what that cost.
  virtual void end_pass(sim::Nanos& cost) { (void)cost; }
};

}  // namespace dpc::cache
