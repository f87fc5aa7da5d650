// Runtime lock-rank / lock-order deadlock detector.
//
// Every lock in the DPC tree declares a LockRank. The invariant is a total
// order on ranks: a thread may acquire a lock only if its rank is at or
// below every rank it already holds. Same-rank acquisition is legal (lock
// striping — KVFS inode stripes, KV shards — needs it) but is tracked in a
// global acquired-before graph keyed by lock instance; adding an edge that
// closes a cycle is reported as a potential deadlock even if the bad
// interleaving never fires at runtime. Both violation kinds print the
// current thread's held-lock set and the held-lock set recorded when the
// conflicting (reverse) edge was first observed, then throw LockOrderError
// (a logic_error: lock-order bugs are programming errors, like DPC_CHECK).
//
// The detector is active in Debug and sanitizer builds and compiles out to
// nothing in release builds (see DPC_LOCKRANK_ENABLED below); the chaos/TSan
// CI legs therefore run every test under it. The annotated wrappers in
// thread_annotations.hpp call these hooks automatically; the hybrid cache's
// PCIe-atomic lock *words* (entry/bucket locks, which are not std mutexes)
// call them manually from the host and control planes.
//
// Rank table (descending acquisition order — outermost first). The coarse
// tiers of the design doc are pcie-atomic < cache-entry < shard < system;
// the concrete table refines them so every real nesting in the tree is
// expressible:
//
//   kAdapter      fs-adapter size view (DpcSystem::size_mu_) — outermost
//   kSystem       worker-pool lifecycle, per-queue pump serialization
//   kCachePass    hybrid-cache control-plane pass mutex
//   kCacheBucket  hybrid-cache bucket lock words   (PCIe atomics)
//   kCacheEntry   hybrid-cache entry lock words    (PCIe atomics)
//   kFs           whole-filesystem locks (hostfs meta, dfs client cache)
//   kShard        striped state (kvfs inode stripes + caches, mds/ds maps)
//   kDriver       per-queue transport drivers (nvme-ini, virtqueue, pcache)
//   kStore        disaggregated KV store shards
//   kDevice       device model shards (ssd)
//   kLeaf         may be acquired under anything (fault injector, breaker)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dpc::sim {

enum class LockRank : std::uint8_t {
  kLeaf = 0,
  kDevice = 10,
  kStore = 20,
  kDriver = 30,
  kShard = 40,
  kFs = 50,
  kCacheEntry = 60,   // the "pcie-atomic" tier: entry read/write lock words
  kCacheBucket = 70,  // bucket lock words (also PCIe atomics)
  kCachePass = 80,
  kSystem = 90,
  kAdapter = 100,
};

const char* lockrank_name(LockRank r);

/// Thrown on a rank inversion or an acquired-before cycle. what() carries
/// both threads' lock sets.
class LockOrderError : public std::logic_error {
 public:
  explicit LockOrderError(const std::string& what) : std::logic_error(what) {}
};

// Enabled in Debug builds and under ThreadSanitizer; compiled out (hooks are
// empty inlines, zero code and zero data on the lock path) in plain release
// builds. Force with -DDPC_LOCKRANK=1 / off with -DDPC_LOCKRANK=0.
#if defined(DPC_LOCKRANK)
#define DPC_LOCKRANK_ENABLED DPC_LOCKRANK
#elif !defined(NDEBUG)
#define DPC_LOCKRANK_ENABLED 1
#elif defined(__SANITIZE_THREAD__)
#define DPC_LOCKRANK_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPC_LOCKRANK_ENABLED 1
#else
#define DPC_LOCKRANK_ENABLED 0
#endif
#else
#define DPC_LOCKRANK_ENABLED 0
#endif

constexpr bool lockrank_enabled() { return DPC_LOCKRANK_ENABLED != 0; }

#if DPC_LOCKRANK_ENABLED

namespace lockrank {

/// Records a successful acquisition of `key` (any stable address identifying
/// the lock instance) at `rank`. Throws LockOrderError on a rank inversion
/// or when the same-rank acquired-before graph gains a cycle. `shared`
/// acquisitions participate in rank checks and edges like exclusive ones
/// (reader-holds-A-wants-B deadlocks against writers are real).
void acquire(const void* key, LockRank rank, const char* name,
             bool shared = false);

/// Records the release of `key` on this thread. Out-of-LIFO release is fine
/// (the cache planes release bucket locks before entry locks).
void release(const void* key);

/// Drops all recorded edges and this thread's held set — test isolation.
void reset_for_test();

/// Number of locks the calling thread currently holds (test introspection).
std::size_t held_count();

/// Wait-point check: throws LockOrderError, naming `site` and the held set,
/// if the calling thread holds any lock ranked below `floor`. A thread that
/// spins on work another thread must finish may not hold state that thread
/// could need.
void require_none_below(LockRank floor, const char* site);

}  // namespace lockrank

#else  // !DPC_LOCKRANK_ENABLED

namespace lockrank {
inline void acquire(const void*, LockRank, const char*, bool = false) {}
inline void release(const void*) {}
inline void reset_for_test() {}
inline std::size_t held_count() { return 0; }
inline void require_none_below(LockRank, const char*) {}
}  // namespace lockrank

#endif  // DPC_LOCKRANK_ENABLED

}  // namespace dpc::sim
