// Scheduler hook seam for the systematic concurrency checker (src/check/).
//
// Every synchronization-relevant site in the tree — AnnotatedMutex acquire/
// release, seqlock generation loads/stores, atomic fences on the lock-free
// cache read path, NvmDevice persist fences, doorbell MMIOs, DMA bursts —
// calls one of the `point()`/`spin()` hooks below. When no checker is
// installed (every production and test run outside dpc_check) the hook is a
// single relaxed load of a null pointer and a predicted-not-taken branch;
// when ModelSched is driving a scenario, the hook hands control to the
// scheduler so it can serialize the managed threads onto one runnable token
// and explore interleavings deterministically.
//
// The seam also hosts the DPC_CHECK_MUTATE registry: protocol code asks
// `mutate("rule")` whether a named fence/ordering mutation is armed and, if
// so, deliberately reorders one step. The checker proves its own teeth by
// arming each mutation and requiring a violation (see DESIGN.md §5.11).
//
// Sites are identified by stable string literals; the inventory lives in
// DESIGN.md §5.11 and is what the exhaustive tier's interleaving counts are
// defined over.
#pragma once

#include <atomic>
#include <cstdint>

namespace dpc::sim::schedhook {

/// Installed by ModelSched for the duration of one scenario run. All
/// callbacks receive `ctx`; they are only invoked from threads the
/// scheduler registered (unmanaged threads pass straight through).
struct Hooks {
  void* ctx = nullptr;
  /// True if the *calling thread* is managed by the checker. The other
  /// callbacks are only invoked when this returns true.
  bool (*managed)(void* ctx) = nullptr;
  /// Decision point: the scheduler may preempt here.
  void (*point)(void* ctx, const char* site) = nullptr;
  /// Spin/blocked point: the thread made no progress (failed try-lock,
  /// queue-full wait). The scheduler must run someone else before this
  /// thread retries; never a decision fork (keeps the DFS tree finite).
  void (*spin)(void* ctx, const char* site) = nullptr;
  /// Decision point reachable from a (noexcept) destructor — mutex unlock
  /// in a guard's dtor. The checker may preempt here but must NOT throw
  /// (crash/stop delivery waits for the thread's next throw-safe point);
  /// a throw would escape the noexcept frame and terminate the process.
  void (*point_noexcept)(void* ctx, const char* site) = nullptr;
  /// True if the named mutation is armed for this run.
  bool (*mutation)(void* ctx, const char* name) = nullptr;
};

namespace detail {
// One global, set only while a scenario runs (dpc_check is single-scenario
// at a time; the gtest harness serializes too).
inline std::atomic<const Hooks*> g_hooks{nullptr};
}  // namespace detail

inline bool active() {
  return detail::g_hooks.load(std::memory_order_acquire) != nullptr;
}

/// Installs/removes the checker hooks. Not reentrant: one checker at a time.
void install(const Hooks* hooks);
void uninstall();

/// Yield/decision point at `site`. No-op unless a checker is installed AND
/// the calling thread is managed by it.
inline void point(const char* site) {
  const Hooks* h = detail::g_hooks.load(std::memory_order_acquire);
  if (h == nullptr) [[likely]]
    return;
  if (h->managed(h->ctx)) h->point(h->ctx, site);
}

/// Spin point at `site`: the calling thread is blocked on another thread's
/// progress (failed try-lock / empty queue). Outside a checker this is a
/// no-op — callers pair it with their own std::this_thread::yield().
inline void spin(const char* site) {
  const Hooks* h = detail::g_hooks.load(std::memory_order_acquire);
  if (h == nullptr) [[likely]]
    return;
  if (h->managed(h->ctx)) h->spin(h->ctx, site);
}

/// Yield point for unlock paths: these run inside noexcept destructors
/// (sim::LockGuard et al.), so the checker schedules but never throws here.
inline void point_noexcept(const char* site) noexcept {
  const Hooks* h = detail::g_hooks.load(std::memory_order_acquire);
  if (h == nullptr) [[likely]]
    return;
  if (h->point_noexcept != nullptr && h->managed(h->ctx))
    h->point_noexcept(h->ctx, site);
}

/// True if the calling thread is managed by an installed checker — used
/// where blocking primitives (condition variables, blocking mutex lock)
/// must be replaced by a cooperative try/spin loop.
inline bool managed_thread() {
  const Hooks* h = detail::g_hooks.load(std::memory_order_acquire);
  return h != nullptr && h->managed(h->ctx);
}

/// True if mutation `name` is armed (DPC_CHECK_MUTATE). Mutations are only
/// ever armed under dpc_check's mutation tier; production code paths ask
/// once per protocol step and reorder exactly one fence when told to.
inline bool mutate(const char* name) {
  const Hooks* h = detail::g_hooks.load(std::memory_order_acquire);
  if (h == nullptr) [[likely]]
    return false;
  return h->mutation != nullptr && h->mutation(h->ctx, name);
}

/// Cooperative lock: under a checker, acquire `mu` (any type with
/// try_lock()) by try/spin so the scheduler keeps the token moving; blocking
/// lock otherwise. `site` names the lock for the trace.
template <typename Mutex>
void coop_lock(Mutex& mu, const char* site) {
  if (managed_thread()) {
    while (!mu.try_lock()) spin(site);
  } else {
    mu.lock();
  }
}

template <typename Mutex>
void coop_lock_shared(Mutex& mu, const char* site) {
  if (managed_thread()) {
    while (!mu.try_lock_shared()) spin(site);
  } else {
    mu.lock_shared();
  }
}

/// Cooperative condition-variable wait: under a checker, poll `pred` with
/// the lock dropped across a spin point (the scheduler runs the thread that
/// will make `pred` true); plain cv wait otherwise. `lock` must satisfy
/// BasicLockable and be held on entry; held on return either way.
template <typename Cv, typename Lock, typename Pred>
void coop_cv_wait(Cv& cv, Lock& lock, Pred pred, const char* site) {
  if (managed_thread()) {
    while (!pred()) {
      lock.unlock();
      spin(site);
      lock.lock();
    }
  } else {
    cv.wait(lock, pred);
  }
}

}  // namespace dpc::sim::schedhook
