// Retry policy (exponential backoff + deterministic jitter) and a
// circuit breaker — the two recovery primitives every layer shares.
//
// Both are modelled-time constructs: backoff returns a sim::Nanos charge the
// caller folds into the op's cost, and the breaker probes on a gated-call
// count rather than wall-clock, so recovery behaviour is deterministic and
// testable without sleeping.
#pragma once

#include <cstdint>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::fault {

/// What kind of transient condition made an op fail (or retry). Carried on
/// results so callers can distinguish "retry later" from hard errors.
enum class Transient : std::uint8_t {
  kNone = 0,     // not a transient failure
  kTimeout,      // deadline expired (possibly after retries)
  kUnavailable,  // backend fast-failed (circuit open)
  kBusy,         // contention (a write delegation another client holds)
};

/// Deterministic jitter: scales `base` by uniform [1-j/2, 1+j/2] drawn from
/// a pure hash of (step, salt). The one jitter derivation shared by every
/// pacer — RetryPolicy::backoff and the scrubber's inter-pass spacing —
/// instead of each call site re-rolling its own hash.
sim::Nanos jittered(sim::Nanos base, double jitter, int step,
                    std::uint64_t salt);

/// Bounded exponential backoff with deterministic jitter. Stateless: the
/// jitter for (attempt, salt) is a pure hash, so identical runs charge
/// identical backoff costs. Each failed try doubles the wait
/// (kBackoffMultiplier), scaled by uniform [0.75, 1.25] (kBackoffJitter).
struct RetryPolicy {
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kBackoffJitter = 0.5;

  int max_attempts = 4;                      // total tries, not re-tries
  sim::Nanos base_backoff = sim::micros(50.0);

  /// Modelled wait before try `attempt` (1-based count of *failed* tries so
  /// far). `salt` decorrelates concurrent retriers (use a cid, ino, …).
  sim::Nanos backoff(int attempt, std::uint64_t salt) const;
};

/// Per-backend circuit breaker: Closed → (threshold consecutive failures) →
/// Open → (every kProbeInterval-th gated call probes) → HalfOpen →
/// success closes / failure reopens. Probing is op-count based so the
/// breaker works in modelled time.
///
/// Half-open is *single-probe*: allow() grants exactly one caller the probe
/// and remembers its thread; everyone else fast-fails until that probe's own
/// on_success/on_failure resolves the state. Without the ownership check a
/// straggler's on_failure — a slow attempt admitted before the breaker
/// opened, reporting in mid-probe — would flip HalfOpen back to Open and
/// re-arm the gated-call counter, admitting a second concurrent probe (and a
/// straggler's success could close the breaker on evidence that predates the
/// outage). A probe owner that never reports (crashed mid-attempt) would
/// wedge the breaker half-open forever, so after kProbeInterval fast-fails
/// with no resolution the next gated call may take the probe over.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Config {
    int failure_threshold = 8;  // consecutive failures before opening
  };
  /// While open, every kProbeInterval-th gated call is let through.
  static constexpr std::uint64_t kProbeInterval = 16;

  /// `gauge_name` is the registry gauge mirroring the breaker's state
  /// (0 = closed, 1 = open, 2 = half-open) so BENCH snapshots show where
  /// the breaker sat when the json was cut, not just the open/close edge
  /// counts. Like the counters it is shared by name across instances.
  CircuitBreaker() : CircuitBreaker(Config{}) {}
  explicit CircuitBreaker(Config cfg, obs::Registry* registry = nullptr,
                          std::string_view gauge_name = "breaker/state");

  /// True if the caller may attempt the operation; false = fast-fail.
  bool allow();
  void on_success();
  void on_failure();

  State state() const;
  std::uint64_t consecutive_failures() const;

 private:
  Config cfg_;
  mutable sim::AnnotatedMutex mu_{"fault.breaker", sim::LockRank::kLeaf};
  State state_ GUARDED_BY(mu_) = State::kClosed;
  // consecutive failures (reset on success) / calls gated while open
  std::uint64_t failures_ GUARDED_BY(mu_) = 0;
  std::uint64_t gated_calls_ GUARDED_BY(mu_) = 0;
  // Half-open probe ownership: while a probe is in flight only its owning
  // thread may resolve the half-open state (see class comment).
  bool probe_inflight_ GUARDED_BY(mu_) = false;
  std::thread::id probe_owner_ GUARDED_BY(mu_);
  std::uint64_t halfopen_fast_fails_ GUARDED_BY(mu_) = 0;

  // Registry counters are shared across breaker instances by name — the
  // acceptance criterion reads the aggregate "breaker/opens".
  obs::Counter* opens_ = nullptr;
  obs::Counter* closes_ = nullptr;
  obs::Counter* probes_ = nullptr;
  obs::Counter* fast_fails_ = nullptr;
  obs::Gauge* state_gauge_ = nullptr;
};

}  // namespace dpc::fault
