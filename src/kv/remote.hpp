// Remote access wrapper for the disaggregated KV store: same operations as
// KvStore, with each call also reporting its modelled network + server cost
// (request hop, server service, payload transfer, response hop). The DPU's
// KVFS talks to the cluster through this wrapper, so every figure that
// involves KVFS automatically includes realistic backend latency.
//
// Failure model (see DESIGN.md §5.7): with a FaultInjector
// attached, each op may suffer injectable transient failures at the
// "kv.remote/op" site. Failed attempts are retried internally with
// exponential backoff (cost folded into the op's Timed cost); a run of
// consecutive failures opens a circuit breaker that fast-fails subsequent
// ops until a probe succeeds. Ops that exhaust the budget (or hit an open
// breaker) report RemoteErr — callers must check Timed::ok() before
// trusting the value.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>

#include "fault/health.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "kv/kv_store.hpp"
#include "obs/metrics.hpp"
#include "sim/calib.hpp"
#include "sim/time.hpp"

namespace dpc::kv {

/// Transient failure class of a remote KV op.
enum class RemoteErr : std::uint8_t {
  kOk = 0,
  kTimeout,      ///< retry budget exhausted, every attempt timed out
  kUnavailable,  ///< circuit open — fast-failed without touching the wire
  kCorrupt,      ///< value failed its CRC — not transient, never retried
};

/// A value + the modelled time the remote op took (including any retries).
template <typename T>
struct Timed {
  T value;
  sim::Nanos cost{};
  RemoteErr err = RemoteErr::kOk;

  bool ok() const { return err == RemoteErr::kOk; }
};

class RemoteKv {
 public:
  /// `fault` == nullptr (the default) disables the entire failure path —
  /// ops cannot fail and the happy path costs one pointer compare.
  explicit RemoteKv(KvStore& store, fault::FaultInjector* fault = nullptr,
                    obs::Registry* registry = nullptr,
                    const fault::RetryPolicy& retry = {},
                    const fault::CircuitBreaker::Config& breaker = {});

  /// Fault-injection site for every remote op's wire round trip.
  static constexpr std::string_view kFaultSite = "kv.remote/op";
  /// Fail-slow site (FaultInjector::arm_slow): the backend answers
  /// correctly but its service time stretches — gray failure.
  static constexpr std::string_view kSlowSite = "kv.remote/slow";

  /// Attaches a single-peer health board ("kv"): observed op latencies feed
  /// an adaptive deadline that replaces the fixed kKvOpTimeout in the retry
  /// loop, and a sustained-timeout quarantine fast-fails ops between
  /// reintegration probes. Gauges/counters land in the ctor's registry.
  void enable_health(const fault::HealthConfig& cfg = {});
  fault::HealthBoard* health() const { return health_.get(); }

  Timed<std::optional<Bytes>> get(std::string_view key) const;
  Timed<bool> put(std::string_view key, std::span<const std::byte> value);
  Timed<std::optional<std::size_t>> read_sub(std::string_view key,
                                             std::uint64_t offset,
                                             std::span<std::byte> dst) const;
  Timed<bool> write_sub(std::string_view key, std::uint64_t offset,
                        std::span<const std::byte> src);
  Timed<std::optional<std::uint64_t>> value_size(std::string_view key) const;
  Timed<std::uint64_t> increment(std::string_view key, std::uint64_t delta);
  Timed<std::size_t> scan_prefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, const Bytes&)>& fn) const;
  /// KvStore::apply as one remote op: one injectable attempt sequence, so a
  /// failure means nothing was applied. Costs one round trip for a one-op
  /// batch and two (prepare + commit) for more, plus the serialized wire
  /// bytes — never a function of how the keys land on shards.
  Timed<ApplyResult> apply(const Batch& batch);

  KvStore& store() { return *store_; }
  const KvStore& store() const { return *store_; }
  fault::CircuitBreaker::State breaker_state() const {
    return breaker_.state();
  }

  /// Round-trip cost of a KV op moving `payload` bytes in the given
  /// direction (read = server→client).
  static sim::Nanos op_cost(bool is_read, std::uint64_t payload);
  /// Modelled cost of apply(batch) on a healthy backend.
  static sim::Nanos batch_cost(const Batch& batch);

 private:
  /// Runs the injectable pre-flight of one op: breaker gate + failed
  /// attempts + backoff. On kOk the caller performs the real store access;
  /// on error the op's value is meaningless. Accumulates all modelled retry
  /// latency into `cost`.
  RemoteErr begin_op(bool is_read, sim::Nanos& cost) const;

  KvStore* store_;
  fault::FaultInjector* fault_;
  obs::Registry* registry_;
  fault::RetryPolicy retry_;
  mutable fault::CircuitBreaker breaker_;
  // mutable: begin_op is const (reads are const ops) but records latencies.
  mutable std::unique_ptr<fault::HealthBoard> health_;
  mutable std::atomic<std::uint64_t> op_seq_{0};  // jitter salt
  obs::Counter* retry_attempts_ = nullptr;
  obs::Counter* retry_exhausted_ = nullptr;
  obs::Counter* corrupt_reads_ = nullptr;
};

}  // namespace dpc::kv
