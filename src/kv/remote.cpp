#include "kv/remote.hpp"

namespace dpc::kv {

RemoteKv::RemoteKv(KvStore& store, fault::FaultInjector* fault,
                   obs::Registry* registry, const fault::RetryPolicy& retry,
                   const fault::CircuitBreaker::Config& breaker)
    : store_(&store), fault_(fault), registry_(registry), retry_(retry),
      breaker_(breaker, registry) {
  if (registry != nullptr) {
    retry_attempts_ = &registry->counter("retry/attempts");
    retry_exhausted_ = &registry->counter("retry/exhausted");
    corrupt_reads_ = &registry->counter("kv.remote/corrupt_reads");
  }
}

void RemoteKv::enable_health(const fault::HealthConfig& cfg) {
  health_ = std::make_unique<fault::HealthBoard>("kv", 1, cfg, registry_);
}

sim::Nanos RemoteKv::op_cost(bool is_read, std::uint64_t payload) {
  using namespace sim::calib;
  const sim::Nanos transfer =
      is_read ? kv_read_transfer(payload) : kv_write_transfer(payload);
  return kNetHop * 2 + kKvServerOp + transfer;
}

sim::Nanos RemoteKv::batch_cost(const Batch& batch) {
  using namespace sim::calib;
  const std::int64_t rounds = batch.ops().size() > 1 ? 2 : 1;
  return (kNetHop * 2 + kKvServerOp) * rounds +
         kv_write_transfer(batch.wire_bytes());
}

RemoteErr RemoteKv::begin_op(bool is_read, sim::Nanos& cost) const {
  if (fault_ == nullptr) return RemoteErr::kOk;  // failure path disabled
  // Quarantine gate: a backend the health board has sidelined fast-fails
  // without touching the wire (every Nth op slips through as a
  // reintegration probe).
  if (health_ != nullptr && !health_->allow(0)) return RemoteErr::kUnavailable;
  if (!breaker_.allow()) return RemoteErr::kUnavailable;  // fast-fail

  const std::uint64_t salt =
      op_seq_.fetch_add(1, std::memory_order_relaxed);
  for (int attempt = 1;; ++attempt) {
    if (!fault_->should_fail(kFaultSite)) {
      // The wire answers. It may still answer *slowly* (fail-slow site):
      // with a health board the attempt is cut at the adaptive deadline and
      // retried — the breaker is untouched, because a slow backend is up,
      // not down, and opening a binary breaker on slowness conflates the
      // two failure modes.
      const sim::Nanos base = op_cost(is_read, 0);
      const sim::Nanos penalty = fault_->slow_penalty(kSlowSite, 0, base);
      if (health_ != nullptr) {
        const sim::Nanos deadline = health_->deadline();
        if (base + penalty > deadline) {
          cost += deadline;
          health_->record(0, deadline, /*ok=*/false);
        } else {
          health_->record(0, base + penalty, /*ok=*/true);
          cost += penalty;  // the caller charges the base op_cost itself
          breaker_.on_success();
          return RemoteErr::kOk;
        }
      } else {
        cost += penalty;
        breaker_.on_success();
        return RemoteErr::kOk;
      }
    } else {
      // Attempt timed out hard: charge the wire round trip plus the
      // deadline the client waited before giving up on it. The deadline is
      // adaptive (scaled from the healthy-regime p99) when a health board
      // is attached; the fixed constant is only the no-board fallback.
      const sim::Nanos waited =
          health_ != nullptr
              ? health_->deadline()
              : sim::calib::kKvOpTimeout;  // dpc-lint: ok(fixed-deadline)
      cost += op_cost(is_read, 0) + waited;
      if (health_ != nullptr) health_->record(0, waited, /*ok=*/false);
      breaker_.on_failure();
    }
    if (attempt >= retry_.max_attempts) {
      if (retry_exhausted_ != nullptr) retry_exhausted_->add();
      return RemoteErr::kTimeout;
    }
    if (!breaker_.allow()) {
      // Our own failures (plus concurrent ones) opened the circuit
      // mid-retry; don't keep hammering a declared-dead backend.
      if (retry_exhausted_ != nullptr) retry_exhausted_->add();
      return RemoteErr::kUnavailable;
    }
    if (retry_attempts_ != nullptr) retry_attempts_->add();
    cost += retry_.backoff(attempt, salt);
  }
}

Timed<std::optional<Bytes>> RemoteKv::get(std::string_view key) const {
  Timed<std::optional<Bytes>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  // Server-side verification before the value crosses the wire: a value
  // that fails its CRC is withheld as a typed integrity error, which is
  // not retryable (re-reading rotted cells returns the same bytes).
  // Invariant: kCorrupt never touches the circuit breaker. The wire and
  // server answered on time — begin_op already recorded the success — so a
  // rot burst must not open the breaker and mask a *liveness* signal with
  // an *integrity* one (test_tail_tolerance.TailKvCorrupt guards this).
  ValueCheck check = ValueCheck::kOk;
  out.value = store_->get_checked(key, &check);
  if (check == ValueCheck::kCorrupt) {
    out.err = RemoteErr::kCorrupt;
    if (corrupt_reads_ != nullptr) corrupt_reads_->add();
  }
  out.cost += op_cost(true, out.value ? out.value->size() : 0);
  return out;
}

Timed<bool> RemoteKv::put(std::string_view key,
                          std::span<const std::byte> value) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  store_->put(key, value);
  out.value = true;
  out.cost += op_cost(false, value.size());
  return out;
}

Timed<std::optional<std::size_t>> RemoteKv::read_sub(
    std::string_view key, std::uint64_t offset,
    std::span<std::byte> dst) const {
  Timed<std::optional<std::size_t>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  ValueCheck check = ValueCheck::kOk;
  out.value = store_->read_sub_checked(key, offset, dst, &check);
  if (check == ValueCheck::kCorrupt) {
    out.err = RemoteErr::kCorrupt;
    if (corrupt_reads_ != nullptr) corrupt_reads_->add();
  }
  out.cost += op_cost(true, out.value.value_or(0));
  return out;
}

Timed<bool> RemoteKv::write_sub(std::string_view key, std::uint64_t offset,
                                std::span<const std::byte> src) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  store_->write_sub(key, offset, src);
  out.value = true;
  out.cost += op_cost(false, src.size());
  return out;
}

Timed<std::uint64_t> RemoteKv::increment(std::string_view key,
                                         std::uint64_t delta) {
  Timed<std::uint64_t> out{0};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  out.value = store_->increment(key, delta);
  out.cost += op_cost(false, 8);
  return out;
}

Timed<ApplyResult> RemoteKv::apply(const Batch& batch) {
  Timed<ApplyResult> out{};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  out.value = store_->apply(batch);
  out.cost += batch_cost(batch);
  return out;
}

Timed<std::optional<std::uint64_t>> RemoteKv::value_size(
    std::string_view key) const {
  Timed<std::optional<std::uint64_t>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  out.value = store_->value_size(key);
  out.cost += op_cost(true, 0);
  return out;
}

Timed<std::size_t> RemoteKv::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, const Bytes&)>& fn) const {
  Timed<std::size_t> out{0};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  std::uint64_t payload = 0;
  out.value = store_->scan_prefix(
      prefix, [&](std::string_view k, const Bytes& v) {
        payload += k.size() + v.size();
        return fn(k, v);
      });
  out.cost += op_cost(true, payload);
  return out;
}

}  // namespace dpc::kv
