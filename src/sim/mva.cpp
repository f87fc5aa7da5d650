#include "sim/mva.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dpc::sim {

int ClosedNetwork::add(Station s) {
  DPC_CHECK(s.demand.ns >= 0);
  DPC_CHECK(s.kind == StationKind::kDelay || s.servers >= 1);
  stations_.push_back(std::move(s));
  return static_cast<int>(stations_.size()) - 1;
}

int ClosedNetwork::add_queueing(std::string name, int servers, Nanos demand) {
  return add(Station{std::move(name), StationKind::kQueueing, servers, demand});
}

int ClosedNetwork::add_delay(std::string name, Nanos demand) {
  return add(Station{std::move(name), StationKind::kDelay, 1, demand});
}

const Station& ClosedNetwork::station(int i) const {
  DPC_CHECK(i >= 0 && i < station_count());
  return stations_[static_cast<std::size_t>(i)];
}

MvaResult ClosedNetwork::solve(int customers) const {
  DPC_CHECK(customers >= 1);
  const auto m = stations_.size();

  // Seidmann decomposition: queueing part demand D/m, delay part D(m-1)/m.
  std::vector<double> dq(m), dd(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& s = stations_[i];
    const double d = static_cast<double>(s.demand.ns);
    if (s.kind == StationKind::kDelay) {
      dq[i] = 0.0;
      dd[i] = d;
    } else {
      dq[i] = d / s.servers;
      dd[i] = d * (s.servers - 1) / s.servers;
    }
  }

  std::vector<double> q(m, 0.0);   // mean queue length at queueing part
  std::vector<double> r(m, 0.0);   // residence (queueing + delay parts)
  double x = 0.0;                  // throughput, ops per ns

  for (int n = 1; n <= customers; ++n) {
    double total_r = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      r[i] = dq[i] * (1.0 + q[i]) + dd[i];
      total_r += r[i];
    }
    x = static_cast<double>(n) /
        (total_r + static_cast<double>(think_.ns));
    for (std::size_t i = 0; i < m; ++i) q[i] = x * (dq[i] * (1.0 + q[i]));
    // Note: q tracks only the queueing part; the delay part's population
    // never queues, so it is excluded from the arrival-theorem term.
  }

  MvaResult res;
  res.customers = customers;
  res.throughput_ops = x * 1e9;
  double total_r = 0.0;
  res.residence.resize(m);
  res.utilization.resize(m);
  res.queue_len.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    res.residence[i] = Nanos{static_cast<std::int64_t>(r[i])};
    total_r += r[i];
    const auto& s = stations_[i];
    const double d = static_cast<double>(s.demand.ns);
    res.utilization[i] =
        s.kind == StationKind::kDelay ? 0.0 : x * d / s.servers;
    res.queue_len[i] = x * r[i];  // Little's law on the whole station
  }
  res.response = Nanos{static_cast<std::int64_t>(total_r)};
  return res;
}

std::vector<MvaResult> ClosedNetwork::solve_sweep(
    const std::vector<int>& populations) const {
  std::vector<MvaResult> out;
  out.reserve(populations.size());
  for (int n : populations) out.push_back(solve(n));
  return out;
}

double cpu_busy_cores(double throughput_ops, Nanos demand_per_op) {
  return throughput_ops * static_cast<double>(demand_per_op.ns) / 1e9;
}

double cpu_usage_fraction(double throughput_ops, Nanos demand_per_op,
                          int cores) {
  DPC_CHECK(cores >= 1);
  return std::min(1.0, cpu_busy_cores(throughput_ops, demand_per_op) / cores);
}

}  // namespace dpc::sim
