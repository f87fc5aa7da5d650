// Exact Mean Value Analysis (MVA) for single-class closed queueing networks.
//
// This is the timing backbone of the reproduction: every figure's
// latency/IOPS/CPU-usage-vs-threads curve is produced by building a network
// whose stations are the physical resources of the paper's testbed (host CPU
// cores, DPU cores, the PCIe link, the single virtio HAL thread, SSD
// channels, KV/DFS backends) and whose service demands come from measured op
// counts (e.g. DMA counts from the functional ring implementations) times the
// calibration constants in calib.hpp.
//
// Why MVA: the paper's experiments are all closed-loop (`N` fio/vdbench
// threads, each issuing the next op after the previous completes). For such
// systems exact MVA computes per-station residence times, throughput and
// utilization without simulation noise, and naturally produces the
// saturation knees the paper reports (virtio's single queue, the SSD at
// >32 threads, the DPU at 128 threads).
//
// Multi-server stations use the Seidmann decomposition: an m-server station
// with demand D is modelled as a single-server queueing station with demand
// D/m plus a pure-delay term D·(m-1)/m. This keeps the exact MVA recursion
// applicable and is accurate in both the light-load and saturated regimes —
// exactly the regions the paper's figures live in.
#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace dpc::sim {

enum class StationKind {
  kQueueing,  ///< finite servers; customers queue (CPU, link, device)
  kDelay,     ///< infinite servers; pure latency (network propagation)
};

/// One resource in the closed network.
struct Station {
  std::string name;
  StationKind kind = StationKind::kQueueing;
  /// Number of parallel servers (cores, SSD channels, ...). Ignored for
  /// delay stations.
  int servers = 1;
  /// Total service demand of one op at this station (visit ratio folded in).
  Nanos demand{};
};

/// Solution of the network for one population size.
struct MvaResult {
  int customers = 0;
  /// System throughput, ops per second.
  double throughput_ops = 0.0;
  /// Mean end-to-end response time of one op.
  Nanos response{};
  /// Per-station mean residence time of one op (queueing + service).
  std::vector<Nanos> residence;
  /// Per-station utilization of a *single* server, in [0,1]. For an
  /// m-server station this is X·D/m.
  std::vector<double> utilization;
  /// Per-station mean queue length (jobs present, incl. in service).
  std::vector<double> queue_len;
};

class ClosedNetwork {
 public:
  /// Adds a station, returns its index.
  int add(Station s);

  /// Convenience: add a queueing station.
  int add_queueing(std::string name, int servers, Nanos demand);
  /// Convenience: add a pure-delay station.
  int add_delay(std::string name, Nanos demand);

  /// Client think time between ops (Z). Zero for the paper's closed-loop
  /// saturation tests.
  void set_think_time(Nanos z) { think_ = z; }

  int station_count() const { return static_cast<int>(stations_.size()); }
  const Station& station(int i) const;

  /// Exact MVA recursion from population 1..n; O(n · stations).
  MvaResult solve(int customers) const;

  /// Solve for each population in `populations` (sorted ascending not
  /// required; the recursion runs once to the max).
  std::vector<MvaResult> solve_sweep(const std::vector<int>& populations) const;

 private:
  std::vector<Station> stations_;
  Nanos think_{};
};

/// CPU-usage helper (utilization law): given system throughput X (ops/sec)
/// and per-op CPU demand D on a pool of `cores` cores, the busy fraction of
/// the whole pool is X·D / cores, and the busy core count is X·D.
double cpu_busy_cores(double throughput_ops, Nanos demand_per_op);
double cpu_usage_fraction(double throughput_ops, Nanos demand_per_op,
                          int cores);

}  // namespace dpc::sim
