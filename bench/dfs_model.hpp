// Shared Fig. 1 / Fig. 9 machinery: run a workload functionally through a
// DfsClient to *measure* its per-op OpProfile (host/DPU CPU, MDS and
// data-server service, hop counts), then solve the closed queueing network
// those measurements imply.
//
// Network delay handling: the standard NFS client's proxied path serializes
// its hops (client → entry MDS → home MDS → data servers), so its measured
// prof.net is taken as-is. The optimized/DPC clients fan shard I/O out in
// parallel, so their delay is one round trip plus the payload transfer —
// the shard *service* demands still land on the data-server station.
#pragma once

#include <functional>
#include <string>

#include "bench_common.hpp"
#include "sim/check.hpp"
#include "dfs/backend.hpp"
#include "dfs/client.hpp"
#include "sim/mva.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace dpc::bench {

struct DfsPoint {
  double ops = 0;        // IOPS / ops-per-second
  double lat_us = 0;
  double host_cores = 0; // busy host cores
  double dpu_cores = 0;
};

/// Average per-op profile measured over a functional run.
struct MeanProfile {
  dfs::OpProfile total;
  int ops = 0;

  sim::Nanos mean(sim::Nanos dfs::OpProfile::* field) const {
    if (ops == 0) return sim::Nanos{0};
    return sim::Nanos{(total.*field).ns / ops};
  }
  double mean_count(std::uint32_t dfs::OpProfile::* field) const {
    return ops == 0 ? 0.0
                    : static_cast<double>(total.*field) / ops;
  }
};

inline DfsPoint solve_dfs(const dfs::ClientConfig& cfg, const MeanProfile& mp,
                          std::uint32_t payload_bytes, bool is_write,
                          int threads) {
  using namespace sim;
  using namespace sim::calib;
  ClosedNetwork net;
  const Nanos host = mp.mean(&dfs::OpProfile::host_cpu);
  const int hcpu = net.add_queueing("host-cpu", kHostHwThreads, host);
  int dcpu = -1;
  if (cfg.on_dpu()) {
    dcpu = net.add_queueing("dpu-cores", kDpuCores,
                            mp.mean(&dfs::OpProfile::dpu_cpu));
    net.add_queueing("pcie-wire", 1,
                     pcie_wire_demand(payload_bytes, is_write));
  }
  net.add_queueing("mds", kMdsServers, mp.mean(&dfs::OpProfile::mds));
  net.add_queueing("data-servers", kDataServers * kDataServerChannels,
                   mp.mean(&dfs::OpProfile::ds));
  // Aggregate DFS fabric bandwidth; the proxied (standard-NFS) path moves
  // every payload twice (client -> MDS -> data servers).
  {
    const double gbps = is_write ? kDfsWriteGBps : kDfsReadGBps;
    const double passes = cfg.client_side() ? 1.0 : 2.0;
    net.add_queueing("dfs-wire", 1,
                     Nanos{static_cast<std::int64_t>(
                         passes * payload_bytes / (gbps * 1e9) * 1e9)});
  }
  if (cfg.client_side()) {
    // Parallel shard fan-out: one RTT + the payload transfer.
    const double gbps = is_write ? kDfsWriteGBps : kDfsReadGBps;
    net.add_delay("net", kNetHop * 2 +
                             Nanos{static_cast<std::int64_t>(
                                 payload_bytes / (gbps * 1e9) * 1e9)});
  } else {
    net.add_delay("net", mp.mean(&dfs::OpProfile::net));
  }

  const auto res = net.solve(threads);
  DfsPoint p;
  p.ops = res.throughput_ops;
  p.lat_us = res.response.us();
  p.host_cores = cpu_busy_cores(res.throughput_ops, host);
  if (dcpu >= 0)
    p.dpu_cores = cpu_busy_cores(res.throughput_ops,
                                 mp.mean(&dfs::OpProfile::dpu_cpu));
  (void)hcpu;
  return p;
}

/// Runs `ops` iterations of `body`, accumulating each op's profile.
inline MeanProfile measure(int ops,
                           const std::function<dfs::IoResult(int)>& body) {
  MeanProfile mp;
  for (int i = 0; i < ops; ++i) {
    const auto io = body(i);
    DPC_CHECK_MSG(io.ok(), "functional DFS op failed: errno " << io.err);
    mp.total += io.prof;
    ++mp.ops;
  }
  return mp;
}

}  // namespace dpc::bench
