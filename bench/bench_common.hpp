// Shared plumbing for the figure/table reproduction binaries: flag parsing
// (--csv emits machine-readable rows), headline printing, the sample
// quantile, and the demand helpers that turn measured op counts into MVA
// station demands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/calib.hpp"
#include "sim/check.hpp"
#include "sim/mva.hpp"
#include "sim/table.hpp"
#include "sim/time.hpp"

namespace dpc::bench {

struct BenchArgs {
  bool csv = false;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) args.csv = true;
    }
    return args;
  }
};

inline void print_table(const sim::Table& t, const BenchArgs& args) {
  if (args.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  std::cout << '\n';
}

inline void headline(const std::string& title, const std::string& paper_ref) {
  std::cout << "=== " << title << " ===\n"
            << "    reproduces: " << paper_ref << "\n\n";
}

/// Writes the registry snapshot to BENCH_<name>.json in the working
/// directory so every figure bench leaves a machine-readable metrics trail
/// (counters + p50/p95/p99 of each latency histogram) next to its table.
inline void emit_metrics_json(const obs::Registry& reg,
                              const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  reg.to_json(out);
  out << '\n';
  std::cout << "[metrics] wrote " << path << '\n';
}

/// Exact floor-rank quantile of a sample: the element of rank
/// floor(q * (n - 1)) in sorted order, q in [0, 1]. Benches that keep raw
/// per-op samples use this; sim::Histogram's bucketed percentile is for
/// registry instruments.
inline std::int64_t quantile(std::vector<std::int64_t> v, double q) {
  DPC_CHECK(!v.empty() && q >= 0.0 && q <= 1.0);
  const auto rank =
      static_cast<std::size_t>(static_cast<double>(v.size() - 1) * q);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Modelled cost of `dma_ops` link transactions moving `bytes` of payload:
/// per-transaction setup plus the wire time. Used to convert measured DMA
/// counters into per-op transport demands.
inline sim::Nanos dma_transport_cost(std::uint64_t dma_ops,
                                     std::uint64_t bytes) {
  return sim::calib::kDmaSetup * static_cast<std::int64_t>(dma_ops) +
         sim::calib::pcie_transfer(bytes);
}

}  // namespace dpc::bench
