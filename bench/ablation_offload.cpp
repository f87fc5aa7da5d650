// Ablations over the design choices DESIGN.md §6 calls out, measured on
// the functional layer:
//   1. redundancy: RS(4,2) delta-parity RMW vs full-stripe writes vs
//      3-way replication — shard ops and bytes per user write;
//   2. EC locus: host vs DPU encode cost for the Fig. 1/9 stripe sizes.
#include <iostream>

#include "bench_common.hpp"
#include "dfs/client.hpp"
#include "ec/reed_solomon.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dpc;

/// Bench-wide metrics registry: the ablation clients pool their counters
/// here, emitted as BENCH_ablation_offload.json.
obs::Registry g_registry;

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

void redundancy_ablation(const bench::BenchArgs& args) {
  std::cout << "-- redundancy: per-write data-server cost --\n";
  dfs::MdsCluster mds;
  dfs::DataServers ds;

  auto run = [&](const char* name, const dfs::ClientConfig& cfg,
                 std::uint32_t io, std::uint64_t off, sim::Table& t) {
    static int seq = 0;
    dfs::DfsClient client(static_cast<dfs::ClientId>(++seq), mds, ds,
                          cfg, &g_registry);
    const auto c =
        client.create("/abl-" + std::to_string(seq), 1 << 20);
    const auto data = bytes(io, 1);
    client.write(c.ino, off, data);  // warm (allocates, takes delegation)
    const auto w = client.write(c.ino, off, data);
    t.add_row({name, std::to_string(io / 1024) + "K",
               std::to_string(w.prof.ds_ops),
               sim::Table::fmt(w.prof.ds.us(), 1),
               sim::Table::fmt(w.prof.net.us(), 1)});
  };

  sim::Table t({"scheme", "write", "shard ops", "server us", "net us"});
  auto ec = dfs::ClientConfig::optimized();
  auto repl = dfs::ClientConfig::optimized();
  repl.use_replication = true;
  run("RS(4,2) sub-stripe RMW", ec, 8 * 1024, 0, t);
  run("RS(4,2) full stripe", ec, 32 * 1024, 0, t);
  run("3-replication", repl, 8 * 1024, 0, t);
  run("3-replication (32K)", repl, 32 * 1024, 0, t);
  bench::print_table(t, args);
}

void ec_locus_ablation(const bench::BenchArgs& args) {
  std::cout << "-- EC compute locus (RS(4,2) stripes) --\n";
  sim::Table t({"stripe", "host encode us", "DPU engine us", "speedup"});
  for (const std::size_t stripe : {32u * 1024, 128u * 1024, 1u << 20}) {
    const auto h = ec::ReedSolomon::host_encode_cost(stripe);
    const auto d = ec::ReedSolomon::dpu_encode_cost(stripe);
    t.add_row({std::to_string(stripe / 1024) + "K",
               sim::Table::fmt(h.us(), 1), sim::Table::fmt(d.us(), 1),
               sim::Table::fmt(static_cast<double>(h.ns) /
                                   static_cast<double>(d.ns),
                               1) +
                   "x"});
  }
  bench::print_table(t, args);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline("Ablations — redundancy, EC locus",
                  "the DESIGN.md §6 design-choice studies");
  redundancy_ablation(args);
  ec_locus_ablation(args);
  bench::emit_metrics_json(g_registry, "ablation_offload");
  return 0;
}
