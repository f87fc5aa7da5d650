// Reproduces Fig. 9: distributed file service with three clients —
// standard NFS, NFS + optimized host client, NFS + DPC (offloaded) — over
// (a) 8K random read/write IOPS on big files, (b) small-file ops (8K random
// read, 8K file-creation write), (c) sequential bandwidth, and (d) host CPU
// cores for each.
//
// Paper anchors: optimized ≈ 4-5x the standard client's IOPS at 6-15x its
// CPU (~30 cores during the IOPS test); DPC matches/beats the optimized
// client (up to ~+40% on 8K random write and file creation) at ~standard-
// NFS CPU levels (~3.6 cores, ~10% above standard NFS), i.e. ~90% CPU
// reduction vs the optimized client.
#include <iostream>

#include "dfs_model.hpp"

namespace {

using namespace dpc;
using namespace dpc::bench;

constexpr std::uint32_t kIoSize = 8 * 1024;
constexpr std::uint32_t kMB = 1 << 20;
constexpr int kThreads = 32;
constexpr int kMeasureOps = 300;

/// Bench-wide metrics registry: every measured client pools its counters
/// here, emitted as BENCH_fig9_dfs.json.
dpc::obs::Registry g_registry;

struct Profiles {
  MeanProfile big_read, big_write;     // 8K random on big files
  MeanProfile small_read, small_create; // small-file ops
  MeanProfile seq_read, seq_write;     // 1MB sequential
};

Profiles measure_client(dfs::MdsCluster& mds, dfs::DataServers& ds,
                        const dfs::ClientConfig& cfg, dfs::ClientId id) {
  dfs::DfsClient client(id, mds, ds, cfg, &g_registry);
  const std::string tag = std::to_string(id);
  sim::Rng rng(id);
  std::vector<std::byte> buf8(kIoSize);
  for (auto& b : buf8) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::byte> buf1m(kMB, std::byte{0x42});

  // Big preallocated files (the paper: "file size larger than 1GB").
  constexpr int kFiles = 8;
  std::vector<dfs::Ino> big;
  for (int f = 0; f < kFiles; ++f) {
    const auto c = client.create("/big-" + tag + "-" + std::to_string(f),
                                 1ULL << 30);
    DPC_CHECK(c.ok());
    big.push_back(c.ino);
    for (int i = 0; i < 16; ++i)
      DPC_CHECK(client
                    .write(c.ino, static_cast<std::uint64_t>(i) * kIoSize,
                           buf8)
                    .ok());
  }

  Profiles p;
  sim::WorkloadGen wgen({sim::Pattern::kRandWrite, kIoSize, 1 << 20}, id);
  p.big_write = measure(kMeasureOps, [&](int i) {
    return client.write(big[static_cast<std::size_t>(i % kFiles)],
                        wgen.next().offset, buf8);
  });
  sim::WorkloadGen rgen({sim::Pattern::kRandRead, kIoSize, 1 << 20}, id);
  std::vector<std::byte> out(kIoSize);
  p.big_read = measure(kMeasureOps, [&](int i) {
    return client.read(big[static_cast<std::size_t>(i % kFiles)],
                       rgen.next().offset, out);
  });

  // Small files: create + first 8K write; then random whole-file reads.
  std::vector<dfs::Ino> small;
  p.small_create = measure(kMeasureOps, [&](int i) -> dfs::IoResult {
    auto c = client.create("/small-" + tag + "-" + std::to_string(i), 0);
    if (!c.ok()) return c;
    auto w = client.write(c.ino, 0, buf8);
    w.prof += c.prof;
    small.push_back(c.ino);
    return w;
  });
  p.small_read = measure(kMeasureOps, [&](int i) -> dfs::IoResult {
    // Small-file random read = open by path + read (the lookup is part of
    // the per-op cost for this workload).
    const auto idx = static_cast<std::size_t>(i) % small.size();
    auto o = client.open("/small-" + tag + "-" + std::to_string(idx));
    if (!o.ok()) return o;
    auto rd = client.read(o.ino, 0, out);
    rd.prof += o.prof;
    return rd;
  });

  // Sequential 1MB streams on a big file.
  p.seq_write = measure(64, [&](int i) {
    return client.write(big[0], static_cast<std::uint64_t>(i) * kMB, buf1m);
  });
  std::vector<std::byte> out1m(kMB);
  p.seq_read = measure(64, [&](int i) {
    return client.read(big[0], static_cast<std::uint64_t>(i) * kMB, out1m);
  });
  return p;
}

const char* kClientNames[] = {"NFS", "NFS+opt-client", "NFS+DPC"};

/// Gated by bench/regress: the critical-path latency (OpProfile::latency())
/// of one 32 KiB full-stripe write and read by the offloaded client, and the
/// latency and shard reads of that read with a data server down. It runs
/// on an MDS, data servers and registry of its own, so the figure's clients
/// and their counters are untouched.
void record_stripe_latency() {
  dfs::MdsCluster mds;
  dfs::DataServers ds;
  obs::Registry own;
  dfs::DfsClient dpc(1, mds, ds, dfs::ClientConfig::dpc_offloaded(), &own);
  const auto f = dpc.create("/stripe", 1 << 20);
  DPC_CHECK(f.ok());
  std::vector<std::byte> stripe(32 * 1024, std::byte{0x5a});
  const auto w = dpc.write(f.ino, 0, stripe);
  const auto r = dpc.read(f.ino, 0, stripe);
  DPC_CHECK(w.ok() && r.ok());
  g_registry.counter("fig9/dpc_stripe_write_lat_ns")
      .add(static_cast<std::uint64_t>(w.prof.latency().ns));
  g_registry.counter("fig9/dpc_stripe_read_lat_ns")
      .add(static_cast<std::uint64_t>(r.prof.latency().ns));
  // The recovery cost: the same read with data shard 1's server down.
  ds.fail_server(ds.server_of(f.ino, 0, 1));
  std::vector<std::byte> out(stripe.size());
  const auto d = dpc.read(f.ino, 0, out);
  DPC_CHECK(d.ok() && out == stripe);
  g_registry.counter("fig9/dpc_degraded_read_lat_ns")
      .add(static_cast<std::uint64_t>(d.prof.latency().ns));
  g_registry.counter("fig9/dpc_degraded_read_ds_ops").add(d.prof.ds_ops);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::headline(
      "Fig. 9 — DFS with three fs-clients (standard / optimized / DPC)",
      "DPC ≈ optimized performance (up to +40% on rnd-write & create) at "
      "~standard-NFS CPU (~3.6 vs ~30 cores; ~90% reduction)");

  dfs::MdsCluster mds;
  dfs::DataServers ds;
  const dfs::ClientConfig cfgs[] = {dfs::ClientConfig::standard_nfs(),
                                    dfs::ClientConfig::optimized(),
                                    dfs::ClientConfig::dpc_offloaded()};
  std::vector<Profiles> profs;
  for (int c = 0; c < 3; ++c)
    profs.push_back(
        measure_client(mds, ds, cfgs[c], static_cast<dfs::ClientId>(c + 1)));

  struct Metric {
    const char* name;
    MeanProfile Profiles::* field;
    std::uint32_t payload;
    bool is_write;
    bool bandwidth;
  };
  const std::vector<Metric> metrics = {
      {"8K rnd-rd IOPS (big)", &Profiles::big_read, kIoSize, false, false},
      {"8K rnd-wr IOPS (big)", &Profiles::big_write, kIoSize, true, false},
      {"8K small-file rnd-rd ops/s", &Profiles::small_read, kIoSize, false,
       false},
      {"8K file-create-wr ops/s", &Profiles::small_create, kIoSize, true,
       false},
      {"seq-rd GB/s", &Profiles::seq_read, kMB, false, true},
      {"seq-wr GB/s", &Profiles::seq_write, kMB, true, true},
  };

  sim::Table t({"metric", "NFS", "NFS+opt", "NFS+DPC", "DPC/opt", "DPC/NFS"});
  std::vector<double> iops_cores(3, 0.0);
  for (const auto& m : metrics) {
    double vals[3];
    for (int c = 0; c < 3; ++c) {
      const auto point =
          solve_dfs(cfgs[c], profs[static_cast<std::size_t>(c)].*m.field,
                    m.payload, m.is_write, kThreads);
      vals[c] = m.bandwidth ? point.ops * kMB / 1e9 : point.ops;
      if (std::string(m.name).find("rnd-rd IOPS") != std::string::npos ||
          std::string(m.name).find("rnd-wr IOPS") != std::string::npos) {
        // Track the per-client core usage during the IOPS tests.
        iops_cores[static_cast<std::size_t>(c)] =
            std::max(iops_cores[static_cast<std::size_t>(c)],
                     point.host_cores);
      }
    }
    auto fmt = [&](double v) {
      return m.bandwidth ? sim::Table::fmt(v, 1) : sim::Table::fmt_si(v);
    };
    t.add_row({m.name, fmt(vals[0]), fmt(vals[1]), fmt(vals[2]),
               sim::Table::fmt(vals[2] / vals[1], 2) + "x",
               sim::Table::fmt(vals[2] / vals[0], 2) + "x"});
  }
  bench::print_table(t, args);

  sim::Table c({"client", "host cores (IOPS test)", "vs NFS", "vs opt"});
  for (int i = 0; i < 3; ++i) {
    c.add_row({kClientNames[i],
               sim::Table::fmt(iops_cores[static_cast<std::size_t>(i)], 1),
               sim::Table::fmt(iops_cores[static_cast<std::size_t>(i)] /
                                   iops_cores[0],
                               1) +
                   "x",
               sim::Table::fmt(100.0 * (1.0 - iops_cores[static_cast<std::size_t>(i)] /
                                                  iops_cores[1]),
                               0) +
                   "% less"});
  }
  bench::print_table(c, args);
  std::cout
      << "paper: optimized ~30 cores, DPC ~3.6 cores (~90% less than "
         "optimized, ~10% above standard NFS), DPC up to +40% on writes\n";
  record_stripe_latency();
  bench::emit_metrics_json(g_registry, "fig9_dfs");
  return 0;
}
