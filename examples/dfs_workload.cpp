// Shared distributed file service through DPC: the offloaded DFS client
// (client-side EC, direct I/O, delegations, metadata-view routing — all
// running on the DPU) against the MDS cluster and EC-striped data servers.
// Demonstrates the offload's CPU story and a degraded read surviving two
// lost shards.
//
//   $ ./dfs_workload
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/dpc_system.hpp"
#include "sim/rng.hpp"

int main() {
  using namespace dpc;

  core::DpcSystem dpc;
  dpc.start_dpu();

  // Create a preallocated big file on the DFS (dispatch bit = distributed).
  const auto f = dpc.dfs_create("/data/training.bin", 1ULL << 30);
  if (!f.ok()) {
    std::cerr << "dfs create failed\n";
    return 1;
  }
  std::cout << "created /data/training.bin (ino " << f.ino
            << ", RS(4,2) striped across "
            << dpc.data_servers()->servers() << " data servers)\n";

  // Write a few stripes; the DPU computes the erasure code and fans the
  // shards out — the host only submitted nvme-fs commands.
  sim::Rng rng(1);
  std::vector<std::byte> block(32 * 1024);  // one full RS(4,2) stripe
  for (auto& b : block) b = static_cast<std::byte>(rng.next_below(256));
  for (int s = 0; s < 8; ++s) {
    const auto io =
        dpc.dfs_write(f.ino, static_cast<std::uint64_t>(s) * block.size(),
                      block);
    if (!io.ok()) {
      std::cerr << "write failed: errno " << io.err << '\n';
      return 1;
    }
  }
  std::cout << "wrote 8 full stripes (" << 8 * block.size() / 1024
            << " KiB) — parity shards live on the backend:\n";
  for (std::uint32_t role = 0; role < 6; ++role) {
    std::cout << "  stripe 0, shard " << role << " ("
              << (role < 4 ? "data" : "parity") << ") on server "
              << dpc.data_servers()->server_of(f.ino, 0, role) << '\n';
  }

  // Read back through the same path.
  std::vector<std::byte> out(block.size());
  dpc.dfs_read(f.ino, 0, out);
  std::cout << "read back stripe 0: "
            << (out == block ? "verified" : "CORRUPT!") << '\n';

  // Fault injection: lose two shards of stripe 0 (the RS(4,2) tolerance),
  // then read again: the client's read engine reconstructs the stripe.
  dpc.data_servers()->drop_shard(f.ino, 0, 1);
  dpc.data_servers()->drop_shard(f.ino, 0, 4);
  std::cout << "\ndropped shard 1 (data) and shard 4 (parity) of stripe 0\n";

  dfs::DfsClient recovery(42, *dpc.mds(), *dpc.data_servers(),
                          dfs::ClientConfig::dpc_offloaded());
  const auto opened = recovery.open("/data/training.bin");
  std::fill(out.begin(), out.end(), std::byte{0});
  const auto degraded = recovery.read(opened.ino, 0, out);
  std::cout << "degraded read: " << (degraded.ok() ? "ok" : "FAILED") << ", "
            << (out == block ? "bytes verified after reconstruction"
                             : "CORRUPT!")
            << '\n';

  // Where did the CPU go? (On a file this client owns — the delegation on
  // training.bin still belongs to the DPC mount.)
  const auto scratch = recovery.create("/data/scratch.bin", 1 << 20);
  const auto w = recovery.write(scratch.ino, 0, block);
  std::cout << "\nper-op cost profile of one striped write (measured):\n"
            << std::fixed << std::setprecision(1)
            << "  host CPU  " << w.prof.host_cpu.us() << " us\n"
            << "  DPU CPU   " << w.prof.dpu_cpu.us() << " us (EC + client stack)\n"
            << "  MDS       " << w.prof.mds.us() << " us across "
            << w.prof.mds_ops << " ops\n"
            << "  servers   " << w.prof.ds.us() << " us across "
            << w.prof.ds_ops << " shard ops\n";

  dpc.stop_dpu();
  return 0;
}
