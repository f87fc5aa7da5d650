// kvfsck — offline consistency check of a KVFS keyspace.
//
// Builds a file system, takes a healthy fsck baseline, then injects the
// kinds of damage a crashed client could leave behind, shows the checker
// pinpointing each one, and repairs the keyspace. Exits nonzero if the
// damage goes unseen or repair does not converge.
//
//   $ ./kvfsck
#include <iostream>

#include "kv/remote.hpp"
#include "kvfs/fsck.hpp"
#include "kvfs/kvfs.hpp"
#include "sim/rng.hpp"

namespace {

void print_report(const dpc::kvfs::FsckReport& report) {
  std::cout << "  " << report.inodes << " inodes (" << report.directories
            << " dirs, " << report.small_files << " small + "
            << report.big_files << " big files), " << report.blocks
            << " blocks, " << report.data_bytes << " data bytes\n";
  if (report.clean()) {
    std::cout << "  CLEAN\n";
    return;
  }
  for (const auto& issue : report.issues) {
    std::cout << "  [" << dpc::kvfs::to_string(issue.kind) << "] ino "
              << issue.ino << ": " << issue.detail << '\n';
  }
}

}  // namespace

int main() {
  using namespace dpc;
  using namespace dpc::kvfs;

  kv::KvStore store;
  kv::RemoteKv remote(store);
  Kvfs fs(remote);

  // Populate a small tree.
  sim::Rng rng(1);
  const auto projects = fs.mkdir(kRootIno, "projects", 0755).value;
  const auto dpc_dir = fs.mkdir(projects, "dpc", 0755).value;
  std::vector<std::byte> small(2000), big(3 * kBigBlock);
  for (auto& b : small) b = static_cast<std::byte>(rng.next_below(256));
  for (auto& b : big) b = static_cast<std::byte>(rng.next_below(256));
  const auto notes = fs.create(dpc_dir, "notes.md", 0644).value;
  fs.write(notes, 0, small);
  const auto dataset = fs.create(dpc_dir, "dataset.bin", 0644).value;
  fs.write(dataset, 0, big);
  fs.create(projects, "README", 0644);

  std::cout << "== healthy filesystem ==\n";
  print_report(fsck(store));

  std::cout << "\n== injecting damage ==\n";
  // 1. Lose the big file's second block (simulated lost KV).
  const ExtentPage page0 =
      decode_extent_page(*store.get(extent_page_key(dataset, 0)));
  store.erase(block_key(page0[1]));
  std::cout << "  erased block " << page0[1] << " of dataset.bin\n";
  // 2. Drop notes.md's attribute → its dentry dangles.
  store.erase(attr_key(notes));
  std::cout << "  erased the attribute KV of notes.md\n";
  // 3. Strand an orphan small-file KV.
  store.put(small_key(31337), kv::to_bytes("who am I"));
  std::cout << "  planted an orphan small-file KV (ino 31337)\n";

  std::cout << "\n== fsck after damage ==\n";
  const FsckReport damaged = fsck(store);
  print_report(damaged);

  std::cout << "\n== fsck_repair ==\n";
  const FsckRepairReport rep = fsck_repair(store);
  std::cout << "  " << rep.repairs << " repairs in " << rep.passes
            << " passes\n";
  print_report(fsck(store));
  // Exit status doubles as a smoke check: the damage must be seen, and
  // repair must converge to a clean keyspace.
  return !damaged.clean() && rep.clean ? 0 : 1;
}
