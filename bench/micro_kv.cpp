// Micro-benchmarks of the disaggregated-KV substrate and the KVFS layered
// on it — including the small/big file cutoff sweep (the §3.4 design choice
// of 8 KB: whole-KV rewrite below it, in-place 8K block updates above).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "kv/kv_store.hpp"
#include "kv/remote.hpp"
#include "kvfs/kvfs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dpc;

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

void BM_KvPutGet(benchmark::State& state) {
  kv::KvStore kv;
  const auto val = bytes(static_cast<std::size_t>(state.range(0)), 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 1024);
    kv.put(key, val);
    benchmark::DoNotOptimize(kv.get(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KvPutGet)->Arg(256)->Arg(8192)
    DPC_BENCH_PIN(dpc::bench::kItersMid);

void BM_KvPrefixScan(benchmark::State& state) {
  kv::KvStore kv;
  const auto val = bytes(64, 2);
  for (int i = 0; i < state.range(0); ++i)
    kv.put("dir/" + std::to_string(i), val);
  for (auto _ : state) {
    std::size_t n = 0;
    kv.scan_prefix("dir/", [&](std::string_view, const kv::Bytes&) {
      ++n;
      return true;
    });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KvPrefixScan)->Arg(64)->Arg(1024)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_KvSubWrite(benchmark::State& state) {
  kv::KvStore kv;
  kv.write_sub("big", 0, bytes(1 << 20, 3));
  const auto patch = bytes(8192, 4);
  sim::Rng rng(5);
  for (auto _ : state) {
    const auto off = rng.next_below(120) * 8192;
    kv.write_sub("big", off, patch);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_KvSubWrite)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

/// The 8 KB small/big cutoff ablation: overwrite cost per write size.
/// Below the cutoff the whole KV is rewritten; above it, only the touched
/// 8 KB blocks are updated in place.
void BM_KvfsOverwrite(benchmark::State& state) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);
  const auto file_size = static_cast<std::size_t>(state.range(0));
  const auto ino = fs.create(kvfs::kRootIno, "f", 0644).value;
  fs.write(ino, 0, bytes(file_size, 6));
  const auto patch = bytes(4096, 7);
  sim::Rng rng(8);
  for (auto _ : state) {
    const auto off = rng.next_below(file_size / 4096) * 4096;
    benchmark::DoNotOptimize(fs.write(ino, off, patch).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_KvfsOverwrite)
    ->Arg(4 * 1024)    // small-file KV: whole rewrite
    ->Arg(8 * 1024)    // at the cutoff
    ->Arg(256 * 1024)  // big-file KV: in-place blocks
    ->Arg(4 << 20)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_KvfsPathResolution(benchmark::State& state) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);
  // Build a path of the requested depth.
  kvfs::Ino dir = kvfs::kRootIno;
  std::string path;
  for (int d = 0; d < state.range(0); ++d) {
    const std::string name = "d" + std::to_string(d);
    dir = fs.mkdir(dir, name, 0755).value;
    path += "/" + name;
  }
  const bool cached = state.range(1) != 0;
  for (auto _ : state) {
    if (!cached) fs.drop_caches();
    benchmark::DoNotOptimize(fs.resolve(path).ok());
  }
}
BENCHMARK(BM_KvfsPathResolution)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({8, 0})
    ->Args({8, 1})  // dentry cache on/off: the §3.4 lookup acceleration
    DPC_BENCH_PIN(dpc::bench::kItersMid);

void BM_KvfsCreateUnlink(benchmark::State& state) {
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string name = "f" + std::to_string(i++);
    benchmark::DoNotOptimize(fs.create(kvfs::kRootIno, name, 0644).ok());
    benchmark::DoNotOptimize(fs.unlink(kvfs::kRootIno, name).ok());
  }
}
BENCHMARK(BM_KvfsCreateUnlink)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

}  // namespace
