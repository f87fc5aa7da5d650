// Micro-benchmarks of the Reed–Solomon codec: encode / delta-parity /
// reconstruct throughput on the build machine, across RS geometries and
// shard sizes. These real numbers back the calib.hpp EC-cost constants
// (host ~0.45 ns/B vs the DPU engine's modelled 0.18 ns/B) and the DESIGN.md
// ablation on client-side vs server-side EC.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "ec/crc32c.hpp"
#include "ec/reed_solomon.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dpc;

std::vector<std::vector<std::byte>> shards(int n, std::size_t len,
                                           std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(n),
                                          std::vector<std::byte>(len));
  for (auto& s : out)
    for (auto& b : s) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

void BM_RsEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const auto len = static_cast<std::size_t>(state.range(2));
  ec::ReedSolomon rs(k, m);
  auto data = shards(k, len, 1);
  auto parity = shards(m, len, 2);
  std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
  std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
  for (auto _ : state) {
    rs.encode(dv, pv);
    benchmark::DoNotOptimize(parity[0][0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * k *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_RsEncode)
    ->Args({4, 2, 8 * 1024})
    ->Args({4, 2, 64 * 1024})
    ->Args({8, 4, 8 * 1024})
    ->Args({10, 4, 64 * 1024})
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_RsDeltaParity(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  ec::ReedSolomon rs(4, 2);
  auto parity = shards(1, len, 3);
  auto delta = shards(1, len, 4);
  for (auto _ : state) {
    rs.apply_delta(parity[0], 0, 2, delta[0]);
    benchmark::DoNotOptimize(parity[0][0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_RsDeltaParity)->Arg(8 * 1024)->Arg(64 * 1024)
    DPC_BENCH_PIN(dpc::bench::kItersMid);

void BM_RsReconstructTwoLost(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  ec::ReedSolomon rs(4, 2);
  auto all = shards(6, len, 5);
  {
    std::vector<std::span<const std::byte>> dv;
    for (int d = 0; d < 4; ++d) dv.emplace_back(all[static_cast<std::size_t>(d)]);
    std::vector<std::span<std::byte>> pv;
    for (int p = 4; p < 6; ++p) pv.emplace_back(all[static_cast<std::size_t>(p)]);
    rs.encode(dv, pv);
  }
  bool present[6] = {false, true, true, false, true, true};
  for (auto _ : state) {
    auto work = all;  // fresh erased copy each round
    std::vector<std::span<std::byte>> views(work.begin(), work.end());
    rs.reconstruct(views, present);
    benchmark::DoNotOptimize(work[0][0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 6 *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_RsReconstructTwoLost)->Arg(8 * 1024)->Arg(64 * 1024)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

void BM_Crc32c(benchmark::State& state) {
  const auto data = shards(1, static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) benchmark::DoNotOptimize(ec::crc32c(data[0]));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(64 * 1024)
    DPC_BENCH_PIN(dpc::bench::kItersMid);

// The bit-at-a-time reference next to the slice-by-8 production path: the
// ratio is the payoff of the table kernel, and a regression here means the
// integrity envelope's per-4K stamp/verify tax (SSD blocks, KV values,
// nvme-fs payload trailers) grew across the whole stack.
void BM_Crc32cBytewise(benchmark::State& state) {
  const auto data = shards(1, static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::crc32c_bytewise(data[0]));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cBytewise)->Arg(4096)->Arg(64 * 1024)
    DPC_BENCH_PIN(dpc::bench::kItersSlow);

}  // namespace
