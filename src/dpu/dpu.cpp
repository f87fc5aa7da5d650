#include "dpu/dpu.hpp"

namespace dpc::dpu {

namespace {
/// Size of the doorbell/BAR + scratch region.
constexpr std::size_t kBarSize = 16ULL << 20;
}  // namespace

Dpu::Dpu() : bar_("dpu-bar", kBarSize), bar_alloc_(bar_) {}

sim::Nanos Dpu::sched_overhead(int client_threads) {
  using namespace sim::calib;
  if (client_threads <= kDpuSchedSweetSpot) return sim::Nanos{0};
  return kDpuSchedPenaltyPerThread *
         (client_threads - kDpuSchedSweetSpot);
}

}  // namespace dpc::dpu
