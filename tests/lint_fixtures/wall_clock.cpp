// dpc_lint negative fixture: wall-clock.
//
// A real-clock read in code that feeds modelled time. Modelled cost must
// derive from the model (sim::Nanos), never from the host clock, or runs
// stop being reproducible.
#include <chrono>
#include <cstdint>

namespace sim {
using Nanos = std::int64_t;
}  // namespace sim

namespace dpc::lint_fixture {

inline std::int64_t read_real_clock() {
  return std::chrono::high_resolution_clock::now()  // expect: wall-clock
      .time_since_epoch()
      .count();
}

inline sim::Nanos laundered_cost(sim::Nanos base) {
  return base + (read_real_clock() & 0xff);
}

}  // namespace dpc::lint_fixture
