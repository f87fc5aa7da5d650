// Virtual time primitives for the DPC simulation.
//
// All modelled durations are carried in nanoseconds as a strong type so that
// microsecond calibration constants and nanosecond accounting can't be mixed
// up silently.
#pragma once

#include <cstdint>
#include <compare>

namespace dpc::sim {

/// A duration or point on the virtual timeline, in nanoseconds.
struct Nanos {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const Nanos&) const = default;

  constexpr Nanos operator+(Nanos o) const { return {ns + o.ns}; }
  constexpr Nanos operator-(Nanos o) const { return {ns - o.ns}; }
  constexpr Nanos& operator+=(Nanos o) {
    ns += o.ns;
    return *this;
  }
  constexpr Nanos& operator-=(Nanos o) {
    ns -= o.ns;
    return *this;
  }
  constexpr Nanos operator*(std::int64_t k) const { return {ns * k}; }

  constexpr double us() const { return static_cast<double>(ns) / 1e3; }
  constexpr double ms() const { return static_cast<double>(ns) / 1e6; }
  constexpr double sec() const { return static_cast<double>(ns) / 1e9; }
};

constexpr Nanos nanos(std::int64_t n) { return {n}; }
constexpr Nanos micros(double u) {
  return {static_cast<std::int64_t>(u * 1e3)};
}
constexpr Nanos millis(double m) {
  return {static_cast<std::int64_t>(m * 1e6)};
}

}  // namespace dpc::sim
