#include "core/median_estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace waves::core {

int instances_for_delta(double delta) {
  assert(delta > 0.0 && delta < 1.0);
  int m = static_cast<int>(std::ceil(36.0 * std::log(1.0 / delta)));
  if (m < 1) m = 1;
  if (m % 2 == 0) ++m;
  return m;
}

double median(std::vector<double> values) { return median_in_place(values); }

double median_in_place(std::span<double> values) {
  assert(!values.empty());
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

MedianCountWave::MedianCountWave(const RandWave::Params& params, double delta,
                                 const gf2::Field& field,
                                 gf2::SharedRandomness& coins)
    : MedianCountWave(params, instances_for_delta(delta), field, coins) {}

MedianCountWave::MedianCountWave(const RandWave::Params& params, int instances,
                                 const gf2::Field& field,
                                 gf2::SharedRandomness& coins) {
  assert(instances >= 1);
  waves_.reserve(static_cast<std::size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    waves_.emplace_back(params, field, coins);
  }
}

void MedianCountWave::update(bool bit) {
  for (RandWave& w : waves_) w.update(bit);
}

Estimate MedianCountWave::estimate(std::uint64_t n) const {
  std::vector<double> est;
  est.reserve(waves_.size());
  for (const RandWave& w : waves_) est.push_back(w.estimate(n).value);
  return Estimate{median(std::move(est)), false, n};
}

std::uint64_t MedianCountWave::space_bits() const noexcept {
  std::uint64_t bits = 0;
  for (const RandWave& w : waves_) bits += w.space_bits();
  return bits;
}

}  // namespace waves::core
