// Median-of-instances boosting (Theorem 5/6).
//
// One randomized wave instance is within eps with probability > 2/3
// (Lemma 3); running m = O(log 1/delta) independent instances (independent
// hash seeds drawn from the shared coins) and returning the median drives
// the failure probability below delta, by a standard Chernoff argument
// (m >= 36 ln(1/delta) suffices; see EXPERIMENTS.md E8 for the measured
// failure rates).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rand_wave.hpp"
#include "core/wave_common.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"

namespace waves::core {

/// Number of instances for failure probability delta: the smallest odd
/// integer >= 36 ln(1/delta) (and >= 1).
[[nodiscard]] int instances_for_delta(double delta);

/// Median of a non-empty vector (averages the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// Same, reordering `values` in place instead of taking a copy.
[[nodiscard]] double median_in_place(std::span<double> values);

/// Single-party (eps, delta) Basic Counting over a sliding window: m
/// independent randomized waves, estimates combined by median. Distributed
/// use goes through distributed::UnionCountProtocol, which medians
/// referee-side across the same instances.
class MedianCountWave {
 public:
  MedianCountWave(const RandWave::Params& params, double delta,
                  const gf2::Field& field, gf2::SharedRandomness& coins);

  /// Explicit instance count (tests and ablations).
  MedianCountWave(const RandWave::Params& params, int instances,
                  const gf2::Field& field, gf2::SharedRandomness& coins);

  void update(bool bit);
  [[nodiscard]] Estimate estimate(std::uint64_t n) const;

  [[nodiscard]] int instances() const noexcept {
    return static_cast<int>(waves_.size());
  }
  [[nodiscard]] const RandWave& instance(int i) const {
    return waves_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t space_bits() const noexcept;

 private:
  std::vector<RandWave> waves_;
};

}  // namespace waves::core
