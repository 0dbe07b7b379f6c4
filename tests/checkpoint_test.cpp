// Checkpoint/restore: the restored synopsis must be *behaviorally
// identical* to the original under any continuation of the stream.
#include <gtest/gtest.h>

#include <tuple>

#include "core/checkpoint.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "gf2/shared_randomness.hpp"
#include "stream/generators.hpp"
#include "stream/value_streams.hpp"
#include "util/bitops.hpp"

namespace waves::core {
namespace {

class DetWaveCheckpointTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t,
                                                 bool>> {};

TEST_P(DetWaveCheckpointTest, ReplayAfterRestoreMatchesOriginal) {
  const auto [inv_eps, window, weak] = GetParam();
  stream::BernoulliBits gen(0.4, inv_eps * 7 + window);
  DetWave original(inv_eps, window, weak);
  // Warm up well past expiry and queue wrap-around.
  for (std::uint64_t i = 0; i < 5 * window + 13; ++i) {
    original.update(gen.next());
  }
  DetWave restored =
      DetWave::restore(inv_eps, window, original.checkpoint(), weak);
  // Same immediate answers...
  for (std::uint64_t n = 1; n <= window; n += window / 9 + 1) {
    ASSERT_DOUBLE_EQ(restored.query(n).value, original.query(n).value);
  }
  // ...and identical behavior over a long continuation.
  for (std::uint64_t i = 0; i < 4 * window; ++i) {
    const bool b = gen.next();
    original.update(b);
    restored.update(b);
    if (i % 23 == 0) {
      for (std::uint64_t n : {std::uint64_t{1}, window / 2 + 1, window}) {
        ASSERT_DOUBLE_EQ(restored.query(n).value, original.query(n).value)
            << "i=" << i << " n=" << n;
        ASSERT_EQ(restored.query(n).exact, original.query(n).exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetWaveCheckpointTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 4, 15),
                       ::testing::Values<std::uint64_t>(17, 64, 300),
                       ::testing::Bool()));

TEST(DetWaveCheckpointTest, EmptyAndYoungWaves) {
  DetWave w(5, 100);
  DetWave r0 = DetWave::restore(5, 100, w.checkpoint());
  EXPECT_DOUBLE_EQ(r0.query(100).value, 0.0);
  for (int i = 0; i < 10; ++i) w.update(true);
  DetWave r1 = DetWave::restore(5, 100, w.checkpoint());
  EXPECT_DOUBLE_EQ(r1.query(100).value, 10.0);
  EXPECT_EQ(r1.rank(), 10u);
}

TEST(RandWaveCheckpointTest, ReplayAfterRestoreMatchesOriginal) {
  const std::uint64_t window = 256;
  const gf2::Field f(
      util::floor_log2(util::next_pow2_at_least(2 * window)));
  const RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
  gf2::SharedRandomness c1(99), c2(99);
  RandWave original(params, f, c1);
  stream::BernoulliBits gen(0.5, 3);
  for (int i = 0; i < 3000; ++i) original.update(gen.next());

  RandWave restored(params, f, c2);  // identical stored coins
  restored.restore(original.checkpoint());
  for (int i = 0; i < 3000; ++i) {
    const bool b = gen.next();
    original.update(b);
    restored.update(b);
    if (i % 101 == 0) {
      const auto so = original.snapshot(window);
      const auto sr = restored.snapshot(window);
      ASSERT_EQ(so.level, sr.level) << i;
      ASSERT_EQ(so.positions, sr.positions) << i;
    }
  }
}

TEST(DistinctWaveCheckpointTest, ReplayAfterRestoreMatchesOriginal) {
  DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 5000,
                         .c = 8};
  const gf2::Field f(DistinctWave::field_dimension(p));
  gf2::SharedRandomness c1(7), c2(7);
  DistinctWave original(p, f, c1);
  stream::UniformValues gen(0, 5000, 13);
  for (int i = 0; i < 2000; ++i) original.update(gen.next());

  DistinctWave restored(p, f, c2);
  restored.restore(original.checkpoint());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = gen.next();
    original.update(v);
    restored.update(v);
    if (i % 67 == 0) {
      ASSERT_DOUBLE_EQ(restored.estimate(200).value,
                       original.estimate(200).value)
          << i;
    }
  }
}

class SumWaveCheckpointTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t,
                                                 bool>> {};

TEST_P(SumWaveCheckpointTest, ReplayAfterRestoreMatchesOriginal) {
  const auto [inv_eps, window, weak] = GetParam();
  const std::uint64_t max_value = 50;
  stream::UniformValues gen(0, max_value, inv_eps * 11 + window);
  SumWave original(inv_eps, window, max_value, weak);
  for (std::uint64_t i = 0; i < 5 * window + 13; ++i) {
    original.update(gen.next());
  }
  SumWave restored = SumWave::restore(inv_eps, window, max_value,
                                      original.checkpoint(), weak);
  for (std::uint64_t n = 1; n <= window; n += window / 9 + 1) {
    ASSERT_DOUBLE_EQ(restored.query(n).value, original.query(n).value);
  }
  for (std::uint64_t i = 0; i < 4 * window; ++i) {
    const std::uint64_t v = gen.next();
    original.update(v);
    restored.update(v);
    if (i % 23 == 0) {
      for (std::uint64_t n : {std::uint64_t{1}, window / 2 + 1, window}) {
        ASSERT_DOUBLE_EQ(restored.query(n).value, original.query(n).value)
            << "i=" << i << " n=" << n;
        ASSERT_EQ(restored.query(n).exact, original.query(n).exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SumWaveCheckpointTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 4, 15),
                       ::testing::Values<std::uint64_t>(17, 64, 300),
                       ::testing::Bool()));

TEST(SumWaveCheckpointTest, EmptyAndYoungWaves) {
  SumWave w(5, 100, 10);
  SumWave r0 = SumWave::restore(5, 100, 10, w.checkpoint());
  EXPECT_DOUBLE_EQ(r0.query(100).value, 0.0);
  for (int i = 0; i < 10; ++i) w.update(7);
  SumWave r1 = SumWave::restore(5, 100, 10, w.checkpoint());
  EXPECT_DOUBLE_EQ(r1.query(100).value, 70.0);
  EXPECT_EQ(r1.total(), 70u);
}

}  // namespace
}  // namespace waves::core
