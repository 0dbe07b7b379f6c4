// Differential property tests for the referee combines. The oracle below is
// the combine as first written: every received position (or value) goes
// back through the shared hash, and the survivors are unioned in a
// std::unordered_set. The library's merge skips the hash for queues already
// at l* and unions by a t-way merge (count) or sort + unique (distinct);
// both must agree with the oracle bit for bit, including across parties
// whose chosen levels differ.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"
#include "stream/generators.hpp"
#include "stream/value_streams.hpp"
#include "util/bitops.hpp"

namespace waves::core {
namespace {

double oracle_union_count(std::span<const RandWaveSnapshot> snapshots,
                          std::uint64_t n, const gf2::ExpHash& hash) {
  const std::uint64_t pos = snapshots.front().stream_len;
  const std::uint64_t s = pos > n ? pos - n + 1 : 1;
  int lstar = 0;
  for (const auto& snap : snapshots) lstar = std::max(lstar, snap.level);
  std::unordered_set<std::uint64_t> uni;
  for (const auto& snap : snapshots) {
    for (std::uint64_t p : snap.positions) {
      if (p >= s && hash.level(p) >= lstar) uni.insert(p);
    }
  }
  return std::ldexp(static_cast<double>(uni.size()), lstar);
}

double oracle_distinct_count(
    std::span<const DistinctSnapshot> snapshots, std::uint64_t n,
    const gf2::ExpHash& hash,
    const std::function<bool(std::uint64_t)>& predicate) {
  const std::uint64_t pos = snapshots.front().stream_len;
  const std::uint64_t s = pos > n ? pos - n + 1 : 1;
  int lstar = 0;
  for (const auto& snap : snapshots) lstar = std::max(lstar, snap.level);
  std::unordered_set<std::uint64_t> uni;
  for (const auto& snap : snapshots) {
    for (const auto& [value, p] : snap.items) {
      if (p < s) continue;
      if (hash.level(value) < lstar) continue;
      if (predicate && !predicate(value)) continue;
      uni.insert(value);
    }
  }
  return std::ldexp(static_cast<double>(uni.size()), lstar);
}

constexpr double kDensities[] = {0.01, 0.1, 0.5, 0.95};

// How often the cases reached the l_j < l* filter, and how often that
// filter actually dropped a position inside the window.
struct FilterCoverage {
  int below_lstar = 0;
  int dropped = 0;
};

template <class Snapshot, class Key>
void note_coverage(std::span<const Snapshot> snaps, std::uint64_t n,
                   const gf2::ExpHash& hash, Key&& key_of,
                   FilterCoverage& cov) {
  const std::uint64_t pos = snaps.front().stream_len;
  const std::uint64_t s = pos > n ? pos - n + 1 : 1;
  int lstar = 0;
  for (const auto& snap : snaps) lstar = std::max(lstar, snap.level);
  bool below = false;
  bool dropped = false;
  for (const auto& snap : snaps) {
    if (snap.level >= lstar) continue;
    below = true;
    for (const auto& e : key_of(snap)) {
      const auto [key, p] = e;
      if (p >= s && hash.level(key) < lstar) dropped = true;
    }
  }
  cov.below_lstar += below ? 1 : 0;
  cov.dropped += dropped ? 1 : 0;
}

TEST(RefereeCombine, UnionCountMatchesSetOracle) {
  const std::uint64_t window = 1024;
  const gf2::Field field(
      util::floor_log2(util::next_pow2_at_least(2 * window)));
  const RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
  gf2::SplitMix64 rng(2002);
  UnionScratch scratch;  // shared by every case: a dirty scratch is the norm
  FilterCoverage cov;
  int cases = 0;
  for (int config = 0; config < 240; ++config) {
    const int t = 1 + static_cast<int>(rng.next() % 8);
    const std::uint64_t seed = rng.next();
    const std::uint64_t len = window / 2 + rng.next() % (3 * window);
    std::vector<std::unique_ptr<gf2::SharedRandomness>> coins;
    std::vector<std::unique_ptr<RandWave>> waves;
    for (int j = 0; j < t; ++j) {
      coins.push_back(std::make_unique<gf2::SharedRandomness>(seed));
      waves.push_back(std::make_unique<RandWave>(params, field, *coins.back()));
      stream::BernoulliBits gen(kDensities[rng.next() % 4], rng.next());
      for (std::uint64_t i = 0; i < len; ++i) waves.back()->update(gen.next());
    }
    const gf2::ExpHash& hash = waves.front()->hash();
    for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{7},
                                  window / 3, window}) {
      std::vector<RandWaveSnapshot> snaps;
      std::vector<const RandWaveSnapshot*> views;
      for (const auto& w : waves) snaps.push_back(w->snapshot(n));
      for (const auto& snap : snaps) views.push_back(&snap);
      const double want = oracle_union_count(snaps, n, hash);
      ASSERT_EQ(referee_union_count(views, n, hash, scratch).value, want)
          << "config " << config << " t=" << t << " n=" << n;
      ASSERT_EQ(referee_union_count(snaps, n, hash).value, want);
      note_coverage<RandWaveSnapshot>(
          snaps, n, hash,
          [](const RandWaveSnapshot& snap) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> e;
            for (std::uint64_t p : snap.positions) e.emplace_back(p, p);
            return e;
          },
          cov);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 960);
  EXPECT_GT(cov.below_lstar, 200);
  EXPECT_GT(cov.dropped, 200);
}

TEST(RefereeCombine, DistinctCountMatchesSetOracle) {
  const std::uint64_t window = 512;
  const std::uint64_t max_value = 4095;
  gf2::SplitMix64 rng(2003);
  UnionScratch scratch;
  FilterCoverage cov;
  const std::function<bool(std::uint64_t)> none;
  const std::function<bool(std::uint64_t)> thirds = [](std::uint64_t v) {
    return v % 3 == 0;
  };
  int cases = 0;
  for (int config = 0; config < 120; ++config) {
    const int t = 1 + static_cast<int>(rng.next() % 8);
    const DistinctWave::Params params{
        .eps = 0.3,
        .window = window,
        .max_value = max_value,
        .c = 8,
        .universe_hint = static_cast<std::uint64_t>(t) * window};
    const gf2::Field field(DistinctWave::field_dimension(params));
    const std::uint64_t seed = rng.next();
    const std::uint64_t len = window / 2 + rng.next() % (3 * window);
    std::vector<std::unique_ptr<gf2::SharedRandomness>> coins;
    std::vector<std::unique_ptr<DistinctWave>> waves;
    for (int j = 0; j < t; ++j) {
      coins.push_back(std::make_unique<gf2::SharedRandomness>(seed));
      waves.push_back(
          std::make_unique<DistinctWave>(params, field, *coins.back()));
      // The "density" sets how much of the value range a party draws from,
      // so parties hold very different distinct counts and levels.
      const auto hi = static_cast<std::uint64_t>(
          kDensities[rng.next() % 4] * static_cast<double>(max_value));
      stream::UniformValues gen(0, hi, rng.next());
      for (std::uint64_t i = 0; i < len; ++i) waves.back()->update(gen.next());
    }
    const gf2::ExpHash& hash = waves.front()->hash();
    for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{7},
                                  window / 3, window}) {
      std::vector<DistinctSnapshot> snaps;
      std::vector<const DistinctSnapshot*> views;
      for (const auto& w : waves) snaps.push_back(w->snapshot(n));
      for (const auto& snap : snaps) views.push_back(&snap);
      for (const auto* pred : {&none, &thirds}) {
        const double want = oracle_distinct_count(snaps, n, hash, *pred);
        ASSERT_EQ(
            referee_distinct_count(views, n, hash, *pred, scratch).value,
            want)
            << "config " << config << " t=" << t << " n=" << n
            << " predicate=" << static_cast<bool>(*pred);
        ASSERT_EQ(referee_distinct_count(snaps, n, hash, *pred).value, want);
        ++cases;
      }
      note_coverage<DistinctSnapshot>(
          snaps, n, hash,
          [](const DistinctSnapshot& snap) { return snap.items; }, cov);
    }
  }
  EXPECT_EQ(cases, 960);
  EXPECT_GT(cov.below_lstar, 100);
  EXPECT_GT(cov.dropped, 100);
}

TEST(RefereeCombine, MergeHandlesEdgeRuns) {
  // Level-0 snapshots pass the hash filter whatever their positions, so
  // the oracle applies to hand-built runs: overlaps, empty queues, a queue
  // wholly before the window, and the largest representable position
  // (which the merge reserves internally as its exhausted mark).
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const gf2::Field field(10);
  gf2::SharedRandomness coins(1);
  const gf2::ExpHash hash = coins.draw_hash(field);
  const std::vector<std::vector<std::vector<std::uint64_t>>> shapes = {
      {{}},
      {{kMax}},
      {{kMax}, {kMax}},
      {{1, 2, kMax}, {2, kMax}, {}},
      {{5, 9, 12}, {1, 2, 3}, {9, 12, 40}, {}},
      {{1, 2, 3, 4, 5}},
      {{100, 200}, {50, 150, 250}, {200, 300}},
  };
  UnionScratch scratch;
  for (const auto& shape : shapes) {
    for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{150},
                                  kMax}) {
      std::vector<RandWaveSnapshot> snaps;
      std::vector<const RandWaveSnapshot*> views;
      for (const auto& positions : shape) {
        snaps.push_back({.level = 0, .stream_len = 300, .positions = positions});
      }
      for (const auto& snap : snaps) views.push_back(&snap);
      EXPECT_EQ(referee_union_count(views, n, hash, scratch).value,
                oracle_union_count(snaps, n, hash))
          << "parties=" << shape.size() << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace waves::core
