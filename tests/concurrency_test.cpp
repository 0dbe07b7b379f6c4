// Concurrency soak: the Referee queries while ingestion threads are
// actively feeding the parties. Estimates taken mid-stream must be sane
// (each party's snapshot is internally consistent under its lock), and no
// data race or deadlock may occur (run under the default build's asserts;
// the test is also TSan-clean when built with -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "distributed/alignment.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "obs/metrics.hpp"
#include "stream/generators.hpp"

namespace waves::distributed {
namespace {

TEST(Concurrency, QueriesDuringIngestion) {
  const std::uint64_t window = 4096;
  const int parties = 3;
  std::vector<std::unique_ptr<CountParty>> owners;
  std::vector<const CountParty*> ps;
  for (int j = 0; j < parties; ++j) {
    owners.push_back(std::make_unique<CountParty>(
        core::RandWave::Params{.eps = 0.3, .window = window, .c = 8}, 3,
        1234));
    ps.push_back(owners.back().get());
  }

  std::atomic<bool> stop{false};
  std::vector<std::jthread> feeders;
  for (int j = 0; j < parties; ++j) {
    feeders.emplace_back([&, j] {
      stream::BernoulliBits gen(0.3, static_cast<std::uint64_t>(j) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 256; ++k) {
          owners[static_cast<std::size_t>(j)]->observe(gen.next());
        }
      }
    });
  }

  // Query repeatedly mid-flight. Parties advance between snapshots, so
  // lengths may differ slightly across parties; per-party single
  // snapshots must always be internally consistent.
  for (int q = 0; q < 300; ++q) {
    for (const CountParty* p : ps) {
      const auto snaps = p->snapshots(window);
      for (const auto& s : snaps) {
        // Positions sorted and within the window of this snapshot.
        for (std::size_t i = 1; i < s.positions.size(); ++i) {
          ASSERT_LT(s.positions[i - 1], s.positions[i]);
        }
        for (std::uint64_t pos : s.positions) {
          ASSERT_LE(pos, s.stream_len);
          ASSERT_GT(pos + window, s.stream_len);
        }
      }
    }
  }
  stop.store(true);
  feeders.clear();  // join

  // Post-join, all parties are quiescent: align free-running lengths and
  // run the full protocol.
  std::vector<CountParty*> mut;
  for (auto& o : owners) mut.push_back(o.get());
  pad_to_alignment(mut);
  const double est = union_count(ps, window).value;
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, static_cast<double>(window) * 1.5);
}

// Same soak through the batch path: feeders push packed chunks via
// observe_batch while the Referee snapshots. The batch path holds the
// party lock for a whole chunk, so snapshots must land between chunks and
// still see internally consistent state.
TEST(Concurrency, QueriesDuringBatchedIngestion) {
  const std::uint64_t window = 4096;
  const int parties = 3;
  std::vector<std::unique_ptr<CountParty>> owners;
  std::vector<const CountParty*> ps;
  for (int j = 0; j < parties; ++j) {
    owners.push_back(std::make_unique<CountParty>(
        core::RandWave::Params{.eps = 0.3, .window = window, .c = 8}, 3,
        1234));
    ps.push_back(owners.back().get());
  }

  std::atomic<bool> stop{false};
  std::vector<std::jthread> feeders;
  for (int j = 0; j < parties; ++j) {
    feeders.emplace_back([&, j] {
      stream::BernoulliBits gen(0.3, static_cast<std::uint64_t>(j) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        // Word-unaligned chunk sizes on purpose: the lock is taken once
        // per chunk regardless of alignment.
        const auto chunk = stream::take_packed(gen, 321 + 64 * (j + 1));
        owners[static_cast<std::size_t>(j)]->observe_batch(chunk);
      }
    });
  }

  for (int q = 0; q < 300; ++q) {
    for (const CountParty* p : ps) {
      const auto snaps = p->snapshots(window);
      for (const auto& s : snaps) {
        for (std::size_t i = 1; i < s.positions.size(); ++i) {
          ASSERT_LT(s.positions[i - 1], s.positions[i]);
        }
        for (std::uint64_t pos : s.positions) {
          ASSERT_LE(pos, s.stream_len);
          ASSERT_GT(pos + window, s.stream_len);
        }
      }
    }
  }
  stop.store(true);
  feeders.clear();  // join

  std::vector<CountParty*> mut;
  for (auto& o : owners) mut.push_back(o.get());
  pad_to_alignment(mut);
  const double est = union_count(ps, window).value;
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, static_cast<double>(window) * 1.5);
}

#if WAVES_OBS_ENABLED

// Hammer the shared obs instruments from 8 writer threads: the relaxed
// atomics must lose no updates. (A plain uint64_t here fails within a few
// runs; this is the canary the TSan CI leg also executes.)
TEST(Concurrency, ObsHammerLosesNoUpdates) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::Counter& c = reg.counter("obstest_hammer_counter");
  const obs::Gauge& g = reg.gauge("obstest_hammer_gauge");
  const obs::Histogram& h = reg.histogram(
      "obstest_hammer_hist", "", obs::size_buckets());
  c.reset();
  g.reset();
  h.reset();

  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerThread = 100000;
  {
    std::vector<std::jthread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          c.add();
          if ((i & 1023u) == 0) g.set(static_cast<double>(t));
          h.observe(static_cast<double>(i & 0xFFu));
        }
      });
    }
  }  // join

  EXPECT_EQ(c.value(), kWriters * kPerThread);
  const auto s = h.sample();
  EXPECT_EQ(s.count, kWriters * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : s.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, kWriters * kPerThread);
  // The gauge holds whichever thread wrote last — any valid id.
  EXPECT_GE(g.value(), 0.0);
  EXPECT_LT(g.value(), static_cast<double>(kWriters));
}

#endif  // WAVES_OBS_ENABLED

}  // namespace
}  // namespace waves::distributed
