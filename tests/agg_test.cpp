// Aggregation-engine tests: the two-stacks SlidingAgg against a naive
// window recompute, per-item vs bulk ingest parity, AggWave checkpoint
// round-trips through the recovery codec (including hostile input), the
// always-full delta leg, and TCP parity — an agg_query over real loopback
// servers must equal the in-process combine bit for bit, and degrade like
// the totals when a party is unreachable. Suite names start with Agg so
// the TSan CI leg's -R "...|Agg" regex runs them under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "agg/agg_wave.hpp"
#include "agg/sliding_agg.hpp"
#include "gf2/shared_randomness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "recovery/checkpoint.hpp"
#include "stream/generators.hpp"
#include "stream/value_streams.hpp"

namespace waves {
namespace {

using distributed::Bytes;

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed,
                                        std::int64_t lo, std::int64_t hi) {
  gf2::SplitMix64 rng(seed);
  std::vector<std::int64_t> v(n);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  for (auto& x : v) {
    x = lo + static_cast<std::int64_t>(rng.next() % span);
  }
  return v;
}

// Naive reference: a deque holding the live window, recomputed per query.
struct NaiveWindow {
  explicit NaiveWindow(std::size_t w) : window(w) {}
  void insert(std::int64_t v) {
    live.push_back(v);
    if (live.size() > window) live.pop_front();
  }
  [[nodiscard]] std::int64_t sum() const {
    std::uint64_t s = 0;
    for (const std::int64_t v : live) s += static_cast<std::uint64_t>(v);
    return static_cast<std::int64_t>(s);
  }
  [[nodiscard]] std::int64_t min() const {
    return live.empty() ? std::numeric_limits<std::int64_t>::max()
                        : *std::min_element(live.begin(), live.end());
  }
  [[nodiscard]] std::int64_t max() const {
    return live.empty() ? std::numeric_limits<std::int64_t>::min()
                        : *std::max_element(live.begin(), live.end());
  }
  std::size_t window;
  std::deque<std::int64_t> live;
};

TEST(AggSliding, MatchesNaiveWindowPerItem) {
  for (const std::size_t w : {1u, 2u, 7u, 64u, 333u}) {
    agg::SlidingAgg<agg::SumOp> sum(w);
    agg::SlidingAgg<agg::MinOp> mn(w);
    agg::SlidingAgg<agg::MaxOp> mx(w);
    NaiveWindow ref(w);
    const auto vals = random_values(2000, 11 + w, -500, 500);
    for (const std::int64_t v : vals) {
      sum.insert(v);
      mn.insert(v);
      mx.insert(v);
      ref.insert(v);
      ASSERT_EQ(sum.query(), ref.sum()) << "w=" << w;
      ASSERT_EQ(mn.query(), ref.min()) << "w=" << w;
      ASSERT_EQ(mx.query(), ref.max()) << "w=" << w;
    }
  }
}

TEST(AggSliding, BulkInsertEqualsPerItem) {
  // Every query after every block must agree between a bulk engine and a
  // per-item engine — including blocks larger than the window, which drop
  // the stale state wholesale.
  const std::size_t w = 97;
  agg::SlidingAgg<agg::SumOp> bulk(w);
  agg::SlidingAgg<agg::SumOp> item(w);
  gf2::SplitMix64 rng(23);
  std::size_t consumed = 0;
  const auto vals = random_values(6000, 77, -1000, 1000);
  while (consumed < vals.size()) {
    const std::size_t block =
        std::min<std::size_t>(rng.next() % 250, vals.size() - consumed);
    bulk.insert_bulk(vals.data() + consumed, block);
    for (std::size_t i = 0; i < block; ++i) item.insert(vals[consumed + i]);
    consumed += block;
    ASSERT_EQ(bulk.query(), item.query()) << "consumed=" << consumed;
    ASSERT_EQ(bulk.size(), item.size());
  }
}

TEST(AggSliding, OverflowWrapsIdentically) {
  // Sum wraps modulo 2^64; per-item and bulk must wrap the same way.
  const std::size_t w = 8;
  agg::SlidingAgg<agg::SumOp> bulk(w);
  agg::SlidingAgg<agg::SumOp> item(w);
  std::vector<std::int64_t> big(w, std::numeric_limits<std::int64_t>::max());
  bulk.insert_bulk(big.data(), big.size());
  for (const std::int64_t v : big) item.insert(v);
  EXPECT_EQ(bulk.query(), item.query());
}

TEST(AggWaveTest, ValueAndQueryAgreeWithNaive) {
  const std::uint64_t w = 50;
  agg::AggWave sum(agg::AggOp::kSum, w);
  agg::AggWave mn(agg::AggOp::kMin, w);
  agg::AggWave mx(agg::AggOp::kMax, w);
  NaiveWindow ref(w);
  // Identity before any items.
  EXPECT_EQ(sum.value(), 0);
  EXPECT_EQ(mn.value(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(mx.value(), std::numeric_limits<std::int64_t>::min());
  const auto vals = random_values(400, 5, -100, 100);
  for (const std::int64_t v : vals) {
    sum.update(v);
    mn.update(v);
    mx.update(v);
    ref.insert(v);
  }
  EXPECT_EQ(sum.value(), ref.sum());
  EXPECT_EQ(mn.value(), ref.min());
  EXPECT_EQ(mx.value(), ref.max());
  EXPECT_TRUE(sum.query().exact);
  EXPECT_EQ(sum.query().value, static_cast<double>(ref.sum()));
  EXPECT_EQ(sum.pos(), vals.size());
  EXPECT_EQ(sum.items(), w);
}

TEST(AggWaveTest, CheckpointIsCanonicalAcrossIngestPaths) {
  // Per-item and bulk ingest may split the stacks differently; the
  // checkpoint (live values, oldest first) must be identical anyway.
  const std::uint64_t w = 33;
  agg::AggWave a(agg::AggOp::kMin, w);
  agg::AggWave b(agg::AggOp::kMin, w);
  const auto vals = random_values(200, 99, -50, 50);
  for (const std::int64_t v : vals) a.update(v);
  b.update_bulk(vals);
  EXPECT_EQ(a.checkpoint(), b.checkpoint());
}

TEST(AggWaveTest, RestoreThenContinueMatchesUninterrupted) {
  const std::uint64_t w = 40;
  const auto vals = random_values(300, 12, -1000, 1000);
  agg::AggWave full(agg::AggOp::kSum, w);
  full.update_bulk(vals);

  agg::AggWave first(agg::AggOp::kSum, w);
  first.update_bulk(std::span<const std::int64_t>(vals.data(), 170));
  agg::AggWave resumed =
      agg::AggWave::restore(agg::AggOp::kSum, w, first.checkpoint());
  resumed.update_bulk(
      std::span<const std::int64_t>(vals.data() + 170, vals.size() - 170));
  EXPECT_EQ(resumed.value(), full.value());
  EXPECT_EQ(resumed.checkpoint(), full.checkpoint());
}

TEST(AggCodec, PartyCheckpointRoundTripAndHostileInput) {
  recovery::AggPartyCheckpoint ck;
  ck.cursor = 12345;
  ck.wave.pos = 12345;
  ck.wave.values = random_values(64, 3, std::numeric_limits<std::int64_t>::min() / 2,
                                 std::numeric_limits<std::int64_t>::max() / 2);
  // Include the extremes: zigzag must round-trip them.
  ck.wave.values.push_back(std::numeric_limits<std::int64_t>::min());
  ck.wave.values.push_back(std::numeric_limits<std::int64_t>::max());

  const Bytes buf = recovery::encode(ck);
  recovery::AggPartyCheckpoint out;
  ASSERT_TRUE(recovery::decode(buf, out));
  EXPECT_EQ(out.cursor, ck.cursor);
  EXPECT_EQ(out.wave, ck.wave);

  // Every strict prefix must be rejected.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const Bytes prefix(buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(cut));
    recovery::AggPartyCheckpoint o;
    EXPECT_FALSE(recovery::decode(prefix, o)) << cut;
  }
  // Random fuzz must never crash.
  gf2::SplitMix64 rng(2027);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes noise(rng.next() % 80);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    recovery::AggPartyCheckpoint o;
    (void)recovery::decode(noise, o);
  }
}

TEST(AggCodec, PartyRestoreRefusesCheckpointFromAnotherWindow) {
  // A checkpoint holds the last min(pos, window) values of the wave that
  // wrote it. A party with a smaller or a larger window must refuse it,
  // touching nothing, so a daemon restarted with another --window replays
  // in full instead of aborting.
  const auto vals = random_values(5000, 21, -1000, 1000);
  net::AggPartyState written(agg::AggOp::kSum, 1000);
  written.observe_batch(vals);
  const recovery::AggPartyCheckpoint ck = written.checkpoint();
  for (const std::uint64_t window : {std::uint64_t{100}, std::uint64_t{2000}}) {
    net::AggPartyState party(agg::AggOp::kSum, window);
    party.observe(7);
    EXPECT_FALSE(party.restore(ck)) << window;
    EXPECT_EQ(party.items(), 1u) << window;
    EXPECT_EQ(party.value(), 7) << window;
  }
  net::AggPartyState same(agg::AggOp::kSum, 1000);
  ASSERT_TRUE(same.restore(ck));
  EXPECT_EQ(same.items(), 5000u);
  EXPECT_EQ(same.value(), written.value());

  // A stream shorter than both windows fits either one: the wave is the
  // whole stream.
  net::AggPartyState short_run(agg::AggOp::kSum, 1000);
  short_run.observe_batch(std::span<const std::int64_t>(vals.data(), 50));
  net::AggPartyState wider(agg::AggOp::kSum, 2000);
  ASSERT_TRUE(wider.restore(short_run.checkpoint()));
  EXPECT_EQ(wider.value(), short_run.value());
}

// -- TCP parity -------------------------------------------------------------

TEST(AggNet, TcpQueryMatchesInProcessBitForBit) {
  using net::Endpoint;
  using net::PartyServer;
  using net::ServerConfig;
  constexpr int kParties = 3;
  constexpr std::uint64_t kWindow = 64;
  for (const agg::AggOp op :
       {agg::AggOp::kSum, agg::AggOp::kMin, agg::AggOp::kMax}) {
    std::vector<std::unique_ptr<net::AggPartyState>> states;
    std::vector<std::unique_ptr<PartyServer>> servers;
    std::vector<Endpoint> endpoints;
    std::uint64_t usum = 0;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (int j = 0; j < kParties; ++j) {
      states.push_back(std::make_unique<net::AggPartyState>(op, kWindow));
      const auto vals = random_values(
          500, 40 + static_cast<std::uint64_t>(j), -1000, 1000);
      states.back()->observe_batch(vals);
      const std::int64_t v = states.back()->value();
      usum += static_cast<std::uint64_t>(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      servers.push_back(
          std::make_unique<PartyServer>(ServerConfig{}, states.back().get()));
      ASSERT_TRUE(servers.back()->start());
      endpoints.push_back({"127.0.0.1", servers.back()->port()});
    }
    const net::RefereeClient client(endpoints);
    const net::AggQueryResult r = net::agg_query(client, op, kWindow, 1000);
    ASSERT_EQ(r.status, distributed::QueryStatus::kOk) << r.error;
    EXPECT_TRUE(r.missing.empty());
    switch (op) {
      case agg::AggOp::kSum:
        EXPECT_EQ(r.value, static_cast<std::int64_t>(usum));
        EXPECT_EQ(r.error_slack, 0.0);
        break;
      case agg::AggOp::kMin:
        EXPECT_EQ(r.value, lo);
        break;
      case agg::AggOp::kMax:
        EXPECT_EQ(r.value, hi);
        break;
    }
  }
}

TEST(AggNet, DegradesLikeTotalsWhenPartyUnreachable) {
  using net::Endpoint;
  using net::PartyServer;
  using net::ServerConfig;
  constexpr std::uint64_t kWindow = 32;
  std::vector<std::unique_ptr<net::AggPartyState>> states;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  std::uint64_t usum = 0;
  for (int j = 0; j < 2; ++j) {
    states.push_back(
        std::make_unique<net::AggPartyState>(agg::AggOp::kSum, kWindow));
    const auto vals =
        random_values(100, 70 + static_cast<std::uint64_t>(j), 0, 50);
    states.back()->observe_batch(vals);
    usum += static_cast<std::uint64_t>(states.back()->value());
    servers.push_back(
        std::make_unique<PartyServer>(ServerConfig{}, states.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  // Third party is down: bind-and-close to get a refusing port.
  {
    net::Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    endpoints.push_back({"127.0.0.1", l.port()});
  }
  net::ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(200);
  cfg.max_attempts = 1;
  const net::RefereeClient client(endpoints, cfg);
  const net::AggQueryResult r =
      net::agg_query(client, agg::AggOp::kSum, kWindow, 50);
  ASSERT_EQ(r.status, distributed::QueryStatus::kDegraded);
  EXPECT_EQ(r.value, static_cast<std::int64_t>(usum));
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_EQ(r.missing[0], 2u);
  // slack = missing * n * max_abs_value
  EXPECT_EQ(r.error_slack, 1.0 * 32.0 * 50.0);
}

}  // namespace
}  // namespace waves
