// Fast-query-path tests: party delta codec round-trips (a shipped body
// applied to the checkpoint the peer holds reproduces the party), hostile
// input rejection, change_cursor monotonicity, snapshot_from_checkpoint
// equivalence, and live differential runs pinning the v3 delta client
// against the v2 full client — including the cursor-stale, delta-disabled,
// and restart (generation bump) fallback legs. Suite names start with
// RecoveryDelta / NetDelta so the TSan CI leg's -R "...|Net|Recovery"
// regex picks them up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/basic_wave.hpp"
#include "core/checkpoint.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "core/ts_sum_wave.hpp"
#include "core/ts_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/net_obs.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta.hpp"
#include "recovery/delta_live.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"
#include "util/bitops.hpp"
#include "util/packed_bits.hpp"

namespace waves::recovery {
namespace {

using distributed::Bytes;
using distributed::put_varint;

// -- party-level delta round-trips -----------------------------------------
// Bodies come from the encoders production ships: encode_delta_live for
// count (the live rings diffed against the shape of the checkpoint last
// shipped), encode_delta for distinct. Applied through apply_delta_into to
// the checkpoint the peer holds, each must reproduce party.checkpoint().

void expect_same(const distributed::CountPartyCheckpoint& a,
                 const distributed::CountPartyCheckpoint& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    EXPECT_EQ(a.waves[i], b.waves[i]) << i;
  }
}

void expect_same(const distributed::DistinctPartyCheckpoint& a,
                 const distributed::DistinctPartyCheckpoint& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    EXPECT_EQ(a.waves[i], b.waves[i]) << i;
  }
}

// The count chain's delta encoder, started from the checkpoint `held`.
struct LiveCountEncoder {
  LiveCountEncoder(const distributed::CountParty& p,
                   const distributed::CountPartyCheckpoint& held)
      : party(p) {
    baseline_from_checkpoint(held, baseline);
  }
  Bytes next() {
    Bytes body;
    EXPECT_TRUE(encode_delta_live(party, baseline, body));
    return body;
  }
  const distributed::CountParty& party;
  CountDeltaBaseline baseline;
};

// Shared shape: ingest, hold a checkpoint, ingest more (several stage
// sizes, including zero — the unchanged case — and enough to expire the
// whole baseline), and require next_body(held) applied to `held` to
// reproduce the party's checkpoint exactly at every stage.
template <class Party, class Ingest, class NextBody>
void roundtrip_stages(const Party& party, Ingest&& ingest,
                      NextBody&& next_body) {
  auto held = party.checkpoint();
  for (const int stage : {0, 1, 7, 250, 5000}) {
    ingest(stage);
    const Bytes body = next_body(held);
    decltype(held) out;
    ASSERT_TRUE(apply_delta_into(held, body, out)) << stage;
    held = party.checkpoint();
    expect_same(out, held);
  }
}

TEST(RecoveryDelta, RandWaveRoundTrip) {
  distributed::CountParty party({.eps = 0.3, .window = 256, .c = 8}, 1, 99);
  stream::BernoulliBits gen(0.5, 3);
  for (int i = 0; i < 1500; ++i) party.observe(gen.next());
  LiveCountEncoder enc(party, party.checkpoint());
  roundtrip_stages(
      party,
      [&](int k) {
        for (int i = 0; i < k; ++i) party.observe(gen.next());
      },
      [&](const distributed::CountPartyCheckpoint&) { return enc.next(); });
}

TEST(RecoveryDelta, RandAppendsMustAscendStrictly) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  distributed::CountPartyCheckpoint base;
  base.cursor = 10;
  base.waves.resize(1);
  base.waves[0].pos = 10;
  base.waves[0].queues = {{3, 7}};
  base.waves[0].evicted_bounds = {0};
  // A one-wave party body whose wave is in diff form (flags 0): it keeps
  // the queue and appends hand-picked position deltas after its last
  // position, 7.
  auto body = [](std::initializer_list<std::uint64_t> deltas) {
    Bytes b;
    put_varint(b, 20);  // cursor
    put_varint(b, 1);   // waves
    put_varint(b, 0);   // flags: diff
    put_varint(b, 20);  // pos
    put_varint(b, 1);   // queues
    put_varint(b, 0);   // drop
    put_varint(b, deltas.size());
    for (const std::uint64_t d : deltas) put_varint(b, d);
    put_varint(b, 0);  // evicted bound delta
    return b;
  };
  distributed::CountPartyCheckpoint out;
  ASSERT_TRUE(apply_delta_into(base, body({2, 1}), out));
  EXPECT_EQ(out.waves.front().queues.front(),
            (std::vector<std::uint64_t>{3, 7, 9, 10}));
  for (const auto& bad : {body({0}), body({2, 0}), body({kMax - 6})}) {
    EXPECT_FALSE(apply_delta_into(base, bad, out));
  }
}

TEST(RecoveryDelta, AppliedRandQueuesAlwaysAscendUnderCorruption) {
  distributed::CountParty party({.eps = 0.3, .window = 256, .c = 8}, 1, 13);
  stream::BernoulliBits gen(0.5, 4);
  for (int i = 0; i < 1500; ++i) party.observe(gen.next());
  const distributed::CountPartyCheckpoint base = party.checkpoint();
  LiveCountEncoder enc(party, base);
  for (int i = 0; i < 60; ++i) party.observe(gen.next());
  const Bytes clean = enc.next();
  gf2::SplitMix64 rng(29);
  int applied = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = clean;
    mutated[rng.next() % mutated.size()] ^=
        static_cast<std::uint8_t>(1u << (rng.next() % 8));
    distributed::CountPartyCheckpoint out;
    if (!apply_delta_into(base, mutated, out)) continue;
    ++applied;
    for (const core::RandWaveCheckpoint& w : out.waves) {
      for (const auto& q : w.queues) {
        for (std::size_t i = 1; i < q.size(); ++i) {
          ASSERT_LT(q[i - 1], q[i]) << "trial " << trial;
        }
        if (!q.empty()) {
          ASSERT_GE(q.front(), 1u);
        }
      }
    }
  }
  EXPECT_GT(applied, 0);
}

TEST(RecoveryDelta, DistinctWaveRoundTrip) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 5000,
                               .c = 8};
  distributed::DistinctParty party(p, 1, 7);
  stream::UniformValues gen(0, 5000, 13);
  for (int i = 0; i < 1000; ++i) party.observe(gen.next());
  roundtrip_stages(
      party,
      [&](int k) {
        for (int i = 0; i < k; ++i) party.observe(gen.next());
      },
      [&](const distributed::DistinctPartyCheckpoint& held) {
        return encode_delta(held, party.checkpoint());
      });
}

TEST(RecoveryDelta, FullFormLegDecodesAgainstAnyBaseline) {
  // A wave body whose flags select "full" must decode regardless of what
  // baseline the decoder holds — this is the self-check fallback's escape
  // hatch, so it has to work even against an unrelated or empty baseline.
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty a(p, 2, 7), b(p, 2, 8);
  stream::UniformValues gen(0, 4096, 41);
  for (int i = 0; i < 400; ++i) a.observe(gen.next());
  for (int i = 0; i < 100; ++i) b.observe(gen.next());
  const auto now = a.checkpoint();
  Bytes body;
  put_varint(body, now.cursor);
  put_varint(body, now.waves.size());
  for (const core::DistinctWaveCheckpoint& w : now.waves) {
    put_varint(body, 1);  // kFlagFull
    put_checkpoint(body, w);
  }
  for (const auto& base :
       {b.checkpoint(), distributed::DistinctPartyCheckpoint{}}) {
    distributed::DistinctPartyCheckpoint out;
    ASSERT_TRUE(apply_delta_into(base, body, out));
    expect_same(out, now);
  }
}

TEST(RecoveryDelta, UnchangedStateGivesTinyDelta) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty party(p, 2, 5);
  stream::UniformValues gen(0, 4096, 5);
  for (int i = 0; i < 400; ++i) party.observe(gen.next());
  const auto ck = party.checkpoint();

  const Bytes delta = encode_delta(ck, ck);
  EXPECT_LT(delta.size() * 5, encode(ck).size());

  distributed::DistinctPartyCheckpoint out;
  ASSERT_TRUE(apply_delta_into(ck, delta, out));
  expect_same(out, ck);
}

TEST(RecoveryDelta, CountPartyRoundTripAndHostileInput) {
  distributed::CountParty party({.eps = 0.3, .window = 128, .c = 8}, 3, 42);
  stream::BernoulliBits bits(0.3, 5);
  for (int i = 0; i < 500; ++i) party.observe(bits.next());
  const auto base = party.checkpoint();
  LiveCountEncoder enc(party, base);
  for (int i = 0; i < 90; ++i) party.observe(bits.next());

  const Bytes delta = enc.next();
  distributed::CountPartyCheckpoint out;
  ASSERT_TRUE(apply_delta_into(base, delta, out));
  expect_same(out, party.checkpoint());

  // Held state with fewer instances: the extra diff-form wave has no
  // baseline to apply to.
  distributed::CountPartyCheckpoint short_base = base;
  short_base.waves.pop_back();
  EXPECT_FALSE(apply_delta_into(short_base, delta, out));

  // Trailing garbage and every strict prefix: rejected.
  Bytes garbage = delta;
  garbage.push_back(0x01);
  EXPECT_FALSE(apply_delta_into(base, garbage, out));
  for (std::size_t cut = 0; cut < delta.size(); ++cut) {
    const Bytes prefix(delta.begin(),
                       delta.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(apply_delta_into(base, prefix, out)) << cut;
  }

  // Random byte fuzz must never crash and must fail or fully parse.
  gf2::SplitMix64 rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes noise(rng.next() % 60);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    (void)apply_delta_into(base, noise, out);
  }
}

TEST(RecoveryDelta, DistinctPartyRoundTrip) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty party(p, 3, 7);
  stream::UniformValues gen(0, 4096, 19);
  for (int i = 0; i < 800; ++i) party.observe(gen.next());
  auto base = party.checkpoint();
  // Several rounds, including an unchanged one.
  for (const int chunk : {0, 40, 300, 0, 2000}) {
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());
    const auto now = party.checkpoint();
    distributed::DistinctPartyCheckpoint out;
    ASSERT_TRUE(apply_delta_into(base, encode_delta(base, now), out))
        << chunk;
    expect_same(out, now);
    base = now;
  }
}

TEST(RecoveryDelta, ApplyIntoReusesDirtyDestination) {
  // apply_delta_into's contract: any prior contents of `out` — stale wave
  // counts, stale queue lengths — are fully overwritten on success. The
  // mirror ping-pongs two checkpoints through it, so each call's `out` is
  // the round-before-last's state, not a fresh object.
  distributed::CountParty party({.eps = 0.3, .window = 128, .c = 8}, 3, 42);
  stream::BernoulliBits bits(0.3, 5);
  for (int i = 0; i < 500; ++i) party.observe(bits.next());
  auto base = party.checkpoint();
  LiveCountEncoder enc(party, base);

  distributed::CountPartyCheckpoint slots[2];
  slots[0] = base;  // anything: gets overwritten below
  slots[1].cursor = 12345;
  slots[1].waves.resize(7);
  int cur = 0;
  for (const int chunk : {70, 0, 40, 900, 5}) {
    for (int i = 0; i < chunk; ++i) party.observe(bits.next());
    distributed::CountPartyCheckpoint& out = slots[cur ^ 1];
    ASSERT_TRUE(apply_delta_into(base, enc.next(), out)) << chunk;
    const auto now = party.checkpoint();
    expect_same(out, now);
    base = now;
    cur ^= 1;
  }
}

TEST(RecoveryDelta, DistinctApplyIntoPingPong) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty party(p, 3, 7);
  stream::UniformValues gen(0, 4096, 19);
  for (int i = 0; i < 800; ++i) party.observe(gen.next());
  auto base = party.checkpoint();

  distributed::DistinctPartyCheckpoint slots[2];
  int cur = 0;
  for (const int chunk : {40, 0, 300, 0, 2000}) {
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());
    const auto now = party.checkpoint();
    distributed::DistinctPartyCheckpoint& out = slots[cur ^ 1];
    ASSERT_TRUE(apply_delta_into(base, encode_delta(base, now), out))
        << chunk;
    expect_same(out, now);
    base = now;
    cur ^= 1;
  }
}

TEST(RecoveryDelta, SteadyStateDeltaIsSmallerThanFull) {
  // The property E18 measures, at unit scale: after a big backlog, a small
  // round's delta must undercut re-sending the full synopsis by a wide
  // margin (5x at the system level).
  distributed::CountParty party({.eps = 0.1, .window = 4096, .c = 36}, 5, 3);
  stream::BernoulliBits bits(0.3, 9);
  for (int i = 0; i < 20000; ++i) party.observe(bits.next());
  LiveCountEncoder enc(party, party.checkpoint());
  for (int i = 0; i < 64; ++i) party.observe(bits.next());

  const Bytes delta = enc.next();
  const Bytes full = encode(party.checkpoint());
  EXPECT_LT(delta.size() * 5, full.size())
      << "delta " << delta.size() << " vs full " << full.size();
}

// -- live O(change) count-delta encoder ------------------------------------
// delta_live.hpp: the party-side encoder that diffs the live rings
// against a shape summary instead of copying a full checkpoint. Its
// contract is apply_delta_into(prev_full_ck, live_body) ==
// party.checkpoint() at every stage.

TEST(RecoveryDeltaLive, LiveBodyAppliesToPriorCheckpointExactly) {
  distributed::CountParty party({.eps = 0.2, .window = 1024, .c = 16}, 4, 21);
  stream::BernoulliBits bits(0.35, 13);
  for (int i = 0; i < 5000; ++i) party.observe(bits.next());

  distributed::CountPartyCheckpoint held = party.checkpoint();
  CountDeltaBaseline baseline;
  baseline_from_checkpoint(held, baseline);
  EXPECT_TRUE(baseline.valid);
  EXPECT_EQ(baseline.cursor, held.cursor);

  // Stages include zero (unchanged), small increments, and one large
  // enough to expire the entire baseline from every level.
  for (const int stage : {0, 1, 32, 500, 8000}) {
    for (int i = 0; i < stage; ++i) party.observe(bits.next());
    Bytes body;
    ASSERT_TRUE(encode_delta_live(party, baseline, body)) << stage;
    distributed::CountPartyCheckpoint out;
    ASSERT_TRUE(apply_delta_into(held, body, out)) << stage;
    const distributed::CountPartyCheckpoint now = party.checkpoint();
    expect_same(out, now);
    EXPECT_EQ(baseline.cursor, now.cursor) << stage;
    held = now;
    if (stage <= 32) {
      // O(change): a small round's body must stay far below the full form.
      EXPECT_LT(body.size() * 5, encode(now).size()) << stage;
    }
  }
}

TEST(RecoveryDeltaLive, InvalidOrMismatchedBaselineRefusesAndRestoresOut) {
  distributed::CountParty party({.eps = 0.3, .window = 256, .c = 8}, 3, 5);
  stream::BernoulliBits bits(0.3, 17);
  for (int i = 0; i < 800; ++i) party.observe(bits.next());

  Bytes body = {0xAB, 0xCD};  // pre-existing bytes must survive a refusal
  CountDeltaBaseline never_set;
  EXPECT_FALSE(encode_delta_live(party, never_set, body));
  EXPECT_EQ(body, (Bytes{0xAB, 0xCD}));

  // Instance-count mismatch: a baseline captured from a different fleet
  // shape must refuse rather than emit a wrong-shaped diff.
  distributed::CountParty other({.eps = 0.3, .window = 256, .c = 8}, 2, 5);
  CountDeltaBaseline wrong;
  baseline_from_checkpoint(other.checkpoint(), wrong);
  EXPECT_FALSE(encode_delta_live(party, wrong, body));
  EXPECT_EQ(body, (Bytes{0xAB, 0xCD}));
}

TEST(RecoveryDeltaLive, BaselineAdvancesOnlyOnSuccess) {
  distributed::CountParty party({.eps = 0.3, .window = 512, .c = 8}, 3, 33);
  stream::BernoulliBits bits(0.4, 29);
  for (int i = 0; i < 2000; ++i) party.observe(bits.next());
  const auto held = party.checkpoint();
  CountDeltaBaseline baseline;
  baseline_from_checkpoint(held, baseline);
  const std::uint64_t cursor0 = baseline.cursor;

  for (int i = 0; i < 100; ++i) party.observe(bits.next());
  Bytes body;
  ASSERT_TRUE(encode_delta_live(party, baseline, body));
  EXPECT_EQ(baseline.cursor, cursor0 + 100);

  // Re-encoding against the advanced baseline still applies — but only on
  // top of the state the previous body produced, which is the server
  // protocol's invariant (serial must match).
  distributed::CountPartyCheckpoint mid;
  ASSERT_TRUE(apply_delta_into(held, body, mid));
  for (int i = 0; i < 50; ++i) party.observe(bits.next());
  Bytes body2;
  ASSERT_TRUE(encode_delta_live(party, baseline, body2));
  distributed::CountPartyCheckpoint out;
  ASSERT_TRUE(apply_delta_into(mid, body2, out));
  expect_same(out, party.checkpoint());
}

}  // namespace
}  // namespace waves::recovery

namespace waves::net {
namespace {

// -- change_cursor / snapshot_from_checkpoint ------------------------------

TEST(NetDeltaCore, ChangeCursorIsMonotoneAcrossAllWaves) {
  const auto check = [](auto& wave, auto&& mutate) {
    std::uint64_t last = wave.change_cursor();
    for (int i = 0; i < 200; ++i) {
      mutate(i);
      const std::uint64_t cur = wave.change_cursor();
      ASSERT_GE(cur, last) << i;
      last = cur;
    }
    EXPECT_GT(last, 0u);  // 200 mutations must have moved the cursor
  };

  core::BasicWave basic(4, 64);
  check(basic, [&](int i) { basic.update(i % 3 != 0); });
  core::DetWave det(4, 64);
  check(det, [&](int i) { det.update(i % 2 == 0); });
  core::SumWave sum(4, 64, 50);
  check(sum, [&](int i) { sum.update(static_cast<std::uint64_t>(i) % 50); });
  core::TsWave ts(4, 128, 128);
  std::uint64_t pos = 0;
  check(ts, [&](int i) { ts.update(++pos, i % 2 == 0); });
  core::TsSumWave tss(4, 128, 128, 50);
  std::uint64_t pos2 = 0;
  check(tss, [&](int i) {
    tss.update(++pos2, static_cast<std::uint64_t>(i) % 50);
  });

  const std::uint64_t window = 128;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  gf2::SharedRandomness coins(11);
  core::RandWave rand({.eps = 0.3, .window = window, .c = 8}, f, coins);
  check(rand, [&](int i) { rand.update(i % 2 == 0); });

  core::DistinctWave::Params dp{.eps = 0.4, .window = 128, .max_value = 1024,
                                .c = 8};
  const gf2::Field df(core::DistinctWave::field_dimension(dp));
  gf2::SharedRandomness dcoins(12);
  core::DistinctWave distinct(dp, df, dcoins);
  check(distinct, [&](int i) {
    distinct.update(static_cast<std::uint64_t>(i * 37) % 1024);
  });
}

TEST(NetDeltaCore, SnapshotFromCheckpointMatchesLiveSnapshot) {
  const std::uint64_t window = 256;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  gf2::SharedRandomness coins(21);
  core::RandWave rand({.eps = 0.3, .window = window, .c = 8}, f, coins);
  stream::BernoulliBits bits(0.4, 31);
  for (int i = 0; i < 3000; ++i) rand.update(bits.next());
  const auto rck = rand.checkpoint();
  for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
    const auto live = rand.snapshot(n);
    const auto from_ck = core::snapshot_from_checkpoint(rck, n);
    EXPECT_EQ(from_ck.level, live.level) << n;
    EXPECT_EQ(from_ck.stream_len, live.stream_len) << n;
    EXPECT_EQ(from_ck.positions, live.positions) << n;
  }

  core::DistinctWave::Params dp{.eps = 0.4, .window = 200, .max_value = 4096,
                                .c = 8};
  const gf2::Field df(core::DistinctWave::field_dimension(dp));
  gf2::SharedRandomness dcoins(22);
  core::DistinctWave distinct(dp, df, dcoins);
  stream::UniformValues vals(0, 4096, 33);
  for (int i = 0; i < 2500; ++i) distinct.update(vals.next());
  const auto dck = distinct.checkpoint();
  for (const std::uint64_t n : {std::uint64_t{1}, dp.window / 2, dp.window}) {
    const auto live = distinct.snapshot(n);
    const auto from_ck = core::snapshot_from_checkpoint(dck, n, dp.window);
    EXPECT_EQ(from_ck.level, live.level) << n;
    EXPECT_EQ(from_ck.stream_len, live.stream_len) << n;
    EXPECT_EQ(from_ck.items, live.items) << n;
  }
}

// -- live differential: delta client vs the in-process party ---------------

constexpr double kEps = 0.25;
constexpr std::uint64_t kWindow = 1024;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 77;
constexpr int kParties = 4;

core::RandWave::Params count_params() {
  return {.eps = kEps, .window = kWindow, .c = 36};
}

core::DistinctWave::Params distinct_params() {
  return {.eps = kEps,
          .window = kWindow,
          .max_value = 1u << 12,
          .c = 36,
          .universe_hint = kWindow * kParties};
}

void expect_same_snapshots(const std::vector<core::RandWaveSnapshot>& a,
                           const std::vector<core::RandWaveSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].stream_len, b[i].stream_len) << i;
    EXPECT_EQ(a[i].positions, b[i].positions) << i;
  }
}

void expect_same_snapshots(const std::vector<core::DistinctSnapshot>& a,
                           const std::vector<core::DistinctSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].stream_len, b[i].stream_len) << i;
    EXPECT_EQ(a[i].items, b[i].items) << i;
  }
}

// The oracle is the party's own live snapshots: the delta client must
// reproduce them exactly from its mirrored checkpoints, round after round.
TEST(NetDelta, CountDeltaClientMatchesFullClientBitForBit) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient delta(eps, ClientConfig{});

  stream::BernoulliBits bits(0.3, 8);
  std::uint64_t bootstrap_received = 0;
  std::uint64_t less_received = 0;
  for (int round = 0; round < 6; ++round) {
    // Rounds 0..3 ingest between queries; rounds 4 and 5 are quiescent.
    const int chunk = round < 4 ? (round == 0 ? 3000 : 150) : 0;
    for (int i = 0; i < chunk; ++i) party.observe(bits.next());

    const Fetch fd = delta.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fd.ok()) << round << " " << fd.error;
    expect_same_snapshots(fd.count_snapshots, party.snapshots(kWindow));

    EXPECT_TRUE(fd.delta_reply) << round;
    EXPECT_EQ(fd.reused_connection, round > 0) << round;
    // Round 0 bootstraps with a full body; later ingesting rounds apply a
    // diff; quiescent rounds get the "unchanged" echo.
    EXPECT_EQ(fd.delta_applied, round >= 1 && round < 4) << round;
    if (round == 0) bootstrap_received = fd.bytes_received;
    if (round >= 1 && round < 4) {
      // A diff moves less than the full-form bootstrap (which also
      // carried the handshake).
      EXPECT_LT(fd.bytes_received, bootstrap_received) << round;
      less_received += 1;
    }
  }
  EXPECT_EQ(less_received, 3u);
}

TEST(NetDelta, DistinctDeltaClientMatchesFullClientBitForBit) {
  distributed::DistinctParty party(distinct_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient delta(eps, ClientConfig{});

  stream::ZipfValues gen(1u << 12, 1.2, 9);
  for (int round = 0; round < 4; ++round) {
    const int chunk = round == 0 ? 2500 : (round < 3 ? 120 : 0);
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());

    const Fetch fd = delta.fetch(0, PartyRole::kDistinct, kWindow);
    ASSERT_TRUE(fd.ok()) << round << " " << fd.error;
    expect_same_snapshots(fd.distinct_snapshots, party.snapshots(kWindow));
    EXPECT_EQ(fd.delta_applied, round == 1 || round == 2) << round;
  }
}

TEST(NetDelta, EndToEndUnionCountMatchesInProcessReferee) {
  // The whole fast path at once: a multi-round networked union count over
  // delta snapshots must equal the in-process referee over the same
  // parties, every round, while the parties keep ingesting.
  stream::BernoulliBits base_gen(0.2, 5);
  const auto base = stream::take(base_gen, 9000);
  const auto streams = stream::correlated_streams(base, kParties, 0.05, 6);

  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<const distributed::CountParty*> query;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        count_params(), kInstances, kSeed));
    query.push_back(owners.back().get());
    servers.push_back(
        std::make_unique<PartyServer>(ServerConfig{}, owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  NetworkCountSource source(endpoints, count_params(), kInstances, kSeed);
  for (int round = 0; round < 3; ++round) {
    // Feed each party the next third of its stream, then query both ways.
    for (int j = 0; j < kParties; ++j) {
      const auto& s = streams[static_cast<std::size_t>(j)];
      const std::size_t lo = s.size() * static_cast<std::size_t>(round) / 3;
      const std::size_t hi =
          s.size() * static_cast<std::size_t>(round + 1) / 3;
      for (std::size_t i = lo; i < hi; ++i) owners[static_cast<std::size_t>(
          j)]->observe(s[i]);
    }
    const core::Estimate direct = distributed::union_count(query, kWindow);
    const distributed::QueryResult tcp =
        distributed::union_count(source, kWindow);
    ASSERT_EQ(tcp.status, distributed::QueryStatus::kOk) << round;
    EXPECT_EQ(tcp.estimate.value, direct.value) << round;  // bit-identical
  }
}

TEST(NetDelta, StaleCursorFallsBackToFullAndStaysCorrect) {
  // Two delta clients interleave against one server: each fetch bumps the
  // server's cursor, so the other client's since_cursor is always stale.
  // Every reply must degrade to a correct full snapshot, never garbage.
  // The party ingests before every fetch, so no two replies describe the
  // same state and the server's retry cache can never serve one.
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient a(eps, ClientConfig{});
  const RefereeClient b(eps, ClientConfig{});

  stream::BernoulliBits bits(0.3, 44);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 400; ++i) party.observe(bits.next());
    const Fetch fa = a.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fa.ok()) << fa.error;
    expect_same_snapshots(fa.count_snapshots, party.snapshots(kWindow));
    for (int i = 0; i < 50; ++i) party.observe(bits.next());
    const Fetch fb = b.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fb.ok()) << fb.error;
    expect_same_snapshots(fb.count_snapshots, party.snapshots(kWindow));
    // b's fetch invalidated a's cursor (and vice versa): after round 0
    // every reply is a full-body fallback, yet still bit-correct.
    if (round > 0) {
      EXPECT_FALSE(fa.delta_applied) << round;
      EXPECT_FALSE(fb.delta_applied) << round;
    }
  }
}

TEST(NetDelta, RestartDropsMirrorAndRecoversWithFullFetch) {
  // A server restart bumps the generation. The client must notice at the
  // next handshake, silently discard its mirror and cache, and bootstrap
  // from the new daemon's full snapshot — a reconnect, not an error.
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 60);
  for (int i = 0; i < 1500; ++i) party.observe(bits.next());

  ServerConfig cfg;
  cfg.generation = 1;
  auto server = std::make_unique<PartyServer>(cfg, &party);
  ASSERT_TRUE(server->start());
  const std::uint16_t port = server->port();
  const std::vector<Endpoint> eps{{"127.0.0.1", port}};
  const RefereeClient delta(eps, ClientConfig{});

#if WAVES_OBS_ENABLED
  const std::uint64_t reconnects_before =
      obs::NetClientObs::instance().reconnects.value();
#endif

  Fetch f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  for (int i = 0; i < 200; ++i) party.observe(bits.next());
  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_TRUE(f.delta_applied);
  EXPECT_EQ(f.generation, 1u);

  // "Crash": the daemon comes back on the same port, one epoch later, with
  // a recovered party that replayed a bit further.
  server.reset();
  for (int i = 0; i < 300; ++i) party.observe(bits.next());
  cfg.generation = 2;
  cfg.port = port;
  PartyServer reborn(cfg, &party);
  ASSERT_TRUE(reborn.start());

  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_EQ(f.generation, 2u);
  EXPECT_FALSE(f.reused_connection);  // the old socket died with the server
  EXPECT_FALSE(f.delta_applied);      // mirror dropped: full bootstrap

  expect_same_snapshots(f.count_snapshots, party.snapshots(kWindow));

  // And the delta path resumes against the new generation.
  for (int i = 0; i < 100; ++i) party.observe(bits.next());
  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_TRUE(f.reused_connection);
  EXPECT_TRUE(f.delta_applied);

#if WAVES_OBS_ENABLED
  EXPECT_GE(obs::NetClientObs::instance().reconnects.value(),
            reconnects_before + 1);
#endif
}

TEST(NetDelta, DisconnectAllKeepsMirrorsAcrossReconnect) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 71);
  for (int i = 0; i < 1500; ++i) party.observe(bits.next());
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const RefereeClient client({{"127.0.0.1", server.port()}},
                             ClientConfig{});

  Fetch f = client.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  client.disconnect_all();
  for (int i = 0; i < 150; ++i) party.observe(bits.next());
  f = client.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_FALSE(f.reused_connection);  // socket was dropped on purpose...
  EXPECT_TRUE(f.delta_applied);       // ...but the mirror survived
}

}  // namespace
}  // namespace waves::net
