#include "distributed/wire.hpp"

#include <gtest/gtest.h>

#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/shared_randomness.hpp"
#include "obs/metrics.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"

namespace waves::distributed {
namespace {

TEST(Varint, RoundTripBoundaries) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 35, ~std::uint64_t{0}}) {
    Bytes b;
    put_varint(b, v);
    std::size_t at = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_varint(b, at, out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(at, b.size());
  }
}

TEST(Varint, Truncation) {
  Bytes b;
  put_varint(b, std::uint64_t{1} << 40);
  b.pop_back();
  std::size_t at = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_varint(b, at, out));
}

TEST(Wire, CountSnapshotRoundTrip) {
  core::RandWaveSnapshot s;
  s.level = 3;
  s.stream_len = 1234567;
  s.positions = {10, 11, 500, 1234000};
  const Bytes b = encode(s);
  core::RandWaveSnapshot out;
  ASSERT_TRUE(decode(b, out));
  EXPECT_EQ(out.level, s.level);
  EXPECT_EQ(out.stream_len, s.stream_len);
  EXPECT_EQ(out.positions, s.positions);
}

TEST(Wire, CountSnapshotEmpty) {
  core::RandWaveSnapshot s;
  s.level = 0;
  s.stream_len = 0;
  const Bytes b = encode(s);
  core::RandWaveSnapshot out;
  ASSERT_TRUE(decode(b, out));
  EXPECT_TRUE(out.positions.empty());
}

TEST(Wire, DistinctSnapshotRoundTrip) {
  core::DistinctSnapshot s;
  s.level = 2;
  s.stream_len = 999;
  s.items = {{42, 5}, {7, 8}, {42424242, 900}};
  const Bytes b = encode(s);
  core::DistinctSnapshot out;
  ASSERT_TRUE(decode(b, out));
  EXPECT_EQ(out.items, s.items);
}

TEST(Wire, RejectsTrailingGarbage) {
  core::RandWaveSnapshot s;
  s.positions = {1, 2};
  Bytes b = encode(s);
  b.push_back(0x00);
  core::RandWaveSnapshot out;
  EXPECT_FALSE(decode(b, out));
}

TEST(Wire, DeltaEncodingCompactsSortedPositions) {
  // Dense consecutive positions cost ~1 byte each on the wire vs 8 raw.
  core::RandWaveSnapshot s;
  s.stream_len = 1u << 20;
  for (std::uint64_t p = (1u << 20) - 1000; p < (1u << 20); ++p) {
    s.positions.push_back(p);
  }
  const Bytes b = encode(s);
  EXPECT_LT(b.size(), 1100u);  // ~1 byte/position + header
}

TEST(WireReferee, MatchesDirectRefereeExactly) {
  const std::uint64_t window = 512;
  CountParty a({.eps = 0.3, .window = window, .c = 36}, 5, 7);
  CountParty b({.eps = 0.3, .window = window, .c = 36}, 5, 7);
  stream::BernoulliBits ga(0.4, 1), gb(0.3, 2);
  for (int i = 0; i < 5000; ++i) {
    a.observe(ga.next());
    b.observe(gb.next());
  }
  const std::vector<const CountParty*> ps = {&a, &b};
  WireStats direct_stats, wire_stats;
  const double direct = union_count(ps, window, &direct_stats).value;
  const double wired = union_count_wire(ps, window, &wire_stats).value;
  EXPECT_DOUBLE_EQ(direct, wired);
  EXPECT_GT(wire_stats.bytes, 0u);
  // The varint/delta wire format beats the fixed-width estimate.
  EXPECT_LT(wire_stats.bytes, direct_stats.bytes);
}

TEST(WireReferee, DistinctMatchesDirect) {
  const std::uint64_t window = 256;
  core::DistinctWave::Params p{.eps = 0.4, .window = window,
                               .max_value = 10000, .c = 36,
                               .universe_hint = 2 * window};
  DistinctParty a(p, 5, 11), b(p, 5, 11);
  stream::UniformValues ga(0, 10000, 3), gb(0, 10000, 4);
  for (int i = 0; i < 2000; ++i) {
    a.observe(ga.next());
    b.observe(gb.next());
  }
  const std::vector<const DistinctParty*> ps = {&a, &b};
  const double direct = distinct_count(ps, window).value;
  const double wired = distinct_count_wire(ps, window).value;
  EXPECT_DOUBLE_EQ(direct, wired);
  // With a predicate too.
  const auto odd = [](std::uint64_t v) { return v % 2 == 1; };
  EXPECT_DOUBLE_EQ(distinct_count(ps, window, nullptr, odd).value,
                   distinct_count_wire(ps, window, nullptr, odd).value);
}

TEST(Wire, CorruptionNeverCrashes) {
  // Decoding adversarial bytes must either fail cleanly or produce a
  // (possibly nonsensical) snapshot — never crash or read out of bounds.
  core::RandWaveSnapshot s;
  s.level = 5;
  s.stream_len = 100000;
  for (std::uint64_t p = 99000; p < 99100; ++p) s.positions.push_back(p);
  const Bytes clean = encode(s);
  gf2::SplitMix64 rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = clean;
    const std::size_t flips = 1 + rng.next() % 8;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng.next() % 8));
    }
    if (rng.next() % 4 == 0 && mutated.size() > 2) {
      mutated.resize(rng.next() % mutated.size());  // truncate too
    }
    core::RandWaveSnapshot out;
    (void)decode(mutated, out);  // must not crash; result may be garbage
  }
  SUCCEED();
}

TEST(Wire, RandomBytesNeverCrashDistinctDecode) {
  gf2::SplitMix64 rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.next() % 200);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    core::DistinctSnapshot out;
    (void)decode(junk, out);
  }
  SUCCEED();
}

// A sentinel snapshot that any successful decode would visibly overwrite.
core::RandWaveSnapshot count_sentinel() {
  core::RandWaveSnapshot s;
  s.level = -7;
  s.stream_len = 0xDEADBEEF;
  s.positions = {1, 2, 3};
  return s;
}

// A count snapshot body with hand-picked position deltas, bypassing the
// encoder (which only ever writes deltas >= 1).
Bytes count_body(std::initializer_list<std::uint64_t> deltas) {
  Bytes b;
  put_varint(b, 2);          // level
  put_varint(b, 1u << 20);   // stream_len
  put_varint(b, deltas.size());
  for (const std::uint64_t d : deltas) put_varint(b, d);
  return b;
}

TEST(Wire, CountPositionsMustAscendStrictly) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  core::RandWaveSnapshot out = count_sentinel();
  EXPECT_FALSE(decode(count_body({5, 0, 3}), out));        // repeat
  EXPECT_FALSE(decode(count_body({0}), out));              // position 0
  EXPECT_FALSE(decode(count_body({5, kMax - 3}), out));    // wraps to 1
  EXPECT_EQ(out.positions, count_sentinel().positions);
  // The largest position is fine when reached without wrapping.
  ASSERT_TRUE(decode(count_body({5, kMax - 5}), out));
  EXPECT_EQ(out.positions, (std::vector<std::uint64_t>{5, kMax}));
}

TEST(Wire, DecodedCountPositionsAlwaysAscendUnderCorruption) {
  // Whatever bytes arrive, a snapshot that decodes is one the referee's
  // merge can take: positions strictly ascending.
  core::RandWaveSnapshot s;
  s.level = 3;
  s.stream_len = 50000;
  // Steps of 1-3: a single flipped bit can zero a delta.
  for (std::uint64_t p = 49000; p < 50000; p += 1 + p % 3) {
    s.positions.push_back(p);
  }
  const Bytes clean = encode(s);
  gf2::SplitMix64 rng(321);
  int decoded = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes mutated = clean;
    const std::size_t flips = 1 + rng.next() % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng.next() % 8));
    }
    core::RandWaveSnapshot out;
    if (!decode(mutated, out)) continue;
    ++decoded;
    for (std::size_t i = 1; i < out.positions.size(); ++i) {
      ASSERT_LT(out.positions[i - 1], out.positions[i]) << "trial " << trial;
    }
    if (!out.positions.empty()) {
      ASSERT_GE(out.positions.front(), 1u);
    }
  }
  EXPECT_GT(decoded, 0);  // the corpus reaches the success path
}

TEST(Wire, TruncatedPrefixesFailWithoutPartialOutput) {
  // Every strict prefix of a valid encoding must decode false AND leave
  // `out` exactly as it was — a referee must never act on half a snapshot.
  core::RandWaveSnapshot s;
  s.level = 4;
  s.stream_len = 70000;
  for (std::uint64_t p = 65000; p < 65200; p += 3) s.positions.push_back(p);
  const Bytes clean = encode(s);
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    const Bytes prefix(clean.begin(),
                       clean.begin() + static_cast<long>(cut));
    core::RandWaveSnapshot out = count_sentinel();
    ASSERT_FALSE(decode(prefix, out)) << "prefix length " << cut;
    EXPECT_EQ(out.level, -7);
    EXPECT_EQ(out.stream_len, 0xDEADBEEFu);
    EXPECT_EQ(out.positions, count_sentinel().positions);
  }
}

TEST(Wire, TruncatedDistinctPrefixesFailWithoutPartialOutput) {
  core::DistinctSnapshot s;
  s.level = 2;
  s.stream_len = 5000;
  s.items = {{900, 10}, {17, 600}, {1u << 30, 4999}};
  const Bytes clean = encode(s);
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    const Bytes prefix(clean.begin(),
                       clean.begin() + static_cast<long>(cut));
    core::DistinctSnapshot out;
    out.level = -7;
    out.stream_len = 0xDEADBEEF;
    out.items = {{5, 5}};
    ASSERT_FALSE(decode(prefix, out)) << "prefix length " << cut;
    EXPECT_EQ(out.level, -7);
    EXPECT_EQ(out.stream_len, 0xDEADBEEFu);
    ASSERT_EQ(out.items.size(), 1u);
  }
}

#if WAVES_OBS_ENABLED

TEST(Wire, DecodeFailuresIncrementErrorCounter) {
  const obs::Counter& errors =
      obs::Registry::instance().counter("waves_wire_decode_errors_total");
  core::RandWaveSnapshot s;
  s.positions = {1, 5, 9};
  Bytes b = encode(s);
  b.pop_back();  // truncate
  const std::uint64_t before = errors.value();
  core::RandWaveSnapshot out;
  EXPECT_FALSE(decode(b, out));
  EXPECT_EQ(errors.value(), before + 1);
  // A clean decode leaves the counter alone.
  const Bytes good = encode(s);
  EXPECT_TRUE(decode(good, out));
  EXPECT_EQ(errors.value(), before + 1);
}

#endif  // WAVES_OBS_ENABLED

TEST(Varint, RejectsOverlongEncodings) {
  // 1 padded to two bytes: 0x81 0x00 would decode to 1 in a permissive
  // LEB128 reader; the canonical decoder must reject it so every value has
  // exactly one accepted byte form.
  for (const Bytes& overlong :
       {Bytes{0x81, 0x00}, Bytes{0xFF, 0x80, 0x00}, Bytes{0x80, 0x00}}) {
    std::size_t at = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(get_varint(overlong, at, v));
    EXPECT_EQ(at, 0u);  // cursor untouched on failure
  }
}

TEST(Varint, RejectsTenthByteOverflow) {
  // Nine continuation bytes carry 63 bits; the 10th may only contribute
  // bit 63. 0x02 there would be bit 64 — overflow, not silent truncation.
  Bytes b(9, 0xFF);
  b.push_back(0x02);
  std::size_t at = 0;
  std::uint64_t v = 0;
  EXPECT_FALSE(get_varint(b, at, v));

  // A continuation bit on the 10th byte can never terminate: reject.
  Bytes cont(10, 0xFF);
  at = 0;
  EXPECT_FALSE(get_varint(cont, at, v));

  // The canonical encoding of 2^64-1 (9 x 0xFF + 0x01) still decodes.
  Bytes max(9, 0xFF);
  max.push_back(0x01);
  at = 0;
  ASSERT_TRUE(get_varint(max, at, v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  EXPECT_EQ(at, max.size());
}

TEST(Wire, Fixed64RoundTrip) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0x0123456789ABCDEF}}) {
    Bytes b;
    put_fixed64(b, v);
    ASSERT_EQ(b.size(), 8u);
    std::size_t at = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_fixed64(b, at, out));
    EXPECT_EQ(out, v);
  }
  Bytes short_buf(7, 0xAA);
  std::size_t at = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_fixed64(short_buf, at, out));
}

TEST(Wire, SnapshotVectorRoundTripAndNoPartialOutput) {
  std::vector<core::RandWaveSnapshot> snaps(3);
  for (int i = 0; i < 3; ++i) {
    auto& s = snaps[static_cast<std::size_t>(i)];
    s.level = i;
    s.stream_len = 1000 + static_cast<std::uint64_t>(i);
    for (std::uint64_t p = 0; p < 20; ++p) s.positions.push_back(900 + p);
  }
  const Bytes enc = encode(std::span<const core::RandWaveSnapshot>(snaps));

  std::vector<core::RandWaveSnapshot> out;
  ASSERT_TRUE(decode_snapshots(enc, out));
  ASSERT_EQ(out.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(out[i].level, snaps[i].level);
    EXPECT_EQ(out[i].positions, snaps[i].positions);
  }

  // Any truncation must leave previously decoded output untouched — the
  // all-or-nothing contract the network referee depends on.
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    Bytes truncated(enc.begin(),
                    enc.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<core::RandWaveSnapshot> sentinel(1);
    sentinel[0].level = -7;
    std::vector<core::RandWaveSnapshot> probe = sentinel;
    EXPECT_FALSE(decode_snapshots(truncated, probe));
    EXPECT_EQ(probe.size(), sentinel.size());
    EXPECT_EQ(probe[0].level, -7);
  }
}

TEST(Wire, DistinctSnapshotVectorRoundTrip) {
  std::vector<core::DistinctSnapshot> snaps(2);
  for (std::size_t i = 0; i < 2; ++i) {
    snaps[i].level = static_cast<int>(i);
    snaps[i].stream_len = 500;
    for (std::uint64_t v = 0; v < 10; ++v) {
      snaps[i].items.push_back({v * 3 + i, 400 + v});
    }
  }
  const Bytes enc = encode(std::span<const core::DistinctSnapshot>(snaps));
  std::vector<core::DistinctSnapshot> out;
  ASSERT_TRUE(decode_snapshots(enc, out));
  ASSERT_EQ(out.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    ASSERT_EQ(out[i].items, snaps[i].items);
  }
  // Trailing garbage after the vector is rejected.
  Bytes garbage = enc;
  garbage.push_back(0x00);
  EXPECT_FALSE(decode_snapshots(garbage, out));
}

}  // namespace
}  // namespace waves::distributed
