// Crash-safety tests: checkpoint codec round-trips for all six wave types
// and the four party-level states, envelope rejection of every torn/rotted
// byte, StateStore durability and generation bumps, deterministic fault
// plans, and the client's stale-generation (restart mid-round) detection.
// Net* suite names land in the TSan CI leg's -R "...|Net" regex.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "distributed/party.hpp"
#include "gf2/shared_randomness.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/recovery_obs.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/state_store.hpp"
#include "stream/generators.hpp"
#include "stream/value_streams.hpp"
#include "util/bitops.hpp"
#include "util/packed_bits.hpp"

namespace waves::recovery {
namespace {

using distributed::put_varint;

// -- codec round-trips -----------------------------------------------------

void expect_same(const core::DetWaveCheckpoint& a,
                 const core::DetWaveCheckpoint& b) {
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.discarded_rank, b.discarded_rank);
  EXPECT_EQ(a.entries, b.entries);
}

void expect_same(const core::SumWaveCheckpoint& a,
                 const core::SumWaveCheckpoint& b) {
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.discarded_z, b.discarded_z);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].pos, b.entries[i].pos) << i;
    EXPECT_EQ(a.entries[i].value, b.entries[i].value) << i;
    EXPECT_EQ(a.entries[i].z, b.entries[i].z) << i;
  }
}

TEST(RecoveryCodec, DetWaveCheckpointRoundTrip) {
  core::DetWave w(4, 64);
  stream::BernoulliBits gen(0.4, 11);
  for (int i = 0; i < 500; ++i) w.update(gen.next());
  const auto ck = w.checkpoint();

  Bytes buf;
  put_checkpoint(buf, ck);
  core::DetWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_checkpoint(buf, at, out));
  EXPECT_EQ(at, buf.size());
  expect_same(ck, out);

  // A restore from the decoded bytes answers like the original.
  core::DetWave r = core::DetWave::restore(4, 64, out);
  for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{33},
                          std::uint64_t{64}}) {
    EXPECT_DOUBLE_EQ(r.query(n).value, w.query(n).value) << n;
  }
}

TEST(RecoveryCodec, SumWaveCheckpointRoundTrip) {
  core::SumWave w(4, 64, 50);
  stream::UniformValues gen(0, 50, 17);
  for (int i = 0; i < 500; ++i) w.update(gen.next());
  const auto ck = w.checkpoint();

  Bytes buf;
  put_checkpoint(buf, ck);
  core::SumWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_checkpoint(buf, at, out));
  EXPECT_EQ(at, buf.size());
  expect_same(ck, out);

  core::SumWave r = core::SumWave::restore(4, 64, 50, out);
  EXPECT_DOUBLE_EQ(r.query(64).value, w.query(64).value);
}

TEST(RecoveryCodec, RandWaveCheckpointRoundTrip) {
  const std::uint64_t window = 256;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  const core::RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
  gf2::SharedRandomness c1(99), c2(99);
  core::RandWave w(params, f, c1);
  stream::BernoulliBits gen(0.5, 3);
  for (int i = 0; i < 3000; ++i) w.update(gen.next());
  const auto ck = w.checkpoint();

  Bytes buf;
  put_checkpoint(buf, ck);
  core::RandWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_checkpoint(buf, at, out));
  EXPECT_EQ(at, buf.size());
  EXPECT_EQ(ck.pos, out.pos);
  EXPECT_EQ(ck.queues, out.queues);
  EXPECT_EQ(ck.evicted_bounds, out.evicted_bounds);

  core::RandWave r(params, f, c2);
  r.restore(out);
  const auto so = w.snapshot(window);
  const auto sr = r.snapshot(window);
  EXPECT_EQ(so.level, sr.level);
  EXPECT_EQ(so.positions, sr.positions);
}

TEST(RecoveryCodec, RandQueuePositionsMustAscendStrictly) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // One level queue with hand-picked position deltas, one evicted bound.
  auto body = [](std::initializer_list<std::uint64_t> deltas) {
    Bytes b;
    put_varint(b, 100);  // pos
    put_varint(b, 1);    // queues
    put_varint(b, deltas.size());
    for (const std::uint64_t d : deltas) put_varint(b, d);
    put_varint(b, 1);  // evicted bounds
    put_varint(b, 0);
    return b;
  };
  core::RandWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_checkpoint(body({3, 4}), at, out));
  EXPECT_EQ(out.queues.front(), (std::vector<std::uint64_t>{3, 7}));
  for (const auto& bad : {body({3, 0}), body({0}), body({3, kMax - 1})}) {
    at = 0;
    EXPECT_FALSE(get_checkpoint(bad, at, out));
  }
}

TEST(RecoveryCodec, DecodedRandQueuesAlwaysAscendUnderCorruption) {
  const std::uint64_t window = 256;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  gf2::SharedRandomness coins(5);
  core::RandWave w({.eps = 0.3, .window = window, .c = 8}, f, coins);
  stream::BernoulliBits gen(0.5, 9);
  for (int i = 0; i < 2000; ++i) w.update(gen.next());
  Bytes clean;
  put_checkpoint(clean, w.checkpoint());
  gf2::SplitMix64 rng(17);
  int decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = clean;
    mutated[rng.next() % mutated.size()] ^=
        static_cast<std::uint8_t>(1u << (rng.next() % 8));
    core::RandWaveCheckpoint out;
    std::size_t at = 0;
    if (!get_checkpoint(mutated, at, out)) continue;
    ++decoded;
    for (const auto& q : out.queues) {
      for (std::size_t i = 1; i < q.size(); ++i) {
        ASSERT_LT(q[i - 1], q[i]) << "trial " << trial;
      }
      if (!q.empty()) {
        ASSERT_GE(q.front(), 1u);
      }
    }
  }
  EXPECT_GT(decoded, 0);
}

TEST(RecoveryCodec, DistinctWaveCheckpointRoundTrip) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 5000,
                               .c = 8};
  const gf2::Field f(core::DistinctWave::field_dimension(p));
  gf2::SharedRandomness c1(7), c2(7);
  core::DistinctWave w(p, f, c1);
  stream::UniformValues gen(0, 5000, 13);
  for (int i = 0; i < 2000; ++i) w.update(gen.next());
  const auto ck = w.checkpoint();

  Bytes buf;
  put_checkpoint(buf, ck);
  core::DistinctWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_checkpoint(buf, at, out));
  EXPECT_EQ(at, buf.size());
  EXPECT_EQ(ck.pos, out.pos);
  EXPECT_EQ(ck.levels, out.levels);
  EXPECT_EQ(ck.evicted_bounds, out.evicted_bounds);

  core::DistinctWave r(p, f, c2);
  r.restore(out);
  EXPECT_DOUBLE_EQ(r.estimate(200).value, w.estimate(200).value);
}

TEST(RecoveryCodec, PartyCheckpointsRoundTrip) {
  const core::RandWave::Params cp{.eps = 0.3, .window = 128, .c = 8};
  distributed::CountParty count(cp, 3, 42);
  stream::BernoulliBits bits(0.3, 5);
  for (int i = 0; i < 700; ++i) count.observe(bits.next());
  {
    const auto ck = count.checkpoint();
    distributed::CountPartyCheckpoint out;
    ASSERT_TRUE(decode(encode(ck), out));
    EXPECT_EQ(out.cursor, ck.cursor);
    ASSERT_EQ(out.waves.size(), ck.waves.size());
    for (std::size_t i = 0; i < ck.waves.size(); ++i) {
      EXPECT_EQ(out.waves[i].queues, ck.waves[i].queues) << i;
    }
  }

  const core::DistinctWave::Params dp{
      .eps = 0.4, .window = 128, .max_value = 4096, .c = 8};
  distributed::DistinctParty distinct(dp, 3, 42);
  stream::UniformValues vals(0, 4096, 9);
  for (int i = 0; i < 700; ++i) distinct.observe(vals.next());
  {
    const auto ck = distinct.checkpoint();
    distributed::DistinctPartyCheckpoint out;
    ASSERT_TRUE(decode(encode(ck), out));
    EXPECT_EQ(out.cursor, ck.cursor);
    ASSERT_EQ(out.waves.size(), ck.waves.size());
    for (std::size_t i = 0; i < ck.waves.size(); ++i) {
      EXPECT_EQ(out.waves[i].levels, ck.waves[i].levels) << i;
    }
  }

  net::BasicPartyState basic(4, 64);
  for (int i = 0; i < 300; ++i) basic.observe(bits.next());
  {
    const BasicPartyCheckpoint ck = basic.checkpoint();
    BasicPartyCheckpoint out;
    ASSERT_TRUE(decode(encode(ck), out));
    EXPECT_EQ(out.cursor, ck.cursor);
    expect_same(ck.wave, out.wave);

    net::BasicPartyState again(4, 64);
    again.restore(out);
    EXPECT_DOUBLE_EQ(again.query(64).value, basic.query(64).value);
    EXPECT_EQ(again.items(), basic.items());
  }

  net::SumPartyState sum(4, 64, 50);
  stream::UniformValues sv(0, 50, 31);
  for (int i = 0; i < 300; ++i) sum.observe(sv.next());
  {
    const SumPartyCheckpoint ck = sum.checkpoint();
    SumPartyCheckpoint out;
    ASSERT_TRUE(decode(encode(ck), out));
    EXPECT_EQ(out.cursor, ck.cursor);
    expect_same(ck.wave, out.wave);

    net::SumPartyState again(4, 64, 50);
    again.restore(out);
    EXPECT_DOUBLE_EQ(again.query(64).value, sum.query(64).value);
    EXPECT_EQ(again.items(), sum.items());
  }
}

TEST(RecoveryRestore, CheckpointFromAnotherWindowIsRefused) {
  // The window fixes each wave's level count, so a checkpoint a party built
  // with another window (or instance count) wrote cannot be restored: the
  // party refuses it and stays empty, ready for a full replay.
  distributed::CountParty wide({.eps = 0.3, .window = 1 << 14, .c = 8}, 2,
                               42);
  stream::BernoulliBits bits(0.5, 3);
  for (int i = 0; i < 900; ++i) wide.observe(bits.next());
  const distributed::CountPartyCheckpoint count_ck = wide.checkpoint();
  for (const auto& [window, instances] :
       {std::pair{std::uint64_t{64}, 2}, std::pair{std::uint64_t{1} << 14, 3}}) {
    distributed::CountParty party({.eps = 0.3, .window = window, .c = 8},
                                  instances, 42);
    EXPECT_FALSE(party.restore(count_ck)) << window;
    EXPECT_EQ(party.items_observed(), 0u);
    for (const core::RandWaveCheckpoint& w : party.checkpoint().waves) {
      for (const auto& q : w.queues) EXPECT_TRUE(q.empty());
    }
  }
  distributed::CountParty same({.eps = 0.3, .window = 1 << 14, .c = 8}, 2, 42);
  ASSERT_TRUE(same.restore(count_ck));
  EXPECT_EQ(same.items_observed(), 900u);

  const core::DistinctWave::Params wide_p{
      .eps = 0.4, .window = 1 << 14, .max_value = 4096, .c = 8};
  distributed::DistinctParty dwide(wide_p, 2, 42);
  stream::UniformValues vals(0, 4096, 9);
  for (int i = 0; i < 900; ++i) dwide.observe(vals.next());
  const distributed::DistinctPartyCheckpoint distinct_ck = dwide.checkpoint();
  core::DistinctWave::Params narrow_p = wide_p;
  narrow_p.window = 64;
  distributed::DistinctParty narrow(narrow_p, 2, 42);
  EXPECT_FALSE(narrow.restore(distinct_ck));
  EXPECT_EQ(narrow.items_observed(), 0u);
  for (const core::DistinctWaveCheckpoint& w : narrow.checkpoint().waves) {
    for (const auto& level : w.levels) EXPECT_TRUE(level.empty());
  }
  distributed::DistinctParty dsame(wide_p, 2, 42);
  ASSERT_TRUE(dsame.restore(distinct_ck));
  EXPECT_EQ(dsame.items_observed(), 900u);
}

TEST(RecoveryCodec, DecodeIsAllOrNothing) {
  net::BasicPartyState basic(4, 64);
  stream::BernoulliBits bits(0.5, 77);
  for (int i = 0; i < 400; ++i) basic.observe(bits.next());
  const Bytes full = encode(basic.checkpoint());

  // Every strict prefix is rejected and leaves `out` untouched.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Bytes prefix(full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(len));
    BasicPartyCheckpoint out;
    out.cursor = 0xDEAD;
    EXPECT_FALSE(decode(prefix, out)) << "prefix len " << len;
    EXPECT_EQ(out.cursor, 0xDEADu) << "prefix len " << len;
  }

  // Trailing garbage is rejected too: a valid body plus one byte.
  Bytes extra = full;
  extra.push_back(0x00);
  BasicPartyCheckpoint out;
  EXPECT_FALSE(decode(extra, out));
}

TEST(RecoveryCodec, SumEntryExceedingRunningTotalRejected) {
  // restore() derives each entry's level from z - value; an entry claiming
  // value > z would underflow, so the decoder must reject it.
  core::SumWaveCheckpoint ck;
  ck.pos = 10;
  ck.total = 5;
  ck.entries.push_back({.pos = 3, .value = 7, .z = 5});
  Bytes buf;
  put_checkpoint(buf, ck);
  core::SumWaveCheckpoint out;
  std::size_t at = 0;
  EXPECT_FALSE(get_checkpoint(buf, at, out));
}

// -- envelope --------------------------------------------------------------

TEST(RecoveryEnvelope, CrcKnownAnswer) {
  // The CRC-64/XZ check value: crc64("123456789").
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc64({msg, sizeof msg}), 0x995DC9BBDF1939FAull);
}

TEST(RecoveryEnvelope, SealOpenRoundTrip) {
  const Bytes body{0x01, 0x02, 0xFF, 0x00, 0x7F};
  const Bytes sealed = seal_envelope(StateKind::kBasic, 42, body);

  std::uint64_t generation = 0;
  Bytes out;
  ASSERT_EQ(open_envelope(sealed, StateKind::kBasic, generation, out),
            OpenStatus::kOk);
  EXPECT_EQ(generation, 42u);
  EXPECT_EQ(out, body);

  // Empty bodies are legal (a fresh daemon checkpointing before ingest).
  const Bytes sealed_empty = seal_envelope(StateKind::kSum, 1, {});
  ASSERT_EQ(open_envelope(sealed_empty, StateKind::kSum, generation, out),
            OpenStatus::kOk);
  EXPECT_TRUE(out.empty());
}

TEST(RecoveryEnvelope, EveryTruncationAndByteFlipRejected) {
  const Bytes body{0xAA, 0xBB, 0xCC, 0xDD};
  const Bytes sealed = seal_envelope(StateKind::kCount, 7, body);

  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const Bytes cut(sealed.begin(),
                    sealed.begin() + static_cast<std::ptrdiff_t>(len));
    std::uint64_t generation = 99;
    Bytes out{0x55};
    EXPECT_NE(open_envelope(cut, StateKind::kCount, generation, out),
              OpenStatus::kOk)
        << "truncated to " << len;
    EXPECT_EQ(generation, 99u) << len;  // untouched on failure
    EXPECT_EQ(out, Bytes{0x55}) << len;
  }

  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0xFF;
    std::uint64_t generation = 0;
    Bytes out;
    EXPECT_NE(open_envelope(bad, StateKind::kCount, generation, out),
              OpenStatus::kOk)
        << "flipped byte " << i;
  }
}

TEST(RecoveryEnvelope, WrongKindRejected) {
  const Bytes sealed = seal_envelope(StateKind::kBasic, 1, {0x01});
  std::uint64_t generation = 0;
  Bytes out;
  EXPECT_EQ(open_envelope(sealed, StateKind::kSum, generation, out),
            OpenStatus::kWrongKind);
}

// Hand-build an envelope with arbitrary header fields and a *valid* CRC so
// the failure under test is the one reported, not kBadCrc.
Bytes forge(const Bytes& magic, std::uint64_t version, std::uint64_t kind,
            std::uint64_t generation, std::uint64_t body_len,
            const Bytes& body) {
  Bytes out = magic;
  put_varint(out, version);
  put_varint(out, kind);
  put_varint(out, generation);
  put_varint(out, body_len);
  out.insert(out.end(), body.begin(), body.end());
  distributed::put_fixed64(out, crc64(out));
  return out;
}

TEST(RecoveryEnvelope, ForgedHeadersRejectedWithTypedStatus) {
  const Bytes magic{'W', 'V', 'C', 'K'};
  const Bytes body{0x01, 0x02};
  const auto kind = static_cast<std::uint64_t>(StateKind::kBasic);
  std::uint64_t generation = 0;
  Bytes out;

  EXPECT_EQ(open_envelope(forge({'X', 'V', 'C', 'K'}, 1, kind, 1, 2, body),
                          StateKind::kBasic, generation, out),
            OpenStatus::kBadMagic);
  EXPECT_EQ(open_envelope(forge(magic, 9, kind, 1, 2, body),
                          StateKind::kBasic, generation, out),
            OpenStatus::kBadVersion);
  EXPECT_EQ(open_envelope(forge(magic, 1, kind, 1, 3, body),
                          StateKind::kBasic, generation, out),
            OpenStatus::kBadLength);
  EXPECT_EQ(open_envelope(forge(magic, 1, kind, 1, 1, body),
                          StateKind::kBasic, generation, out),
            OpenStatus::kBadLength);
}

#if WAVES_OBS_ENABLED
TEST(RecoveryObsCounters, RejectionsAreCounted) {
  const auto& robs = obs::RecoveryObs::instance();
  const std::uint64_t before = robs.checkpoints_rejected.value();
  std::uint64_t generation = 0;
  Bytes out;
  (void)open_envelope({}, StateKind::kBasic, generation, out);
  const Bytes sealed = seal_envelope(StateKind::kBasic, 1, {0x01});
  Bytes bad = sealed;
  bad.back() ^= 0x01;
  (void)open_envelope(bad, StateKind::kBasic, generation, out);
  EXPECT_GE(robs.checkpoints_rejected.value(), before + 2);
}
#endif

// -- state store -----------------------------------------------------------

std::string make_temp_dir() {
  char tmpl[] = "/tmp/waves_recovery_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string{} : std::string(dir);
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(RecoveryStateStore, GenerationBumpsAndSurvivesReopen) {
  const std::string dir = make_temp_dir();
  StateStore a(dir);
  ASSERT_TRUE(a.prepare());
  EXPECT_EQ(a.bump_generation(), 1u);
  EXPECT_EQ(a.bump_generation(), 2u);

  StateStore b(dir);  // a "restarted process" sees the persisted epoch
  ASSERT_TRUE(b.prepare());
  EXPECT_EQ(b.bump_generation(), 3u);
}

TEST(RecoveryStateStore, SaveLoadRoundTripAndMissing) {
  const std::string dir = make_temp_dir();
  StateStore store(dir);
  ASSERT_TRUE(store.prepare());

  std::uint64_t generation = 0;
  Bytes body;
  EXPECT_EQ(store.load(StateKind::kBasic, generation, body),
            StateStore::LoadStatus::kMissing);

  const Bytes saved{0x10, 0x20, 0x30};
  ASSERT_TRUE(store.save(StateKind::kBasic, 5, saved));
  ASSERT_EQ(store.load(StateKind::kBasic, generation, body),
            StateStore::LoadStatus::kOk);
  EXPECT_EQ(generation, 5u);
  EXPECT_EQ(body, saved);

  // A second save atomically replaces the first.
  const Bytes saved2{0x44};
  ASSERT_TRUE(store.save(StateKind::kBasic, 6, saved2));
  ASSERT_EQ(store.load(StateKind::kBasic, generation, body),
            StateStore::LoadStatus::kOk);
  EXPECT_EQ(generation, 6u);
  EXPECT_EQ(body, saved2);
}

TEST(RecoveryStateStore, CorruptTruncatedAndWrongKindRejected) {
  const std::string dir = make_temp_dir();
  StateStore store(dir);
  ASSERT_TRUE(store.prepare());
  ASSERT_TRUE(store.save(StateKind::kBasic, 3, {0x01, 0x02, 0x03}));
  const Bytes good = slurp(store.checkpoint_path());
  ASSERT_FALSE(good.empty());

  std::uint64_t generation = 0;
  Bytes body;
  OpenStatus why{};

  Bytes corrupt = good;
  corrupt[good.size() / 2] ^= 0x40;
  spit(store.checkpoint_path(), corrupt);
  EXPECT_EQ(store.load(StateKind::kBasic, generation, body, &why),
            StateStore::LoadStatus::kRejected);
  EXPECT_EQ(why, OpenStatus::kBadCrc);

  spit(store.checkpoint_path(),
       Bytes(good.begin(), good.begin() + 3));
  EXPECT_EQ(store.load(StateKind::kBasic, generation, body, &why),
            StateStore::LoadStatus::kRejected);
  EXPECT_EQ(why, OpenStatus::kTruncated);

  spit(store.checkpoint_path(), good);
  EXPECT_EQ(store.load(StateKind::kSum, generation, body, &why),
            StateStore::LoadStatus::kRejected);
  EXPECT_EQ(why, OpenStatus::kWrongKind);

  // The original bytes still load fine — rejection has no side effects.
  EXPECT_EQ(store.load(StateKind::kBasic, generation, body),
            StateStore::LoadStatus::kOk);
  EXPECT_EQ(generation, 3u);
}

}  // namespace
}  // namespace waves::recovery

namespace waves::net {
namespace {

// Every fault test disarms on teardown so later tests in this binary (and
// the suites above, under --gtest_shuffle) see a clean process.
class NetFaultPlanTest : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_TRUE(arm_faults("")); }
};

#if WAVES_FAULTS_ENABLED

TEST_F(NetFaultPlanTest, MalformedSpecsRejected) {
  EXPECT_FALSE(arm_faults("bogus=1"));
  EXPECT_FALSE(arm_faults("drop=1.5"));
  EXPECT_FALSE(arm_faults("drop="));
  EXPECT_FALSE(arm_faults("drop"));
  EXPECT_FALSE(arm_faults("seed=xyz"));
  EXPECT_FALSE(arm_faults("delay=0.5:99999999"));
  // A seed alone parses but arms nothing (all probabilities zero).
  EXPECT_TRUE(arm_faults("seed=7"));
  EXPECT_FALSE(faults_armed());
  // Disarm and re-arm.
  EXPECT_TRUE(arm_faults("seed=1,drop=0.5"));
  EXPECT_TRUE(faults_armed());
  EXPECT_TRUE(arm_faults(""));
  EXPECT_FALSE(faults_armed());
}

TEST_F(NetFaultPlanTest, ScheduleIsAPureFunctionOfTheSeed) {
  const char* spec = "seed=42,drop=0.3,reset=0.1,truncate=0.2,corrupt=0.2";
  auto record = [&] {
    std::vector<std::tuple<FaultAction, std::size_t, std::uint8_t>> seq;
    for (int i = 0; i < 128; ++i) {
      const FaultDecision d = next_send_fault(64);
      seq.emplace_back(d.action, d.offset, d.xor_mask);
    }
    return seq;
  };
  ASSERT_TRUE(arm_faults(spec));
  const auto first = record();
  ASSERT_TRUE(arm_faults(spec));  // re-arming resets the event counter
  EXPECT_EQ(record(), first);

  // A different seed produces a different schedule.
  ASSERT_TRUE(arm_faults("seed=43,drop=0.3,reset=0.1,truncate=0.2,corrupt=0.2"));
  EXPECT_NE(record(), first);
}

TEST_F(NetFaultPlanTest, FullStrengthKindsBehaveAsDocumented) {
  ASSERT_TRUE(arm_faults("seed=1,truncate=1.0"));
  for (int i = 0; i < 32; ++i) {
    const FaultDecision d = next_send_fault(64);
    ASSERT_EQ(d.action, FaultAction::kTruncate);
    ASSERT_GE(d.offset, 1u);  // strict prefix: never empty, never whole
    ASSERT_LT(d.offset, 64u);
  }
  // One byte cannot be truncated to a strict prefix: degrades to a drop.
  EXPECT_EQ(next_send_fault(1).action, FaultAction::kDrop);
  // Data faults never apply to recv/connect events.
  EXPECT_EQ(next_recv_fault().action, FaultAction::kNone);
  EXPECT_FALSE(next_connect_drop());

  ASSERT_TRUE(arm_faults("seed=1,corrupt=1.0"));
  for (int i = 0; i < 32; ++i) {
    const FaultDecision d = next_send_fault(64);
    ASSERT_EQ(d.action, FaultAction::kCorrupt);
    ASSERT_LT(d.offset, 64u);
    ASSERT_NE(d.xor_mask, 0);  // must actually flip something
  }

  ASSERT_TRUE(arm_faults("seed=1,reset=1.0"));
  EXPECT_EQ(next_send_fault(64).action, FaultAction::kReset);
  EXPECT_EQ(next_recv_fault().action, FaultAction::kReset);
  EXPECT_TRUE(next_connect_drop());

  ASSERT_TRUE(arm_faults("seed=1,drop=1.0"));
  EXPECT_EQ(next_send_fault(64).action, FaultAction::kDrop);
  EXPECT_EQ(next_recv_fault().action, FaultAction::kDrop);
  EXPECT_TRUE(next_connect_drop());
}

#if WAVES_OBS_ENABLED
TEST_F(NetFaultPlanTest, InjectionsAreCountedByKind) {
  const auto& fobs = obs::FaultObs::instance();
  const std::uint64_t before = fobs.drop.value();
  ASSERT_TRUE(arm_faults("seed=1,drop=1.0"));
  for (int i = 0; i < 5; ++i) (void)next_send_fault(16);
  EXPECT_GE(fobs.drop.value(), before + 5);
}
#endif

TEST_F(NetFaultPlanTest, ClientFailsClosedUnderTotalPartition) {
  // A real server is up, but every connect is dropped: the fetch must
  // exhaust its attempts and report a typed connect failure — not hang,
  // not crash, not fabricate data.
  BasicPartyState party(4, 64);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  ASSERT_TRUE(arm_faults("seed=9,drop=1.0"));
  ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(200);
  cfg.max_attempts = 2;
  cfg.backoff_base = std::chrono::milliseconds(5);
  RefereeClient client({{"127.0.0.1", server.port()}}, cfg);
  const Fetch f = client.fetch(0, PartyRole::kBasic, 64);
  EXPECT_EQ(f.status, FetchStatus::kConnectError);
  EXPECT_EQ(f.attempts, 2);

  // Faults off: the same client/server pair works again.
  ASSERT_TRUE(arm_faults(""));
  const Fetch ok = client.fetch(0, PartyRole::kBasic, 64);
  EXPECT_TRUE(ok.ok());
}

#endif  // WAVES_FAULTS_ENABLED

TEST(NetGeneration, ReplyCarriesTheDaemonEpoch) {
  BasicPartyState party(4, 64);
  ServerConfig cfg;
  cfg.generation = 7;
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  RefereeClient client({{"127.0.0.1", server.port()}});
  const Fetch f = client.fetch(0, PartyRole::kBasic, 64);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.generation, 7u);
}

TEST(NetGeneration, RestartBetweenAttemptsIsStaleNotWrong) {
  // Attempt 1: the party answers the handshake at generation 1, then goes
  // silent (crashing mid-round). Attempt 2: the "restarted" party answers
  // fully at generation 2. The client must refuse to treat the generation-2
  // answer as the state it asked about — stale, terminal.
  Listener l;
  ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
  std::jthread impostor([&l] {
    const auto dl = [] {
      return deadline_in(std::chrono::milliseconds(5000));
    };
    HelloAck ack;
    ack.role = PartyRole::kBasic;
    ack.window = 64;
    ack.generation = 1;

    Socket s1 = l.accept_one(dl());
    if (!s1.valid()) return;
    Frame f;
    if (read_frame(s1, f, dl()) != ReadStatus::kOk) return;
    (void)write_frame(s1, MsgType::kHelloAck, ack.encode(), dl());
    // ...crash: hold the socket silently; the client's attempt times out.

    Socket s2 = l.accept_one(dl());
    if (!s2.valid()) return;
    if (read_frame(s2, f, dl()) != ReadStatus::kOk) return;
    ack.generation = 2;
    (void)write_frame(s2, MsgType::kHelloAck, ack.encode(), dl());
    if (read_frame(s2, f, dl()) != ReadStatus::kOk) return;
    SnapshotRequest req;
    if (!SnapshotRequest::decode(f.payload, req)) return;
    TotalReply r{req.request_id, 2, 12.0, true, 100};
    (void)write_frame(s2, MsgType::kTotalReply, r.encode(), dl());
  });

#if WAVES_OBS_ENABLED
  const std::uint64_t mismatches_before =
      obs::RecoveryObs::instance().generation_mismatches.value();
#endif

  ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(300);
  cfg.max_attempts = 2;
  cfg.backoff_base = std::chrono::milliseconds(5);
  RefereeClient client({{"127.0.0.1", l.port()}}, cfg);
  const Fetch f = client.fetch(0, PartyRole::kBasic, 64);
  EXPECT_EQ(f.status, FetchStatus::kStaleGeneration);
  EXPECT_NE(f.error.find("generation"), std::string::npos) << f.error;

#if WAVES_OBS_ENABLED
  EXPECT_GE(obs::RecoveryObs::instance().generation_mismatches.value(),
            mismatches_before + 1);
#endif
}

}  // namespace
}  // namespace waves::net
