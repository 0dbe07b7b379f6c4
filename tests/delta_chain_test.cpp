// The two ends of the delta chain (recovery/delta_chain.hpp), typed over
// both checkpoint flavours: random chains of ingest -> encoder body ->
// Mirror::apply must keep the mirror equal to the party, and every
// rejected body must leave the mirror as it was (or, for an epoch change,
// empty). Each case is a template run once per flavour. Suite name starts
// with Recovery so the TSan CI leg picks it up.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/wire.hpp"
#include "gf2/shared_randomness.hpp"
#include "recovery/delta_chain.hpp"

namespace waves::recovery {
namespace {

constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 21;

struct CountFlavour {
  using Party = distributed::CountParty;
  using Encoder = CountDeltaEncoder;
  using Checkpoint = distributed::CountPartyCheckpoint;
  static constexpr std::uint64_t kWindow = 256;

  static std::unique_ptr<Party> make() {
    return std::make_unique<Party>(
        core::RandWave::Params{.eps = 0.3, .window = kWindow, .c = 8},
        kInstances, kSeed);
  }
  static void ingest(Party& p, gf2::SplitMix64& rng, std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) p.observe(rng.next() % 3 == 0);
  }
  static void expect_same(const core::RandWaveSnapshot& a,
                          const core::RandWaveSnapshot& b) {
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.stream_len, b.stream_len);
    EXPECT_EQ(a.positions, b.positions);
  }
};

struct DistinctFlavour {
  using Party = distributed::DistinctParty;
  using Encoder = DistinctDeltaEncoder;
  using Checkpoint = distributed::DistinctPartyCheckpoint;
  static constexpr std::uint64_t kWindow = 256;

  static std::unique_ptr<Party> make() {
    return std::make_unique<Party>(
        core::DistinctWave::Params{
            .eps = 0.3, .window = kWindow, .max_value = 511, .c = 8},
        kInstances, kSeed);
  }
  static void ingest(Party& p, gf2::SplitMix64& rng, std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) p.observe(rng.next() % 512);
  }
  static void expect_same(const core::DistinctSnapshot& a,
                          const core::DistinctSnapshot& b) {
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.stream_len, b.stream_len);
    EXPECT_EQ(a.items, b.items);
  }
};

template <class F>
using MirrorOf = Mirror<typename F::Checkpoint>;

template <class F>
void expect_mirrors(const MirrorOf<F>& m, const typename F::Party& party) {
  const typename F::Checkpoint want = party.checkpoint();
  EXPECT_EQ(m.checkpoint().cursor, want.cursor);
  EXPECT_EQ(m.checkpoint().waves, want.waves);
}

template <class F>
void expect_snapshots(const MirrorOf<F>& m, const typename F::Party& party,
                      std::uint64_t n) {
  std::vector<typename MirrorOf<F>::Snapshot> got;
  m.snapshots_into(n, F::kWindow, got);
  const auto want = party.snapshots(n);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    F::expect_same(got[i], want[i]);
  }
}

// Encodes the next body for a peer holding `since` and folds it into `m`.
template <class F>
void step(typename F::Encoder& enc, const typename F::Party& party,
          MirrorOf<F>& m, std::uint64_t since) {
  Bytes body;
  const std::uint64_t base = enc.next(party, since, body);
  std::string err;
  ASSERT_TRUE(m.apply(base, enc.cursor(), body, err)) << err;
  EXPECT_EQ(m.cursor(), enc.cursor());
}

// Everything a rejection must leave untouched.
template <class F>
struct Held {
  explicit Held(const MirrorOf<F>& m)
      : cursor(m.cursor()), ck(m.checkpoint()) {}
  void expect_kept_by(const MirrorOf<F>& m) const {
    EXPECT_EQ(m.cursor(), cursor);
    EXPECT_EQ(m.checkpoint().cursor, ck.cursor);
    EXPECT_EQ(m.checkpoint().waves, ck.waves);
  }
  std::uint64_t cursor;
  typename F::Checkpoint ck;
};

template <class F>
void random_chains_keep_the_mirror_equal_to_the_party() {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    gf2::SplitMix64 rng(seed);
    auto party = F::make();
    typename F::Encoder enc;
    MirrorOf<F> mirror;
    std::uint64_t deltas = 0;
    for (int round = 0; round < 60; ++round) {
      // Bursts from empty to beyond the window, so levels expire wholesale.
      const std::uint64_t burst[] = {0, 1, 17, 90, 400};
      F::ingest(*party, rng, burst[rng.next() % 5]);
      // Mostly the mirror's own cursor; sometimes a bootstrap or a cursor
      // the chain moved past, which must come back full.
      std::uint64_t since = mirror.cursor();
      const std::uint64_t pick = rng.next() % 10;
      if (pick == 0) since = 0;
      if (pick == 1 && since > 1) since -= 1;
      Bytes body;
      const std::uint64_t base = enc.next(*party, since, body);
      if (since != mirror.cursor() || since == 0) {
        EXPECT_EQ(base, 0u);
      }
      if (base != 0) {
        EXPECT_EQ(base, mirror.cursor());
        ++deltas;
      }
      EXPECT_EQ(enc.items(), party->items_observed());
      std::string err;
      ASSERT_TRUE(mirror.apply(base, enc.cursor(), body, err)) << err;
      ASSERT_EQ(mirror.cursor(), enc.cursor());
      expect_mirrors<F>(mirror, *party);
      const std::uint64_t n = 1 + rng.next() % F::kWindow;
      expect_snapshots<F>(mirror, *party, n);

      // The pull path's "unchanged" echo folds as a no-op.
      const Held<F> before(mirror);
      ASSERT_TRUE(mirror.apply(mirror.cursor(), mirror.cursor(), {}, err));
      before.expect_kept_by(mirror);
    }
    EXPECT_GT(deltas, 30u);
  }
}

template <class F>
void delta_against_a_cursor_not_held_is_rejected() {
  gf2::SplitMix64 rng(7);
  auto party = F::make();
  F::ingest(*party, rng, 300);
  typename F::Encoder enc;
  MirrorOf<F> mirror;
  MirrorOf<F> empty;
  step<F>(enc, *party, mirror, 0);

  F::ingest(*party, rng, 40);
  Bytes delta;
  const std::uint64_t base = enc.next(*party, mirror.cursor(), delta);
  ASSERT_NE(base, 0u);
  std::string err;
  // An empty mirror, and a mirror one cursor ahead, both refuse it.
  EXPECT_FALSE(empty.apply(base, enc.cursor(), delta, err));
  EXPECT_EQ(empty.cursor(), 0u);
  const Held<F> before(mirror);
  EXPECT_FALSE(mirror.apply(base + 1, enc.cursor(), delta, err));
  EXPECT_NE(err.find("does not hold"), std::string::npos) << err;
  before.expect_kept_by(mirror);
  // The mirror stayed valid: the delta it does hold still applies.
  ASSERT_TRUE(mirror.apply(base, enc.cursor(), delta, err)) << err;
  expect_mirrors<F>(mirror, *party);
}

template <class F>
void empty_body_with_a_mismatched_cursor_is_rejected() {
  gf2::SplitMix64 rng(8);
  auto party = F::make();
  F::ingest(*party, rng, 300);
  typename F::Encoder enc;
  MirrorOf<F> mirror;
  std::string err;
  EXPECT_FALSE(mirror.apply(0, 0, {}, err));  // holds nothing to echo
  step<F>(enc, *party, mirror, 0);
  const std::uint64_t c = mirror.cursor();
  const Held<F> before(mirror);
  EXPECT_FALSE(mirror.apply(c, c + 1, {}, err));
  EXPECT_FALSE(mirror.apply(c + 1, c + 1, {}, err));
  EXPECT_FALSE(mirror.apply(0, c, {}, err));
  EXPECT_NE(err.find("empty body"), std::string::npos) << err;
  before.expect_kept_by(mirror);
}

template <class F>
void undecodable_bodies_are_rejected() {
  gf2::SplitMix64 rng(9);
  auto party = F::make();
  F::ingest(*party, rng, 300);
  typename F::Encoder enc;
  MirrorOf<F> mirror;
  step<F>(enc, *party, mirror, 0);
  const Held<F> before(mirror);
  std::string err;

  // A truncated full body, a full body under cursor 0, and a delta whose
  // tail is garbage: each is refused with the held state intact.
  F::ingest(*party, rng, 50);
  Bytes full;
  ASSERT_EQ(enc.next(*party, 0, full), 0u);
  Bytes cut(full.begin(), full.end() - 1);
  EXPECT_FALSE(mirror.apply(0, enc.cursor(), cut, err));
  before.expect_kept_by(mirror);
  EXPECT_FALSE(mirror.apply(0, 0, full, err));
  before.expect_kept_by(mirror);
  // Full bodies whose one wave has no levels, or two levels but one
  // evicted bound: a snapshot reads one bound per level, so both are
  // refused at decode. Count and distinct share this byte layout.
  //           cursor waves pos levels  [len len] bounds [bound]
  const Bytes no_levels = {1, 1, 5, 0, 0};
  const Bytes short_bounds = {1, 1, 5, 2, 0, 0, 1, 0};
  for (const Bytes& shape : {no_levels, short_bounds}) {
    EXPECT_FALSE(mirror.apply(0, enc.cursor(), shape, err));
    before.expect_kept_by(mirror);
  }

  // The chain moved past the mirror with the refused body: rebase on a
  // fresh full body, then take a delta the mirror does hold.
  step<F>(enc, *party, mirror, 0);
  F::ingest(*party, rng, 30);
  Bytes delta;
  const std::uint64_t base2 = enc.next(*party, mirror.cursor(), delta);
  ASSERT_EQ(base2, mirror.cursor());
  const Held<F> rebased(mirror);
  Bytes garbage = delta;
  garbage.push_back(0x01);  // trailing garbage
  EXPECT_FALSE(mirror.apply(base2, enc.cursor(), garbage, err));
  rebased.expect_kept_by(mirror);
  for (std::size_t cut_at = 0; cut_at < delta.size(); cut_at += 7) {
    const Bytes prefix(delta.begin(),
                       delta.begin() + static_cast<std::ptrdiff_t>(cut_at));
    if (prefix.empty()) continue;  // that is the echo form
    EXPECT_FALSE(mirror.apply(base2, enc.cursor(), prefix, err));
    rebased.expect_kept_by(mirror);
  }
  // The delta plus one more wave, past the held count, in diff form with
  // no levels: there is nothing to diff it against.
  Bytes grown;
  std::size_t at = 0;
  std::uint64_t cursor = 0, waves = 0;
  ASSERT_TRUE(distributed::get_varint(delta, at, cursor) &&
              distributed::get_varint(delta, at, waves));
  distributed::put_varint(grown, cursor);
  distributed::put_varint(grown, waves + 1);
  grown.insert(grown.end(), delta.begin() + static_cast<std::ptrdiff_t>(at),
               delta.end());
  for (const std::uint64_t v : {0, 5, 0}) {  // flags: diff, pos, levels
    distributed::put_varint(grown, v);
  }
  EXPECT_FALSE(mirror.apply(base2, enc.cursor(), grown, err));
  rebased.expect_kept_by(mirror);
  // Failed applies left only scratch dirty; the real delta still folds.
  ASSERT_TRUE(mirror.apply(base2, enc.cursor(), delta, err)) << err;
  expect_mirrors<F>(mirror, *party);
}

template <class F>
void generation_change_resets_the_mirror() {
  gf2::SplitMix64 rng(10);
  auto party = F::make();
  F::ingest(*party, rng, 300);
  typename F::Encoder enc;
  MirrorOf<F> mirror;
  EXPECT_FALSE(mirror.enter_epoch(1));  // holds nothing: nothing to drop
  step<F>(enc, *party, mirror, 0);
  const Held<F> before(mirror);
  EXPECT_FALSE(mirror.enter_epoch(1));  // same epoch: kept
  before.expect_kept_by(mirror);

  EXPECT_TRUE(mirror.enter_epoch(2));  // the party restarted
  EXPECT_EQ(mirror.cursor(), 0u);
  // A delta from the old chain no longer lands; a full body rebases.
  F::ingest(*party, rng, 20);
  Bytes delta;
  const std::uint64_t base = enc.next(*party, enc.cursor(), delta);
  ASSERT_NE(base, 0u);
  std::string err;
  EXPECT_FALSE(mirror.apply(base, enc.cursor(), delta, err));
  EXPECT_EQ(mirror.cursor(), 0u);
  typename F::Encoder reborn;
  step<F>(reborn, *party, mirror, 0);
  expect_mirrors<F>(mirror, *party);
  EXPECT_FALSE(mirror.enter_epoch(2));
}

TEST(RecoveryDeltaChain, CountRandomChainsKeepTheMirrorEqualToTheParty) {
  random_chains_keep_the_mirror_equal_to_the_party<CountFlavour>();
}
TEST(RecoveryDeltaChain, DistinctRandomChainsKeepTheMirrorEqualToTheParty) {
  random_chains_keep_the_mirror_equal_to_the_party<DistinctFlavour>();
}
TEST(RecoveryDeltaChain, CountDeltaAgainstACursorNotHeldIsRejected) {
  delta_against_a_cursor_not_held_is_rejected<CountFlavour>();
}
TEST(RecoveryDeltaChain, DistinctDeltaAgainstACursorNotHeldIsRejected) {
  delta_against_a_cursor_not_held_is_rejected<DistinctFlavour>();
}
TEST(RecoveryDeltaChain, CountEmptyBodyWithAMismatchedCursorIsRejected) {
  empty_body_with_a_mismatched_cursor_is_rejected<CountFlavour>();
}
TEST(RecoveryDeltaChain, DistinctEmptyBodyWithAMismatchedCursorIsRejected) {
  empty_body_with_a_mismatched_cursor_is_rejected<DistinctFlavour>();
}
TEST(RecoveryDeltaChain, CountUndecodableBodiesAreRejected) {
  undecodable_bodies_are_rejected<CountFlavour>();
}
TEST(RecoveryDeltaChain, DistinctUndecodableBodiesAreRejected) {
  undecodable_bodies_are_rejected<DistinctFlavour>();
}
TEST(RecoveryDeltaChain, CountGenerationChangeResetsTheMirror) {
  generation_change_resets_the_mirror<CountFlavour>();
}
TEST(RecoveryDeltaChain, DistinctGenerationChangeResetsTheMirror) {
  generation_change_resets_the_mirror<DistinctFlavour>();
}

}  // namespace
}  // namespace waves::recovery
