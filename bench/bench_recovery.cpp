// E17 — crash recovery: checkpoint size against the synopsis space bound,
// and recovery-to-parity time (restore + differential replay) against a
// cold full replay.
//
// The claim under test is the one that makes durable checkpoints cheap at
// all: a party's checkpoint is the synopsis, not the stream, so its sealed
// size is bounded by the live structure's O((1/eps) log^2 N) bits
// (Theorems 2, 5-7) plus a constant envelope. The delta-varint body is in
// practice well under the in-memory footprint; CI asserts
// checkpoint_bytes * 8 <= synopsis_bits + 512 per kind, plus parity == 1
// and replayed_items < items for the recovery legs.
//
// JSON lines:
//   e17_checkpoint_size  {kind, items, checkpoint_bytes, synopsis_bits}
//   e17_recovery_time    {kind, items, replayed_items, recover_ms,
//                         cold_ms, parity}
//
// `--smoke` shrinks stream sizes for CI.
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/det_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "distributed/party.hpp"
#include "recovery/checkpoint.hpp"
#include "stream/generators.hpp"
#include "stream/value_streams.hpp"

namespace waves {
namespace {

constexpr std::uint64_t kWindow = 4096;
constexpr std::uint64_t kSeed = 99;
constexpr int kInstances = 3;
// Shrunk by --smoke for CI; the size/time claims hold at either scale.
std::uint64_t kItems = 200'000;
std::uint64_t kCut = 150'000;  // checkpoint taken here

void emit_size(const char* kind, std::uint64_t items, std::size_t sealed,
               std::uint64_t synopsis_bits) {
  bench::JsonLine("e17_checkpoint_size")
      .field("kind", kind)
      .field("items", items)
      .field("checkpoint_bytes", static_cast<std::uint64_t>(sealed))
      .field("synopsis_bits", synopsis_bits)
      .emit();
  bench::row_line({kind, bench::fmt_u(items),
                   bench::fmt_u(static_cast<std::uint64_t>(sealed)),
                   bench::fmt_u(synopsis_bits),
                   bench::fmt(static_cast<double>(sealed) * 8.0 /
                                  static_cast<double>(synopsis_bits),
                              3)});
}

void emit_time(const char* kind, std::uint64_t replayed, double recover_ms,
               double cold_ms, bool parity) {
  bench::JsonLine("e17_recovery_time")
      .field("kind", kind)
      .field("items", kItems)
      .field("replayed_items", replayed)
      .field("recover_ms", recover_ms)
      .field("cold_ms", cold_ms)
      .field("parity", static_cast<std::uint64_t>(parity ? 1 : 0))
      .emit();
}

// Basic Counting (DetWave): size at the cut, then recovery vs cold replay.
void e17_basic() {
  stream::BernoulliBits gen(0.2, kSeed);
  std::vector<bool> bits;
  bits.reserve(kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) bits.push_back(gen.next());

  core::DetWave original(20, kWindow);
  for (std::uint64_t i = 0; i < kCut; ++i) original.update(bits[i]);

  const recovery::BasicPartyCheckpoint ck{kCut, original.checkpoint()};
  const recovery::Bytes sealed =
      recovery::seal_envelope(recovery::StateKind::kBasic, 1,
                              recovery::encode(ck));
  emit_size("basic", kCut, sealed.size(), original.space_bits());

  for (std::uint64_t i = kCut; i < kItems; ++i) original.update(bits[i]);

  bench::Stopwatch sw;
  sw.start();
  std::uint64_t generation = 0;
  recovery::Bytes body;
  recovery::BasicPartyCheckpoint loaded;
  bool ok = recovery::open_envelope(sealed, recovery::StateKind::kBasic,
                                    generation, body) ==
                recovery::OpenStatus::kOk &&
            recovery::decode(body, loaded);
  core::DetWave recovered = core::DetWave::restore(20, kWindow, loaded.wave);
  for (std::uint64_t i = loaded.cursor; i < kItems; ++i) {
    recovered.update(bits[i]);
  }
  const double recover_ms = sw.seconds() * 1000.0;

  sw.start();
  core::DetWave cold(20, kWindow);
  for (std::uint64_t i = 0; i < kItems; ++i) cold.update(bits[i]);
  const double cold_ms = sw.seconds() * 1000.0;

  for (std::uint64_t n : {std::uint64_t{1}, kWindow / 2, kWindow}) {
    ok = ok && recovered.query(n).value == original.query(n).value &&
         cold.query(n).value == original.query(n).value;
  }
  emit_time("basic", kItems - kCut, recover_ms, cold_ms, ok);
}

// Union counting (CountParty, RandWave x instances): the randomized path,
// where restore also has to reattach the stored coins.
void e17_count() {
  const core::RandWave::Params params{.eps = 0.1, .window = kWindow, .c = 36};
  stream::BernoulliBits gen(0.2, kSeed + 1);
  std::vector<bool> bits;
  bits.reserve(kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) bits.push_back(gen.next());

  distributed::CountParty original(params, kInstances, kSeed);
  for (std::uint64_t i = 0; i < kCut; ++i) original.observe(bits[i]);

  const recovery::Bytes sealed =
      recovery::seal_envelope(recovery::StateKind::kCount, 1,
                              recovery::encode(original.checkpoint()));
  emit_size("count", kCut, sealed.size(), original.space_bits());

  for (std::uint64_t i = kCut; i < kItems; ++i) original.observe(bits[i]);

  bench::Stopwatch sw;
  sw.start();
  std::uint64_t generation = 0;
  recovery::Bytes body;
  distributed::CountPartyCheckpoint loaded;
  bool ok = recovery::open_envelope(sealed, recovery::StateKind::kCount,
                                    generation, body) ==
                recovery::OpenStatus::kOk &&
            recovery::decode(body, loaded);
  distributed::CountParty recovered(params, kInstances, kSeed);
  ok = ok && recovered.restore(loaded);
  for (std::uint64_t i = loaded.cursor; i < kItems; ++i) {
    recovered.observe(bits[i]);
  }
  const double recover_ms = sw.seconds() * 1000.0;

  sw.start();
  distributed::CountParty cold(params, kInstances, kSeed);
  for (std::uint64_t i = 0; i < kItems; ++i) cold.observe(bits[i]);
  const double cold_ms = sw.seconds() * 1000.0;

  const auto so = original.snapshots(kWindow);
  const auto sr = recovered.snapshots(kWindow);
  const auto sc = cold.snapshots(kWindow);
  for (int i = 0; i < kInstances; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ok = ok && sr[idx].level == so[idx].level &&
         sr[idx].positions == so[idx].positions &&
         sc[idx].positions == so[idx].positions;
  }
  emit_time("count", kItems - kCut, recover_ms, cold_ms, ok);
}

// Sum (SumWave): values weighted, entries carry (pos, value, z).
void e17_sum() {
  stream::UniformValues gen(0, 1000, kSeed + 2);
  std::vector<std::uint64_t> vals;
  vals.reserve(kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) vals.push_back(gen.next());

  core::SumWave original(20, kWindow, 1000);
  for (std::uint64_t i = 0; i < kCut; ++i) original.update(vals[i]);
  const recovery::SumPartyCheckpoint ck{kCut, original.checkpoint()};
  const recovery::Bytes sealed =
      recovery::seal_envelope(recovery::StateKind::kSum, 1,
                              recovery::encode(ck));
  emit_size("sum", kCut, sealed.size(), original.space_bits());
}

// Distinct values (DistinctParty): levels carry (value, pos) pairs.
void e17_distinct() {
  const core::DistinctWave::Params params{
      .eps = 0.1, .window = kWindow, .max_value = 1u << 16, .c = 36,
      .universe_hint = kWindow * 4};
  stream::UniformValues gen(0, 1u << 16, kSeed + 3);
  distributed::DistinctParty party(params, kInstances, kSeed);
  for (std::uint64_t i = 0; i < kCut; ++i) party.observe(gen.next());
  const recovery::Bytes sealed =
      recovery::seal_envelope(recovery::StateKind::kDistinct, 1,
                              recovery::encode(party.checkpoint()));
  emit_size("distinct", kCut, sealed.size(), party.space_bits());
}

}  // namespace
}  // namespace waves

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      waves::kItems = 40'000;
      waves::kCut = 30'000;
    }
  }
  waves::bench::header(
      "E17 checkpoint size (kind, items, sealed bytes, synopsis bits, "
      "bytes*8/bits)");
  waves::e17_basic();
  waves::e17_sum();
  waves::e17_count();
  waves::e17_distinct();
  return 0;
}
