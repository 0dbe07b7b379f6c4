// Durable checkpoint codec: a versioned, CRC-guarded byte encoding for
// every synopsis checkpoint a `waved` daemon persists or ships (the
// deterministic, sum, randomized and distinct waves, the exact-aggregate
// window, and the five party-level states built from them).
//
// Why this is cheap: a party's entire window state is O((1/eps) log^2 N)
// bits (Theorems 2, 5-7) — the checkpoint is the synopsis, not the stream.
// A daemon that persists it plus its stream cursor recovers by restoring
// the synopsis and differentially replaying items [cursor, end) of its
// deterministic feed, after which it is behaviorally identical to a party
// that never crashed.
//
// Encoding reuses the canonical-varint machinery of distributed/wire.cpp
// (sorted sequences delta-encoded, exactly one accepted byte form per
// value) and keeps its no-partial-output contract: a decoder either fills
// `out` completely or leaves it untouched.
//
// Envelope (what actually hits disk):
//
//   "WVCK" | varint version | varint kind | varint generation
//          | varint body_len | body bytes | fixed64 CRC-64/XZ
//
// The CRC covers every byte before it. open_envelope() rejects bad magic,
// unknown versions, kind mismatches, length mismatches, and CRC failures —
// each rejection counted in waves_recovery_checkpoints_rejected_total — so
// a torn, truncated, or bit-rotted file falls back to empty state instead
// of silently corrupting the window.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agg/agg_wave.hpp"
#include "core/checkpoint.hpp"
#include "distributed/party.hpp"
#include "distributed/wire.hpp"

namespace waves::recovery {

using distributed::Bytes;

/// Scenario-1 Basic Counting daemon state (net::BasicPartyState).
struct BasicPartyCheckpoint {
  std::uint64_t cursor = 0;  // stream items consumed
  core::DetWaveCheckpoint wave;
};

/// Scenario-1 Sum daemon state (net::SumPartyState).
struct SumPartyCheckpoint {
  std::uint64_t cursor = 0;
  core::SumWaveCheckpoint wave;
};

/// Exact-aggregate daemon state (net::AggPartyState). Unlike the waves,
/// the body is O(window) words — still KBs for the windows this role is
/// meant for, and the envelope/CRC machinery is size-agnostic.
struct AggPartyCheckpoint {
  std::uint64_t cursor = 0;
  agg::AggWaveCheckpoint wave;
};

/// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout ~0). Table-driven;
/// checkpoints are KBs, so one pass is negligible next to the fsync.
[[nodiscard]] std::uint64_t crc64(std::span<const std::uint8_t> data);

// -- Body codecs -----------------------------------------------------------
// put_* appends; get_* reads at `at`, advancing it. On failure get_* returns
// false and leaves `out`/`at` unspecified — the whole-buffer wrappers and
// open_envelope() discard everything on failure, preserving the
// all-or-nothing contract at the struct the caller actually sees. The
// randomized and distinct decoders also refuse a wave with no levels or
// with a bound count unequal to its level count, so a decoded checkpoint
// always yields a snapshot.

void put_checkpoint(Bytes& out, const core::DetWaveCheckpoint& ck);
void put_checkpoint(Bytes& out, const core::SumWaveCheckpoint& ck);
void put_checkpoint(Bytes& out, const core::RandWaveCheckpoint& ck);
void put_checkpoint(Bytes& out, const core::DistinctWaveCheckpoint& ck);
void put_checkpoint(Bytes& out, const agg::AggWaveCheckpoint& ck);

[[nodiscard]] bool get_checkpoint(const Bytes& in, std::size_t& at,
                                  core::DetWaveCheckpoint& out);
[[nodiscard]] bool get_checkpoint(const Bytes& in, std::size_t& at,
                                  core::SumWaveCheckpoint& out);
[[nodiscard]] bool get_checkpoint(const Bytes& in, std::size_t& at,
                                  core::RandWaveCheckpoint& out);
[[nodiscard]] bool get_checkpoint(const Bytes& in, std::size_t& at,
                                  core::DistinctWaveCheckpoint& out);
[[nodiscard]] bool get_checkpoint(const Bytes& in, std::size_t& at,
                                  agg::AggWaveCheckpoint& out);

// Party-level bodies: stream cursor + the per-instance wave checkpoints.
[[nodiscard]] Bytes encode(const distributed::CountPartyCheckpoint& ck);
[[nodiscard]] Bytes encode(const distributed::DistinctPartyCheckpoint& ck);
[[nodiscard]] Bytes encode(const BasicPartyCheckpoint& ck);
[[nodiscard]] Bytes encode(const SumPartyCheckpoint& ck);
[[nodiscard]] Bytes encode(const AggPartyCheckpoint& ck);

/// All-or-nothing: `out` untouched on failure; trailing garbage rejected.
[[nodiscard]] bool decode(const Bytes& in,
                          distributed::CountPartyCheckpoint& out);
[[nodiscard]] bool decode(const Bytes& in,
                          distributed::DistinctPartyCheckpoint& out);
[[nodiscard]] bool decode(const Bytes& in, BasicPartyCheckpoint& out);
[[nodiscard]] bool decode(const Bytes& in, SumPartyCheckpoint& out);
[[nodiscard]] bool decode(const Bytes& in, AggPartyCheckpoint& out);

// -- Envelope --------------------------------------------------------------

/// Which party state a sealed checkpoint holds; numbering matches
/// net::PartyRole so a daemon can derive it from its --role.
enum class StateKind : std::uint8_t {
  kCount = 1,
  kDistinct = 2,
  kBasic = 3,
  kSum = 4,
  kAgg = 5,
};

inline constexpr std::uint64_t kEnvelopeVersion = 1;

enum class OpenStatus {
  kOk,
  kTruncated,    // shorter than the fixed fields demand
  kBadMagic,     // not a checkpoint file
  kBadVersion,   // written by an incompatible codec
  kWrongKind,    // checkpoint for a different role
  kBadLength,    // body_len disagrees with the buffer
  kBadCrc,       // bit rot / torn write
};

[[nodiscard]] const char* open_status_name(OpenStatus s);

/// Wrap a body for disk: magic, version, kind, generation, length, CRC.
[[nodiscard]] Bytes seal_envelope(StateKind kind, std::uint64_t generation,
                                  const Bytes& body);

/// Validate and unwrap. On any failure `generation`/`body` are untouched
/// and waves_recovery_checkpoints_rejected_total is bumped.
[[nodiscard]] OpenStatus open_envelope(const Bytes& in, StateKind expected,
                                       std::uint64_t& generation,
                                       Bytes& body);

}  // namespace waves::recovery
