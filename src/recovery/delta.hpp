// Delta codec for wave checkpoints — the core of the fast query path.
//
// Between referee rounds a wave is append-mostly: new entries land at the
// tails of the level lists and old entries expire from the fronts (or, for
// the distinct wave, are refreshed out of the middle). A delta therefore
// encodes the *edit* from a baseline checkpoint to the current one — the
// survivors as (skip, keep) runs over the baseline, plus the appended
// suffix — which in steady state is proportional to the items ingested
// since the last query, not to the synopsis size.
//
// Correctness is unconditional, not heuristic: every wave delta body starts
// with a flags varint whose bit0 selects "full" (the body is a plain
// recovery::put_checkpoint encoding of the new state, baseline ignored).
// The encoder diffs, *re-applies its own diff*, and falls back to the
// bit-exact full encoding whenever the round-trip disagrees or the diff is
// not smaller — so apply_delta(base, encode_delta(base, now)) == now holds
// for every input, by construction.
//
// Decoders follow the wire.cpp contract: canonical varints, hostile-length
// guards (no trusting attacker-controlled counts), and all-or-nothing
// output.
#pragma once

#include <cstdint>
#include <vector>

#include "agg/agg_wave.hpp"
#include "core/checkpoint.hpp"
#include "distributed/party.hpp"
#include "distributed/wire.hpp"

namespace waves::recovery {

using distributed::Bytes;

// -- Wave-level deltas ------------------------------------------------------
// put_delta appends a self-describing body that get_delta turns back into
// the new checkpoint given the *same* baseline. On failure get_delta
// returns false with `out`/`at` unspecified; the party-level wrappers
// restore the all-or-nothing contract.

void put_delta(Bytes& out, const core::DetWaveCheckpoint& base,
               const core::DetWaveCheckpoint& now);
void put_delta(Bytes& out, const core::SumWaveCheckpoint& base,
               const core::SumWaveCheckpoint& now);
void put_delta(Bytes& out, const core::TsWaveCheckpoint& base,
               const core::TsWaveCheckpoint& now);
void put_delta(Bytes& out, const core::TsSumWaveCheckpoint& base,
               const core::TsSumWaveCheckpoint& now);
void put_delta(Bytes& out, const core::RandWaveCheckpoint& base,
               const core::RandWaveCheckpoint& now);
void put_delta(Bytes& out, const core::DistinctWaveCheckpoint& base,
               const core::DistinctWaveCheckpoint& now);
// AggWave's canonical checkpoint is the raw window contents, which turn
// over wholesale between rounds — no append-mostly structure to diff — so
// its delta body is always the full form. Shipping it under the delta
// framing keeps the one checkpoint codec per role invariant.
void put_delta(Bytes& out, const agg::AggWaveCheckpoint& base,
               const agg::AggWaveCheckpoint& now);

[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::DetWaveCheckpoint& base,
                             core::DetWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::SumWaveCheckpoint& base,
                             core::SumWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::TsWaveCheckpoint& base,
                             core::TsWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::TsSumWaveCheckpoint& base,
                             core::TsSumWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::RandWaveCheckpoint& base,
                             core::RandWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const core::DistinctWaveCheckpoint& base,
                             core::DistinctWaveCheckpoint& out);
[[nodiscard]] bool get_delta(const Bytes& in, std::size_t& at,
                             const agg::AggWaveCheckpoint& base,
                             agg::AggWaveCheckpoint& out);

// -- Party-level deltas -----------------------------------------------------
// Body shipped in a v3 DeltaReply: varint cursor, varint wave count, one
// wave delta body per instance. A baseline with a different instance count
// simply forces every wave body to its full form.

[[nodiscard]] Bytes encode_delta(const distributed::CountPartyCheckpoint& base,
                                 const distributed::CountPartyCheckpoint& now);
[[nodiscard]] Bytes encode_delta(
    const distributed::DistinctPartyCheckpoint& base,
    const distributed::DistinctPartyCheckpoint& now);

/// All-or-nothing: `out` untouched on failure; trailing garbage rejected.
[[nodiscard]] bool apply_delta(const distributed::CountPartyCheckpoint& base,
                               const Bytes& in,
                               distributed::CountPartyCheckpoint& out);
[[nodiscard]] bool apply_delta(
    const distributed::DistinctPartyCheckpoint& base, const Bytes& in,
    distributed::DistinctPartyCheckpoint& out);

/// Capacity-reusing variants for the steady-state referee: build the new
/// checkpoint *into* `out`, reassigning its existing vectors so a caller
/// that ping-pongs two checkpoints (a Mirror's base/scratch, see
/// delta_chain.hpp) applies a round's delta with near-zero allocations.
/// Price of the reuse: `out` is unspecified on failure (the all-or-nothing
/// wrappers above delegate here through a fresh checkpoint) and must not
/// alias `base`. Same rejection rules: canonical varints, hostile-length
/// guards, trailing garbage.
[[nodiscard]] bool apply_delta_into(
    const distributed::CountPartyCheckpoint& base, const Bytes& in,
    distributed::CountPartyCheckpoint& out);
[[nodiscard]] bool apply_delta_into(
    const distributed::DistinctPartyCheckpoint& base, const Bytes& in,
    distributed::DistinctPartyCheckpoint& out);

}  // namespace waves::recovery
