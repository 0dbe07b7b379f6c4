// Delta codec for party checkpoints — the core of the fast query path.
//
// Between referee rounds a wave is append-mostly: new entries land at the
// tails of the level lists and old entries expire from the fronts (or, for
// the distinct wave, are refreshed out of the middle). A delta body
// therefore encodes the *edit* from the checkpoint the peer holds to the
// current one, which in steady state is proportional to the items ingested
// since the last query, not to the synopsis size.
//
// Party body: varint cursor, varint wave count, one wave body per
// instance. Every wave body starts with a flags varint whose bit0 selects
// "full" (a plain recovery::put_checkpoint encoding, baseline ignored);
// otherwise it is the diff form against the baseline wave at that index.
//
// What ships where:
//   - count: diff bodies come straight from the live rings
//     (delta_live.hpp, encode_delta_live); this file only applies them.
//   - distinct: encode_delta diffs two full checkpoints, re-applies its own
//     diff, and falls back per wave to the full form whenever the round
//     trip disagrees or the diff is not smaller, so applying its body to
//     `base` yields `now` for every input, by construction.
//
// Decoders follow the wire.cpp contract: canonical varints, hostile-length
// guards (no trusting attacker-controlled counts), trailing garbage
// rejected.
#pragma once

#include "distributed/party.hpp"
#include "distributed/wire.hpp"

namespace waves::recovery {

using distributed::Bytes;

[[nodiscard]] Bytes encode_delta(
    const distributed::DistinctPartyCheckpoint& base,
    const distributed::DistinctPartyCheckpoint& now);

/// Build the new checkpoint *into* `out`, reassigning its existing vectors
/// so a caller that ping-pongs two checkpoints (a Mirror's base/scratch,
/// see delta_chain.hpp) applies a round's delta with near-zero
/// allocations. `out` is unspecified on failure and must not alias `base`.
[[nodiscard]] bool apply_delta_into(
    const distributed::CountPartyCheckpoint& base, const Bytes& in,
    distributed::CountPartyCheckpoint& out);
[[nodiscard]] bool apply_delta_into(
    const distributed::DistinctPartyCheckpoint& base, const Bytes& in,
    distributed::DistinctPartyCheckpoint& out);

}  // namespace waves::recovery
