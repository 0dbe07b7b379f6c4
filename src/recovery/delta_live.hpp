// O(change) count-role delta encoding straight out of the live rings: the
// only encoder of count delta bodies.
//
// Diffing two full checkpoints (what the distinct role does, delta.hpp)
// costs four O(synopsis) walks per request: copy the checkpoint, diff it
// against the baseline, re-apply the diff for the self-check, and encode
// the full form for the size comparison. For the count role that would
// dominate the fetch wait at high party counts even when almost nothing
// changed.
//
// This encoder keeps only a *shape summary* of the checkpoint last shipped
// (per level: length and evicted bound, plus the stream position) and,
// reading the party's live rings under its lock, emits the diff wire
// format that recovery::apply_delta_into decodes. Correctness rests on the RandWave ring invariant:
// levels only drop entries at the tail and append at the head, and
// positions strictly ascend within a level, so every live entry with
// position <= the baseline's pos is exactly the baseline suffix the client
// still holds. The survivor count per level is a binary search, and the
// appended tail is O(change) — no checkpoint copy, no re-apply, no full
// encode.
//
// Any violation of the expected shape (instance or level count mismatch,
// more survivors than the baseline held, a non-monotone bound) returns
// false and the caller must fall back to a self-contained full body.

#pragma once

#include <cstdint>
#include <vector>

#include "distributed/party.hpp"
#include "recovery/checkpoint.hpp"

namespace waves::recovery {

/// Shape of the count-party state a delta client last applied. Cheap to
/// hold per server (O(instances * levels) integers) and to refresh after
/// every reply.
struct CountDeltaBaseline {
  struct Wave {
    std::uint64_t pos = 0;
    std::vector<std::size_t> len;        // queue length per level
    std::vector<std::uint64_t> evicted;  // evicted bound per level
  };
  bool valid = false;
  std::uint64_t cursor = 0;  // party items_observed at baseline time
  std::vector<Wave> waves;
};

/// Refresh `out` to describe `ck` — call right after shipping a full body
/// so the next request can diff live.
void baseline_from_checkpoint(const distributed::CountPartyCheckpoint& ck,
                              CountDeltaBaseline& out);

/// Append the party-level delta body (every wave in diff form, see
/// delta.hpp) describing baseline -> live state, then advance `baseline` to the encoded state. On failure `out`
/// is restored to its original length, the baseline is untouched, and the
/// caller must ship a full body instead.
[[nodiscard]] bool encode_delta_live(const distributed::CountParty& party,
                                     CountDeltaBaseline& baseline, Bytes& out);

}  // namespace waves::recovery
