#include "recovery/delta_chain.hpp"

#include <utility>

#include "recovery/checkpoint.hpp"
#include "recovery/delta.hpp"

namespace waves::recovery {

namespace {

// Per-flavour halves of DeltaEncoder::next. put_delta_since appends the
// edit from `base` to the party's current state and advances `base` to it,
// or returns false (body and base untouched) when the diff form can't
// express the change; put_full writes the self-contained form and rebases.

// Count: O(change) diff straight out of the live rings (delta_live.hpp).
bool put_delta_since(const distributed::CountParty& party,
                     CountDeltaBaseline& base, Bytes& body) {
  return encode_delta_live(party, base, body);
}

void put_full(const distributed::CountParty& party, CountDeltaBaseline& base,
              Bytes& body) {
  const distributed::CountPartyCheckpoint now = party.checkpoint();
  body = encode(now);
  baseline_from_checkpoint(now, base);
}

// Distinct: diff of two full checkpoints (delta.hpp), which never fails —
// a shape the diff can't express falls back to full form per wave.
bool put_delta_since(const distributed::DistinctParty& party,
                     distributed::DistinctPartyCheckpoint& base, Bytes& body) {
  distributed::DistinctPartyCheckpoint now = party.checkpoint();
  body = encode_delta(base, now);
  base = std::move(now);
  return true;
}

void put_full(const distributed::DistinctParty& party,
              distributed::DistinctPartyCheckpoint& base, Bytes& body) {
  distributed::DistinctPartyCheckpoint now = party.checkpoint();
  body = encode(now);
  base = std::move(now);
}

}  // namespace

template <class Party, class Baseline>
std::uint64_t DeltaEncoder<Party, Baseline>::next(const Party& party,
                                                  std::uint64_t since,
                                                  Bytes& body) {
  // A peer holding anything but this chain's latest body — a bootstrap
  // (since 0), another peer advanced a shared chain, or this process
  // restarted — gets the self-contained form.
  body.clear();
  std::uint64_t base_cursor = 0;
  if (since != 0 && since == cursor_ && put_delta_since(party, base_, body)) {
    base_cursor = cursor_;
  } else {
    put_full(party, base_, body);
  }
  ++cursor_;
  return base_cursor;
}

template <class Checkpoint>
bool Mirror<Checkpoint>::enter_epoch(std::uint64_t generation) {
  const bool drop = cursor_ != 0 && generation != generation_;
  if (drop) *this = Mirror{};
  generation_ = generation;
  return drop;
}

template <class Checkpoint>
bool Mirror<Checkpoint>::apply(std::uint64_t base_cursor, std::uint64_t cursor,
                               const Bytes& body, std::string& err) {
  if (body.empty()) {
    if (cursor_ == 0 || base_cursor != cursor_ || cursor != cursor_) {
      err = "empty body without a matching cursor";
      return false;
    }
    return true;
  }
  if (cursor == 0) {
    err = "body carries cursor 0";
    return false;
  }
  if (base_cursor == 0) {
    if (!decode(body, base_)) {  // all-or-nothing: base_ intact on failure
      err = "undecodable full body";
      return false;
    }
  } else {
    if (cursor_ == 0 || base_cursor != cursor_) {
      err = "delta against a cursor this mirror does not hold";
      return false;
    }
    // On failure scratch_ is garbage but unread; base_ stays valid.
    if (!apply_delta_into(base_, body, scratch_)) {
      err = "undecodable delta body";
      return false;
    }
    std::swap(base_, scratch_);
  }
  cursor_ = cursor;
  return true;
}

template <class Checkpoint>
void Mirror<Checkpoint>::snapshots_into(std::uint64_t n, std::uint64_t window,
                                        std::vector<Snapshot>& out) const {
  out.resize(base_.waves.size());
  for (std::size_t i = 0; i < base_.waves.size(); ++i) {
    if constexpr (std::is_same_v<Snapshot, core::RandWaveSnapshot>) {
      core::snapshot_from_checkpoint_into(base_.waves[i], n, out[i]);
    } else {
      core::snapshot_from_checkpoint_into(base_.waves[i], n, window, out[i]);
    }
  }
}

template class DeltaEncoder<distributed::CountParty, CountDeltaBaseline>;
template class DeltaEncoder<distributed::DistinctParty,
                            distributed::DistinctPartyCheckpoint>;
template class Mirror<distributed::CountPartyCheckpoint>;
template class Mirror<distributed::DistinctPartyCheckpoint>;

}  // namespace waves::recovery
