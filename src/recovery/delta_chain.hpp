// The two ends of a party's delta chain, shared by the pull path
// (SnapshotRequest -> DeltaReply) and the eps-slack push path
// (kSubscribe -> kPushUpdate).
//
// A chain is a sequence of bodies under cursors 1, 2, 3, ... that a party
// ships to one peer. Each body is either self-contained (base_cursor 0: a
// recovery::encode of the party checkpoint) or the edit from the body the
// peer holds under base_cursor (recovery/delta.hpp). The party keeps a
// DeltaEncoder per chain — one shared pull chain per server, one per push
// subscription — and the referee keeps a Mirror per party and chain: the
// polling client (net::RefereeClient) and the monitoring hub
// (monitor::MonitorHub) fold bodies into it the same way.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "recovery/delta_live.hpp"

namespace waves::recovery {

/// Party side of one chain. `Baseline` is what the next delta is diffed
/// against: the live encoder's shape summary for count, the last shipped
/// checkpoint for distinct.
template <class Party, class Baseline>
class DeltaEncoder {
 public:
  /// Writes the body that moves a peer holding `since` to the party's
  /// current state into `body` (replacing its contents) and advances the
  /// chain: a delta when `since` is this chain's cursor and the diff form
  /// can express the change, else a self-contained full body. Returns the
  /// body's base_cursor (0 for a full body); the body's own cursor is
  /// cursor() afterwards.
  std::uint64_t next(const Party& party, std::uint64_t since, Bytes& body);

  /// Cursor of the latest body; 0 before the first.
  [[nodiscard]] std::uint64_t cursor() const noexcept { return cursor_; }
  /// The party's items_observed when the latest body was encoded.
  [[nodiscard]] std::uint64_t items() const noexcept { return base_.cursor; }

 private:
  std::uint64_t cursor_ = 0;
  Baseline base_;
};

using CountDeltaEncoder =
    DeltaEncoder<distributed::CountParty, CountDeltaBaseline>;
using DistinctDeltaEncoder =
    DeltaEncoder<distributed::DistinctParty,
                 distributed::DistinctPartyCheckpoint>;

/// Referee side of one chain: the party checkpoint as of the latest body
/// folded in, under that body's cursor, for one party epoch.
template <class Checkpoint>
class Mirror {
 public:
  using Snapshot =
      std::conditional_t<std::is_same_v<Checkpoint,
                                        distributed::CountPartyCheckpoint>,
                         core::RandWaveSnapshot, core::DistinctSnapshot>;

  /// Cursor of the held checkpoint; 0 = holds nothing.
  [[nodiscard]] std::uint64_t cursor() const noexcept { return cursor_; }
  [[nodiscard]] const Checkpoint& checkpoint() const noexcept { return base_; }

  /// Epoch reset, run on every handshake: a party whose generation differs
  /// from the one the held state came from has restarted, and its side of
  /// the chain died with it. Drops the state (true) in that case; either
  /// way the mirror then belongs to `generation`.
  bool enter_epoch(std::uint64_t generation);

  /// Folds one body. A full body (base_cursor 0) rebases the mirror; a
  /// delta must name the held cursor and is applied through the scratch
  /// checkpoint, swapped in so the retired baseline's vectors become the
  /// next round's capacity; an empty body is the "unchanged" echo and must
  /// carry the held cursor as both cursors. False with a diagnostic in
  /// `err` on a cursor or codec mismatch, leaving the held state as it was.
  [[nodiscard]] bool apply(std::uint64_t base_cursor, std::uint64_t cursor,
                           const Bytes& body, std::string& err);

  /// Derives the per-instance snapshots for window length `n` into `out`,
  /// reusing its capacity. `window` is the party's maximum window N (only
  /// the distinct flavour needs it, to expire lazily kept entries).
  void snapshots_into(std::uint64_t n, std::uint64_t window,
                      std::vector<Snapshot>& out) const;

 private:
  std::uint64_t cursor_ = 0;
  std::uint64_t generation_ = 0;
  Checkpoint base_;
  Checkpoint scratch_;  // apply_delta_into destination
};

}  // namespace waves::recovery
