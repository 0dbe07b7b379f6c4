// Checkpoint / restore for long-running synopses.
//
// A monitoring deployment wants to survive restarts without losing its
// window state. A wave's queryable state is tiny (that is the point of
// the paper), so checkpoints are cheap: the live entries plus the few
// counters. Restoring rebuilds the level queues by replaying the entries
// in position order; because per-level survivors are exactly the most
// recent inserts of that level and stale ring slots always form the
// contiguous run ahead of the cursor, the restored structure is
// *behaviorally identical* to the original under any continuation of the
// stream — which the tests verify by differential replay.
//
// Randomized synopses additionally need their stored coins: restore with a
// SharedRandomness seeded identically to the original (the deployment's
// shared seed), which reproduces the hash functions exactly.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace waves::core {

struct DetWaveCheckpoint {
  std::uint64_t pos = 0;
  std::uint64_t rank = 0;
  std::uint64_t discarded_rank = 0;
  /// Live (position, rank) pairs in increasing position order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;

  bool operator==(const DetWaveCheckpoint&) const = default;
};

struct RandWaveCheckpoint {
  std::uint64_t pos = 0;
  /// queues[l]: positions at level l, oldest first.
  std::vector<std::vector<std::uint64_t>> queues;
  std::vector<std::uint64_t> evicted_bounds;

  bool operator==(const RandWaveCheckpoint&) const = default;
};

struct DistinctWaveCheckpoint {
  std::uint64_t pos = 0;
  /// levels[l]: (value, latest position) pairs, oldest position first.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> levels;
  std::vector<std::uint64_t> evicted_bounds;

  bool operator==(const DistinctWaveCheckpoint&) const = default;
};

/// One stored nonzero item of a sum-type wave: position, value, and the
/// running total z through it. The entry's level is not stored — it is
/// recomputable at restore time from the total before the item (z - value)
/// with the same Theorem 3 bit trick used at insert time.
struct SumEntryCheckpoint {
  std::uint64_t pos = 0;
  std::uint64_t value = 0;
  std::uint64_t z = 0;

  bool operator==(const SumEntryCheckpoint&) const = default;
};

struct SumWaveCheckpoint {
  std::uint64_t pos = 0;
  std::uint64_t total = 0;
  std::uint64_t discarded_z = 0;  // z1 of Fig. 5
  /// Live entries in increasing position order.
  std::vector<SumEntryCheckpoint> entries;

  bool operator==(const SumWaveCheckpoint&) const = default;
};

}  // namespace waves::core
