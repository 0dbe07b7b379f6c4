// Shared types and helpers for the wave synopses.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/level_pool.hpp"

namespace waves::core {

/// Result of a window query: the estimate, whether the synopsis knows it to
/// be exact (the special cases of Fig. 4/5 step 1-2), and the window
/// actually answered.
struct Estimate {
  double value = 0.0;
  bool exact = false;
  std::uint64_t window = 0;
};

/// Caller-kept buffers for the referee combines (referee_union_count,
/// referee_distinct_count). They carry only capacity from one call to the
/// next, so a steady-state combine allocates nothing.
struct UnionScratch {
  std::vector<std::uint64_t> values;
  std::vector<const std::uint64_t*> heads;
};

/// Fig. 4/5 step 2, unified: pop every pool entry whose position has left
/// the window ending at `pos`, oldest first, handing each to `on_discard`
/// (which retains r1/z1). This one loop serves the per-bit path (at most
/// one entry expires when positions advance by one), skip_zeros, and the
/// word-at-a-time batch path; cost is O(#expired), each expiry paid for by
/// its own insertion. Only for pools with unique positions — the timestamp
/// waves expire whole position runs via their segment lists instead.
template <class Entry, class OnDiscard>
inline void expire_through(util::LevelPool<Entry>& pool, std::uint64_t pos,
                           std::uint64_t window, OnDiscard&& on_discard) {
  while (!pool.empty()) {
    const Entry& head = pool.entry(pool.head());
    if (head.pos + window > pos) break;
    on_discard(pool.pop_oldest());
  }
}

}  // namespace waves::core
