#include "recovery/delta_live.hpp"

#include <cstdint>
#include <vector>

#include "core/rand_wave.hpp"
#include "distributed/wire.hpp"
#include "util/ring_buffer.hpp"

namespace waves::recovery {

using distributed::put_varint;

namespace {

// Count of live entries with position <= bound. Positions strictly ascend
// in from_oldest order, so this is the length of the baseline suffix the
// client still holds.
std::size_t survivors(const util::RingBuffer<std::uint64_t>& q,
                      std::uint64_t bound) {
  std::size_t lo = 0;
  std::size_t hi = q.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (q.from_oldest(mid) <= bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void baseline_from_checkpoint(const distributed::CountPartyCheckpoint& ck,
                              CountDeltaBaseline& out) {
  out.valid = true;
  out.cursor = ck.cursor;
  out.waves.resize(ck.waves.size());
  for (std::size_t i = 0; i < ck.waves.size(); ++i) {
    CountDeltaBaseline::Wave& bw = out.waves[i];
    const core::RandWaveCheckpoint& wck = ck.waves[i];
    bw.pos = wck.pos;
    bw.len.assign(wck.queues.size(), 0);
    for (std::size_t l = 0; l < wck.queues.size(); ++l) {
      bw.len[l] = wck.queues[l].size();
    }
    bw.evicted = wck.evicted_bounds;
  }
}

bool encode_delta_live(const distributed::CountParty& party,
                       CountDeltaBaseline& baseline, Bytes& out) {
  const std::size_t start = out.size();
  const bool ok = party.visit_locked([&](std::span<const core::RandWave>
                                             waves) {
    if (!baseline.valid || baseline.waves.size() != waves.size()) {
      return false;
    }
    const std::uint64_t cursor = waves.empty() ? 0 : waves[0].pos();
    put_varint(out, cursor);
    put_varint(out, waves.size());
    for (std::size_t i = 0; i < waves.size(); ++i) {
      const core::RandWave& w = waves[i];
      const CountDeltaBaseline::Wave& bw = baseline.waves[i];
      const std::size_t levels = w.level_count();
      if (bw.len.size() != levels || bw.evicted.size() != levels ||
          w.pos() < bw.pos) {
        return false;
      }
      put_varint(out, 0);  // flags: diff form (see delta.hpp)
      put_varint(out, w.pos());
      put_varint(out, levels);
      for (std::size_t l = 0; l < levels; ++l) {
        const util::RingBuffer<std::uint64_t>& q = w.level_queue(l);
        const std::size_t k = survivors(q, bw.pos);
        if (k > bw.len[l] || w.evicted_bound(l) < bw.evicted[l]) {
          return false;
        }
        put_varint(out, bw.len[l] - k);  // drop
        put_varint(out, q.size() - k);   // append count
        std::uint64_t prev = k > 0 ? q.from_oldest(k - 1) : 0;
        for (std::size_t j = k; j < q.size(); ++j) {
          const std::uint64_t p = q.from_oldest(j);
          if (p < prev) return false;
          put_varint(out, p - prev);
          prev = p;
        }
        put_varint(out, w.evicted_bound(l) - bw.evicted[l]);
      }
    }
    // Committed: advance the baseline to the state just encoded, still
    // under the party lock so no ingest slips between encode and refresh.
    baseline.cursor = cursor;
    for (std::size_t i = 0; i < waves.size(); ++i) {
      const core::RandWave& w = waves[i];
      CountDeltaBaseline::Wave& bw = baseline.waves[i];
      bw.pos = w.pos();
      for (std::size_t l = 0; l < w.level_count(); ++l) {
        bw.len[l] = w.level_queue(l).size();
        bw.evicted[l] = w.evicted_bound(l);
      }
    }
    return true;
  });
  if (!ok) out.resize(start);
  return ok;
}

}  // namespace waves::recovery
