#include "core/distinct_wave.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bitops.hpp"

namespace waves::core {

namespace {

std::uint64_t universe_of(const DistinctWave::Params& p) {
  return p.universe_hint != 0 ? p.universe_hint : p.window;
}

int levels_of(const DistinctWave::Params& p) {
  const std::uint64_t u = universe_of(p);
  return util::floor_log2(util::next_pow2_at_least(u < 1 ? 2 : 2 * u));
}

}  // namespace

int DistinctWave::field_dimension(const Params& params) {
  const int value_bits = util::ceil_log2(params.max_value + 2);
  const int level_bits = levels_of(params);
  return std::max(value_bits, level_bits);
}

DistinctWave::DistinctWave(const Params& params, const gf2::Field& field,
                           gf2::SharedRandomness& coins)
    : params_(params),
      d_(levels_of(params)),
      cap_(static_cast<std::size_t>(
          std::ceil(static_cast<double>(params.c) / (params.eps * params.eps)))),
      hash_(coins.draw_hash(field)) {
  assert(params.window >= 1 && params.eps > 0.0 && params.eps < 1.0);
  assert(field.dimension() >= field_dimension(params));
  levels_.resize(static_cast<std::size_t>(d_) + 1);
}

void DistinctWave::drop_expired(Level& lv) const {
  while (!lv.recency.empty() &&
         lv.recency.front().pos + params_.window <= pos_) {
    lv.index.erase(lv.recency.front().value);
    lv.recency.pop_front();
    obs_.on_expiry();
  }
}

void DistinctWave::update(std::uint64_t value) {
  ++change_cursor_;
  update_one(value);
}

void DistinctWave::update_batch(std::span<const std::uint64_t> values) {
  if (values.empty()) return;
  ++change_cursor_;
  for (const std::uint64_t v : values) update_one(v);
}

void DistinctWave::update_one(std::uint64_t value) {
  assert(value <= params_.max_value);
  ++pos_;
  const int hl = level_of_value(value);
  for (int l = 0; l <= hl; ++l) {
    Level& lv = levels_[static_cast<std::size_t>(l)];
    drop_expired(lv);
    if (auto it = lv.index.find(value); it != lv.index.end()) {
      // Refresh: move to the newest end with the new position.
      it->second->pos = pos_;
      lv.recency.splice(lv.recency.end(), lv.recency, it->second);
      obs_.on_refresh();
    } else {
      lv.recency.push_back(Node{value, pos_});
      lv.index.emplace(value, std::prev(lv.recency.end()));
      obs_.on_promotion();
      if (lv.recency.size() > cap_) {
        const Node& victim = lv.recency.front();
        if (victim.pos > lv.evicted_bound) lv.evicted_bound = victim.pos;
        lv.index.erase(victim.value);
        lv.recency.pop_front();
        obs_.on_eviction();
      }
    }
  }
  // Round-robin sweep so untouched levels also shed expired fronts.
  Level& swept = levels_[pos_ % levels_.size()];
  drop_expired(swept);
}

DistinctSnapshot DistinctWave::snapshot(std::uint64_t n) const {
  assert(n >= 1 && n <= params_.window);
  const std::uint64_t s = pos_ > n ? pos_ - n + 1 : 1;
  for (Level& lv : levels_) drop_expired(lv);
  int lj = d_;
  for (int l = 0; l <= d_; ++l) {
    if (levels_[static_cast<std::size_t>(l)].evicted_bound < s) {
      lj = l;
      break;
    }
  }
  DistinctSnapshot out;
  out.level = lj;
  out.stream_len = pos_;
  const Level& lv = levels_[static_cast<std::size_t>(lj)];
  out.items.reserve(lv.recency.size());
  for (const Node& nd : lv.recency) out.items.emplace_back(nd.value, nd.pos);
  obs_.flush(pos_);
  obs_.observe_snapshot_size(out.items.size());
  return out;
}

Estimate DistinctWave::estimate(std::uint64_t n) const {
  const DistinctSnapshot snap[1] = {snapshot(n)};
  return referee_distinct_count(snap, n, hash_);
}

void snapshot_from_checkpoint_into(const DistinctWaveCheckpoint& ck,
                                   std::uint64_t n, std::uint64_t window,
                                   DistinctSnapshot& out) {
  assert(!ck.levels.empty() && ck.levels.size() == ck.evicted_bounds.size());
  const std::uint64_t s = ck.pos > n ? ck.pos - n + 1 : 1;
  // checkpoint() keeps lazily-expired fronts, so the expiry rule of
  // drop_expired is applied here instead; evicted bounds track capacity
  // evictions only and are unaffected by expiry, so level choice matches
  // a live wave that swept first.
  const auto expired = [&ck, window](std::uint64_t p) {
    return p + window <= ck.pos;
  };
  const int top = static_cast<int>(ck.levels.size()) - 1;
  int lj = top;
  for (int l = 0; l <= top; ++l) {
    if (ck.evicted_bounds[static_cast<std::size_t>(l)] < s) {
      lj = l;
      break;
    }
  }
  out.level = lj;
  out.stream_len = ck.pos;
  const auto& items = ck.levels[static_cast<std::size_t>(lj)];
  // clear + push_back reuses out.items' capacity across rounds.
  out.items.clear();
  out.items.reserve(items.size());
  for (const auto& [value, p] : items) {
    if (!expired(p)) out.items.emplace_back(value, p);
  }
}

DistinctSnapshot snapshot_from_checkpoint(const DistinctWaveCheckpoint& ck,
                                          std::uint64_t n,
                                          std::uint64_t window) {
  DistinctSnapshot out;
  snapshot_from_checkpoint_into(ck, n, window, out);
  return out;
}

std::uint64_t DistinctWave::space_bits() const noexcept {
  const auto pos_bits = static_cast<std::uint64_t>(
      util::floor_log2(util::next_pow2_at_least(2 * params_.window)));
  const auto val_bits =
      static_cast<std::uint64_t>(util::ceil_log2(params_.max_value + 2));
  const auto nlevels = static_cast<std::uint64_t>(d_) + 1;
  return nlevels * cap_ * (pos_bits + val_bits)  // samples
         + nlevels * pos_bits                    // evicted bounds
         + 2 * pos_bits                          // counters
         + 2 * val_bits;                         // stored coins q, r
}

DistinctWaveCheckpoint DistinctWave::checkpoint() const {
  DistinctWaveCheckpoint ck;
  ck.pos = pos_;
  ck.levels.resize(levels_.size());
  ck.evicted_bounds.reserve(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& lv = levels_[l];
    ck.levels[l].reserve(lv.recency.size());
    for (const Node& nd : lv.recency) {
      ck.levels[l].emplace_back(nd.value, nd.pos);
    }
    ck.evicted_bounds.push_back(lv.evicted_bound);
  }
  return ck;
}

void DistinctWave::restore(const DistinctWaveCheckpoint& ck) {
  assert(pos_ == 0 && "restore only into a fresh wave");
  assert(ck.levels.size() == levels_.size());
  pos_ = ck.pos;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lv = levels_[l];
    lv.recency.clear();
    lv.index.clear();
    for (const auto& [value, p] : ck.levels[l]) {
      lv.recency.push_back(Node{value, p});
      lv.index.emplace(value, std::prev(lv.recency.end()));
    }
    lv.evicted_bound = ck.evicted_bounds[l];
  }
  ++change_cursor_;
}

Estimate referee_distinct_count(
    std::span<const DistinctSnapshot* const> snapshots, std::uint64_t n,
    const gf2::ExpHash& hash,
    const std::function<bool(std::uint64_t)>& predicate,
    UnionScratch& scratch) {
  assert(!snapshots.empty());
  const std::uint64_t pos = snapshots.front()->stream_len;
  for (const DistinctSnapshot* snap : snapshots) {
    assert(snap->stream_len == pos && "aligned streams required");
    (void)snap;
  }
  const std::uint64_t s = pos > n ? pos - n + 1 : 1;

  int lstar = 0;
  for (const DistinctSnapshot* snap : snapshots) {
    lstar = std::max(lstar, snap->level);
  }

  // Level l holds only values with h(value) >= l, so the hash filter runs
  // only below l*. The union is the distinct values kept: sort + unique.
  std::vector<std::uint64_t>& kept = scratch.values;
  kept.clear();
  for (const DistinctSnapshot* snap : snapshots) {
    const bool below = snap->level < lstar;
    for (const auto& [value, p] : snap->items) {
      if (p < s) continue;
      if (below && hash.level(value) < lstar) continue;
      if (predicate && !predicate(value)) continue;
      kept.push_back(value);
    }
  }
  std::sort(kept.begin(), kept.end());
  const auto count = static_cast<std::size_t>(
      std::unique(kept.begin(), kept.end()) - kept.begin());
  return Estimate{std::ldexp(static_cast<double>(count), lstar), false, n};
}

Estimate referee_distinct_count(
    std::span<const DistinctSnapshot> snapshots, std::uint64_t n,
    const gf2::ExpHash& hash,
    const std::function<bool(std::uint64_t)>& predicate) {
  std::vector<const DistinctSnapshot*> views;
  views.reserve(snapshots.size());
  for (const DistinctSnapshot& snap : snapshots) views.push_back(&snap);
  UnionScratch scratch;
  return referee_distinct_count(views, n, hash, predicate, scratch);
}

}  // namespace waves::core
