#include "distributed/party.hpp"

#include <cassert>
#include <chrono>

#include "util/bitops.hpp"

namespace waves::distributed {

namespace {

int count_field_dim(std::uint64_t window) {
  return util::floor_log2(
      util::next_pow2_at_least(window < 1 ? 2 : 2 * window));
}

// Acquire the party lock, timing the wait only when contended — the
// uncontended fast path costs one try_lock, no clock reads.
std::unique_lock<std::mutex> lock_tracked(std::mutex& mu,
                                          const obs::PartyObs& po) {
  std::unique_lock<std::mutex> lk(mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    if constexpr (obs::kEnabled) {
      const auto t0 = std::chrono::steady_clock::now();
      lk.lock();
      po.lock_waited(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    } else {
      lk.lock();
    }
  }
  return lk;
}

// Refresh throughput/space series every 2^14 items so long ingests stay
// observable without a query; exact values land at snapshot time.
constexpr std::uint64_t kFlushMask = (1u << 14) - 1;

}  // namespace

CountParty::CountParty(const core::RandWave::Params& params, int instances,
                       std::uint64_t shared_seed)
    : field_(count_field_dim(params.window)) {
  assert(instances >= 1);
  gf2::SharedRandomness coins(shared_seed);
  waves_.reserve(static_cast<std::size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    waves_.emplace_back(params, field_, coins);
  }
}

void CountParty::observe(bool bit) {
  const auto lock = lock_tracked(mu_, obs_);
  for (core::RandWave& w : waves_) w.update(bit);
  if constexpr (obs::kEnabled) {
    const std::uint64_t n = waves_.front().pos();
    if ((n & kFlushMask) == 0) obs_.flush(n, space_bits_locked());
  }
}

void CountParty::observe_words(std::span<const std::uint64_t> words,
                               std::uint64_t count) {
  if (count == 0) return;
  const auto lock = lock_tracked(mu_, obs_);
  for (core::RandWave& w : waves_) w.update_words(words, count);
  if constexpr (obs::kEnabled) {
    obs_.flush(waves_.front().pos(), space_bits_locked());
  }
}

std::vector<core::RandWaveSnapshot> CountParty::snapshots(
    std::uint64_t n) const {
  const auto lock = lock_tracked(mu_, obs_);
  std::vector<core::RandWaveSnapshot> out;
  out.reserve(waves_.size());
  for (const core::RandWave& w : waves_) out.push_back(w.snapshot(n));
  obs_.flush(waves_.front().pos(), space_bits_locked());
  return out;
}

std::uint64_t CountParty::items_observed() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return waves_.empty() ? 0 : waves_.front().pos();
}

std::uint64_t CountParty::space_bits_locked() const noexcept {
  std::uint64_t bits = 0;
  for (const core::RandWave& w : waves_) bits += w.space_bits();
  return bits;
}

std::uint64_t CountParty::space_bits() const noexcept {
  return space_bits_locked();
}

CountPartyCheckpoint CountParty::checkpoint() const {
  const auto lock = lock_tracked(mu_, obs_);
  CountPartyCheckpoint ck;
  ck.cursor = waves_.empty() ? 0 : waves_.front().pos();
  ck.waves.reserve(waves_.size());
  for (const core::RandWave& w : waves_) ck.waves.push_back(w.checkpoint());
  return ck;
}

bool CountParty::restore(const CountPartyCheckpoint& ck) {
  const auto lock = lock_tracked(mu_, obs_);
  // The window fixes every wave's level count, so this also refuses a
  // checkpoint from a party built with another window.
  if (ck.waves.size() != waves_.size()) return false;
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    const std::size_t levels = waves_[i].level_count();
    if (ck.waves[i].queues.size() != levels ||
        ck.waves[i].evicted_bounds.size() != levels) {
      return false;
    }
  }
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    waves_[i].restore(ck.waves[i]);
  }
  return true;
}

DistinctParty::DistinctParty(const core::DistinctWave::Params& params,
                             int instances, std::uint64_t shared_seed)
    : field_(core::DistinctWave::field_dimension(params)) {
  assert(instances >= 1);
  gf2::SharedRandomness coins(shared_seed);
  waves_.reserve(static_cast<std::size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    waves_.emplace_back(params, field_, coins);
  }
}

void DistinctParty::observe(std::uint64_t value) {
  const auto lock = lock_tracked(mu_, obs_);
  for (core::DistinctWave& w : waves_) w.update(value);
  if constexpr (obs::kEnabled) {
    const std::uint64_t n = waves_.front().pos();
    if ((n & kFlushMask) == 0) obs_.flush(n, space_bits_locked());
  }
}

void DistinctParty::observe_batch(std::span<const std::uint64_t> values) {
  if (values.empty()) return;
  const auto lock = lock_tracked(mu_, obs_);
  for (core::DistinctWave& w : waves_) w.update_batch(values);
  if constexpr (obs::kEnabled) {
    obs_.flush(waves_.front().pos(), space_bits_locked());
  }
}

std::vector<core::DistinctSnapshot> DistinctParty::snapshots(
    std::uint64_t n) const {
  const auto lock = lock_tracked(mu_, obs_);
  std::vector<core::DistinctSnapshot> out;
  out.reserve(waves_.size());
  for (const core::DistinctWave& w : waves_) out.push_back(w.snapshot(n));
  obs_.flush(waves_.front().pos(), space_bits_locked());
  return out;
}

std::uint64_t DistinctParty::items_observed() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return waves_.empty() ? 0 : waves_.front().pos();
}

std::uint64_t DistinctParty::space_bits_locked() const noexcept {
  std::uint64_t bits = 0;
  for (const core::DistinctWave& w : waves_) bits += w.space_bits();
  return bits;
}

std::uint64_t DistinctParty::space_bits() const noexcept {
  return space_bits_locked();
}

DistinctPartyCheckpoint DistinctParty::checkpoint() const {
  const auto lock = lock_tracked(mu_, obs_);
  DistinctPartyCheckpoint ck;
  ck.cursor = waves_.empty() ? 0 : waves_.front().pos();
  ck.waves.reserve(waves_.size());
  for (const core::DistinctWave& w : waves_) ck.waves.push_back(w.checkpoint());
  return ck;
}

bool DistinctParty::restore(const DistinctPartyCheckpoint& ck) {
  const auto lock = lock_tracked(mu_, obs_);
  if (ck.waves.size() != waves_.size()) return false;
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    const auto levels = static_cast<std::size_t>(waves_[i].top_level()) + 1;
    if (ck.waves[i].levels.size() != levels ||
        ck.waves[i].evicted_bounds.size() != levels) {
      return false;
    }
  }
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    waves_[i].restore(ck.waves[i]);
  }
  return true;
}

}  // namespace waves::distributed
