// Sums of bounded integers over *timestamp* sliding windows — the natural
// composition of the duplicated-positions machinery (Corollary 1) with the
// sum wave (Theorem 3). The paper develops each separately; the telecom
// scenario in its introduction ("processing is done only on recent call
// records") needs exactly this combination: items (timestamp, value) with
// nondecreasing, repeating timestamps, querying the sum over the last N
// time units.
//
// Structure: one entry per nonzero item, (pos, v, z) with z the running
// total, placed at the level of the highest power of two crossed by
// (total, total + v] (the Theorem 3 bit trick); a first-item segment list
// expires a whole timestamp's run in O(1) (the Corollary 1 trick). With U
// bounding the items per window and S = U * R the window-sum bound, levels
// number ceil(log2(2 eps S)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/wave_common.hpp"
#include "util/bitops.hpp"
#include "util/level_pool.hpp"

namespace waves::core {

class TsSumWave {
 public:
  /// @param inv_eps        1/eps as an integer >= 1.
  /// @param window         N, in positions (time units).
  /// @param max_per_window U: most items in any window of N positions.
  /// @param max_value      R: values lie in [0..R]. 2*U*R must fit 63 bits.
  TsSumWave(std::uint64_t inv_eps, std::uint64_t window,
            std::uint64_t max_per_window, std::uint64_t max_value);

  /// Process one item; positions must be nondecreasing. O(1) worst case
  /// when positions advance by at most one.
  void update(std::uint64_t pos, std::uint64_t value);

  /// Advance the clock by `count` positions with no items — a timestamp
  /// gap. Equivalent to update(current_position() + count, 0) and to any
  /// sequence of zero-valued items over those positions; costs
  /// O(#positions expired), not O(count).
  void skip_zeros(std::uint64_t count);

  /// Process `count` unit-spaced 0/1-valued items packed 64 per word (LSB
  /// first): bit i means one item of value 1 at position
  /// current_position() + i + 1; a clear bit is a positions-only tick.
  /// State-identical to the equivalent update()/skip_zeros() sequence; zero
  /// runs cost one vector scan per word.
  void update_words(std::span<const std::uint64_t> words, std::uint64_t count);

  /// Sum estimate over the last n <= N positions.
  [[nodiscard]] Estimate query(std::uint64_t n) const;
  [[nodiscard]] Estimate query() const { return query(window_); }

  [[nodiscard]] std::uint64_t current_position() const noexcept { return pos_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] int levels() const noexcept { return pool_.levels(); }
  [[nodiscard]] std::uint64_t space_bits() const noexcept;

  /// Monotone mutation counter (see DetWave::change_cursor).
  [[nodiscard]] std::uint64_t change_cursor() const noexcept {
    return change_cursor_;
  }


 private:
  struct Entry {
    std::uint64_t pos;
    std::uint64_t value;
    std::uint64_t z;
  };
  static constexpr std::int32_t kNil = util::LevelPool<Entry>::kNil;

  [[nodiscard]] int level_for(std::uint64_t value) const noexcept;
  void expire_position();
  void splice_first_bookkeeping(std::int32_t victim);
  void mark_inserted(std::int32_t idx, std::uint64_t pos);

  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t max_value_;
  std::uint64_t mask_;  // N' - 1 with N' >= 2*U*R
  std::uint64_t pos_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t discarded_z_ = 0;
  std::uint64_t change_cursor_ = 0;
  util::LevelPool<Entry> pool_;
  std::vector<std::int32_t> fprev_, fnext_;
  std::vector<bool> is_first_;
  std::int32_t first_head_ = kNil;
  std::int32_t first_tail_ = kNil;
};

}  // namespace waves::core
