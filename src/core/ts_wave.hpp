// The duplicated-positions wave of Corollary 1 (end of Sec. 3.2).
//
// Stream items are (position, bit) pairs whose positions are consecutive
// integers *with possible repetitions* (timestamps), arriving in
// nondecreasing order; the window is the last N positions and U bounds the
// number of items any window can hold. The wave has ceil(log2(2 eps U))
// levels, and — since every item of an expiring position leaves the window
// at once — a doubly-linked list over the *first* item of each position
// lets a whole run be discarded in O(1), preserving the O(1) worst-case
// update of Theorem 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/wave_common.hpp"
#include "util/bitops.hpp"
#include "util/level_pool.hpp"
#include "util/packed_bits.hpp"

namespace waves::core {

class TsWave {
 public:
  /// @param inv_eps        1/eps as an integer >= 1.
  /// @param window         maximum window size N in positions.
  /// @param max_per_window U: most items any window of N positions holds.
  TsWave(std::uint64_t inv_eps, std::uint64_t window,
         std::uint64_t max_per_window);

  /// Process one (position, bit) item; `pos` must be >= the previous
  /// position. O(1) worst case when positions advance by at most one.
  void update(std::uint64_t pos, bool bit);

  /// Process `count` bits packed 64 per word, LSB first, at consecutive
  /// positions current_position()+1 .. current_position()+count (one item
  /// per position). Bit-exact with the equivalent update() calls; zero
  /// runs cost O(#positions expired), not O(run length).
  void update_words(std::span<const std::uint64_t> words, std::uint64_t count);
  void update_batch(const util::PackedBitStream& bits) {
    update_words(bits.words(), bits.size());
  }

  /// Count estimate over the last N positions. O(1).
  [[nodiscard]] Estimate query() const;

  /// Count estimate over the last n <= N positions.
  /// O((1/eps) log(eps U)) worst case.
  [[nodiscard]] Estimate query(std::uint64_t n) const;

  [[nodiscard]] std::uint64_t current_position() const noexcept { return pos_; }
  [[nodiscard]] std::uint64_t rank() const noexcept { return rank_; }
  [[nodiscard]] int levels() const noexcept { return pool_.levels(); }
  [[nodiscard]] std::uint64_t largest_discarded_rank() const noexcept {
    return discarded_rank_;
  }
  [[nodiscard]] std::uint64_t space_bits() const noexcept;

  /// Monotone mutation counter (see DetWave::change_cursor).
  [[nodiscard]] std::uint64_t change_cursor() const noexcept {
    return change_cursor_;
  }


 private:
  struct Entry {
    std::uint64_t pos;
    std::uint64_t rank;
  };
  static constexpr std::int32_t kNil = util::LevelPool<Entry>::kNil;

  void expire_position();
  void splice_first_bookkeeping(std::int32_t victim);
  void mark_inserted(std::int32_t idx, std::uint64_t pos);

  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t max_per_window_;
  std::uint64_t pos_ = 0;   // current (latest) position
  std::uint64_t rank_ = 0;  // number of 1-items seen
  std::uint64_t discarded_rank_ = 0;
  std::uint64_t change_cursor_ = 0;
  util::LevelPool<Entry> pool_;
  // Segment list across the first listed item of each position.
  std::vector<std::int32_t> fprev_, fnext_;
  std::vector<bool> is_first_;
  std::int32_t first_head_ = kNil;
  std::int32_t first_tail_ = kNil;
};

}  // namespace waves::core
