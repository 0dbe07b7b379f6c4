#include "core/ts_wave.hpp"

#include <cassert>

#include "util/simd.hpp"

namespace waves::core {

namespace {

std::vector<std::uint32_t> ts_capacities(std::uint64_t inv_eps,
                                         std::uint64_t max_per_window) {
  const int ell = util::det_wave_levels(inv_eps, max_per_window);
  const auto full = static_cast<std::uint32_t>(inv_eps + 1);
  const std::uint32_t half = (full + 1) / 2;
  std::vector<std::uint32_t> caps(static_cast<std::size_t>(ell), half);
  caps.back() = full;
  return caps;
}

}  // namespace

TsWave::TsWave(std::uint64_t inv_eps, std::uint64_t window,
               std::uint64_t max_per_window)
    : inv_eps_(inv_eps),
      window_(window),
      max_per_window_(max_per_window),
      pool_(ts_capacities(inv_eps, max_per_window)) {
  assert(inv_eps >= 1 && window >= 1 && max_per_window >= 1);
  fprev_.assign(pool_.total_slots(), kNil);
  fnext_.assign(pool_.total_slots(), kNil);
  is_first_.assign(pool_.total_slots(), false);
}

void TsWave::expire_position() {
  // The list head is always the first listed item of the oldest position;
  // unlink that position's whole run in O(1) via the segment list.
  const std::int32_t f = pool_.head();
  assert(f != kNil && is_first_[static_cast<std::size_t>(f)]);
  const std::int32_t nf = fnext_[static_cast<std::size_t>(f)];
  const std::int32_t last = (nf == kNil) ? pool_.tail() : pool_.prev(nf);
  discarded_rank_ = pool_.entry(last).rank;
  pool_.unlink_prefix(last);
  first_head_ = nf;
  if (nf == kNil) {
    first_tail_ = kNil;
  } else {
    fprev_[static_cast<std::size_t>(nf)] = kNil;
  }
}

void TsWave::splice_first_bookkeeping(std::int32_t victim) {
  // Fig. 4 step 3(b) is about to splice `victim` out of L; keep the
  // first-item segment list consistent (Sec. 3.2, duplicated positions).
  if (!is_first_[static_cast<std::size_t>(victim)]) return;
  const auto v = static_cast<std::size_t>(victim);
  const std::int32_t nxt = pool_.next(victim);
  const std::int32_t fp = fprev_[v];
  const std::int32_t fn = fnext_[v];
  if (nxt != kNil && pool_.entry(nxt).pos == pool_.entry(victim).pos) {
    // The next item of the same position inherits first-item status.
    const auto nx = static_cast<std::size_t>(nxt);
    is_first_[nx] = true;
    fprev_[nx] = fp;
    fnext_[nx] = fn;
    if (fp != kNil) {
      fnext_[static_cast<std::size_t>(fp)] = nxt;
    } else {
      first_head_ = nxt;
    }
    if (fn != kNil) {
      fprev_[static_cast<std::size_t>(fn)] = nxt;
    } else {
      first_tail_ = nxt;
    }
  } else {
    // Position has no other listed item: drop it from the segment list.
    if (fp != kNil) {
      fnext_[static_cast<std::size_t>(fp)] = fn;
    } else {
      first_head_ = fn;
    }
    if (fn != kNil) {
      fprev_[static_cast<std::size_t>(fn)] = fp;
    } else {
      first_tail_ = fp;
    }
  }
  is_first_[v] = false;
}

void TsWave::mark_inserted(std::int32_t idx, std::uint64_t pos) {
  const auto i = static_cast<std::size_t>(idx);
  const std::int32_t before = pool_.prev(idx);
  if (before != kNil && pool_.entry(before).pos == pos) {
    is_first_[i] = false;
    fprev_[i] = fnext_[i] = kNil;
    return;
  }
  is_first_[i] = true;
  fprev_[i] = first_tail_;
  fnext_[i] = kNil;
  if (first_tail_ != kNil) {
    fnext_[static_cast<std::size_t>(first_tail_)] = idx;
  } else {
    first_head_ = idx;
  }
  first_tail_ = idx;
}

void TsWave::update(std::uint64_t pos, bool bit) {
  assert(pos >= pos_ && "positions must be nondecreasing");
  ++change_cursor_;
  pos_ = pos;
  // Expire whole positions that left the window. With consecutive
  // positions at most one position expires per item (O(1) worst case);
  // the loop also tolerates gaps.
  while (!pool_.empty() &&
         pool_.entry(pool_.head()).pos + window_ <= pos_) {
    expire_position();
  }
  if (!bit) return;
  ++rank_;
  int j = util::rank_level(rank_);
  const int top = pool_.levels() - 1;
  if (j > top) j = top;
  if (pool_.victim_in_list(j)) {
    splice_first_bookkeeping(pool_.peek_victim(j));
  }
  const std::int32_t idx = pool_.insert(j, Entry{pos_, rank_});
  mark_inserted(idx, pos_);
}

void TsWave::update_words(std::span<const std::uint64_t> words,
                          std::uint64_t count) {
  assert(count <= words.size() * 64);
  ++change_cursor_;
  const int top = pool_.levels() - 1;
  std::size_t wi = 0;
  std::uint64_t remaining = count;
  while (remaining > 0) {
    // Zero positions only advance the clock; their expiries are covered by
    // the next 1-bit's scan (or the trailing sweep), so whole-zero words
    // are swallowed by one vector scan.
    if (remaining >= 64) {
      const std::size_t zw =
          util::simd::zero_prefix_words(words.data() + wi, remaining / 64);
      wi += zw;
      pos_ += zw * 64;
      remaining -= zw * 64;
      if (remaining == 0) break;
    }
    const int valid = remaining < 64 ? static_cast<int>(remaining) : 64;
    std::uint64_t w = words[wi] & util::low_bits_mask(valid);
    const std::uint64_t base = pos_;
    // Ranks are consecutive across the word's 1-bits: level the whole word
    // with one ctz kernel call (level of rank r = min(ctz(r), top)).
    std::uint8_t lvl[64];
    util::simd::ctz_run(rank_ + 1, lvl,
                        static_cast<std::size_t>(util::popcount(w)));
    std::size_t li = 0;
    while (w != 0) {
      const int b = util::lsb_index(w);
      w &= w - 1;
      pos_ = base + static_cast<std::uint64_t>(b) + 1;
      while (!pool_.empty() &&
             pool_.entry(pool_.head()).pos + window_ <= pos_) {
        expire_position();
      }
      ++rank_;
      int j = static_cast<int>(lvl[li++]);
      if (j > top) j = top;
      assert(j == (util::rank_level(rank_) > top ? top
                                                 : util::rank_level(rank_)));
      if (pool_.victim_in_list(j)) {
        splice_first_bookkeeping(pool_.peek_victim(j));
      }
      const std::int32_t idx = pool_.insert(j, Entry{pos_, rank_});
      mark_inserted(idx, pos_);
    }
    pos_ = base + static_cast<std::uint64_t>(valid);
    remaining -= static_cast<std::uint64_t>(valid);
    ++wi;
  }
  while (!pool_.empty() && pool_.entry(pool_.head()).pos + window_ <= pos_) {
    expire_position();
  }
}

Estimate TsWave::query() const { return query(window_); }

Estimate TsWave::query(std::uint64_t n) const {
  assert(n >= 1 && n <= window_);
  if (n >= pos_) {
    return Estimate{static_cast<double>(rank_), true, n};
  }
  const std::uint64_t s = pos_ - n + 1;

  std::uint64_t r1 = discarded_rank_;
  bool have_p2 = false;
  std::uint64_t p2 = 0, r2 = 0;
  for (std::int32_t i = pool_.head(); i != kNil; i = pool_.next(i)) {
    const Entry& e = pool_.entry(i);
    if (e.pos < s) {
      r1 = e.rank;  // largest rank among positions below s seen so far
    } else {
      have_p2 = true;
      p2 = e.pos;
      r2 = e.rank;  // smallest rank at p2: the first listed item of p2
      break;
    }
  }
  if (!have_p2) {
    return Estimate{0.0, true, n};
  }
  // Deviation from Fig. 4: the paper returns rank + 1 - r2 as *exact* when
  // p2 == s. With duplicated positions r2 is only the smallest *stored*
  // rank at p2 — an earlier item of that position may have been discarded
  // in step 3(b) — so that value can undercount. The midpoint rule below is
  // within the Corollary 1 error bound in every case, so we use it
  // unconditionally.
  (void)p2;
  if (r2 == r1 + 1) {
    // Width-zero bracket: the count is exactly rank - r1 (the true last
    // rank before the window lies in [r1, r2 - 1] = {r1}).
    return Estimate{static_cast<double>(rank_ - r1), true, n};
  }
  return Estimate{static_cast<double>(rank_) + 1.0 -
                      (static_cast<double>(r1) + static_cast<double>(r2)) / 2.0,
                  false, n};
}

std::uint64_t TsWave::space_bits() const noexcept {
  const std::uint64_t np = util::next_pow2_at_least(2 * max_per_window_);
  const auto word = static_cast<std::uint64_t>(util::floor_log2(np));
  const auto off =
      static_cast<std::uint64_t>(util::ceil_log2(pool_.total_slots() + 1));
  return 2 * word + pool_.total_slots() * (2 * word + 4 * off + 1);
}

}  // namespace waves::core
