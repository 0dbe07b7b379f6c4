#include "core/ts_sum_wave.hpp"

#include <cassert>

#include "util/simd.hpp"

namespace waves::core {

namespace {

std::vector<std::uint32_t> caps_for(std::uint64_t inv_eps,
                                    std::uint64_t max_per_window,
                                    std::uint64_t max_value) {
  const int ell =
      util::sum_wave_levels(inv_eps, max_per_window, max_value);
  return std::vector<std::uint32_t>(static_cast<std::size_t>(ell),
                                    static_cast<std::uint32_t>(inv_eps + 1));
}

}  // namespace

TsSumWave::TsSumWave(std::uint64_t inv_eps, std::uint64_t window,
                     std::uint64_t max_per_window, std::uint64_t max_value)
    : inv_eps_(inv_eps),
      window_(window),
      max_value_(max_value),
      pool_(caps_for(inv_eps, max_per_window, max_value)) {
  assert(inv_eps >= 1 && window >= 1 && max_per_window >= 1 &&
         max_value >= 1);
  assert(max_per_window <= (std::uint64_t{1} << 62) / max_value &&
         "2*U*R must fit in 63 bits");
  mask_ = util::next_pow2_at_least(2 * max_per_window * max_value) - 1;
  fprev_.assign(pool_.total_slots(), kNil);
  fnext_.assign(pool_.total_slots(), kNil);
  is_first_.assign(pool_.total_slots(), false);
}

int TsSumWave::level_for(std::uint64_t value) const noexcept {
  const int top = pool_.levels() - 1;
  const std::uint64_t t = total_ & mask_;
  const std::uint64_t g = t + value;
  if (g > mask_) return top;
  const std::uint64_t h = (~t) & g & mask_;
  const int j = util::msb_index(h);
  return j > top ? top : j;
}

void TsSumWave::expire_position() {
  const std::int32_t f = pool_.head();
  assert(f != kNil && is_first_[static_cast<std::size_t>(f)]);
  const std::int32_t nf = fnext_[static_cast<std::size_t>(f)];
  const std::int32_t last = (nf == kNil) ? pool_.tail() : pool_.prev(nf);
  discarded_z_ = pool_.entry(last).z;
  pool_.unlink_prefix(last);
  first_head_ = nf;
  if (nf == kNil) {
    first_tail_ = kNil;
  } else {
    fprev_[static_cast<std::size_t>(nf)] = kNil;
  }
}

void TsSumWave::splice_first_bookkeeping(std::int32_t victim) {
  if (!is_first_[static_cast<std::size_t>(victim)]) return;
  const auto v = static_cast<std::size_t>(victim);
  const std::int32_t nxt = pool_.next(victim);
  const std::int32_t fp = fprev_[v];
  const std::int32_t fn = fnext_[v];
  if (nxt != kNil && pool_.entry(nxt).pos == pool_.entry(victim).pos) {
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

void TsSumWave::mark_inserted(std::int32_t idx, std::uint64_t pos) {
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

void TsSumWave::update(std::uint64_t pos, std::uint64_t value) {
  assert(pos >= pos_ && "positions must be nondecreasing");
  assert(value <= max_value_);
  ++change_cursor_;
  pos_ = pos;
  while (!pool_.empty() &&
         pool_.entry(pool_.head()).pos + window_ <= pos_) {
    expire_position();
  }
  if (value == 0) return;
  const int j = level_for(value);
  total_ += value;
  if (pool_.victim_in_list(j)) {
    splice_first_bookkeeping(pool_.peek_victim(j));
  }
  const std::int32_t idx = pool_.insert(j, Entry{pos_, value, total_});
  mark_inserted(idx, pos_);
}

void TsSumWave::skip_zeros(std::uint64_t count) {
  ++change_cursor_;
  pos_ += count;
  while (!pool_.empty() && pool_.entry(pool_.head()).pos + window_ <= pos_) {
    expire_position();
  }
}

void TsSumWave::update_words(std::span<const std::uint64_t> words,
                             std::uint64_t count) {
  assert(count <= words.size() * 64);
  ++change_cursor_;
  // 0/1 streams specialize Theorem 3's carry mask exactly as in
  // SumWave::update_words: level_at(t, 1) = min(ctz(t+1), top), except that
  // a carry out of the d = log2(N') low bits pins the top level. Totals are
  // consecutive across the word's 1-bits, so one ctz kernel call levels the
  // whole word; zero runs expire lazily at the next 1-bit or batch end,
  // which discards the same positions in the same order as per-item calls.
  const int top = pool_.levels() - 1;
  const int d = util::popcount(mask_);
  std::size_t wi = 0;
  std::uint64_t remaining = count;
  while (remaining > 0) {
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
    std::uint8_t lvl[64];
    util::simd::ctz_run(total_ + 1, lvl,
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
      const int c = static_cast<int>(lvl[li++]);
      const int j = c >= d ? top : (c > top ? top : c);
      assert(j == level_for(1));
      total_ += 1;
      if (pool_.victim_in_list(j)) {
        splice_first_bookkeeping(pool_.peek_victim(j));
      }
      const std::int32_t idx = pool_.insert(j, Entry{pos_, 1, total_});
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

Estimate TsSumWave::query(std::uint64_t n) const {
  assert(n >= 1 && n <= window_);
  if (n >= pos_) {
    return Estimate{static_cast<double>(total_), true, n};
  }
  const std::uint64_t s = pos_ - n + 1;

  std::uint64_t z1 = discarded_z_;
  bool have_p2 = false;
  std::uint64_t v2 = 0, z2 = 0;
  for (std::int32_t i = pool_.head(); i != kNil; i = pool_.next(i)) {
    const Entry& e = pool_.entry(i);
    if (e.pos < s) {
      z1 = e.z;
    } else {
      have_p2 = true;
      v2 = e.value;
      z2 = e.z;
      break;
    }
  }
  if (!have_p2) {
    return Estimate{0.0, true, n};
  }
  // Like the timestamp count wave, never claim boundary exactness: an
  // earlier item of p2's position may have been discarded in step 3(b).
  // Width-zero bracket is still exact.
  if (z1 == z2 - v2) {
    return Estimate{static_cast<double>(total_ - z1), true, n};
  }
  return Estimate{static_cast<double>(total_) -
                      (static_cast<double>(z1) + static_cast<double>(z2) -
                       static_cast<double>(v2)) /
                          2.0,
                  false, n};
}

std::uint64_t TsSumWave::space_bits() const noexcept {
  const auto word = static_cast<std::uint64_t>(util::floor_log2(mask_ + 1));
  const auto off =
      static_cast<std::uint64_t>(util::ceil_log2(pool_.total_slots() + 1));
  return 2 * word + pool_.total_slots() * (3 * word + 4 * off + 1);
}

}  // namespace waves::core
