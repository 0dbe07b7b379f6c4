#include "distributed/wire.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace waves::distributed {

namespace {

// Every decode failure is counted; the referee's per-round span carries the
// same signal as a decode_failures attribute.
bool decode_fail() {
  static const obs::Counter& errors =
      obs::Registry::instance().counter("waves_wire_decode_errors_total");
  errors.add();
  return false;
}

}  // namespace

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(const Bytes& in, std::size_t& at, std::uint64_t& v) {
  // A canonical 64-bit varint spans at most 10 bytes; the 10th (shift 63)
  // may carry only the single remaining bit. Non-canonical input — overlong
  // zero-padding or overflow bits past 64 — is a decode failure, not a
  // silent truncation: the value a sender meant and the value we'd compute
  // would differ, which for snapshot positions means a wrong estimate.
  v = 0;
  std::size_t p = at;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p >= in.size()) return decode_fail();  // truncated
    const std::uint8_t b = in[p++];
    if (shift == 63 && (b & 0xFEu) != 0) return decode_fail();  // overflow
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      if (b == 0 && shift != 0) return decode_fail();  // overlong padding
      at = p;
      return true;
    }
  }
  return decode_fail();  // continuation bit set on the 10th byte
}

void put_fixed64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

bool get_fixed64(const Bytes& in, std::size_t& at, std::uint64_t& v) {
  if (in.size() - at < 8 || at > in.size()) return decode_fail();
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  at += 8;
  return true;
}

void encode_into(Bytes& out, const core::RandWaveSnapshot& s) {
  put_varint(out, static_cast<std::uint64_t>(s.level));
  put_varint(out, s.stream_len);
  put_varint(out, s.positions.size());
  // Positions arrive oldest-first (sorted ascending): delta-encode.
  std::uint64_t prev = 0;
  for (std::uint64_t p : s.positions) {
    put_varint(out, p - prev);
    prev = p;
  }
}

Bytes encode(const core::RandWaveSnapshot& s) {
  Bytes out;
  encode_into(out, s);
  return out;
}

bool decode(const Bytes& in, core::RandWaveSnapshot& out) {
  // Decode into a scratch snapshot so a truncated or corrupt message never
  // leaves a partial result in `out`. Varint failures are already counted
  // by get_varint; only failures it cannot see count here.
  core::RandWaveSnapshot tmp;
  std::size_t at = 0;
  std::uint64_t level = 0, count = 0;
  if (!get_varint(in, at, level)) return false;
  if (!get_varint(in, at, tmp.stream_len)) return false;
  if (!get_varint(in, at, count)) return false;
  // Every position costs at least one byte: reject counts the remaining
  // input cannot possibly hold (also bounds the reserve below, so corrupt
  // input cannot trigger huge allocations).
  if (count > in.size() - at) return decode_fail();
  tmp.level = static_cast<int>(level);
  tmp.positions.reserve(count);
  // Positions ascend strictly (the referee's merge relies on it): every
  // delta is >= 1 and none may wrap past 2^64.
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t d = 0;
    if (!get_varint(in, at, d)) return false;
    if (d == 0 || d > ~prev) return decode_fail();
    prev += d;
    tmp.positions.push_back(prev);
  }
  if (at != in.size()) return decode_fail();
  out = std::move(tmp);
  return true;
}

void encode_into(Bytes& out, const core::DistinctSnapshot& s) {
  put_varint(out, static_cast<std::uint64_t>(s.level));
  put_varint(out, s.stream_len);
  put_varint(out, s.items.size());
  // Items arrive oldest-position-first: delta-encode positions, raw values.
  std::uint64_t prev = 0;
  for (const auto& [value, pos] : s.items) {
    put_varint(out, pos - prev);
    prev = pos;
    put_varint(out, value);
  }
}

Bytes encode(const core::DistinctSnapshot& s) {
  Bytes out;
  encode_into(out, s);
  return out;
}

bool decode(const Bytes& in, core::DistinctSnapshot& out) {
  core::DistinctSnapshot tmp;
  std::size_t at = 0;
  std::uint64_t level = 0, count = 0;
  if (!get_varint(in, at, level)) return false;
  if (!get_varint(in, at, tmp.stream_len)) return false;
  if (!get_varint(in, at, count)) return false;
  // Each item costs at least two bytes (delta + value varints).
  if (count > (in.size() - at) / 2) return decode_fail();
  tmp.level = static_cast<int>(level);
  tmp.items.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t d = 0, value = 0;
    if (!get_varint(in, at, d)) return false;
    if (!get_varint(in, at, value)) return false;
    prev += d;
    tmp.items.emplace_back(value, prev);
  }
  if (at != in.size()) return decode_fail();
  out = std::move(tmp);
  return true;
}

namespace {

// Shared shape of the two snapshot-vector codecs: count, then each
// instance's single-snapshot encoding behind a length prefix. The scratch
// for one instance's encoding is per-thread so steady-state queries stop
// allocating once its capacity covers the largest instance seen.
template <class Snapshot>
void encode_vec_into(Bytes& out, std::span<const Snapshot> snaps) {
  static thread_local Bytes one;
  put_varint(out, snaps.size());
  for (const Snapshot& s : snaps) {
    one.clear();
    encode_into(one, s);
    put_varint(out, one.size());
    out.insert(out.end(), one.begin(), one.end());
  }
}

template <class Snapshot>
bool decode_vec(const Bytes& in, std::vector<Snapshot>& out) {
  std::size_t at = 0;
  std::uint64_t count = 0;
  if (!get_varint(in, at, count)) return false;
  // Each instance costs at least one length byte. That only caps `count`
  // at the payload size (up to the 64 MiB frame limit), so grow the vector
  // as entries actually decode instead of preallocating `count` snapshots —
  // a corrupt count must not buy a multi-GB allocation up front.
  if (count > in.size() - at) return decode_fail();
  std::vector<Snapshot> tmp;
  tmp.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, 64)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!get_varint(in, at, len)) return false;
    if (len > in.size() - at) return decode_fail();
    const Bytes one(in.begin() + static_cast<std::ptrdiff_t>(at),
                    in.begin() + static_cast<std::ptrdiff_t>(at + len));
    Snapshot s;
    if (!decode(one, s)) return false;
    tmp.push_back(std::move(s));
    at += len;
  }
  if (at != in.size()) return decode_fail();
  out = std::move(tmp);
  return true;
}

}  // namespace

void encode_into(Bytes& out, std::span<const core::RandWaveSnapshot> snaps) {
  encode_vec_into(out, snaps);
}

void encode_into(Bytes& out, std::span<const core::DistinctSnapshot> snaps) {
  encode_vec_into(out, snaps);
}

Bytes encode(std::span<const core::RandWaveSnapshot> snaps) {
  Bytes out;
  encode_vec_into(out, snaps);
  return out;
}

bool decode_snapshots(const Bytes& in,
                      std::vector<core::RandWaveSnapshot>& out) {
  return decode_vec(in, out);
}

Bytes encode(std::span<const core::DistinctSnapshot> snaps) {
  Bytes out;
  encode_vec_into(out, snaps);
  return out;
}

bool decode_snapshots(const Bytes& in,
                      std::vector<core::DistinctSnapshot>& out) {
  return decode_vec(in, out);
}

}  // namespace waves::distributed
