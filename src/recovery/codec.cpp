#include "recovery/checkpoint.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "obs/recovery_obs.hpp"

namespace waves::recovery {

namespace {

using distributed::get_varint;
using distributed::put_varint;

// Incremental growth for attacker-length-prefixed vectors, mirroring
// wire.cpp: reserve at most what the remaining bytes could possibly hold.
constexpr std::size_t kReserveCap = 64;

bool consumed(const Bytes& in, std::size_t at) { return at == in.size(); }

// CRC-64/XZ: reflected ECMA-182 polynomial.
constexpr std::uint64_t kCrcPoly = 0xC96C5795D7870F42ull;

std::array<std::uint64_t, 256> make_crc_table() {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (c >> 1) ^ kCrcPoly : c >> 1;
    }
    t[static_cast<std::size_t>(i)] = c;
  }
  return t;
}

}  // namespace

std::uint64_t crc64(std::span<const std::uint8_t> data) {
  static const std::array<std::uint64_t, 256> table = make_crc_table();
  std::uint64_t c = ~std::uint64_t{0};
  for (const std::uint8_t b : data) {
    c = table[static_cast<std::size_t>((c ^ b) & 0xFF)] ^ (c >> 8);
  }
  return ~c;
}

// -- Wave bodies -----------------------------------------------------------

void put_checkpoint(Bytes& out, const core::DetWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.rank);
  put_varint(out, ck.discarded_rank);
  put_varint(out, ck.entries.size());
  // Positions and ranks both ascend in list order: delta-encode each.
  std::uint64_t pp = 0, pr = 0;
  for (const auto& [p, r] : ck.entries) {
    put_varint(out, p - pp);
    put_varint(out, r - pr);
    pp = p;
    pr = r;
  }
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::DetWaveCheckpoint& out) {
  core::DetWaveCheckpoint ck;
  std::uint64_t count = 0;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, ck.rank) ||
      !get_varint(in, at, ck.discarded_rank) || !get_varint(in, at, count) ||
      count > in.size() - at) {
    return false;
  }
  ck.entries.reserve(std::min<std::size_t>(count, kReserveCap));
  std::uint64_t pp = 0, pr = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t dp = 0, dr = 0;
    if (!get_varint(in, at, dp) || !get_varint(in, at, dr)) return false;
    pp += dp;
    pr += dr;
    ck.entries.emplace_back(pp, pr);
  }
  out = std::move(ck);
  return true;
}

namespace {

// SumWave and TsSumWave share an entry layout (pos, value, z) and the same
// monotonicity: positions nondecreasing, z strictly increasing.
void put_sum_entries(Bytes& out,
                     const std::vector<core::SumEntryCheckpoint>& entries) {
  put_varint(out, entries.size());
  std::uint64_t pp = 0, pz = 0;
  for (const core::SumEntryCheckpoint& e : entries) {
    put_varint(out, e.pos - pp);
    put_varint(out, e.value);
    put_varint(out, e.z - pz);
    pp = e.pos;
    pz = e.z;
  }
}

bool get_sum_entries(const Bytes& in, std::size_t& at,
                     std::vector<core::SumEntryCheckpoint>& entries) {
  std::uint64_t count = 0;
  if (!get_varint(in, at, count) || count > in.size() - at) return false;
  entries.reserve(std::min<std::size_t>(count, kReserveCap));
  std::uint64_t pp = 0, pz = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t dp = 0, v = 0, dz = 0;
    if (!get_varint(in, at, dp) || !get_varint(in, at, v) ||
        !get_varint(in, at, dz)) {
      return false;
    }
    pp += dp;
    pz += dz;
    // restore() recomputes the level from z - value.
    if (v > pz) return false;
    entries.push_back(core::SumEntryCheckpoint{pp, v, pz});
  }
  return true;
}

}  // namespace

void put_checkpoint(Bytes& out, const core::SumWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.total);
  put_varint(out, ck.discarded_z);
  put_sum_entries(out, ck.entries);
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::SumWaveCheckpoint& out) {
  core::SumWaveCheckpoint ck;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, ck.total) ||
      !get_varint(in, at, ck.discarded_z) ||
      !get_sum_entries(in, at, ck.entries)) {
    return false;
  }
  out = std::move(ck);
  return true;
}

void put_checkpoint(Bytes& out, const core::TsWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.rank);
  put_varint(out, ck.discarded_rank);
  put_varint(out, ck.entries.size());
  std::uint64_t pp = 0, pr = 0;
  for (const auto& [p, r] : ck.entries) {
    put_varint(out, p - pp);  // nondecreasing: deltas may be 0
    put_varint(out, r - pr);
    pp = p;
    pr = r;
  }
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::TsWaveCheckpoint& out) {
  core::TsWaveCheckpoint ck;
  std::uint64_t count = 0;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, ck.rank) ||
      !get_varint(in, at, ck.discarded_rank) || !get_varint(in, at, count) ||
      count > in.size() - at) {
    return false;
  }
  ck.entries.reserve(std::min<std::size_t>(count, kReserveCap));
  std::uint64_t pp = 0, pr = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t dp = 0, dr = 0;
    if (!get_varint(in, at, dp) || !get_varint(in, at, dr)) return false;
    pp += dp;
    pr += dr;
    ck.entries.emplace_back(pp, pr);
  }
  out = std::move(ck);
  return true;
}

void put_checkpoint(Bytes& out, const core::TsSumWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.total);
  put_varint(out, ck.discarded_z);
  put_sum_entries(out, ck.entries);
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::TsSumWaveCheckpoint& out) {
  core::TsSumWaveCheckpoint ck;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, ck.total) ||
      !get_varint(in, at, ck.discarded_z) ||
      !get_sum_entries(in, at, ck.entries)) {
    return false;
  }
  out = std::move(ck);
  return true;
}

void put_checkpoint(Bytes& out, const core::RandWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.queues.size());
  for (const std::vector<std::uint64_t>& q : ck.queues) {
    put_varint(out, q.size());
    std::uint64_t prev = 0;  // oldest first: ascending, delta-encode
    for (const std::uint64_t p : q) {
      put_varint(out, p - prev);
      prev = p;
    }
  }
  put_varint(out, ck.evicted_bounds.size());
  for (const std::uint64_t b : ck.evicted_bounds) put_varint(out, b);
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::RandWaveCheckpoint& out) {
  core::RandWaveCheckpoint ck;
  std::uint64_t queues = 0;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, queues) ||
      queues > in.size() - at) {
    return false;
  }
  ck.queues.reserve(std::min<std::size_t>(queues, kReserveCap));
  for (std::uint64_t l = 0; l < queues; ++l) {
    std::uint64_t len = 0;
    if (!get_varint(in, at, len) || len > in.size() - at) return false;
    std::vector<std::uint64_t> q;
    q.reserve(std::min<std::size_t>(len, kReserveCap));
    // Strictly ascending, as the referee's merge needs: every delta >= 1,
    // none wrapping past 2^64.
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
      std::uint64_t d = 0;
      if (!get_varint(in, at, d) || d == 0 || d > ~prev) return false;
      prev += d;
      q.push_back(prev);
    }
    ck.queues.push_back(std::move(q));
  }
  std::uint64_t bounds = 0;
  if (!get_varint(in, at, bounds) || bounds > in.size() - at) return false;
  ck.evicted_bounds.reserve(std::min<std::size_t>(bounds, kReserveCap));
  for (std::uint64_t i = 0; i < bounds; ++i) {
    std::uint64_t b = 0;
    if (!get_varint(in, at, b)) return false;
    ck.evicted_bounds.push_back(b);
  }
  out = std::move(ck);
  return true;
}

void put_checkpoint(Bytes& out, const core::DistinctWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.levels.size());
  for (const auto& level : ck.levels) {
    put_varint(out, level.size());
    std::uint64_t prev = 0;  // oldest position first: delta-encode positions
    for (const auto& [value, pos] : level) {
      put_varint(out, value);
      put_varint(out, pos - prev);
      prev = pos;
    }
  }
  put_varint(out, ck.evicted_bounds.size());
  for (const std::uint64_t b : ck.evicted_bounds) put_varint(out, b);
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    core::DistinctWaveCheckpoint& out) {
  core::DistinctWaveCheckpoint ck;
  std::uint64_t levels = 0;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, levels) ||
      levels > in.size() - at) {
    return false;
  }
  ck.levels.reserve(std::min<std::size_t>(levels, kReserveCap));
  for (std::uint64_t l = 0; l < levels; ++l) {
    std::uint64_t len = 0;
    if (!get_varint(in, at, len) || len > in.size() - at) return false;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> level;
    level.reserve(std::min<std::size_t>(len, kReserveCap));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
      std::uint64_t v = 0, d = 0;
      if (!get_varint(in, at, v) || !get_varint(in, at, d)) return false;
      prev += d;
      level.emplace_back(v, prev);
    }
    ck.levels.push_back(std::move(level));
  }
  std::uint64_t bounds = 0;
  if (!get_varint(in, at, bounds) || bounds > in.size() - at) return false;
  ck.evicted_bounds.reserve(std::min<std::size_t>(bounds, kReserveCap));
  for (std::uint64_t i = 0; i < bounds; ++i) {
    std::uint64_t b = 0;
    if (!get_varint(in, at, b)) return false;
    ck.evicted_bounds.push_back(b);
  }
  out = std::move(ck);
  return true;
}

void put_checkpoint(Bytes& out, const agg::AggWaveCheckpoint& ck) {
  put_varint(out, ck.pos);
  put_varint(out, ck.values.size());
  // Window values are arbitrary signed int64s: zigzag so small magnitudes
  // of either sign stay short.
  for (const std::int64_t v : ck.values) {
    put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                        static_cast<std::uint64_t>(v >> 63));
  }
}

bool get_checkpoint(const Bytes& in, std::size_t& at,
                    agg::AggWaveCheckpoint& out) {
  agg::AggWaveCheckpoint ck;
  std::uint64_t count = 0;
  if (!get_varint(in, at, ck.pos) || !get_varint(in, at, count) ||
      count > in.size() - at) {
    return false;
  }
  ck.values.reserve(std::min<std::size_t>(count, kReserveCap));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t u = 0;
    if (!get_varint(in, at, u)) return false;
    ck.values.push_back(
        static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1)));
  }
  out = std::move(ck);
  return true;
}

// -- Party bodies ----------------------------------------------------------

namespace {

template <typename WaveCk>
Bytes encode_party(std::uint64_t cursor, const std::vector<WaveCk>& waves) {
  Bytes out;
  put_varint(out, cursor);
  put_varint(out, waves.size());
  for (const WaveCk& w : waves) put_checkpoint(out, w);
  return out;
}

template <typename WaveCk>
bool decode_party(const Bytes& in, std::uint64_t& cursor,
                  std::vector<WaveCk>& waves) {
  std::size_t at = 0;
  std::uint64_t count = 0;
  if (!get_varint(in, at, cursor) || !get_varint(in, at, count) ||
      count > in.size() - at) {
    return false;
  }
  waves.reserve(std::min<std::size_t>(count, kReserveCap));
  for (std::uint64_t i = 0; i < count; ++i) {
    WaveCk w;
    if (!get_checkpoint(in, at, w)) return false;
    waves.push_back(std::move(w));
  }
  return consumed(in, at);
}

}  // namespace

Bytes encode(const distributed::CountPartyCheckpoint& ck) {
  return encode_party(ck.cursor, ck.waves);
}

Bytes encode(const distributed::DistinctPartyCheckpoint& ck) {
  return encode_party(ck.cursor, ck.waves);
}

Bytes encode(const BasicPartyCheckpoint& ck) {
  Bytes out;
  put_varint(out, ck.cursor);
  put_checkpoint(out, ck.wave);
  return out;
}

Bytes encode(const SumPartyCheckpoint& ck) {
  Bytes out;
  put_varint(out, ck.cursor);
  put_checkpoint(out, ck.wave);
  return out;
}

Bytes encode(const AggPartyCheckpoint& ck) {
  Bytes out;
  put_varint(out, ck.cursor);
  put_checkpoint(out, ck.wave);
  return out;
}

bool decode(const Bytes& in, distributed::CountPartyCheckpoint& out) {
  distributed::CountPartyCheckpoint ck;
  if (!decode_party(in, ck.cursor, ck.waves)) return false;
  out = std::move(ck);
  return true;
}

bool decode(const Bytes& in, distributed::DistinctPartyCheckpoint& out) {
  distributed::DistinctPartyCheckpoint ck;
  if (!decode_party(in, ck.cursor, ck.waves)) return false;
  out = std::move(ck);
  return true;
}

bool decode(const Bytes& in, BasicPartyCheckpoint& out) {
  BasicPartyCheckpoint ck;
  std::size_t at = 0;
  if (!get_varint(in, at, ck.cursor) || !get_checkpoint(in, at, ck.wave) ||
      !consumed(in, at)) {
    return false;
  }
  out = std::move(ck);
  return true;
}

bool decode(const Bytes& in, SumPartyCheckpoint& out) {
  SumPartyCheckpoint ck;
  std::size_t at = 0;
  if (!get_varint(in, at, ck.cursor) || !get_checkpoint(in, at, ck.wave) ||
      !consumed(in, at)) {
    return false;
  }
  out = std::move(ck);
  return true;
}

bool decode(const Bytes& in, AggPartyCheckpoint& out) {
  AggPartyCheckpoint ck;
  std::size_t at = 0;
  if (!get_varint(in, at, ck.cursor) || !get_checkpoint(in, at, ck.wave) ||
      !consumed(in, at)) {
    return false;
  }
  out = std::move(ck);
  return true;
}

// -- Envelope --------------------------------------------------------------

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'W', 'V', 'C', 'K'};

bool valid_kind(std::uint64_t k) {
  return k >= static_cast<std::uint64_t>(StateKind::kCount) &&
         k <= static_cast<std::uint64_t>(StateKind::kAgg);
}

OpenStatus reject(OpenStatus s) {
  obs::RecoveryObs::instance().checkpoints_rejected.add();
  return s;
}

}  // namespace

const char* open_status_name(OpenStatus s) {
  switch (s) {
    case OpenStatus::kOk:
      return "ok";
    case OpenStatus::kTruncated:
      return "truncated";
    case OpenStatus::kBadMagic:
      return "bad-magic";
    case OpenStatus::kBadVersion:
      return "bad-version";
    case OpenStatus::kWrongKind:
      return "wrong-kind";
    case OpenStatus::kBadLength:
      return "bad-length";
    case OpenStatus::kBadCrc:
      return "bad-crc";
  }
  return "unknown";
}

Bytes seal_envelope(StateKind kind, std::uint64_t generation,
                    const Bytes& body) {
  Bytes head;
  put_varint(head, kEnvelopeVersion);
  put_varint(head, static_cast<std::uint64_t>(kind));
  put_varint(head, generation);
  put_varint(head, body.size());
  // Assembled with memcpy into a pre-sized buffer (not insert) to sidestep
  // a GCC 12 -Wstringop-overflow false positive on chained vector inserts.
  Bytes out(kMagic.size() + head.size() + body.size());
  std::memcpy(out.data(), kMagic.data(), kMagic.size());
  std::memcpy(out.data() + kMagic.size(), head.data(), head.size());
  if (!body.empty()) {
    std::memcpy(out.data() + kMagic.size() + head.size(), body.data(),
                body.size());
  }
  distributed::put_fixed64(out, crc64(out));
  return out;
}

OpenStatus open_envelope(const Bytes& in, StateKind expected,
                         std::uint64_t& generation, Bytes& body) {
  // The CRC trailer is checked first: it covers every header byte, so any
  // torn write fails here before the fields are even interpreted.
  if (in.size() < kMagic.size() + 8) return reject(OpenStatus::kTruncated);
  const std::size_t crc_at = in.size() - 8;
  std::size_t tmp_at = crc_at;
  std::uint64_t stored_crc = 0;
  (void)distributed::get_fixed64(in, tmp_at, stored_crc);
  if (crc64(std::span(in.data(), crc_at)) != stored_crc) {
    return reject(OpenStatus::kBadCrc);
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), in.begin())) {
    return reject(OpenStatus::kBadMagic);
  }
  std::size_t at = kMagic.size();
  std::uint64_t version = 0, kind = 0, gen = 0, body_len = 0;
  if (!get_varint(in, at, version) || !get_varint(in, at, kind) ||
      !get_varint(in, at, gen) || !get_varint(in, at, body_len)) {
    return reject(OpenStatus::kTruncated);
  }
  if (version != kEnvelopeVersion) return reject(OpenStatus::kBadVersion);
  if (!valid_kind(kind)) return reject(OpenStatus::kWrongKind);
  if (static_cast<StateKind>(kind) != expected) {
    return reject(OpenStatus::kWrongKind);
  }
  if (body_len != crc_at - at) return reject(OpenStatus::kBadLength);
  generation = gen;
  body.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
              in.begin() + static_cast<std::ptrdiff_t>(crc_at));
  return OpenStatus::kOk;
}

}  // namespace recovery
