#include "net/protocol.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace waves::net {

namespace {

using distributed::get_fixed64;
using distributed::get_varint;
using distributed::put_fixed64;
using distributed::put_varint;

// Decoders parse into a scratch value and require full consumption, so a
// failed decode leaves `out` untouched and trailing garbage is rejected.
bool consumed(const Bytes& in, std::size_t at) { return at == in.size(); }

}  // namespace

const char* role_name(PartyRole r) {
  switch (r) {
    case PartyRole::kCount:
      return "count";
    case PartyRole::kDistinct:
      return "distinct";
    case PartyRole::kBasic:
      return "basic";
    case PartyRole::kSum:
      return "sum";
    case PartyRole::kAgg:
      return "agg";
  }
  return "unknown";
}

bool role_from_name(const std::string& name, PartyRole& out) {
  if (name == "count") out = PartyRole::kCount;
  else if (name == "distinct") out = PartyRole::kDistinct;
  else if (name == "basic") out = PartyRole::kBasic;
  else if (name == "sum") out = PartyRole::kSum;
  else if (name == "agg") out = PartyRole::kAgg;
  else return false;
  return true;
}

bool valid_role(std::uint8_t r) {
  return r >= static_cast<std::uint8_t>(PartyRole::kCount) &&
         r <= static_cast<std::uint8_t>(PartyRole::kAgg);
}

Bytes Hello::encode() const {
  Bytes out;
  put_varint(out, client_id);
  return out;
}

bool Hello::decode(const Bytes& in, Hello& out) {
  Hello h;
  std::size_t at = 0;
  if (!get_varint(in, at, h.client_id) || !consumed(in, at)) return false;
  out = h;
  return true;
}

Bytes HelloAck::encode() const {
  Bytes out;
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, party_id);
  put_varint(out, instances);
  put_varint(out, window);
  put_varint(out, items_observed);
  put_varint(out, generation);
  return out;
}

bool HelloAck::decode(const Bytes& in, HelloAck& out) {
  HelloAck a;
  std::size_t at = 0;
  std::uint64_t role = 0;
  if (!get_varint(in, at, role) || role > 0xFF ||
      !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, a.party_id) || !get_varint(in, at, a.instances) ||
      !get_varint(in, at, a.window) ||
      !get_varint(in, at, a.items_observed) ||
      !get_varint(in, at, a.generation) || !consumed(in, at)) {
    return false;
  }
  a.role = static_cast<PartyRole>(role);
  out = a;
  return true;
}

void SnapshotRequest::encode_into(Bytes& out) const {
  put_varint(out, request_id);
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, n);
  // Extension tags in strictly increasing order (canonical form).
  if (delta_capable) {
    put_varint(out, 1);
    put_varint(out, since_cursor);
  }
  if (trace_id != 0) {
    put_varint(out, 2);
    put_varint(out, trace_id);
    put_varint(out, parent_span_id);
  }
}

Bytes SnapshotRequest::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool SnapshotRequest::decode(const Bytes& in, SnapshotRequest& out) {
  SnapshotRequest r;
  std::size_t at = 0;
  std::uint64_t role = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, role) ||
      role > 0xFF || !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, r.n)) {
    return false;
  }
  // v2 form ends here; v3 appends tagged extension blocks, tags strictly
  // increasing. The original v3 delta form (`1, since_cursor`) is the
  // lone-tag-1 case. Unknown tags fail the decode: extensions are only
  // sent to peers expected to understand them (see protocol.hpp).
  std::uint64_t last_tag = 0;
  while (!consumed(in, at)) {
    std::uint64_t tag = 0;
    if (!get_varint(in, at, tag) || tag <= last_tag) return false;
    last_tag = tag;
    if (tag == 1) {
      if (!get_varint(in, at, r.since_cursor)) return false;
      r.delta_capable = true;
    } else if (tag == 2) {
      if (!get_varint(in, at, r.trace_id) || r.trace_id == 0 ||
          !get_varint(in, at, r.parent_span_id)) {
        return false;
      }
    } else {
      return false;
    }
  }
  r.role = static_cast<PartyRole>(role);
  out = r;
  return true;
}

Bytes TotalReply::encode() const {
  Bytes out;
  put_varint(out, request_id);
  put_varint(out, generation);
  put_fixed64(out, std::bit_cast<std::uint64_t>(value));
  put_varint(out, exact ? 1 : 0);
  put_varint(out, items_observed);
  return out;
}

bool TotalReply::decode(const Bytes& in, TotalReply& out) {
  TotalReply r;
  std::size_t at = 0;
  std::uint64_t bits = 0;
  std::uint64_t exact = 0;
  if (!get_varint(in, at, r.request_id) ||
      !get_varint(in, at, r.generation) || !get_fixed64(in, at, bits) ||
      !get_varint(in, at, exact) || exact > 1 ||
      !get_varint(in, at, r.items_observed) || !consumed(in, at)) {
    return false;
  }
  r.value = std::bit_cast<double>(bits);
  r.exact = exact == 1;
  out = r;
  return true;
}

Bytes AggReply::encode() const {
  Bytes out;
  put_varint(out, request_id);
  put_varint(out, generation);
  put_varint(out, static_cast<std::uint64_t>(op));
  put_fixed64(out, std::bit_cast<std::uint64_t>(value));
  put_varint(out, items_observed);
  put_varint(out, window);
  return out;
}

bool AggReply::decode(const Bytes& in, AggReply& out) {
  AggReply r;
  std::size_t at = 0;
  std::uint64_t op = 0;
  std::uint64_t bits = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, r.generation) ||
      !get_varint(in, at, op) || op > 0xFF ||
      !agg::valid_agg_op(static_cast<std::uint8_t>(op)) ||
      !get_fixed64(in, at, bits) || !get_varint(in, at, r.items_observed) ||
      !get_varint(in, at, r.window) || !consumed(in, at)) {
    return false;
  }
  r.op = static_cast<agg::AggOp>(op);
  r.value = std::bit_cast<std::int64_t>(bits);
  out = r;
  return true;
}

void DeltaReply::encode_into(Bytes& out) const {
  put_varint(out, request_id);
  put_varint(out, generation);
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, base_cursor);
  put_varint(out, cursor);
  put_varint(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
}

Bytes DeltaReply::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool DeltaReply::decode(const Bytes& in, DeltaReply& out) {
  // Fields land in locals until everything (including full consumption) is
  // validated, then the body is assigned into out — so the all-or-nothing
  // contract holds AND a caller that reuses one DeltaReply across rounds
  // keeps its body's high-water capacity (the client's per-link scratch).
  DeltaReply r;
  std::size_t at = 0;
  std::uint64_t role = 0;
  std::uint64_t len = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, r.generation) ||
      !get_varint(in, at, role) || role > 0xFF ||
      !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, r.base_cursor) || !get_varint(in, at, r.cursor) ||
      !get_varint(in, at, len) || len > in.size() - at ||
      !consumed(in, at + len)) {
    return false;
  }
  out.request_id = r.request_id;
  out.generation = r.generation;
  out.role = static_cast<PartyRole>(role);
  out.base_cursor = r.base_cursor;
  out.cursor = r.cursor;
  out.body.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                  in.begin() + static_cast<std::ptrdiff_t>(at + len));
  return true;
}

Bytes ErrReply::encode() const {
  Bytes out;
  put_varint(out, request_id);
  put_varint(out, static_cast<std::uint64_t>(code));
  put_varint(out, message.size());
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

void SubscribeRequest::encode_into(Bytes& out) const {
  put_varint(out, request_id);
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, n);
  // Extension tags in strictly increasing order (canonical form).
  if (delta_capable) {
    put_varint(out, 1);
    put_varint(out, since_cursor);
  }
  if (trace_id != 0) {
    put_varint(out, 2);
    put_varint(out, trace_id);
    put_varint(out, parent_span_id);
  }
  if (has_slack) {
    put_varint(out, 3);
    put_fixed64(out, std::bit_cast<std::uint64_t>(slack));
    put_varint(out, check_every_ms);
  }
}

Bytes SubscribeRequest::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool SubscribeRequest::decode(const Bytes& in, SubscribeRequest& out) {
  SubscribeRequest r;
  std::size_t at = 0;
  std::uint64_t role = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, role) ||
      role > 0xFF || !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, r.n)) {
    return false;
  }
  // Same tagged-extension rules as SnapshotRequest: tags strictly
  // increasing, unknown tags fail, all-or-nothing. Tag 3 (slack) is only
  // meaningful on subscriptions, so it lives here and SnapshotRequest
  // keeps rejecting it.
  std::uint64_t last_tag = 0;
  while (!consumed(in, at)) {
    std::uint64_t tag = 0;
    if (!get_varint(in, at, tag) || tag <= last_tag) return false;
    last_tag = tag;
    if (tag == 1) {
      if (!get_varint(in, at, r.since_cursor)) return false;
      r.delta_capable = true;
    } else if (tag == 2) {
      if (!get_varint(in, at, r.trace_id) || r.trace_id == 0 ||
          !get_varint(in, at, r.parent_span_id)) {
        return false;
      }
    } else if (tag == 3) {
      std::uint64_t bits = 0;
      if (!get_fixed64(in, at, bits) ||
          !get_varint(in, at, r.check_every_ms)) {
        return false;
      }
      const double slack = std::bit_cast<double>(bits);
      // A non-finite or non-positive slack would make the push leg either
      // never or always fire; reject it as hostile rather than guessing.
      if (!std::isfinite(slack) || slack <= 0.0) return false;
      r.slack = slack;
      r.has_slack = true;
    } else {
      return false;
    }
  }
  r.role = static_cast<PartyRole>(role);
  out = r;
  return true;
}

void PushUpdate::encode_into(Bytes& out) const {
  put_varint(out, request_id);
  put_varint(out, seq);
  put_varint(out, generation);
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, items_observed);
  put_varint(out, base_cursor);
  put_varint(out, cursor);
  put_varint(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
}

Bytes PushUpdate::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool PushUpdate::decode(const Bytes& in, PushUpdate& out) {
  // Same shape as DeltaReply::decode: validate everything (including full
  // consumption) into locals, then assign field-by-field so a subscriber
  // that reuses one PushUpdate across updates keeps its body capacity.
  PushUpdate r;
  std::size_t at = 0;
  std::uint64_t role = 0;
  std::uint64_t len = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, r.seq) ||
      r.seq == 0 || !get_varint(in, at, r.generation) ||
      !get_varint(in, at, role) || role > 0xFF ||
      !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, r.items_observed) ||
      !get_varint(in, at, r.base_cursor) || !get_varint(in, at, r.cursor) ||
      !get_varint(in, at, len) || len > in.size() - at ||
      !consumed(in, at + len)) {
    return false;
  }
  out.request_id = r.request_id;
  out.seq = r.seq;
  out.generation = r.generation;
  out.role = static_cast<PartyRole>(role);
  out.items_observed = r.items_observed;
  out.base_cursor = r.base_cursor;
  out.cursor = r.cursor;
  out.body.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                  in.begin() + static_cast<std::ptrdiff_t>(at + len));
  return true;
}

Bytes Unsubscribe::encode() const {
  Bytes out;
  put_varint(out, request_id);
  return out;
}

bool Unsubscribe::decode(const Bytes& in, Unsubscribe& out) {
  Unsubscribe u;
  std::size_t at = 0;
  if (!get_varint(in, at, u.request_id) || !consumed(in, at)) return false;
  out = u;
  return true;
}

void EstimateUpdate::encode_into(Bytes& out) const {
  put_varint(out, seq);
  put_varint(out, round);
  put_varint(out, status);
  put_fixed64(out, std::bit_cast<std::uint64_t>(value));
  put_varint(out, exact ? 1 : 0);
  put_varint(out, n);
  put_varint(out, missing);
  put_fixed64(out, std::bit_cast<std::uint64_t>(error_slack));
}

Bytes EstimateUpdate::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool EstimateUpdate::decode(const Bytes& in, EstimateUpdate& out) {
  EstimateUpdate r;
  std::size_t at = 0;
  std::uint64_t status = 0;
  std::uint64_t bits = 0;
  std::uint64_t exact = 0;
  std::uint64_t slack_bits = 0;
  if (!get_varint(in, at, r.seq) || r.seq == 0 ||
      !get_varint(in, at, r.round) || !get_varint(in, at, status) ||
      status < 1 || status > 3 || !get_fixed64(in, at, bits) ||
      !get_varint(in, at, exact) || exact > 1 || !get_varint(in, at, r.n) ||
      !get_varint(in, at, r.missing) || !get_fixed64(in, at, slack_bits) ||
      !consumed(in, at)) {
    return false;
  }
  r.status = static_cast<std::uint8_t>(status);
  r.value = std::bit_cast<double>(bits);
  r.exact = exact == 1;
  r.error_slack = std::bit_cast<double>(slack_bits);
  out = r;
  return true;
}

bool valid_metrics_format(std::uint8_t f) {
  return f >= static_cast<std::uint8_t>(MetricsFormat::kProm) &&
         f <= static_cast<std::uint8_t>(MetricsFormat::kTrace);
}

Bytes MetricsRequest::encode() const {
  Bytes out;
  put_varint(out, request_id);
  put_varint(out, static_cast<std::uint64_t>(format));
  put_varint(out, trace_filter);
  return out;
}

bool MetricsRequest::decode(const Bytes& in, MetricsRequest& out) {
  MetricsRequest r;
  std::size_t at = 0;
  std::uint64_t format = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, format) ||
      format > 0xFF || !valid_metrics_format(static_cast<std::uint8_t>(format)) ||
      !get_varint(in, at, r.trace_filter) || !consumed(in, at)) {
    return false;
  }
  r.format = static_cast<MetricsFormat>(format);
  out = r;
  return true;
}

void MetricsReply::encode_into(Bytes& out) const {
  put_varint(out, request_id);
  put_varint(out, generation);
  put_varint(out, static_cast<std::uint64_t>(format));
  put_varint(out, text.size());
  out.insert(out.end(), text.begin(), text.end());
}

Bytes MetricsReply::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

bool MetricsReply::decode(const Bytes& in, MetricsReply& out) {
  MetricsReply r;
  std::size_t at = 0;
  std::uint64_t format = 0;
  std::uint64_t len = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, r.generation) ||
      !get_varint(in, at, format) || format > 0xFF ||
      !valid_metrics_format(static_cast<std::uint8_t>(format)) ||
      !get_varint(in, at, len) || len > in.size() - at) {
    return false;
  }
  r.text.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                in.begin() + static_cast<std::ptrdiff_t>(at + len));
  at += len;
  if (!consumed(in, at)) return false;
  r.format = static_cast<MetricsFormat>(format);
  out = std::move(r);
  return true;
}

Bytes HealthRequest::encode() const {
  Bytes out;
  put_varint(out, request_id);
  return out;
}

bool HealthRequest::decode(const Bytes& in, HealthRequest& out) {
  HealthRequest r;
  std::size_t at = 0;
  if (!get_varint(in, at, r.request_id) || !consumed(in, at)) return false;
  out = r;
  return true;
}

Bytes HealthReply::encode() const {
  Bytes out;
  put_varint(out, request_id);
  put_varint(out, static_cast<std::uint64_t>(role));
  put_varint(out, party_id);
  put_varint(out, generation);
  put_varint(out, items_observed);
  put_varint(out, checkpoint_age_ms);
  put_varint(out, uptime_ms);
  return out;
}

bool HealthReply::decode(const Bytes& in, HealthReply& out) {
  HealthReply r;
  std::size_t at = 0;
  std::uint64_t role = 0;
  if (!get_varint(in, at, r.request_id) || !get_varint(in, at, role) ||
      role > 0xFF || !valid_role(static_cast<std::uint8_t>(role)) ||
      !get_varint(in, at, r.party_id) || !get_varint(in, at, r.generation) ||
      !get_varint(in, at, r.items_observed) ||
      !get_varint(in, at, r.checkpoint_age_ms) ||
      !get_varint(in, at, r.uptime_ms) || !consumed(in, at)) {
    return false;
  }
  r.role = static_cast<PartyRole>(role);
  out = r;
  return true;
}

bool ErrReply::decode(const Bytes& in, ErrReply& out) {
  ErrReply e;
  std::size_t at = 0;
  std::uint64_t code = 0;
  std::uint64_t len = 0;
  if (!get_varint(in, at, e.request_id) || !get_varint(in, at, code) ||
      code < 1 || code > 5 || !get_varint(in, at, len) ||
      len > in.size() - at) {
    return false;
  }
  e.message.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                   in.begin() + static_cast<std::ptrdiff_t>(at + len));
  at += len;
  if (!consumed(in, at)) return false;
  e.code = static_cast<ErrCode>(code);
  out = std::move(e);
  return true;
}

}  // namespace waves::net
