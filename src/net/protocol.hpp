// Message bodies for the waves TCP protocol (the payload side of
// net/frame.hpp). Each struct has an encode/decode pair built on the
// distributed::wire varint/fixed64 primitives; decoders are all-or-nothing
// (on failure `out` is untouched) and reject trailing garbage, mirroring
// the wire-codec contract the fuzz tests rely on.
//
// Session shape (client = referee, server = party daemon):
//   client: Hello            -> server: HelloAck (or Err)
//   client: SnapshotRequest  -> server: DeltaReply (count/distinct) |
//                                        TotalReply (basic/sum) |
//                                        AggReply (agg) | Err
// A connection serves any number of requests; either side may close it at a
// frame boundary. Totals (Scenario 1) cross as fixed64 double bit patterns
// so a networked answer is bit-identical to the in-process one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agg/agg_wave.hpp"
#include "distributed/wire.hpp"

namespace waves::net {

using distributed::Bytes;

/// What a party daemon serves: which estimator family it runs.
enum class PartyRole : std::uint8_t {
  kCount = 1,     // Scenario 3 union counting (RandWave snapshots)
  kDistinct = 2,  // distinct values (DistinctSnapshot)
  kBasic = 3,     // Scenario 1 Basic Counting total (DetWave)
  kSum = 4,       // Scenario 1 Sum total (SumWave)
  kAgg = 5,       // exact two-stacks aggregate (agg::AggWave)
};

[[nodiscard]] const char* role_name(PartyRole r);
/// False on an unknown name; `out` untouched.
[[nodiscard]] bool role_from_name(const std::string& name, PartyRole& out);
[[nodiscard]] bool valid_role(std::uint8_t r);

enum class ErrCode : std::uint8_t {
  kBadRequest = 1,  // undecodable payload or unexpected message type
  kWrongRole = 2,   // request's role doesn't match the serving party
  kShutdown = 3,    // server is draining; retry elsewhere
  kInternal = 4,
  kOverloaded = 5,  // connection limit reached; sent before the close
};

struct Hello {
  std::uint64_t client_id = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, Hello& out);
};

struct HelloAck {
  PartyRole role = PartyRole::kCount;
  std::uint64_t party_id = 0;
  std::uint64_t instances = 0;  // median-estimator instances (0 for totals)
  std::uint64_t window = 0;
  std::uint64_t items_observed = 0;
  // The daemon's epoch: bumped (and persisted) on every process start. A
  // referee that sees it change between messages knows the party restarted
  // and anything fetched under the old generation is stale.
  std::uint64_t generation = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, HelloAck& out);
};

struct SnapshotRequest {
  std::uint64_t request_id = 0;
  PartyRole role = PartyRole::kCount;  // client's expectation, server-checked
  std::uint64_t n = 0;                 // window size queried

  // v3 trailing extensions, opt-in per request. The fixed fields may be
  // followed by extension blocks, each a tag varint plus tag-specific
  // payload, tags strictly increasing (canonical: no duplicates, no
  // reordering). Unknown tags are rejected — an extension is only sent to
  // a peer expected to understand it. A v2 request omits all of them, and
  // the original v3 delta form (`1, since_cursor`) parses unchanged as the
  // tag-1 block.
  //
  // Tag 1 — delta cursor: since_cursor != 0 names the baseline party
  // checkpoint the client holds, 0 asks for a full body (mirror
  // bootstrap). Count/distinct parties always answer with kDeltaReply; a
  // request without tag 1 reads as since_cursor 0 and gets the
  // self-contained full form. Other roles ignore the cursor.
  bool delta_capable = false;
  std::uint64_t since_cursor = 0;

  // Tag 2 — trace context: the client's trace id and the span the server's
  // work should hang under. The server tags its handling spans with the
  // same trace id, so a later format=trace scrape stitches one
  // cross-process trace. trace_id == 0 means "no trace" and is not sent.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, SnapshotRequest& out);
};

struct TotalReply {
  std::uint64_t request_id = 0;
  std::uint64_t generation = 0;
  double value = 0.0;  // crosses as a fixed64 bit pattern
  bool exact = false;
  std::uint64_t items_observed = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, TotalReply& out);
};

/// Reply of an agg-role party (exact MIN/MAX/SUM over the window). The
/// aggregate crosses as the int64's fixed64 bit pattern — a double mantissa
/// would round sums past 2^53 — so a networked answer is bit-identical to
/// the in-process one. The op is echoed for client-side validation.
struct AggReply {
  std::uint64_t request_id = 0;
  std::uint64_t generation = 0;
  agg::AggOp op = agg::AggOp::kSum;
  std::int64_t value = 0;
  std::uint64_t items_observed = 0;
  std::uint64_t window = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, AggReply& out);
};

// Reply to a count/distinct SnapshotRequest. `body` is a recovery
// party-checkpoint encoding:
//   base_cursor == 0 — self-contained: recovery::encode of the full party
//     checkpoint (mirror bootstrap, stale-cursor fallback, server restart);
//   base_cursor != 0 — a delta body (recovery::DeltaEncoder::next) against
//     the baseline the client holds under that cursor (matches the
//     request's since_cursor), applied with recovery::apply_delta_into;
//   empty body with base_cursor == cursor == since_cursor — "unchanged":
//     the party ingested nothing since the baseline, reuse it as-is.
// `cursor` names the post-reply baseline; the client echoes it as the next
// request's since_cursor.
struct DeltaReply {
  std::uint64_t request_id = 0;
  std::uint64_t generation = 0;
  PartyRole role = PartyRole::kCount;
  std::uint64_t base_cursor = 0;
  std::uint64_t cursor = 0;
  Bytes body;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, DeltaReply& out);
};

struct ErrReply {
  std::uint64_t request_id = 0;  // 0 when no request could be parsed
  ErrCode code = ErrCode::kInternal;
  std::string message;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, ErrReply& out);
};

// -- Continuous monitoring (src/monitor/) -----------------------------------

/// Opens a push subscription on the serving connection. Fixed fields mirror
/// SnapshotRequest (the subscription is "this role, this window"), followed
/// by the same tagged-extension blocks — tags strictly increasing, unknown
/// tags rejected:
///
///   Tag 1 — delta: since_cursor names a push-chain baseline the client
///     still holds (from a previous subscription on this server). Push
///     baselines are per-subscription, so a server that can't honor it just
///     opens the chain with a full-body update (base_cursor 0) — exactly
///     the DeltaReply fallback rule. 0 = bootstrap.
///   Tag 2 — trace context, as in SnapshotRequest.
///   Tag 3 — slack (new here; SnapshotRequest rejects it): the
///     subscription's drift budget as a fixed64 double bit pattern, plus a
///     varint check cadence in ms (0 = server default). The slack is an
///     absolute threshold in the role's units — items in the window for
///     count/distinct (the party pushes when it has ingested that many
///     items since its last push), estimate units for basic/sum (the party
///     pushes when |estimate - last pushed| reaches it). Must be finite
///     and > 0. Omitted, the server defaults to 1 (push on any change).
///
/// The server answers with the subscription's first kPushUpdate (a full
/// snapshot of the current state — the ack), then pushes on drift until
/// kUnsubscribe, a replacing kSubscribe, or the connection closes.
struct SubscribeRequest {
  std::uint64_t request_id = 0;
  PartyRole role = PartyRole::kCount;
  std::uint64_t n = 0;  // window size monitored

  bool delta_capable = false;  // tag 1
  std::uint64_t since_cursor = 0;

  std::uint64_t trace_id = 0;  // tag 2
  std::uint64_t parent_span_id = 0;

  bool has_slack = false;  // tag 3
  double slack = 0.0;
  std::uint64_t check_every_ms = 0;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, SubscribeRequest& out);
};

/// One unsolicited update on a subscribed connection (party -> hub). `seq`
/// is strictly increasing per subscription starting at 1; a gap or
/// regression means frames were lost and the subscriber must resubscribe.
/// The body reuses the DeltaReply chain semantics for count/distinct
/// (base_cursor 0 = self-contained recovery::encode, else a
/// recovery::DeltaEncoder::next delta against the cursor the subscriber
/// holds); for
/// basic/sum it is fixed64 estimate bits + varint exact flag — the party's
/// local total, which the hub sums across parties.
struct PushUpdate {
  std::uint64_t request_id = 0;  // echo of the subscribe
  std::uint64_t seq = 0;
  std::uint64_t generation = 0;
  PartyRole role = PartyRole::kCount;
  std::uint64_t items_observed = 0;  // party items at encode time
  std::uint64_t base_cursor = 0;
  std::uint64_t cursor = 0;
  Bytes body;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, PushUpdate& out);
};

/// Ends the connection's active subscription. No reply: the server simply
/// stops pushing, and because frames are processed in order, the next
/// request/reply exchange on the connection is already unambiguous.
struct Unsubscribe {
  std::uint64_t request_id = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, Unsubscribe& out);
};

/// Hub -> watcher body carried in kPushUpdate frames on watcher
/// connections (a watcher subscribed to a MonitorHub, so it decodes this
/// instead of PushUpdate — the schema is chosen by what you subscribed
/// to, like role-dependent snapshot replies). Carries the merged estimate
/// under the hub's quorum rules: status mirrors distributed::QueryStatus
/// (1 ok, 2 degraded, 3 failed), `missing` counts unreachable parties,
/// and error_slack is the kDegraded additive widening.
struct EstimateUpdate {
  std::uint64_t seq = 0;    // strictly increasing per watcher, from 1
  std::uint64_t round = 0;  // hub revision that produced this estimate
  std::uint8_t status = 3;
  double value = 0.0;  // crosses as a fixed64 bit pattern
  bool exact = false;
  std::uint64_t n = 0;
  std::uint64_t missing = 0;
  double error_slack = 0.0;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, EstimateUpdate& out);
};

/// Export format carried by a metrics scrape.
enum class MetricsFormat : std::uint8_t {
  kProm = 1,   // Prometheus text exposition (obs::prometheus_text)
  kJson = 2,   // obs::json_text
  kTrace = 3,  // obs::trace_text — one line per retained span
};

[[nodiscard]] bool valid_metrics_format(std::uint8_t f);

// v3 additive message pair: ask a daemon (or networked referee) for its
// process-local obs registry. No Hello handshake required — a scrape-only
// connection may send this as its first frame, so operators can point
// `wavecli metrics --connect` at any waved without disturbing query
// sessions. Servers answer with kMetricsReply (or kErr on a malformed
// request) and keep the connection open for more requests.
struct MetricsRequest {
  std::uint64_t request_id = 0;
  MetricsFormat format = MetricsFormat::kProm;
  // kTrace only: return just this trace's spans (0 = all retained spans).
  std::uint64_t trace_filter = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, MetricsRequest& out);
};

struct MetricsReply {
  std::uint64_t request_id = 0;
  std::uint64_t generation = 0;  // serving process epoch (0 for referees)
  MetricsFormat format = MetricsFormat::kProm;
  std::string text;  // exporter output; bounded by kMaxPayload framing

  [[nodiscard]] Bytes encode() const;
  void encode_into(Bytes& out) const;
  [[nodiscard]] static bool decode(const Bytes& in, MetricsReply& out);
};

// -- Liveness probing (src/supervise/) --------------------------------------

// v3 additive message pair: ask a daemon whether it is alive and how it is
// doing. Like the metrics pair, no Hello handshake is required — a
// supervisor's probe connection may send this as its first frame — and the
// reply never carries snapshot state, so probing cannot disturb query or
// subscription sessions. Servers answer with kHealthReply (or kErr on a
// malformed request) and keep the connection open for more probes.
struct HealthRequest {
  std::uint64_t request_id = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, HealthRequest& out);
};

struct HealthReply {
  std::uint64_t request_id = 0;
  PartyRole role = PartyRole::kCount;
  std::uint64_t party_id = 0;
  std::uint64_t generation = 0;       // serving process epoch
  std::uint64_t items_observed = 0;   // items ingested so far
  // Milliseconds since the last durable checkpoint save; ~0u64 means "never
  // checkpointed" (no StateStore, or nothing saved yet this generation).
  std::uint64_t checkpoint_age_ms = 0;
  std::uint64_t uptime_ms = 0;  // since the serving process started

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static bool decode(const Bytes& in, HealthReply& out);
};

}  // namespace waves::net
