// Length-prefixed message framing for the waves TCP protocol.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic "WAVE"
//   4       1     protocol version (kProtocolVersion)
//   5       1     message type (MsgType)
//   6       4     payload length, u32 little-endian (<= kMaxPayload)
//   10      len   payload — a distributed::wire / net::protocol encoding
//
// The 10-byte header is read first and validated before any payload byte is
// accepted, so a malformed peer costs at most one header read; reads honor
// the caller's deadline end to end. read_frame never returns a partially
// filled Frame: on any non-kOk status `out` is untouched.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.hpp"

namespace waves::net {

inline constexpr std::array<std::uint8_t, 4> kMagic{'W', 'A', 'V', 'E'};
// v2: HelloAck and every reply carry the party's generation (epoch) so a
// referee can spot a mid-round restart. v1 peers are rejected at the header.
// v3: SnapshotRequest may carry a delta cursor and count/distinct parties
// answer with kDeltaReply. v2 request frames are still accepted on read
// (a request without the cursor gets the full form).
// Still v3: SnapshotRequest's trailing extension is generalized to tagged
// blocks (tag 1 = delta cursor, tag 2 = trace context) and two additive
// message types carry metrics scrapes (kMetricsRequest/kMetricsReply).
// Both are opt-in per request and never sent unsolicited, so older v3
// peers that don't know them interoperate on every existing path; see
// docs/networking.md for the exact compatibility rule.
// Still v3 (additive): the continuous-monitoring subsystem adds
// kSubscribe/kPushUpdate/kUnsubscribe. kPushUpdate is the one deliberate
// exception to "never unsolicited": after a peer opts in with kSubscribe,
// the server may write kPushUpdate frames at any frame boundary until the
// subscription ends. Peers that never subscribe never see one.
// Still v3 (additive): kHealthRequest/kHealthReply carry liveness probes
// (role, generation, items, checkpoint age, uptime). Handshake-free like
// the metrics pair, never unsolicited, so older v3 peers interoperate on
// every existing path.
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::uint8_t kMinProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 10;
// Generous bound: an eps=0.01 distinct snapshot set is ~MBs; 64 MiB leaves
// room while keeping a hostile length prefix from allocating gigabytes.
inline constexpr std::uint32_t kMaxPayload = 1u << 26;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSnapshotRequest = 3,
  // 4 and 5 are reserved: the retired v2 count/distinct snapshot replies
  // (count and distinct now always answer with kDeltaReply). Never reuse
  // them; a peer that still sends one gets "unexpected reply type".
  kTotalReply = 6,
  kErr = 7,
  kDeltaReply = 8,  // v3: party-checkpoint delta against a cursored baseline
  kMetricsRequest = 9,  // v3 additive: remote scrape of the obs registry
  kMetricsReply = 10,
  kAggReply = 11,  // v3 additive: exact aggregate from an agg-role party
  // v3 additive continuous-monitoring trio (src/monitor/): a subscriber
  // registers an eps-slack push leg, the server streams kPushUpdate frames
  // whenever the local estimate drifts past the subscription's slack, and
  // kUnsubscribe returns the connection to request/reply mode.
  kSubscribe = 12,
  kPushUpdate = 13,
  kUnsubscribe = 14,
  // v3 additive liveness pair (src/supervise/): handshake-free probe of a
  // daemon's role/generation/items/checkpoint-age/uptime, answered with
  // kHealthReply (or kErr on a malformed request).
  kHealthRequest = 15,
  kHealthReply = 16,
};

[[nodiscard]] bool valid_msg_type(std::uint8_t t);

struct Frame {
  MsgType type = MsgType::kErr;
  std::vector<std::uint8_t> payload;
};

/// Serialize a header for `type` + `payload_len` into a 10-byte buffer.
[[nodiscard]] std::array<std::uint8_t, kHeaderSize> put_header(
    MsgType type, std::uint32_t payload_len);

/// Validate a header buffer: magic, version, known type, length bound.
/// On success fills type/len and returns true; on failure touches nothing.
[[nodiscard]] bool parse_header(const std::uint8_t* buf, MsgType& type,
                                std::uint32_t& len);

/// Header + payload in one send_all (single buffer, one syscall in the
/// common case). False on timeout or connection error.
[[nodiscard]] bool write_frame(Socket& sock, MsgType type,
                               const std::vector<std::uint8_t>& payload,
                               Deadline dl);

enum class ReadStatus {
  kOk,
  kTimeout,
  kClosed,     // clean EOF at a frame boundary (or mid-frame: peer gone)
  kMalformed,  // bad magic/version/type or oversized length
};

[[nodiscard]] ReadStatus read_frame(Socket& sock, Frame& out, Deadline dl);

}  // namespace waves::net
