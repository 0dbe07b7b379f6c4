// Query flight recorder: a fixed-size ring of per-fetch records on the
// referee client.
//
// Each networked fetch (one party, one round) contributes one FlightRecord:
// what came back (bytes, delta vs full), what it cost
// (per-phase wall-clock durations, allocation count when the binary
// installs the alloc hook — see obs/alloc.hpp), and how it got there
// (attempts, reused connection). The ring answers "where did the last
// query's latency go" per party without a profiler, and is the measured
// footing for the E18 delta-path latency item: phases split client-side
// work (connect/handshake/send/decode/apply) from time blocked on the
// server (wait) and from retry backoff.
//
// Phase durations are disjoint and sum to ~total_s; total_s is measured
// independently around the whole fetch, so the sum-vs-total gap is the
// (small) unattributed remainder.
//
// Compiled to no-ops when WAVES_OBS_ENABLED is 0.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace waves::obs {

/// One networked fetch, as recorded by the referee client. Plain data in
/// both build modes so callers can fill it unconditionally.
struct FlightRecord {
  std::uint64_t trace_id = 0;  // trace this fetch belonged to (0 = none)
  std::uint32_t party = 0;
  std::string role;  // "count" | "distinct" | "total"
  bool ok = false;
  std::uint32_t attempts = 0;
  std::uint64_t bytes = 0;   // reply payload bytes (last attempt)
  std::uint64_t allocs = 0;  // allocations during the fetch (0 = no hook)
  bool reused_connection = false;
  bool delta_reply = false;
  bool delta_applied = false;
  // Disjoint per-phase wall-clock seconds (see header comment).
  double connect_s = 0.0;    // TCP connect + Hello send/await
  double send_s = 0.0;       // request encode + write
  double wait_s = 0.0;       // blocked on the server's reply frame
  double decode_s = 0.0;     // reply decode (payload -> structs)
  double apply_s = 0.0;      // delta apply + snapshot materialization
  double backoff_s = 0.0;    // retry sleeps across attempts
  double total_s = 0.0;      // whole fetch, measured independently
};

#if WAVES_OBS_ENABLED

/// Process-wide bounded ring of recent fetch records.
class FlightRecorder {
 public:
  static FlightRecorder& instance();
  static constexpr std::size_t kKeep = 128;

  void record(FlightRecord&& rec);
  /// Up to kKeep most recent records, oldest first.
  [[nodiscard]] std::vector<FlightRecord> recent() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::deque<FlightRecord> ring_;
};

#else  // WAVES_OBS_ENABLED == 0

class FlightRecorder {
 public:
  static FlightRecorder& instance() {
    static FlightRecorder r;
    return r;
  }
  static constexpr std::size_t kKeep = 128;
  void record(FlightRecord&&) {}
  [[nodiscard]] std::vector<FlightRecord> recent() const { return {}; }
  void clear() {}
};

#endif  // WAVES_OBS_ENABLED

/// `fetch trace=<hex16> party=<n> role=<r> ok=<0|1> ... total_s=<secs>` —
/// one line, the flight-recorder dump format shared by wavecli and tests.
[[nodiscard]] std::string flight_line(const FlightRecord& rec);

}  // namespace waves::obs
