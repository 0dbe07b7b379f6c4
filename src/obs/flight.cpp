#include "obs/flight.hpp"

#include <cinttypes>
#include <cstdio>

namespace waves::obs {

#if WAVES_OBS_ENABLED

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder r;
  return r;
}

void FlightRecorder::record(FlightRecord&& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(rec));
  if (ring_.size() > kKeep) ring_.pop_front();
}

std::vector<FlightRecord> FlightRecorder::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

#endif  // WAVES_OBS_ENABLED

std::string flight_line(const FlightRecord& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "fetch trace=%016" PRIx64 " party=%" PRIu32 " role=%s ok=%d"
      " attempts=%" PRIu32 " bytes=%" PRIu64 " allocs=%" PRIu64
      " reused=%d delta=%d applied=%d"
      " connect_s=%.6f send_s=%.6f wait_s=%.6f decode_s=%.6f apply_s=%.6f"
      " backoff_s=%.6f total_s=%.6f",
      r.trace_id, r.party, r.role.c_str(), r.ok ? 1 : 0, r.attempts, r.bytes,
      r.allocs, r.reused_connection ? 1 : 0, r.delta_reply ? 1 : 0,
      r.delta_applied ? 1 : 0, r.connect_s, r.send_s, r.wait_s, r.decode_s,
      r.apply_s, r.backoff_s, r.total_s);
  return buf;
}

}  // namespace waves::obs
