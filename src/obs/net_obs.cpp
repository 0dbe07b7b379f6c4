#include "obs/net_obs.hpp"

namespace waves::obs {

const NetClientObs& NetClientObs::instance() {
  static Registry& reg = Registry::instance();
  static const NetClientObs o{
      reg.counter("waves_net_requests_total"),
      reg.counter("waves_net_attempts_total"),
      reg.counter("waves_net_retries_total"),
      reg.counter("waves_net_timeouts_total"),
      reg.counter("waves_net_connect_errors_total"),
      reg.counter("waves_net_protocol_errors_total"),
      reg.counter("waves_net_bytes_sent_total"),
      reg.counter("waves_net_bytes_received_total"),
      reg.histogram("waves_net_request_seconds", {}, latency_buckets()),
      reg.counter("waves_net_reconnects_total"),
      reg.counter("waves_net_delta_replies_total"),
      reg.counter("waves_net_delta_full_total"),
      reg.counter("waves_net_shutdown_retries_total"),
      reg.counter("waves_net_deadline_exhausted_total"),
      reg.counter("waves_net_breaker_trips_total"),
      reg.counter("waves_net_breaker_fast_fails_total"),
      reg.counter("waves_net_breaker_probes_total"),
      reg.counter("waves_net_breaker_closes_total")};
  return o;
}

const NetServerObs& NetServerObs::instance() {
  static Registry& reg = Registry::instance();
  static const NetServerObs o{
      reg.counter("waves_net_server_connections_total"),
      reg.counter("waves_net_server_requests_total"),
      reg.counter("waves_net_server_frame_errors_total"),
      reg.counter("waves_net_server_bytes_sent_total"),
      reg.counter("waves_net_server_bytes_received_total"),
      reg.counter("waves_net_server_delta_replies_total"),
      reg.counter("waves_net_server_delta_full_total"),
      reg.counter("waves_net_server_delta_unchanged_total"),
      reg.counter("waves_net_server_overload_rejected_total"),
      reg.counter("waves_net_server_health_probes_total")};
  return o;
}

const NetLoopObs& NetLoopObs::instance() {
  static Registry& reg = Registry::instance();
  static const NetLoopObs o{reg.counter("waves_net_loop_wakeups_total"),
                            reg.counter("waves_net_loop_events_total"),
                            reg.counter("waves_net_loop_timer_fires_total"),
                            reg.counter("waves_net_loop_stalled_writes_total")};
  return o;
}

}  // namespace waves::obs
