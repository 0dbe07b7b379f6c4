// Instrument bundles for the TCP transport (src/net/).
//
// The metric families live here, next to the rest of the schema, so the
// exporters and docs/observability.md have one home for names; src/net/
// fetches the cached bundle and bumps plain counter references on its hot
// paths. With WAVES_OBS=OFF every member is the no-op Counter/Histogram
// from obs/metrics.hpp and the whole layer compiles away.
//
// Client families (the referee side):
//   waves_net_requests_total        logical fetches (one per party, round)
//   waves_net_attempts_total        connection attempts incl. retries
//   waves_net_retries_total         attempts after the first
//   waves_net_timeouts_total        attempts lost to the deadline
//   waves_net_connect_errors_total  refused/failed connects
//   waves_net_protocol_errors_total malformed or unexpected replies
//   waves_net_bytes_sent_total / waves_net_bytes_received_total
//   waves_net_request_seconds       per-fetch latency histogram
//   waves_net_reconnects_total      keep-alive links re-established after
//                                   a socket error or server restart
//   waves_net_delta_replies_total   kDeltaReply answers applied to a mirror
//   waves_net_delta_full_total      delta-capable requests answered full
//                                   (bootstrap, stale cursor, or v2 server)
//   waves_net_shutdown_retries_total  fetches answered ErrCode::kShutdown
//                                   (party draining) and retried fast
//   waves_net_deadline_exhausted_total fetches abandoned because the
//                                   total_deadline budget ran out
//
// Client breaker families (per-endpoint circuit breaker; see
// docs/robustness.md "Self-healing fleet"):
//   waves_net_breaker_trips_total      closed -> open transitions
//   waves_net_breaker_fast_fails_total fetches failed fast while open
//   waves_net_breaker_probes_total     half-open trial fetches admitted
//   waves_net_breaker_closes_total     half-open -> closed recoveries
//
// Server families (each waved / PartyServer):
//   waves_net_server_connections_total
//   waves_net_server_requests_total
//   waves_net_server_frame_errors_total  malformed frames from peers
//   waves_net_server_bytes_sent_total / waves_net_server_bytes_received_total
//   waves_net_server_delta_replies_total     diff bodies served
//   waves_net_server_delta_full_total        full bodies under delta framing
//   waves_net_server_delta_unchanged_total   empty-body "unchanged" replies
//   waves_net_server_overload_rejected_total connections refused at the
//                                            max_connections cap (ErrCode
//                                            kOverloaded, then close)
//   waves_net_server_health_probes_total     kHealthRequest frames answered
//
// Event-loop families (the epoll/poll readiness core, net/event_loop.hpp):
//   waves_net_loop_wakeups_total        epoll_wait/poll returns
//   waves_net_loop_events_total         fd readiness events dispatched
//   waves_net_loop_timer_fires_total    timer-wheel entries fired
//   waves_net_loop_stalled_writes_total flushes left bytes queued (peer's
//                                       socket full — backpressure engaged)
#pragma once

#include "obs/metrics.hpp"

namespace waves::obs {

struct NetClientObs {
  const Counter& requests;
  const Counter& attempts;
  const Counter& retries;
  const Counter& timeouts;
  const Counter& connect_errors;
  const Counter& protocol_errors;
  const Counter& bytes_sent;
  const Counter& bytes_received;
  const Histogram& request_seconds;
  const Counter& reconnects;
  const Counter& delta_replies;
  const Counter& delta_full;
  const Counter& shutdown_retries;
  const Counter& deadline_exhausted;
  const Counter& breaker_trips;
  const Counter& breaker_fast_fails;
  const Counter& breaker_probes;
  const Counter& breaker_closes;

  static const NetClientObs& instance();
};

struct NetServerObs {
  const Counter& connections;
  const Counter& requests;
  const Counter& frame_errors;
  const Counter& bytes_sent;
  const Counter& bytes_received;
  const Counter& delta_replies;
  const Counter& delta_full;
  const Counter& delta_unchanged;
  const Counter& overload_rejected;
  const Counter& health_probes;

  static const NetServerObs& instance();
};

struct NetLoopObs {
  const Counter& wakeups;
  const Counter& events;
  const Counter& timer_fires;
  const Counter& stalled_writes;

  static const NetLoopObs& instance();
};

}  // namespace waves::obs
