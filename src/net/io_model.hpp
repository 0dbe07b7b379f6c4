// Readiness backend name: every listening component (PartyServer, the
// hub's watcher fan-out) runs on the event-loop core (net/event_loop.hpp),
// which waits on epoll(7) on Linux and on poll(2) elsewhere. The name is
// what startup READY lines print as `io=` and what bench runs are stamped
// with.
#pragma once

#include <cstdint>

namespace waves::net {

enum class IoModel : std::uint8_t {
  kPoll = 1,
  kEpoll = 2,
};

/// kEpoll on Linux, kPoll elsewhere.
[[nodiscard]] IoModel default_io_model();

/// "poll" / "epoll" (stable: startup log lines and bench stamps).
[[nodiscard]] const char* io_model_name(IoModel m);

}  // namespace waves::net
