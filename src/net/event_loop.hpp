// Readiness-driven I/O core: one EventLoop thread multiplexes every
// connection of a listening component (net/conn_core.hpp builds the
// connection handling on top of it).
//
// EventLoop is epoll(7)-backed on Linux with a poll(2) fallback selected at
// construction (and used everywhere epoll is unavailable), so the same
// binary serves both; the backend only changes how readiness is learned,
// never what the handlers see. Three primitives:
//
//   fds     add_fd/mod_fd/del_fd register a nonblocking fd with a handler
//           and a read/write interest mask; the loop invokes the handler
//           with the ready events (kReadable/kWritable/kError).
//   timers  arm_timer schedules a one-shot callback on a hashed timer
//           wheel (kTimerTick granularity, kTimerSlots slots, multi-lap
//           entries carry a rounds counter). cancel_timer is lazy: the
//           entry is dropped from the id map and the stale slot reference
//           is skipped when its lap comes up — O(1) cancel, no slot scan.
//           This is what makes thousands of idle push subscriptions cheap:
//           a drift check is a wheel entry, not a sleeping thread.
//   post    post() marshals a closure from any thread onto the loop thread
//           (mutex-guarded queue + eventfd/pipe wakeup); the loop drains
//           the queue before each poll. The hub's estimate fan-out enters
//           the loop this way.
//
// Threading contract: add_fd/mod_fd/del_fd/arm_timer/cancel_timer are
// loop-thread-only; post() and wake() are thread-safe. Handlers run on the
// loop thread and may freely mutate the loop (including deleting their own
// registration).
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stop_token>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"

namespace waves::net {

class EventLoop {
 public:
  // Ready-event mask handed to fd handlers.
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;  // HUP/ERR — peer gone

  using FdHandler = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  // Wheel geometry: 2ms ticks x 512 slots = a ~1s horizon per lap; longer
  // delays ride the rounds counter. Granularity bounds timer lateness at
  // one tick — drift-check cadences (>= 25ms) and io deadlines (seconds)
  // never notice.
  static constexpr std::chrono::milliseconds kTimerTick{2};
  static constexpr std::size_t kTimerSlots = 512;

  /// `prefer_epoll` false forces the poll(2) backend (tests exercise it on
  /// Linux too); epoll setup failure also falls back. ok() reports whether
  /// any backend (and the wakeup fd) came up.
  explicit EventLoop(bool prefer_epoll = true);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool using_epoll() const noexcept { return ep_ >= 0; }

  // -- loop-thread only --------------------------------------------------
  [[nodiscard]] bool add_fd(int fd, bool want_read, bool want_write,
                            FdHandler handler);
  [[nodiscard]] bool mod_fd(int fd, bool want_read, bool want_write);
  void del_fd(int fd);
  [[nodiscard]] std::size_t fd_count() const noexcept { return fds_.size(); }

  TimerId arm_timer(std::chrono::milliseconds delay, std::function<void()> fn);
  void cancel_timer(TimerId id);
  [[nodiscard]] std::size_t timer_count() const noexcept {
    return timers_.size();
  }

  /// Poll + dispatch until the stop token fires (then drains nothing more).
  void run(const std::stop_token& st);

  // -- any thread --------------------------------------------------------
  void post(std::function<void()> fn);
  void wake();

 private:
  struct FdEntry {
    FdHandler handler;
    bool want_read = false;
    bool want_write = false;
  };
  struct Timer {
    std::function<void()> fn;
    std::uint32_t rounds = 0;  // full laps left before this entry fires
    std::uint32_t slot = 0;
  };

  [[nodiscard]] bool backend_add(int fd, bool r, bool w);
  [[nodiscard]] bool backend_mod(int fd, bool r, bool w);
  void backend_del(int fd);
  /// Milliseconds until the next armed slot (-1 = no timers: block).
  [[nodiscard]] int next_timeout_ms() const;
  /// Walk the wheel up to "now", firing due timers.
  void advance_timers();
  void run_posted();
  void drain_wakeup();

  bool ok_ = false;
  int ep_ = -1;            // epoll fd; -1 = poll backend
  int wake_read_ = -1;     // eventfd (both ends equal) or pipe read end
  int wake_write_ = -1;
  std::unordered_map<int, FdEntry> fds_;

  // Poll backend: pollfd set rebuilt when registrations change.
  bool pollset_dirty_ = true;
  std::vector<::pollfd> pollset_;

  Clock::time_point wheel_start_ = Clock::now();
  std::uint64_t ticks_done_ = 0;  // wheel position == ticks_done_ % slots
  TimerId next_timer_id_ = 1;
  std::unordered_map<TimerId, Timer> timers_;
  std::vector<std::vector<TimerId>> slots_{kTimerSlots};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::vector<std::function<void()>> posted_scratch_;
};

}  // namespace waves::net
