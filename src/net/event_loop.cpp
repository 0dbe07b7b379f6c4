#include "net/event_loop.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#else
#include <fcntl.h>
#endif

#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

constexpr int kMaxEventsPerWake = 64;

}  // namespace

EventLoop::EventLoop(bool prefer_epoll) {
#ifdef __linux__
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (efd < 0) return;
  wake_read_ = efd;
  wake_write_ = efd;
  if (prefer_epoll) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = wake_read_;
      if (::epoll_ctl(ep_, EPOLL_CTL_ADD, wake_read_, &ev) != 0) {
        ::close(ep_);
        ep_ = -1;
      }
    }
  }
#else
  (void)prefer_epoll;
  int p[2];
  if (::pipe(p) != 0) return;
  for (const int fd : p) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  wake_read_ = p[0];
  wake_write_ = p[1];
#endif
  ok_ = true;
}

EventLoop::~EventLoop() {
#ifdef __linux__
  if (ep_ >= 0) ::close(ep_);
  if (wake_read_ >= 0) ::close(wake_read_);  // eventfd: one fd, both ends
#else
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
#endif
}

bool EventLoop::backend_add(int fd, bool r, bool w) {
#ifdef __linux__
  if (ep_ >= 0) {
    epoll_event ev{};
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
#endif
  (void)fd;
  (void)r;
  (void)w;
  pollset_dirty_ = true;
  return true;
}

bool EventLoop::backend_mod(int fd, bool r, bool w) {
#ifdef __linux__
  if (ep_ >= 0) {
    epoll_event ev{};
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }
#endif
  (void)fd;
  (void)r;
  (void)w;
  pollset_dirty_ = true;
  return true;
}

void EventLoop::backend_del(int fd) {
#ifdef __linux__
  if (ep_ >= 0) {
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
    return;
  }
#endif
  (void)fd;
  pollset_dirty_ = true;
}

bool EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       FdHandler handler) {
  if (fd < 0 || fds_.contains(fd)) return false;
  if (!backend_add(fd, want_read, want_write)) return false;
  fds_.emplace(fd, FdEntry{std::move(handler), want_read, want_write});
  return true;
}

bool EventLoop::mod_fd(int fd, bool want_read, bool want_write) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  if (it->second.want_read == want_read &&
      it->second.want_write == want_write) {
    return true;
  }
  if (!backend_mod(fd, want_read, want_write)) return false;
  it->second.want_read = want_read;
  it->second.want_write = want_write;
  return true;
}

void EventLoop::del_fd(int fd) {
  if (fds_.erase(fd) > 0) backend_del(fd);
}

EventLoop::TimerId EventLoop::arm_timer(std::chrono::milliseconds delay,
                                        std::function<void()> fn) {
  const auto ticks_needed = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, (delay.count() + kTimerTick.count() - 1) /
                                    kTimerTick.count()));
  const std::uint64_t target = ticks_done_ + ticks_needed;
  const auto slot = static_cast<std::uint32_t>(target % kTimerSlots);
  const auto rounds =
      static_cast<std::uint32_t>((ticks_needed - 1) / kTimerSlots);
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, Timer{std::move(fn), rounds, slot});
  slots_[slot].push_back(id);
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  // Lazy: the slot keeps a stale id until its lap comes around.
  timers_.erase(id);
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return -1;
  // Nearest armed slot bounds the sleep; entries still owing rounds wake
  // the loop early and simply survive the visit — cheap, and it keeps the
  // wheel walk strictly monotone. All signed arithmetic: an overdue slot
  // (the loop thread fell behind) must clamp to 0, never go negative —
  // epoll_wait treats a negative timeout as "block forever".
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            wheel_start_)
          .count();
  for (std::size_t d = 1; d <= kTimerSlots; ++d) {
    const std::size_t slot = (ticks_done_ + d) % kTimerSlots;
    if (slots_[slot].empty()) continue;
    const auto due_ms =
        static_cast<std::int64_t>(ticks_done_ + d) * kTimerTick.count();
    // elapsed_ms is floor-truncated, so a sub-millisecond remainder still
    // sleeps 1ms instead of busy-spinning epoll_wait(0) until the tick.
    return static_cast<int>(
        std::clamp<std::int64_t>(due_ms - elapsed_ms, 0, 60'000));
  }
  return static_cast<int>(kTimerTick.count());
}

void EventLoop::advance_timers() {
  const auto& obs = obs::NetLoopObs::instance();
  const auto now = Clock::now();
  const auto now_ticks =
      static_cast<std::uint64_t>((now - wheel_start_) / kTimerTick);
  while (ticks_done_ < now_ticks) {
    ++ticks_done_;
    const std::size_t slot = ticks_done_ % kTimerSlots;
    if (slots_[slot].empty()) continue;
    // Swap the slot out: callbacks may arm new timers into this same slot
    // (a full-lap delay) and those must wait for their own visit.
    std::vector<TimerId> batch;
    batch.swap(slots_[slot]);
    std::vector<TimerId> keep;
    for (const TimerId id : batch) {
      const auto it = timers_.find(id);
      if (it == timers_.end()) continue;  // cancelled: drop the stale ref
      if (it->second.rounds > 0) {
        --it->second.rounds;
        keep.push_back(id);
        continue;
      }
      std::function<void()> fn = std::move(it->second.fn);
      timers_.erase(it);
      obs.timer_fires.add();
      fn();
    }
    auto& vec = slots_[slot];
    vec.insert(vec.end(), keep.begin(), keep.end());
  }
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::wake() {
#ifdef __linux__
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n =
      ::write(wake_write_, &one, sizeof(one));  // EAGAIN: already pending
#else
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_write_, &b, 1);
#endif
}

void EventLoop::drain_wakeup() {
  std::uint8_t buf[64];
  while (::read(wake_read_, buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::run_posted() {
  {
    std::lock_guard lk(post_mu_);
    posted_scratch_.swap(posted_);
  }
  for (auto& fn : posted_scratch_) fn();
  posted_scratch_.clear();
}

void EventLoop::run(const std::stop_token& st) {
  const auto& obs = obs::NetLoopObs::instance();
  while (!st.stop_requested()) {
    run_posted();
    advance_timers();
    if (st.stop_requested()) break;
    const int timeout = next_timeout_ms();

    // Collect (fd, mask) pairs first, dispatch second: a handler may
    // add/del registrations mid-batch, so every dispatch re-looks the fd
    // up and a deregistered one is skipped.
    struct Ready {
      int fd;
      std::uint32_t mask;
    };
    Ready ready[kMaxEventsPerWake];
    int n_ready = 0;

#ifdef __linux__
    if (ep_ >= 0) {
      epoll_event evs[kMaxEventsPerWake];
      const int n = ::epoll_wait(ep_, evs, kMaxEventsPerWake, timeout);
      obs.wakeups.add();
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll fd itself failed; nothing sane left to do
      }
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == wake_read_) {
          drain_wakeup();
          continue;
        }
        std::uint32_t mask = 0;
        if ((evs[i].events & (EPOLLIN | EPOLLPRI)) != 0) mask |= kReadable;
        if ((evs[i].events & EPOLLOUT) != 0) mask |= kWritable;
        if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) mask |= kError;
        ready[n_ready++] = Ready{fd, mask};
      }
    } else
#endif
    {
      if (pollset_dirty_) {
        pollset_.clear();
        pollset_.push_back(pollfd{wake_read_, POLLIN, 0});
        for (const auto& [fd, e] : fds_) {
          const short ev = static_cast<short>((e.want_read ? POLLIN : 0) |
                                              (e.want_write ? POLLOUT : 0));
          pollset_.push_back(pollfd{fd, ev, 0});
        }
        pollset_dirty_ = false;
      }
      const int n = ::poll(pollset_.data(),
                           static_cast<nfds_t>(pollset_.size()), timeout);
      obs.wakeups.add();
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (const pollfd& p : pollset_) {
        if (p.revents == 0) continue;
        if (p.fd == wake_read_) {
          drain_wakeup();
          continue;
        }
        std::uint32_t mask = 0;
        if ((p.revents & (POLLIN | POLLPRI)) != 0) mask |= kReadable;
        if ((p.revents & POLLOUT) != 0) mask |= kWritable;
        if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) mask |= kError;
        if (n_ready < kMaxEventsPerWake) ready[n_ready++] = Ready{p.fd, mask};
      }
    }

    for (int i = 0; i < n_ready; ++i) {
      const auto it = fds_.find(ready[i].fd);
      if (it == fds_.end()) continue;  // deregistered earlier in this batch
      obs.events.add();
      it->second.handler(ready[i].mask);
    }
  }
}

}  // namespace waves::net
