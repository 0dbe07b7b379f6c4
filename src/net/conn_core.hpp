// One connection core for every listening component: PartyServer
// (server_loop.cpp) and MonitorHub's watcher fan-out
// (monitor/hub_loop.cpp). A single EventLoop thread owns every accepted
// connection; an owner derives from ConnCore, handles each complete frame
// on that thread, and answers by queueing frames on the connection. The
// core never blocks, so connection state needs no locks.
//
// Per connection:
//
//   accept  runs to EAGAIN (one wakeup admits a whole burst). Past
//           max_conns a peer gets one Err{kOverloaded} and is closed.
//   read    recv to EAGAIN, bounded per event; complete frames go to
//           on_frame in arrival order. A malformed header loses framing for
//           good: Err{kBadRequest}, then close. A partial frame must finish
//           within io_deadline of its first byte (the slow-loris guard).
//   write   send() only queues; flush() writes until EAGAIN and leaves the
//           rest for EPOLLOUT. While kHighWater bytes are queued the
//           connection stops reading and dispatching, and the kernel's
//           buffers push back on the peer. A queue past max_queue_bytes,
//           or one that stays non-empty for write_budget, is evicted: a
//           best-effort Err{kOverloaded}, then close.
//   EOF     frames already received are answered, the queue is flushed,
//           then the connection closes.
//
// WAVES_FAULTS draws one recv fault per readable event and one send fault
// per queued frame, like Socket's blocking calls, so chaos runs exercise
// this core too.
//
// Threading: start/stop/drain and loop().post() may be called from any
// thread; everything else runs on the loop thread. Owners call stop()
// before their own members go away (the loop thread calls into them).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace waves::net {

struct ConnLimits {
  std::size_t max_conns = 64;
  std::chrono::milliseconds io_deadline{5000};   // partial-frame deadline
  std::chrono::milliseconds write_budget{5000};  // stalled-queue deadline
  std::size_t max_queue_bytes = std::size_t{4} << 20;
  int sndbuf = 0;  // SO_SNDBUF for accepted sockets; 0 keeps the default
  const char* reject_msg = "connection limit reached";
  const char* evict_msg = "peer too slow; closed";
};

/// The owner's counters; any may be null.
struct ConnCounters {
  const obs::Counter* accepted = nullptr;
  const obs::Counter* rejected = nullptr;  // over max_conns
  const obs::Counter* evicted = nullptr;   // stall or queue overflow
  const obs::Counter* frame_errors = nullptr;
  const obs::Counter* bytes_in = nullptr;
  const obs::Counter* bytes_out = nullptr;
};

class ConnCore {
 public:
  /// Queued bytes at which a connection stops reading, and the most one
  /// readable event pulls in (no connection starves the others).
  static constexpr std::size_t kHighWater = std::size_t{256} << 10;

  /// One connection. Owners derive from it to hold per-connection state
  /// (make_conn) and static_cast back in their handlers.
  class Conn : public std::enable_shared_from_this<Conn> {
   public:
    virtual ~Conn() = default;
    /// Closed, or closing once the queue drains: queue nothing more.
    [[nodiscard]] bool closing() const noexcept {
      return closed_ || close_after_flush_;
    }
    [[nodiscard]] bool write_pending() const noexcept {
      return !writeq_.empty();
    }

   private:
    friend class ConnCore;
    Socket sock_;
    std::vector<std::uint8_t> inbuf_;
    std::size_t inpos_ = 0;  // consumed prefix of inbuf_
    std::deque<Bytes> writeq_;  // framed buffers
    std::size_t wq_head_ = 0;   // sent prefix of writeq_.front()
    std::size_t wq_bytes_ = 0;
    std::chrono::milliseconds write_budget_{0};
    EventLoop::TimerId read_timer_ = 0;
    EventLoop::TimerId write_timer_ = 0;
    bool peer_eof_ = false;
    bool close_after_flush_ = false;
    bool counted_ = false;  // holds one of the max_conns slots
    bool closed_ = false;
  };

  ConnCore(Listener& listener, ConnLimits limits, ConnCounters counters);
  virtual ~ConnCore();

  ConnCore(const ConnCore&) = delete;
  ConnCore& operator=(const ConnCore&) = delete;

  /// Register the (already listening) listener and start the loop thread.
  [[nodiscard]] bool start();
  /// Join the loop thread. Idempotent.
  void stop();
  /// Stop accepting, close every connection once its queue drains, and
  /// wait up to `grace` for that; then stop().
  void drain(std::chrono::milliseconds grace);
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }

  // -- loop thread --------------------------------------------------------
  /// Queue one frame (a no-op once the connection is closed).
  void send(Conn& c, MsgType type, const Bytes& payload);
  /// Write what is queued, then answer any frames held back while the
  /// queue was full, and re-arm the connection's timers and interest.
  void flush(Conn& c);
  /// Stop reading; close once the queue drains.
  void finish(Conn& c);
  /// Visit every open connection (a snapshot: `fn` may close any of them).
  template <class Fn>
  void for_each(Fn&& fn) {
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns_.size());
    for (auto& [fd, c] : conns_) snapshot.push_back(c);
    for (const auto& c : snapshot) {
      if (!c->closed_) fn(*c);
    }
  }

 protected:
  [[nodiscard]] virtual std::shared_ptr<Conn> make_conn() {
    return std::make_shared<Conn>();
  }
  /// One complete frame, in arrival order. May send() and finish().
  virtual void on_frame(Conn& c, MsgType type, const Bytes& payload) = 0;
  /// The queue just drained on an open connection; may send() more.
  virtual void on_drained(Conn& /*c*/) {}
  /// Teardown hook: the connection is closed and about to be dropped.
  virtual void on_closed(Conn& /*c*/) {}

  /// One-shot timer that runs `fn(c)` on the loop thread unless `c` has
  /// closed by then. Cancel with loop().cancel_timer.
  template <class Fn>
  EventLoop::TimerId arm(Conn& c, std::chrono::milliseconds delay, Fn fn) {
    return loop_.arm_timer(delay, [w = c.weak_from_this(), fn] {
      if (const auto cc = w.lock(); cc && !cc->closed_) fn(*cc);
    });
  }

 private:
  void on_accept();
  void on_event(int fd, std::uint32_t mask);
  void on_readable(Conn& c);
  /// Hand complete frames to on_frame until the queue reaches kHighWater.
  void dispatch(Conn& c);
  [[nodiscard]] bool has_frame(const Conn& c) const;
  /// send() until EAGAIN; false if the connection was closed.
  [[nodiscard]] bool write_out(Conn& c);
  void settle(Conn& c);
  void evict(Conn& c);
  void close(Conn& c);

  Listener& listener_;
  ConnLimits limits_;
  ConnCounters counters_;
  EventLoop loop_;
  std::jthread thread_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::atomic<std::size_t> live_{0};  // counted connections; drain() polls
  std::vector<std::uint8_t> rdbuf_ = std::vector<std::uint8_t>(64 * 1024);
  Bytes payload_;  // the frame on_frame is looking at (reused)
};

}  // namespace waves::net
