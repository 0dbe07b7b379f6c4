// PartyServer's event-loop core: one EventLoop thread owns every
// connection's state machine, a fixed WorkerPool runs process_frame, and
// push-drift checks are timer-wheel entries instead of sleeping threads.
// Per-connection state machine:
//
//       reading header ──> reading payload ──> computing ──> writing reply
//            ^  \_____________ (partial: deadline timer) ________/   |
//            |________________________<_______________________.______|
//                                                    push-armed (drift timer)
//
// Invariants that keep this core race-free with zero per-connection locks:
//   - the loop thread owns every Conn field except `sub`, which the worker
//     owns while `busy` is set (handoff happens-before via the pool queue
//     and loop.post's mutex);
//   - at most one worker job per connection is in flight (`busy`), so
//     frames are processed — and replies written — strictly in arrival
//     order, so requests and replies stay aligned;
//   - writes never block: flush_writes sends until EAGAIN and parks the
//     residue in a bounded write queue drained on EPOLLOUT; a queue that
//     stays nonempty past the connection's write budget closes it
//     (backpressure instead of a blocked thread).
#include <cerrno>
#include <cstring>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

// Pipelining bound: pending-but-undispatched frames per connection before
// the loop stops reading from it (kernel backpressure does the rest).
constexpr std::size_t kMaxPendingFrames = 32;
// Queued-write bound; a peer that won't drain this much is closed.
constexpr std::size_t kMaxWriteQueueBytes = std::size_t{4} << 20;
// Read throttle: stop pulling new requests while this much reply data is
// still queued.
constexpr std::size_t kWriteHighWater = std::size_t{256} << 10;

}  // namespace

struct PartyServer::LoopCore {
  explicit LoopCore(PartyServer& server)
      : srv(server),
        pool(server.cfg_.io_workers != 0 ? server.cfg_.io_workers
                                         : default_worker_count()) {}

  struct Conn {
    Socket sock;
    // -- read side (loop thread) --
    std::vector<std::uint8_t> inbuf;
    std::size_t inpos = 0;  // consumed prefix of inbuf
    std::deque<Frame> pending;
    bool peer_eof = false;
    bool read_enabled = true;
    // -- compute side --
    bool busy = false;           // one worker job in flight
    bool drift_pending = false;  // drift tick arrived while busy
    Subscription sub;            // worker-owned while busy
    bool sub_active = false;     // loop-thread snapshot of sub.active
    std::chrono::milliseconds drift_check{25};
    // -- write side (loop thread) --
    std::deque<Bytes> writeq;  // fully framed (header + payload) buffers
    std::size_t wq_head = 0;   // sent prefix of writeq.front()
    std::size_t wq_bytes = 0;
    bool want_write = false;
    bool close_after_flush = false;
    bool counted = false;  // counts against max_connections (not rejected)
    bool closed = false;
    std::chrono::milliseconds write_budget{5000};
    EventLoop::TimerId read_timer = 0;
    EventLoop::TimerId write_timer = 0;
    EventLoop::TimerId drift_timer = 0;
  };

  PartyServer& srv;
  EventLoop loop;
  WorkerPool pool;
  std::jthread thread;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::size_t serving = 0;  // counted connections (the max_connections set)
  bool draining = false;
  std::atomic<std::size_t> live{0};  // drain() polls this from outside
  std::vector<std::uint8_t> rdbuf = std::vector<std::uint8_t>(64 * 1024);

  // ---- lifecycle ----

  bool start() {
    if (!loop.ok()) return false;
    const bool ok = loop.add_fd(
        srv.listener_.fd(), /*read=*/true, /*write=*/false,
        [this](std::uint32_t) { on_accept(); });
    if (!ok) return false;
    thread = std::jthread([this](const std::stop_token& st) { loop.run(st); });
    return true;
  }

  void begin_drain() {
    draining = true;
    loop.del_fd(srv.listener_.fd());
    // Close everything idle; busy connections flush their last reply and
    // close at completion, within drain()'s grace.
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns.size());
    for (auto& [fd, c] : conns) snapshot.push_back(c);
    for (auto& c : snapshot) {
      c->close_after_flush = true;
      if (!c->busy) flush_writes(c);
    }
  }

  // ---- accept path ----

  void on_accept() {
    const auto& obs = obs::NetServerObs::instance();
    // Accept until EAGAIN: one readiness event may carry a whole burst of
    // queued peers, and leaving any behind would strand them until the
    // next connect wakes the loop.
    while (true) {
      Socket s = srv.listener_.try_accept();
      if (!s.valid()) break;
      obs.connections.add();
      if (draining) continue;  // RAII closes it
      auto c = std::make_shared<Conn>();
      c->sock = std::move(s);
      c->write_budget = srv.cfg_.io_deadline;
      if (serving >= srv.cfg_.max_connections) {
        // Typed rejection, nonblocking flavor: queue one kOverloaded Err
        // and give the peer a short courtesy budget to take it.
        obs.overload_rejected.add();
        ErrReply err{0, ErrCode::kOverloaded, "connection limit reached"};
        c->close_after_flush = true;
        c->write_budget = std::chrono::milliseconds(100);
        if (!register_conn(c)) continue;
        enqueue_frame(c, MsgType::kErr, err.encode());
        flush_writes(c);
        continue;
      }
      c->counted = true;
      if (!register_conn(c)) continue;
      ++serving;
      live.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool register_conn(const std::shared_ptr<Conn>& c) {
    const int fd = c->sock.fd();
    const bool ok =
        loop.add_fd(fd, /*read=*/!c->close_after_flush, /*write=*/false,
                    [this, fd](std::uint32_t mask) { on_event(fd, mask); });
    if (!ok) return false;
    c->read_enabled = !c->close_after_flush;
    conns.emplace(fd, c);
    return true;
  }

  // ---- event dispatch ----

  void on_event(int fd, std::uint32_t mask) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    std::shared_ptr<Conn> c = it->second;
    if ((mask & EventLoop::kReadable) != 0) {
      on_readable(c);
      if (c->closed) return;
    }
    if ((mask & EventLoop::kWritable) != 0) {
      flush_writes(c);
      if (c->closed) return;
    }
    if ((mask & EventLoop::kError) != 0 &&
        (mask & (EventLoop::kReadable | EventLoop::kWritable)) == 0) {
      close_conn(c);
    }
  }

  void on_readable(const std::shared_ptr<Conn>& c) {
    const auto& obs = obs::NetServerObs::instance();
    if constexpr (kFaultsEnabled) {
      if (faults_armed()) {
        const FaultDecision f = next_recv_fault();
        if (f.action == FaultAction::kDrop ||
            f.action == FaultAction::kReset) {
          close_conn(c);
          return;
        }
      }
    }
    std::size_t got = 0;
    while (got < kWriteHighWater) {  // per-event read bound: no starvation
      const ssize_t n = ::recv(c->sock.fd(), rdbuf.data(), rdbuf.size(), 0);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
        c->inbuf.insert(c->inbuf.end(), rdbuf.data(), rdbuf.data() + n);
        if (static_cast<std::size_t>(n) < rdbuf.size()) break;
        continue;
      }
      if (n == 0) {
        c->peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(c);  // hard socket error
      return;
    }

    // Extract every complete frame; a malformed header loses framing for
    // good, exactly like read_frame's kMalformed.
    while (c->inbuf.size() - c->inpos >= kHeaderSize) {
      MsgType type{};
      std::uint32_t len = 0;
      if (!parse_header(c->inbuf.data() + c->inpos, type, len)) {
        obs.frame_errors.add();
        ErrReply err{0, ErrCode::kBadRequest, "malformed frame"};
        enqueue_frame(c, MsgType::kErr, err.encode());
        c->close_after_flush = true;
        set_read_enabled(c, false);
        flush_writes(c);
        return;
      }
      if (c->inbuf.size() - c->inpos < kHeaderSize + len) break;
      Frame f;
      f.type = type;
      const auto* p = c->inbuf.data() + c->inpos + kHeaderSize;
      f.payload.assign(p, p + len);
      c->inpos += kHeaderSize + len;
      obs.bytes_received.add(kHeaderSize + f.payload.size());
      c->pending.push_back(std::move(f));
    }
    if (c->inpos == c->inbuf.size()) {
      c->inbuf.clear();
      c->inpos = 0;
    } else if (c->inpos > rdbuf.size()) {
      c->inbuf.erase(c->inbuf.begin(),
                     c->inbuf.begin() + static_cast<std::ptrdiff_t>(c->inpos));
      c->inpos = 0;
    }

    // Slow-loris guard: a partial frame must complete within io_deadline
    // of its first byte or the deadline wheel expires the connection —
    // without ever stalling another session.
    const bool partial = c->inbuf.size() > c->inpos;
    if (partial && c->read_timer == 0) {
      std::weak_ptr<Conn> w = c;
      c->read_timer = loop.arm_timer(srv.cfg_.io_deadline, [this, w] {
        if (auto cc = w.lock(); cc && !cc->closed) {
          cc->read_timer = 0;
          close_conn(cc);
        }
      });
    } else if (!partial && c->read_timer != 0) {
      loop.cancel_timer(c->read_timer);
      c->read_timer = 0;
    }

    if (c->peer_eof && c->pending.empty() && !c->busy && c->writeq.empty()) {
      close_conn(c);
      return;
    }
    update_read_interest(c);
    dispatch_next(c);
  }

  // ---- compute path ----

  void dispatch_next(const std::shared_ptr<Conn>& c) {
    if (c->busy || c->closed || c->close_after_flush) return;
    if (!c->pending.empty()) {
      Frame f = std::move(c->pending.front());
      c->pending.pop_front();
      c->busy = true;
      pool.submit([this, c, f = std::move(f)]() mutable {
        auto out = std::make_shared<Outbox>();
        const ConnAction act = srv.process_frame(f, c->sub, *out);
        loop.post([this, c, out, act] { complete(c, *out, act); });
      });
      return;
    }
    if (c->drift_pending) {
      c->drift_pending = false;
      c->busy = true;
      pool.submit([this, c] {
        auto out = std::make_shared<Outbox>();
        srv.drift_tick(c->sub, *out);
        loop.post([this, c, out] { complete(c, *out, ConnAction::kKeep); });
      });
    }
  }

  void complete(const std::shared_ptr<Conn>& c, Outbox& out, ConnAction act) {
    c->busy = false;
    if (c->closed) return;
    // The worker has handed `sub` back; snapshot what the loop thread
    // needs for timer management.
    c->sub_active = c->sub.active;
    c->drift_check = c->sub.check;
    for (OutFrame& f : out) {
      enqueue_frame(c, f.type, std::move(f.payload));
      if (c->closed) return;  // injected send fault dropped the connection
    }
    if (act == ConnAction::kClose) {
      c->close_after_flush = true;
      set_read_enabled(c, false);
    }
    flush_writes(c);
    if (c->closed || c->close_after_flush) return;
    if (c->peer_eof && c->pending.empty() && c->writeq.empty()) {
      close_conn(c);
      return;
    }
    manage_drift_timer(c);
    update_read_interest(c);
    dispatch_next(c);
  }

  void manage_drift_timer(const std::shared_ptr<Conn>& c) {
    if (c->sub_active && c->drift_timer == 0) {
      arm_drift_timer(c);
    } else if (!c->sub_active && c->drift_timer != 0) {
      loop.cancel_timer(c->drift_timer);
      c->drift_timer = 0;
      c->drift_pending = false;
    }
  }

  void arm_drift_timer(const std::shared_ptr<Conn>& c) {
    std::weak_ptr<Conn> w = c;
    c->drift_timer = loop.arm_timer(c->drift_check, [this, w] {
      auto cc = w.lock();
      if (!cc || cc->closed) return;
      cc->drift_timer = 0;
      if (!cc->sub_active || cc->close_after_flush) return;
      arm_drift_timer(cc);  // fixed cadence
      if (cc->busy) {
        cc->drift_pending = true;  // coalesces: one pending check at most
      } else {
        cc->drift_pending = true;
        dispatch_next(cc);
      }
    });
  }

  // ---- write path ----

  void enqueue_frame(const std::shared_ptr<Conn>& c, MsgType type,
                     Bytes payload) {
    const auto& obs = obs::NetServerObs::instance();
    const auto header =
        put_header(type, static_cast<std::uint32_t>(payload.size()));
    Bytes buf(kHeaderSize + payload.size());
    std::memcpy(buf.data(), header.data(), kHeaderSize);
    if (!payload.empty()) {
      std::memcpy(buf.data() + kHeaderSize, payload.data(), payload.size());
    }
    if constexpr (kFaultsEnabled) {
      // Mirror Socket::send_all's per-frame fault draw so WAVES_FAULTS
      // chaos runs exercise this core identically.
      if (faults_armed()) {
        const FaultDecision f = next_send_fault(buf.size());
        switch (f.action) {
          case FaultAction::kDrop:
          case FaultAction::kReset:
            close_conn(c);
            return;
          case FaultAction::kTruncate:
            buf.resize(f.offset);
            c->close_after_flush = true;
            break;
          case FaultAction::kCorrupt:
            buf[f.offset] ^= f.xor_mask;
            break;
          case FaultAction::kDelay:
          case FaultAction::kNone:
            break;
        }
      }
    }
    c->wq_bytes += buf.size();
    c->writeq.push_back(std::move(buf));
    obs.bytes_sent.add(kHeaderSize + payload.size());
    if (c->wq_bytes > kMaxWriteQueueBytes) {
      close_conn(c);  // peer can't keep up; byte cap bounds the memory
    }
  }

  void flush_writes(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    while (!c->writeq.empty()) {
      const Bytes& front = c->writeq.front();
      const ssize_t n = ::send(c->sock.fd(), front.data() + c->wq_head,
                               front.size() - c->wq_head, MSG_NOSIGNAL);
      if (n > 0) {
        c->wq_head += static_cast<std::size_t>(n);
        c->wq_bytes -= static_cast<std::size_t>(n);
        if (c->wq_head == front.size()) {
          c->writeq.pop_front();
          c->wq_head = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_conn(c);
      return;
    }
    if (c->writeq.empty()) {
      if (c->write_timer != 0) {
        loop.cancel_timer(c->write_timer);
        c->write_timer = 0;
      }
      set_want_write(c, false);
      if (c->close_after_flush) {
        close_conn(c);
        return;
      }
      update_read_interest(c);
      return;
    }
    // Residue: arm EPOLLOUT and the write budget (stall -> close).
    obs::NetLoopObs::instance().stalled_writes.add();
    set_want_write(c, true);
    if (c->write_timer == 0) {
      std::weak_ptr<Conn> w = c;
      c->write_timer = loop.arm_timer(c->write_budget, [this, w] {
        if (auto cc = w.lock(); cc && !cc->closed) {
          cc->write_timer = 0;
          close_conn(cc);
        }
      });
    }
  }

  // ---- interest management ----

  void set_want_write(const std::shared_ptr<Conn>& c, bool w) {
    if (c->want_write == w) return;
    c->want_write = w;
    (void)loop.mod_fd(c->sock.fd(), c->read_enabled, w);
  }

  void set_read_enabled(const std::shared_ptr<Conn>& c, bool r) {
    if (c->read_enabled == r) return;
    c->read_enabled = r;
    (void)loop.mod_fd(c->sock.fd(), r, c->want_write);
  }

  void update_read_interest(const std::shared_ptr<Conn>& c) {
    const bool throttled = c->pending.size() >= kMaxPendingFrames ||
                           c->wq_bytes >= kWriteHighWater;
    set_read_enabled(c, !c->close_after_flush && !c->peer_eof && !throttled);
  }

  // ---- teardown ----

  void close_conn(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    c->closed = true;
    if (c->read_timer != 0) loop.cancel_timer(c->read_timer);
    if (c->write_timer != 0) loop.cancel_timer(c->write_timer);
    if (c->drift_timer != 0) loop.cancel_timer(c->drift_timer);
    c->read_timer = c->write_timer = c->drift_timer = 0;
    loop.del_fd(c->sock.fd());
    conns.erase(c->sock.fd());
    if (c->counted) {
      --serving;
      live.fetch_sub(1, std::memory_order_relaxed);
    }
    c->sock.close();
  }
};

PartyServer::~PartyServer() { stop(); }

void PartyServer::LoopCoreDeleter::operator()(LoopCore* core) const {
  delete core;
}

bool PartyServer::start() {
  if (!listener_.listen_on(cfg_.host, cfg_.port)) return false;
  loop_ = std::unique_ptr<LoopCore, LoopCoreDeleter>(new LoopCore(*this));
  if (loop_->start()) return true;
  loop_.reset();
  listener_.close();
  return false;
}

void PartyServer::stop() {
  if (loop_ != nullptr) {
    if (loop_->thread.joinable()) {
      loop_->thread.request_stop();
      loop_->loop.wake();
      loop_->thread.join();
    }
    // LoopCore's destructor order finishes the job: the pool joins its
    // workers (in-flight jobs post into the still-live loop object, where
    // the closures are simply never run), then the loop and conns go.
    loop_.reset();
  }
  listener_.close();
}

void PartyServer::drain(std::chrono::milliseconds grace) {
  if (loop_ != nullptr) {
    loop_->loop.post([core = loop_.get()] { core->begin_drain(); });
    loop_->loop.wake();
    const Deadline dl = deadline_in(grace);
    while (loop_->live.load(std::memory_order_relaxed) > 0 &&
           Clock::now() < dl) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop();  // stragglers past the grace window are stopped the hard way
}

}  // namespace waves::net
