// MonitorHub's event-loop watcher core: one EventLoop thread owns every
// watcher connection, so thousands of `wavecli watch` subscribers cost one
// resident thread instead of one thread each. Protocol work per frame is a handful of varint decodes and
// a mutex-guarded estimate copy — cheap enough to run on the loop thread
// directly, so unlike PartyServer's core there is no worker pool.
//
// Fan-out is revision-driven with latest-wins coalescing: recompute()
// posts one (coalesced) notify onto the loop, which walks the subscribed
// watchers and enqueues the *current* estimate for any watcher whose
// write queue is empty. A watcher mid-stall skips the round; when its
// queue drains, pump() re-reads the estimate and sends the newest
// revision — intermediate revisions are never queued, so a slow watcher's
// memory footprint stays one frame no matter how fast the hub recomputes.
//
// Backpressure: a write queue that stays non-empty past
// watcher_write_budget evicts the watcher with a typed kOverloaded close
// (best-effort — the err frame only lands if the socket has room), counted
// in waves_monitor_hub_watcher_evicted_total.
#include <cstring>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monitor/hub.hpp"
#include "net/event_loop.hpp"
#include "obs/monitor_obs.hpp"

namespace waves::monitor {

namespace {

using distributed::Bytes;

// Queued-write byte cap per watcher. Coalescing keeps the queue at one
// estimate frame in steady state; the cap is the hard stop if a peer
// stalls mid-ack while protocol replies pile up.
constexpr std::size_t kMaxWatcherQueueBytes = std::size_t{64} << 10;

}  // namespace

struct MonitorHub::WatchCore {
  explicit WatchCore(MonitorHub& owner) : hub(owner) {}

  struct Watcher {
    net::Socket sock;
    // -- read side --
    std::vector<std::uint8_t> inbuf;
    std::size_t inpos = 0;  // consumed prefix of inbuf
    bool peer_eof = false;
    bool read_enabled = true;
    // -- subscription --
    bool subscribed = false;
    std::uint64_t seq = 0;            // per-watcher push counter (no gaps)
    std::uint64_t sent_revision = 0;  // newest revision on the wire
    // -- write side --
    std::deque<Bytes> writeq;  // fully framed buffers
    std::size_t wq_head = 0;   // sent prefix of writeq.front()
    std::size_t wq_bytes = 0;
    bool want_write = false;
    bool close_after_flush = false;
    bool counted = false;  // counts against max_watchers (not rejected)
    bool closed = false;
    std::chrono::milliseconds write_budget{250};
    net::EventLoop::TimerId read_timer = 0;
    net::EventLoop::TimerId write_timer = 0;
  };

  MonitorHub& hub;
  net::EventLoop loop;
  std::jthread thread;
  std::unordered_map<int, std::shared_ptr<Watcher>> conns;
  std::size_t serving = 0;  // counted watchers (the max_watchers set)
  std::atomic<bool> notify_pending{false};
  std::vector<std::uint8_t> rdbuf = std::vector<std::uint8_t>(16 * 1024);

  // ---- lifecycle ----

  bool start() {
    if (!loop.ok()) return false;
    const bool ok =
        loop.add_fd(hub.listener_.fd(), /*read=*/true, /*write=*/false,
                    [this](std::uint32_t) { on_accept(); });
    if (!ok) return false;
    thread = std::jthread([this](const std::stop_token& st) { loop.run(st); });
    return true;
  }

  // ---- accept path ----

  void on_accept() {
    const auto& mobs = obs::MonitorHubObs::instance();
    while (true) {
      net::Socket s = hub.listener_.try_accept();
      if (!s.valid()) break;
      if (hub.cfg_.watcher_sndbuf > 0) {
        ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &hub.cfg_.watcher_sndbuf,
                     sizeof hub.cfg_.watcher_sndbuf);
      }
      mobs.watchers.add();
      auto w = std::make_shared<Watcher>();
      w->sock = std::move(s);
      w->write_budget = hub.cfg_.watcher_write_budget;
      if (serving >= hub.cfg_.max_watchers) {
        mobs.watcher_rejected.add();
        const net::ErrReply err{0, net::ErrCode::kOverloaded,
                                "watcher limit reached"};
        w->close_after_flush = true;
        w->write_budget = std::chrono::milliseconds(100);
        if (!register_watcher(w)) continue;
        enqueue_frame(w, net::MsgType::kErr, err.encode());
        flush_writes(w);
        continue;
      }
      w->counted = true;
      if (!register_watcher(w)) continue;
      ++serving;
    }
  }

  [[nodiscard]] bool register_watcher(const std::shared_ptr<Watcher>& w) {
    const int fd = w->sock.fd();
    const bool ok =
        loop.add_fd(fd, /*read=*/!w->close_after_flush, /*write=*/false,
                    [this, fd](std::uint32_t mask) { on_event(fd, mask); });
    if (!ok) return false;
    w->read_enabled = !w->close_after_flush;
    conns.emplace(fd, w);
    return true;
  }

  // ---- event dispatch ----

  void on_event(int fd, std::uint32_t mask) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    std::shared_ptr<Watcher> w = it->second;
    if ((mask & net::EventLoop::kReadable) != 0) {
      on_readable(w);
      if (w->closed) return;
    }
    if ((mask & net::EventLoop::kWritable) != 0) {
      pump(w);
      if (w->closed) return;
    }
    if ((mask & net::EventLoop::kError) != 0 &&
        (mask & (net::EventLoop::kReadable | net::EventLoop::kWritable)) ==
            0) {
      close_watcher(w);
    }
  }

  void on_readable(const std::shared_ptr<Watcher>& w) {
    while (true) {
      const ssize_t n = ::recv(w->sock.fd(), rdbuf.data(), rdbuf.size(), 0);
      if (n > 0) {
        w->inbuf.insert(w->inbuf.end(), rdbuf.data(), rdbuf.data() + n);
        if (static_cast<std::size_t>(n) < rdbuf.size()) break;
        continue;
      }
      if (n == 0) {
        w->peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_watcher(w);  // hard socket error
      return;
    }

    while (!w->closed && !w->close_after_flush &&
           w->inbuf.size() - w->inpos >= net::kHeaderSize) {
      net::MsgType type{};
      std::uint32_t len = 0;
      if (!net::parse_header(w->inbuf.data() + w->inpos, type, len)) {
        send_err(w, 0, net::ErrCode::kBadRequest, "malformed frame");
        begin_close(w);
        break;
      }
      if (w->inbuf.size() - w->inpos < net::kHeaderSize + len) break;
      Bytes payload(w->inbuf.data() + w->inpos + net::kHeaderSize,
                    w->inbuf.data() + w->inpos + net::kHeaderSize + len);
      w->inpos += net::kHeaderSize + len;
      process_frame(w, type, payload);
    }
    if (w->closed) return;
    if (w->inpos == w->inbuf.size()) {
      w->inbuf.clear();
      w->inpos = 0;
    } else if (w->inpos > rdbuf.size()) {
      w->inbuf.erase(w->inbuf.begin(),
                     w->inbuf.begin() + static_cast<std::ptrdiff_t>(w->inpos));
      w->inpos = 0;
    }

    // Slow-loris guard: a partial frame must complete within io_deadline.
    const bool partial = w->inbuf.size() > w->inpos;
    if (partial && w->read_timer == 0) {
      std::weak_ptr<Watcher> wk = w;
      w->read_timer = loop.arm_timer(hub.cfg_.io_deadline, [this, wk] {
        if (auto ww = wk.lock(); ww && !ww->closed) {
          ww->read_timer = 0;
          close_watcher(ww);
        }
      });
    } else if (!partial && w->read_timer != 0) {
      loop.cancel_timer(w->read_timer);
      w->read_timer = 0;
    }

    if (w->peer_eof && !w->close_after_flush) {
      // A watcher that half-closes is done: close as soon as a read sees
      // EOF, dropping any queued estimate.
      close_watcher(w);
      return;
    }
    pump(w);
  }

  // ---- protocol (loop thread; every handler is a few varint decodes) ----

  void process_frame(const std::shared_ptr<Watcher>& w, net::MsgType type,
                     const Bytes& payload) {
    switch (type) {
      case net::MsgType::kHello: {
        net::Hello h;
        if (!net::Hello::decode(payload, h)) {
          send_err(w, 0, net::ErrCode::kBadRequest, "bad hello");
          begin_close(w);
          return;
        }
        net::HelloAck ack;
        ack.role = hub.cfg_.role;
        ack.party_id = 0;
        ack.instances =
            static_cast<std::uint64_t>(std::max(hub.cfg_.instances, 0));
        ack.window = hub.cfg_.n;
        ack.items_observed = 0;
        ack.generation = 0;
        enqueue_frame(w, net::MsgType::kHelloAck, ack.encode());
        return;
      }
      case net::MsgType::kSubscribe: {
        net::SubscribeRequest req;
        if (!net::SubscribeRequest::decode(payload, req)) {
          send_err(w, 0, net::ErrCode::kBadRequest, "bad subscribe");
          begin_close(w);
          return;
        }
        if (req.role != hub.cfg_.role) {
          send_err(w, req.request_id, net::ErrCode::kWrongRole,
                   "hub monitors a different role");
          return;
        }
        if (req.n != hub.cfg_.n) {
          send_err(w, req.request_id, net::ErrCode::kBadRequest,
                   "hub monitors a different window");
          return;
        }
        w->subscribed = true;
        // The current estimate is the subscription's ack, whatever its
        // revision.
        enqueue_estimate(w, hub.estimate());
        return;
      }
      case net::MsgType::kUnsubscribe: {
        net::Unsubscribe u;
        if (!net::Unsubscribe::decode(payload, u)) {
          send_err(w, 0, net::ErrCode::kBadRequest, "bad unsubscribe");
          begin_close(w);
          return;
        }
        w->subscribed = false;
        return;
      }
      default:
        send_err(w, 0, net::ErrCode::kBadRequest,
                 "unsupported message for a monitor hub");
        begin_close(w);
        return;
    }
  }

  void send_err(const std::shared_ptr<Watcher>& w, std::uint64_t request_id,
                net::ErrCode code, const char* msg) {
    enqueue_frame(w, net::MsgType::kErr,
                  net::ErrReply{request_id, code, msg}.encode());
  }

  void begin_close(const std::shared_ptr<Watcher>& w) {
    w->close_after_flush = true;
    set_read_enabled(w, false);
  }

  // ---- fan-out ----

  void fan_out() {
    const HubEstimate e = hub.estimate();
    std::vector<std::shared_ptr<Watcher>> snapshot;
    snapshot.reserve(conns.size());
    for (auto& [fd, w] : conns) snapshot.push_back(w);
    for (auto& w : snapshot) {
      if (w->closed || w->close_after_flush || !w->subscribed) continue;
      if (e.revision <= w->sent_revision) continue;
      // A stalled watcher skips the round; pump() picks up the newest
      // revision when (if) its queue drains — latest wins.
      if (!w->writeq.empty()) continue;
      enqueue_estimate(w, e);
      pump(w);
    }
  }

  void enqueue_estimate(const std::shared_ptr<Watcher>& w,
                        const HubEstimate& e) {
    const auto& mobs = obs::MonitorHubObs::instance();
    net::EstimateUpdate up;
    up.seq = ++w->seq;
    up.round = e.revision;
    up.status = e.status == distributed::QueryStatus::kOk ? 1
                : e.status == distributed::QueryStatus::kDegraded ? 2
                                                                  : 3;
    up.value = e.value;
    up.exact = e.exact;
    up.n = hub.cfg_.n;
    up.missing = e.missing;
    up.error_slack = e.error_slack;
    Bytes payload;
    up.encode_into(payload);
    w->sent_revision = e.revision;
    mobs.watcher_updates.add();
    enqueue_frame(w, net::MsgType::kPushUpdate, payload);
  }

  // ---- write path ----

  void enqueue_frame(const std::shared_ptr<Watcher>& w, net::MsgType type,
                     const Bytes& payload) {
    const auto header = net::put_header(
        type, static_cast<std::uint32_t>(payload.size()));
    Bytes buf(net::kHeaderSize + payload.size());
    std::memcpy(buf.data(), header.data(), net::kHeaderSize);
    if (!payload.empty()) {
      std::memcpy(buf.data() + net::kHeaderSize, payload.data(),
                  payload.size());
    }
    w->wq_bytes += buf.size();
    w->writeq.push_back(std::move(buf));
    if (w->wq_bytes > kMaxWatcherQueueBytes) evict(w);
  }

  /// Flush, then keep the subscribed watcher current: whenever the queue
  /// fully drains, re-read the estimate and send the newest unseen
  /// revision. Terminates because each lap advances sent_revision.
  void pump(const std::shared_ptr<Watcher>& w) {
    while (true) {
      flush_writes(w);
      if (w->closed || w->close_after_flush || !w->writeq.empty()) return;
      if (!w->subscribed) return;
      const HubEstimate e = hub.estimate();
      if (e.revision <= w->sent_revision) return;
      enqueue_estimate(w, e);
    }
  }

  void flush_writes(const std::shared_ptr<Watcher>& w) {
    if (w->closed) return;
    while (!w->writeq.empty()) {
      const Bytes& front = w->writeq.front();
      const ssize_t n = ::send(w->sock.fd(), front.data() + w->wq_head,
                               front.size() - w->wq_head, MSG_NOSIGNAL);
      if (n > 0) {
        w->wq_head += static_cast<std::size_t>(n);
        w->wq_bytes -= static_cast<std::size_t>(n);
        if (w->wq_head == front.size()) {
          w->writeq.pop_front();
          w->wq_head = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_watcher(w);
      return;
    }
    if (w->writeq.empty()) {
      if (w->write_timer != 0) {
        loop.cancel_timer(w->write_timer);
        w->write_timer = 0;
      }
      set_want_write(w, false);
      if (w->close_after_flush) close_watcher(w);
      return;
    }
    // Residue: arm EPOLLOUT and the write budget. A queue still non-empty
    // when the budget fires is a stalled watcher — evicted, not waited on.
    set_want_write(w, true);
    if (w->write_timer == 0) {
      std::weak_ptr<Watcher> wk = w;
      w->write_timer = loop.arm_timer(w->write_budget, [this, wk] {
        auto ww = wk.lock();
        if (!ww || ww->closed) return;
        ww->write_timer = 0;
        if (ww->close_after_flush) {
          close_watcher(ww);  // courtesy flush expired; just drop it
          return;
        }
        evict(ww);
      });
    }
  }

  /// Typed eviction: count it, best-effort the kOverloaded err (it only
  /// lands if the socket has room), close.
  void evict(const std::shared_ptr<Watcher>& w) {
    obs::MonitorHubObs::instance().watcher_evicted.add();
    const net::ErrReply err{0, net::ErrCode::kOverloaded,
                            "watcher too slow; evicted"};
    const Bytes payload = err.encode();
    const auto header = net::put_header(
        net::MsgType::kErr, static_cast<std::uint32_t>(payload.size()));
    Bytes buf(net::kHeaderSize + payload.size());
    std::memcpy(buf.data(), header.data(), net::kHeaderSize);
    std::memcpy(buf.data() + net::kHeaderSize, payload.data(),
                payload.size());
    (void)::send(w->sock.fd(), buf.data(), buf.size(), MSG_NOSIGNAL);
    close_watcher(w);
  }

  // ---- interest management ----

  void set_want_write(const std::shared_ptr<Watcher>& w, bool want) {
    if (w->want_write == want) return;
    w->want_write = want;
    (void)loop.mod_fd(w->sock.fd(), w->read_enabled, want);
  }

  void set_read_enabled(const std::shared_ptr<Watcher>& w, bool r) {
    if (w->read_enabled == r) return;
    w->read_enabled = r;
    (void)loop.mod_fd(w->sock.fd(), r, w->want_write);
  }

  // ---- teardown ----

  void close_watcher(const std::shared_ptr<Watcher>& w) {
    if (w->closed) return;
    w->closed = true;
    if (w->read_timer != 0) loop.cancel_timer(w->read_timer);
    if (w->write_timer != 0) loop.cancel_timer(w->write_timer);
    w->read_timer = w->write_timer = 0;
    loop.del_fd(w->sock.fd());
    conns.erase(w->sock.fd());
    if (w->counted) --serving;
    w->sock.close();
  }
};

void MonitorHub::WatchCoreDeleter::operator()(WatchCore* core) const {
  delete core;
}

bool MonitorHub::watch_start() {
  watch_core_ =
      std::unique_ptr<WatchCore, WatchCoreDeleter>(new WatchCore(*this));
  if (watch_core_->start()) return true;
  watch_core_.reset();
  return false;
}

void MonitorHub::watch_stop() {
  if (watch_core_ == nullptr) return;
  if (watch_core_->thread.joinable()) {
    watch_core_->thread.request_stop();
    watch_core_->loop.wake();
    watch_core_->thread.join();
  }
  watch_core_.reset();
}

void MonitorHub::watch_notify() {
  if (watch_core_ == nullptr) return;
  // Coalesced: many recomputes between loop wakeups collapse into one
  // fan-out of the newest estimate (latest wins per watcher anyway).
  if (watch_core_->notify_pending.exchange(true)) return;
  watch_core_->loop.post([core = watch_core_.get()] {
    core->notify_pending.store(false);
    core->fan_out();
  });
}

}  // namespace waves::monitor
