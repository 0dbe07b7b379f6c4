#include "net/conn_core.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/fault.hpp"
#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

void bump(const obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

Bytes framed(MsgType type, const Bytes& payload) {
  const auto header =
      put_header(type, static_cast<std::uint32_t>(payload.size()));
  Bytes buf(kHeaderSize + payload.size());
  std::memcpy(buf.data(), header.data(), kHeaderSize);
  if (!payload.empty()) {
    std::memcpy(buf.data() + kHeaderSize, payload.data(), payload.size());
  }
  return buf;
}

}  // namespace

ConnCore::ConnCore(Listener& listener, ConnLimits limits,
                   ConnCounters counters)
    : listener_(listener), limits_(limits), counters_(counters) {}

ConnCore::~ConnCore() { stop(); }

// ---- lifecycle ----

bool ConnCore::start() {
  if (!loop_.ok()) return false;
  if (!loop_.add_fd(listener_.fd(), /*read=*/true, /*write=*/false,
                    [this](std::uint32_t) { on_accept(); })) {
    return false;
  }
  thread_ = std::jthread([this](const std::stop_token& st) { loop_.run(st); });
  return true;
}

void ConnCore::stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  loop_.wake();
  thread_.join();
}

void ConnCore::drain(std::chrono::milliseconds grace) {
  if (thread_.joinable()) {
    loop_.post([this] {
      loop_.del_fd(listener_.fd());
      for_each([this](Conn& c) {
        finish(c);
        flush(c);
      });
    });
    const Deadline dl = deadline_in(grace);
    while (live_.load(std::memory_order_relaxed) > 0 && Clock::now() < dl) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop();  // stragglers past the grace window are stopped the hard way
}

// ---- accept ----

void ConnCore::on_accept() {
  // Accept until EAGAIN: one readiness event may carry a whole burst of
  // queued peers, and leaving any behind would strand them until the next
  // connect wakes the loop.
  while (true) {
    Socket s = listener_.try_accept();
    if (!s.valid()) break;
    if (limits_.sndbuf > 0) {
      ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &limits_.sndbuf,
                   sizeof limits_.sndbuf);
    }
    bump(counters_.accepted);
    const std::shared_ptr<Conn> c = make_conn();
    c->sock_ = std::move(s);
    c->write_budget_ = limits_.write_budget;
    const bool over = live_.load(std::memory_order_relaxed) >= limits_.max_conns;
    if (over) {
      // Typed rejection: one Err frame and a short courtesy budget to take
      // it, then close.
      bump(counters_.rejected);
      c->close_after_flush_ = true;
      c->write_budget_ = std::chrono::milliseconds(100);
    }
    const int fd = c->sock_.fd();
    if (!loop_.add_fd(fd, /*read=*/!over, /*write=*/false,
                      [this, fd](std::uint32_t mask) { on_event(fd, mask); })) {
      continue;  // RAII closes it
    }
    conns_.emplace(fd, c);
    if (over) {
      send(*c, MsgType::kErr,
           ErrReply{0, ErrCode::kOverloaded, limits_.reject_msg}.encode());
      flush(*c);
      continue;
    }
    c->counted_ = true;
    live_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- read ----

void ConnCore::on_event(int fd, std::uint32_t mask) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::shared_ptr<Conn> keep = it->second;  // alive through close()
  if ((mask & EventLoop::kReadable) != 0) {
    on_readable(*keep);
  } else if ((mask & EventLoop::kWritable) != 0) {
    flush(*keep);
  } else if ((mask & EventLoop::kError) != 0) {
    close(*keep);
  }
}

void ConnCore::on_readable(Conn& c) {
  if constexpr (kFaultsEnabled) {
    if (faults_armed()) {
      const FaultDecision f = next_recv_fault();
      if (f.action == FaultAction::kDrop || f.action == FaultAction::kReset) {
        close(c);
        return;
      }
    }
  }
  std::size_t got = 0;
  while (got < kHighWater) {
    const ssize_t n = ::recv(c.sock_.fd(), rdbuf_.data(), rdbuf_.size(), 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      c.inbuf_.insert(c.inbuf_.end(), rdbuf_.data(), rdbuf_.data() + n);
      if (static_cast<std::size_t>(n) < rdbuf_.size()) break;
      continue;
    }
    if (n == 0) {
      c.peer_eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close(c);  // hard socket error
    return;
  }
  flush(c);
}

bool ConnCore::has_frame(const Conn& c) const {
  const std::size_t avail = c.inbuf_.size() - c.inpos_;
  if (avail < kHeaderSize) return false;
  MsgType type{};
  std::uint32_t len = 0;
  // A malformed header counts: dispatch answers it (with a close).
  return !parse_header(c.inbuf_.data() + c.inpos_, type, len) ||
         avail >= kHeaderSize + len;
}

void ConnCore::dispatch(Conn& c) {
  while (!c.closing() && c.wq_bytes_ < kHighWater && has_frame(c)) {
    MsgType type{};
    std::uint32_t len = 0;
    if (!parse_header(c.inbuf_.data() + c.inpos_, type, len)) {
      // Framing is lost for good, exactly like read_frame's kMalformed.
      bump(counters_.frame_errors);
      send(c, MsgType::kErr,
           ErrReply{0, ErrCode::kBadRequest, "malformed frame"}.encode());
      finish(c);
      return;
    }
    const auto* p = c.inbuf_.data() + c.inpos_ + kHeaderSize;
    payload_.assign(p, p + len);
    c.inpos_ += kHeaderSize + len;
    bump(counters_.bytes_in, kHeaderSize + len);
    on_frame(c, type, payload_);
  }
  if (c.closed_) return;
  if (c.inpos_ == c.inbuf_.size()) {
    c.inbuf_.clear();
    c.inpos_ = 0;
  } else if (c.inpos_ > rdbuf_.size()) {
    c.inbuf_.erase(c.inbuf_.begin(),
                   c.inbuf_.begin() + static_cast<std::ptrdiff_t>(c.inpos_));
    c.inpos_ = 0;
  }
  // EOF: once every complete frame is answered, close after the flush.
  if (c.peer_eof_ && !has_frame(c)) c.close_after_flush_ = true;
}

// ---- write ----

void ConnCore::send(Conn& c, MsgType type, const Bytes& payload) {
  if (c.closed_) return;
  Bytes buf = framed(type, payload);
  if constexpr (kFaultsEnabled) {
    if (faults_armed()) {
      const FaultDecision f = next_send_fault(buf.size());
      switch (f.action) {
        case FaultAction::kDrop:
        case FaultAction::kReset:
          close(c);
          return;
        case FaultAction::kTruncate:
          buf.resize(f.offset);
          c.close_after_flush_ = true;
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
  bump(counters_.bytes_out, kHeaderSize + payload.size());
  c.wq_bytes_ += buf.size();
  c.writeq_.push_back(std::move(buf));
  if (c.wq_bytes_ > limits_.max_queue_bytes) evict(c);
}

void ConnCore::finish(Conn& c) { c.close_after_flush_ = true; }

void ConnCore::flush(Conn& c) {
  while (!c.closed_) {
    dispatch(c);
    if (c.closed_ || !write_out(c)) return;
    if (!c.writeq_.empty()) break;  // the rest waits for EPOLLOUT
    if (c.close_after_flush_) {
      close(c);
      return;
    }
    on_drained(c);
    if (c.closed_) return;
    if (c.writeq_.empty() && !has_frame(c)) break;
  }
  if (!c.closed_) settle(c);
}

bool ConnCore::write_out(Conn& c) {
  while (!c.writeq_.empty()) {
    const Bytes& front = c.writeq_.front();
    const ssize_t n = ::send(c.sock_.fd(), front.data() + c.wq_head_,
                             front.size() - c.wq_head_, MSG_NOSIGNAL);
    if (n > 0) {
      c.wq_head_ += static_cast<std::size_t>(n);
      c.wq_bytes_ -= static_cast<std::size_t>(n);
      if (c.wq_head_ == front.size()) {
        c.writeq_.pop_front();
        c.wq_head_ = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    close(c);
    return false;
  }
  return true;
}

void ConnCore::settle(Conn& c) {
  const bool residue = !c.writeq_.empty();
  if (residue) {
    // Backpressure: EPOLLOUT plus the write budget (stall -> evict).
    obs::NetLoopObs::instance().stalled_writes.add();
    if (c.write_timer_ == 0) {
      c.write_timer_ = arm(c, c.write_budget_, [this](Conn& cc) {
        cc.write_timer_ = 0;
        if (cc.close_after_flush_) {
          close(cc);  // the courtesy flush expired: just drop it
        } else {
          evict(cc);
        }
      });
    }
  } else if (c.write_timer_ != 0) {
    loop_.cancel_timer(c.write_timer_);
    c.write_timer_ = 0;
  }
  // Frames held back behind a full queue stop the reads too. Bytes left
  // with none held back are a partial frame, which must complete within
  // io_deadline of its first byte — without stalling any other session.
  const bool backlog = has_frame(c);
  const bool partial =
      !c.closing() && !backlog && c.inbuf_.size() > c.inpos_;
  if (partial && c.read_timer_ == 0) {
    c.read_timer_ = arm(c, limits_.io_deadline, [this](Conn& cc) {
      cc.read_timer_ = 0;
      close(cc);
    });
  } else if (!partial && c.read_timer_ != 0) {
    loop_.cancel_timer(c.read_timer_);
    c.read_timer_ = 0;
  }
  const bool read = !c.closing() && !c.peer_eof_ && !backlog &&
                    c.wq_bytes_ < kHighWater;
  (void)loop_.mod_fd(c.sock_.fd(), read, residue);
}

// ---- teardown ----

void ConnCore::evict(Conn& c) {
  bump(counters_.evicted);
  // Best effort, and only at a frame boundary: after a half-sent frame the
  // Err would read as garbage.
  if (c.wq_head_ == 0) {
    const Bytes buf = framed(
        MsgType::kErr,
        ErrReply{0, ErrCode::kOverloaded, limits_.evict_msg}.encode());
    (void)::send(c.sock_.fd(), buf.data(), buf.size(), MSG_NOSIGNAL);
  }
  close(c);
}

void ConnCore::close(Conn& c) {
  if (c.closed_) return;
  c.closed_ = true;
  if (c.read_timer_ != 0) loop_.cancel_timer(c.read_timer_);
  if (c.write_timer_ != 0) loop_.cancel_timer(c.write_timer_);
  c.read_timer_ = c.write_timer_ = 0;
  on_closed(c);
  const int fd = c.sock_.fd();
  loop_.del_fd(fd);
  if (c.counted_) live_.fetch_sub(1, std::memory_order_relaxed);
  c.sock_.close();
  conns_.erase(fd);  // every entry point holds its own reference
}

}  // namespace waves::net
