// MonitorHub's watcher fan-out on the connection core (net/conn_core.hpp):
// one loop thread owns every watcher connection, so thousands of
// `wavecli watch` subscribers cost one resident thread instead of one
// thread each. The core owns framing, write queues, deadlines and the
// caps; this file keeps the watcher protocol and the fan-out.
//
// Fan-out is revision-driven with latest-wins coalescing: recompute()
// posts one (coalesced) notify onto the loop, which walks the subscribed
// watchers and queues the *current* estimate for any watcher whose write
// queue is empty. A watcher mid-stall skips the round; when its queue
// drains, on_drained re-reads the estimate and sends the newest revision —
// intermediate revisions are never queued, so a slow watcher's memory
// footprint stays one frame no matter how fast the hub recomputes.
//
// Backpressure: a write queue that stays non-empty past
// watcher_write_budget evicts the watcher with a typed kOverloaded close
// (best-effort — the err frame only lands if the socket has room), counted
// in waves_monitor_hub_watcher_evicted_total.
#include <algorithm>
#include <atomic>
#include <memory>

#include "monitor/hub.hpp"
#include "net/conn_core.hpp"
#include "obs/monitor_obs.hpp"

namespace waves::monitor {

namespace {

using distributed::Bytes;

net::ConnLimits watcher_limits(const HubConfig& cfg) {
  net::ConnLimits l;
  l.max_conns = cfg.max_watchers;
  l.io_deadline = cfg.io_deadline;
  l.write_budget = cfg.watcher_write_budget;
  // Coalescing keeps the queue at one estimate frame in steady state; the
  // cap is the hard stop if a peer stalls while protocol replies pile up.
  l.max_queue_bytes = std::size_t{64} << 10;
  l.sndbuf = cfg.watcher_sndbuf;
  l.reject_msg = "watcher limit reached";
  l.evict_msg = "watcher too slow; evicted";
  return l;
}

net::ConnCounters watcher_counters() {
  const auto& mobs = obs::MonitorHubObs::instance();
  net::ConnCounters c;
  c.accepted = &mobs.watchers;
  c.rejected = &mobs.watcher_rejected;
  c.evicted = &mobs.watcher_evicted;
  return c;
}

}  // namespace

struct MonitorHub::WatchCore final : net::ConnCore {
  explicit WatchCore(MonitorHub& owner)
      : ConnCore(owner.listener_, watcher_limits(owner.cfg_),
                 watcher_counters()),
        hub(owner) {}
  ~WatchCore() override { stop(); }

  struct Watcher : Conn {
    bool subscribed = false;
    std::uint64_t seq = 0;            // per-watcher push counter (no gaps)
    std::uint64_t sent_revision = 0;  // newest revision on the wire
  };

  MonitorHub& hub;
  std::atomic<bool> notify_pending{false};

  std::shared_ptr<Conn> make_conn() override {
    return std::make_shared<Watcher>();
  }

  // ---- protocol (every handler is a few varint decodes) ----

  void on_frame(Conn& c, net::MsgType type, const Bytes& payload) override {
    auto& w = static_cast<Watcher&>(c);
    switch (type) {
      case net::MsgType::kHello: {
        net::Hello h;
        if (!net::Hello::decode(payload, h)) {
          fail(w, "bad hello");
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
        send(w, net::MsgType::kHelloAck, ack.encode());
        return;
      }
      case net::MsgType::kSubscribe: {
        net::SubscribeRequest req;
        if (!net::SubscribeRequest::decode(payload, req)) {
          fail(w, "bad subscribe");
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
        w.subscribed = true;
        // The current estimate is the subscription's ack, whatever its
        // revision.
        send_estimate(w, hub.estimate());
        return;
      }
      case net::MsgType::kUnsubscribe: {
        net::Unsubscribe u;
        if (!net::Unsubscribe::decode(payload, u)) {
          fail(w, "bad unsubscribe");
          return;
        }
        w.subscribed = false;
        return;
      }
      default:
        fail(w, "unsupported message for a monitor hub");
        return;
    }
  }

  void send_err(Watcher& w, std::uint64_t request_id, net::ErrCode code,
                const char* msg) {
    send(w, net::MsgType::kErr, net::ErrReply{request_id, code, msg}.encode());
  }

  void fail(Watcher& w, const char* msg) {
    send_err(w, 0, net::ErrCode::kBadRequest, msg);
    finish(w);
  }

  // ---- fan-out ----

  void fan_out() {
    const HubEstimate e = hub.estimate();
    for_each([&](Conn& c) {
      auto& w = static_cast<Watcher&>(c);
      // A stalled watcher skips the round; on_drained picks up the newest
      // revision when (if) its queue drains — latest wins.
      if (w.closing() || !w.subscribed || e.revision <= w.sent_revision ||
          w.write_pending()) {
        return;
      }
      send_estimate(w, e);
      flush(w);
    });
  }

  /// Keep a subscribed watcher current: whenever its queue drains, send
  /// the newest unseen revision.
  void on_drained(Conn& c) override {
    auto& w = static_cast<Watcher&>(c);
    if (!w.subscribed) return;
    const HubEstimate e = hub.estimate();
    if (e.revision > w.sent_revision) send_estimate(w, e);
  }

  void send_estimate(Watcher& w, const HubEstimate& e) {
    net::EstimateUpdate up;
    up.seq = ++w.seq;
    up.round = e.revision;
    up.status = e.status == distributed::QueryStatus::kOk         ? 1
                : e.status == distributed::QueryStatus::kDegraded ? 2
                                                                  : 3;
    up.value = e.value;
    up.exact = e.exact;
    up.n = hub.cfg_.n;
    up.missing = e.missing;
    up.error_slack = e.error_slack;
    Bytes payload;
    up.encode_into(payload);
    w.sent_revision = e.revision;
    obs::MonitorHubObs::instance().watcher_updates.add();
    send(w, net::MsgType::kPushUpdate, payload);
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
  watch_core_->stop();
  watch_core_.reset();
}

void MonitorHub::watch_notify() {
  if (watch_core_ == nullptr) return;
  // Coalesced: many recomputes between loop wakeups collapse into one
  // fan-out of the newest estimate (latest wins per watcher anyway).
  if (watch_core_->notify_pending.exchange(true)) return;
  watch_core_->loop().post([core = watch_core_.get()] {
    core->notify_pending.store(false);
    core->fan_out();
  });
}

}  // namespace waves::monitor
