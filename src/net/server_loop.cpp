// PartyServer on the connection core (net/conn_core.hpp): the core owns
// the loop thread, framing, write queues and deadlines; this file adds the
// party's frame handler and its push-drift timers. Every frame is answered
// inline on the loop thread, so requests and replies stay in arrival order
// with no handoff, and a subscription's drift check is a wheel entry that
// re-arms at the subscription's own cadence.
#include <memory>

#include "net/conn_core.hpp"
#include "net/server.hpp"
#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

ConnLimits party_limits(const ServerConfig& cfg) {
  ConnLimits l;
  l.max_conns = cfg.max_connections;
  l.io_deadline = cfg.io_deadline;
  l.write_budget = cfg.io_deadline;
  return l;
}

ConnCounters party_counters() {
  const auto& obs = obs::NetServerObs::instance();
  ConnCounters c;
  c.accepted = &obs.connections;
  c.rejected = &obs.overload_rejected;
  c.frame_errors = &obs.frame_errors;
  c.bytes_in = &obs.bytes_received;
  c.bytes_out = &obs.bytes_sent;
  return c;
}

}  // namespace

struct PartyServer::LoopCore final : ConnCore {
  explicit LoopCore(PartyServer& server)
      : ConnCore(server.listener_, party_limits(server.cfg_), party_counters()),
        srv(server) {}
  ~LoopCore() override { stop(); }

  PartyServer& srv;

  std::shared_ptr<Conn> make_conn() override {
    return std::make_shared<Session>();
  }

  void on_frame(Conn& c, MsgType type, const Bytes& payload) override {
    auto& s = static_cast<Session&>(c);
    srv.process_frame(s, type, payload);
    if (s.sub.active && s.drift_timer == 0 && !s.closing()) {
      arm_drift(s);
    } else if (!s.sub.active && s.drift_timer != 0) {
      loop().cancel_timer(s.drift_timer);
      s.drift_timer = 0;
    }
  }

  void on_closed(Conn& c) override {
    auto& s = static_cast<Session&>(c);
    if (s.drift_timer != 0) loop().cancel_timer(s.drift_timer);
    s.drift_timer = 0;
  }

  void arm_drift(Session& s) {
    s.drift_timer = arm(s, s.sub.check, [this](Conn& c) {
      auto& cs = static_cast<Session&>(c);
      cs.drift_timer = 0;
      if (!cs.sub.active || cs.closing()) return;
      arm_drift(cs);  // fixed cadence
      srv.drift_tick(cs);
      flush(cs);
    });
  }
};

PartyServer::~PartyServer() { stop(); }

bool PartyServer::start() {
  if (!listener_.listen_on(cfg_.host, cfg_.port)) return false;
  core_ = std::make_unique<LoopCore>(*this);
  if (core_->start()) return true;
  core_.reset();
  listener_.close();
  return false;
}

void PartyServer::stop() {
  // Join before reset: the loop thread answers through core_.
  if (core_ != nullptr) core_->stop();
  core_.reset();
  listener_.close();
}

void PartyServer::drain(std::chrono::milliseconds grace) {
  if (core_ != nullptr) core_->drain(grace);
  stop();
}

}  // namespace waves::net
