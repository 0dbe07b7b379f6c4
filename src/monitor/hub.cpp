#include "monitor/hub.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "distributed/wire.hpp"
#include "obs/monitor_obs.hpp"
#include "obs/net_obs.hpp"

namespace waves::monitor {

using distributed::Bytes;

// Mirror-backed snapshot source: the same SnapshotSource contract the TCP
// and in-process paths implement, so recompute() runs the identical
// union/median code — that, plus snapshots derived by the same
// recovery::Mirror the polling client uses, is what makes a hub estimate
// byte-identical to a poll of the same party states. collect_into() runs
// under mu_ (recompute holds it) and derives each live mirror's snapshots
// straight into the hub's round buffers, which mu_ also guards.
template <class Source, class Party, class Checkpoint>
class MirrorSource final : public Source {
 public:
  using Snapshot = typename recovery::Mirror<Checkpoint>::Snapshot;
  using Slot = recovery::Mirror<Checkpoint> MonitorHub::PartyMirror::*;

  MirrorSource(MonitorHub& hub, const Party* ref, Slot slot,
               std::uint64_t window)
      : hub_(hub), ref_(ref), slot_(slot), window_(window) {}
  [[nodiscard]] std::size_t party_count() const override {
    return hub_.mirrors_.size();
  }
  [[nodiscard]] int instances() const override { return hub_.cfg_.instances; }
  [[nodiscard]] const gf2::ExpHash& hash(int instance) const override {
    return ref_->instance(instance).hash();
  }
  [[nodiscard]] const char* transport() const override { return "push"; }
  void collect_into(std::uint64_t n, std::vector<std::size_t>& missing,
                    distributed::WireStats* /*stats*/,
                    distributed::CollectStats& /*info*/,
                    std::vector<std::vector<Snapshot>>& out) override {
    out.resize(hub_.mirrors_.size());
    for (std::size_t i = 0; i < hub_.mirrors_.size(); ++i) {
      const MonitorHub::PartyMirror& m = hub_.mirrors_[i];
      if (!m.live) {
        missing.push_back(i);
        out[i].clear();
        continue;
      }
      (m.*slot_).snapshots_into(n, window_, out[i]);
    }
  }

 private:
  MonitorHub& hub_;
  const Party* ref_;  // hash oracle
  Slot slot_;
  std::uint64_t window_;
};

MonitorHub::MonitorHub(HubConfig cfg)
    : cfg_(std::move(cfg)),
      budget_{cfg_.eps, cfg_.parties.size(), cfg_.split} {
  if (cfg_.role == net::PartyRole::kCount && cfg_.instances > 0) {
    count_ref_ = std::make_unique<distributed::CountParty>(
        cfg_.count_params, cfg_.instances, cfg_.shared_seed);
  }
  if (cfg_.role == net::PartyRole::kDistinct && cfg_.instances > 0) {
    distinct_ref_ = std::make_unique<distributed::DistinctParty>(
        cfg_.distinct_params, cfg_.instances, cfg_.shared_seed);
  }
  mirrors_.resize(cfg_.parties.size());
}

MonitorHub::~MonitorHub() { stop(); }

bool MonitorHub::start() {
  if (!listener_.listen_on(cfg_.host, cfg_.port)) return false;
  if (!watch_start()) {
    listener_.close();
    return false;
  }
  legs_.reserve(cfg_.parties.size());
  for (std::size_t i = 0; i < cfg_.parties.size(); ++i) {
    legs_.emplace_back(
        [this, i](const std::stop_token& st) { leg_loop(i, st); });
  }
  return true;
}

void MonitorHub::stop() {
  for (auto& leg : legs_) leg.request_stop();
  est_cv_.notify_all();
  legs_.clear();  // joins — after this no thread calls watch_notify()
  watch_stop();
  listener_.close();
}

HubEstimate MonitorHub::estimate() const {
  std::lock_guard lk(est_mu_);
  return est_;
}

HubEstimate MonitorHub::wait_revision(std::uint64_t after,
                                      std::chrono::milliseconds timeout) const {
  std::unique_lock lk(est_mu_);
  est_cv_.wait_for(lk, timeout, [&] { return est_.revision > after; });
  return est_;
}

void MonitorHub::emit(const std::string& line) {
  if (!cfg_.on_event) return;
  std::lock_guard lk(event_mu_);
  cfg_.on_event(line);
}

void MonitorHub::set_leg_down(std::size_t i) {
  bool changed = false;
  {
    std::lock_guard lk(mu_);
    if (mirrors_[i].live) {
      mirrors_[i].live = false;
      changed = true;
    }
  }
  // Quorum rules apply immediately: count/distinct fail closed, totals
  // degrade. Only publish when the leg was actually contributing.
  if (changed) recompute();
}

void MonitorHub::recompute() {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  mobs.recomputes.add();
  HubEstimate next;
  {
    std::lock_guard lk(mu_);
    // Pushes from different parties land at different instants, so the
    // mirrors sit at different stream positions between push waves. The
    // Scenario-3 positionwise union is only defined over aligned streams
    // (distributed::union_count fails a misaligned round closed), so with
    // every leg live the merge waits for the laggards' pushes to realign
    // the mirrors; the standing estimate keeps serving reads meanwhile —
    // exactly the staleness the slack shares budget for. A dead leg skips
    // the union math entirely (fail closed), so misalignment can't block
    // that publication.
    if (cfg_.role == net::PartyRole::kCount ||
        cfg_.role == net::PartyRole::kDistinct) {
      const auto pos = [this](const PartyMirror& m) {
        return cfg_.role == net::PartyRole::kCount
                   ? m.count.checkpoint().cursor
                   : m.distinct.checkpoint().cursor;
      };
      const auto live = [](const PartyMirror& m) { return m.live; };
      const auto behind = [&](const PartyMirror& m) {
        return pos(m) != pos(mirrors_.front());
      };
      if (std::all_of(mirrors_.begin(), mirrors_.end(), live) &&
          std::any_of(mirrors_.begin(), mirrors_.end(), behind)) {
        return;
      }
    }
    const auto publish = [&next](const distributed::QueryResult& qr) {
      next.status = qr.status;
      next.value = qr.estimate.value;
      next.exact = qr.estimate.exact;
      next.missing = qr.missing.size();
      next.error_slack = qr.error_slack;
    };
    switch (cfg_.role) {
      case net::PartyRole::kCount: {
        MirrorSource<distributed::CountSnapshotSource, distributed::CountParty,
                     distributed::CountPartyCheckpoint>
            src(*this, count_ref_.get(), &PartyMirror::count, 0);
        publish(distributed::union_count(src, cfg_.n, nullptr, count_round_));
        break;
      }
      case net::PartyRole::kDistinct: {
        MirrorSource<distributed::DistinctSnapshotSource,
                     distributed::DistinctParty,
                     distributed::DistinctPartyCheckpoint>
            src(*this, distinct_ref_.get(), &PartyMirror::distinct,
                cfg_.distinct_params.window);
        publish(distributed::distinct_count(src, cfg_.n, nullptr, {},
                                            distinct_round_));
        break;
      }
      case net::PartyRole::kBasic:
      case net::PartyRole::kSum: {
        // Scenario-1 quorum rules, as in net::total_query: responders sum,
        // missing parties widen the error by what they could contribute.
        double sum = 0.0;
        bool exact = true;
        std::uint64_t missing = 0;
        for (const PartyMirror& m : mirrors_) {
          if (!m.live) {
            ++missing;
            continue;
          }
          sum += m.value;
          exact = exact && m.exact;
        }
        next.missing = missing;
        if (missing == mirrors_.size()) {
          next.status = distributed::QueryStatus::kFailed;
        } else if (missing > 0) {
          next.status = distributed::QueryStatus::kDegraded;
          next.value = sum;
          next.exact = false;
          next.error_slack = static_cast<double>(missing) *
                             static_cast<double>(cfg_.n) *
                             static_cast<double>(cfg_.max_value);
        } else {
          next.status = distributed::QueryStatus::kOk;
          next.value = sum;
          next.exact = exact;
        }
        break;
      }
      case net::PartyRole::kAgg:
        next.status = distributed::QueryStatus::kFailed;
        break;
    }
    // Publish under mu_ too (lock order mu_ -> est_mu_): two legs whose
    // merges ran in one order must publish in that order, or the older
    // merge could land last and stand on a quiescent stream.
    std::lock_guard est_lk(est_mu_);
    next.revision = est_.revision + 1;
    est_ = next;
  }
  est_cv_.notify_all();
  watch_notify();
}

bool MonitorHub::apply_push(std::size_t i, const net::PushUpdate& u,
                            std::string& err) {
  if (u.cursor == 0) {
    err = "push carries cursor 0";
    return false;
  }
  std::lock_guard lk(mu_);
  PartyMirror& m = mirrors_[i];
  const auto expected =
      static_cast<std::size_t>(std::max(cfg_.instances, 0));
  // Folds the push into the role's checkpoint mirror; false on any cursor,
  // codec or instance-count mismatch.
  auto fold = [&](auto& mirror) {
    if (!mirror.apply(u.base_cursor, u.cursor, u.body, err)) return false;
    const std::size_t got = mirror.checkpoint().waves.size();
    if (expected > 0 && got != expected) {
      err = "push carries " + std::to_string(got) + " instances, wanted " +
            std::to_string(expected);
      return false;
    }
    return true;
  };
  switch (cfg_.role) {
    case net::PartyRole::kCount:
      if (!fold(m.count)) return false;
      break;
    case net::PartyRole::kDistinct:
      if (!fold(m.distinct)) return false;
      break;
    case net::PartyRole::kBasic:
    case net::PartyRole::kSum: {
      std::size_t at = 0;
      std::uint64_t bits = 0;
      std::uint64_t exact = 0;
      if (!distributed::get_fixed64(u.body, at, bits) ||
          !distributed::get_varint(u.body, at, exact) || exact > 1 ||
          at != u.body.size()) {
        err = "undecodable total push body";
        return false;
      }
      const double v = std::bit_cast<double>(bits);
      if (!std::isfinite(v)) {
        err = "non-finite total";
        return false;
      }
      m.value = v;
      m.exact = exact == 1;
      m.cursor = u.cursor;
      m.generation = u.generation;
      break;
    }
    case net::PartyRole::kAgg:
      err = "agg role is not monitorable";
      return false;
  }
  m.live = true;
  return true;
}

void MonitorHub::leg_loop(std::size_t i, const std::stop_token& st) {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  const net::Endpoint& ep = cfg_.parties[i];
  auto backoff = cfg_.reconnect_base;
  bool ever_connected = false;
  // Per-leg circuit breaker (see HubConfig): consecutive failed cycles
  // trip it; while open the leg probes once per cooldown instead of
  // reconnect-backoff hammering a dead endpoint.
  int breaker_failures = 0;
  bool breaker_open = false;
  net::Frame frame;
  // Stop-aware sleep: backoff never delays shutdown by more than a slice.
  const auto nap = [&](std::chrono::milliseconds ms) {
    const net::Deadline until = net::Clock::now() + ms;
    while (!st.stop_requested() && net::Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  while (!st.stop_requested()) {
    net::Socket sock =
        net::tcp_connect(ep.host, ep.port, net::deadline_in(cfg_.io_deadline));
    bool pushed_any = false;
    bool cycle_ok = false;  // handshake + subscribe landed this cycle
    if (sock.valid()) {
      if (ever_connected) mobs.leg_reconnects.add();
      ever_connected = true;
      do {
        const net::Deadline hs = net::deadline_in(cfg_.io_deadline);
        net::Hello hello;
        hello.client_id = cfg_.client_id;
        if (!net::write_frame(sock, net::MsgType::kHello, hello.encode(), hs)) {
          break;
        }
        if (net::read_frame(sock, frame, hs) != net::ReadStatus::kOk) break;
        net::HelloAck ack;
        if (frame.type != net::MsgType::kHelloAck ||
            !net::HelloAck::decode(frame.payload, ack) ||
            ack.role != cfg_.role) {
          mobs.protocol_errors.add();
          break;
        }
        // Epoch-aware resync: a generation the mirror doesn't know means
        // the party restarted, so its push-chain state died with it. Drop
        // the mirror and rebase on the subscription's full initial push.
        bool resync = false;
        {
          std::lock_guard lk(mu_);
          PartyMirror& m = mirrors_[i];
          switch (cfg_.role) {
            case net::PartyRole::kCount:
              resync = m.count.enter_epoch(ack.generation);
              break;
            case net::PartyRole::kDistinct:
              resync = m.distinct.enter_epoch(ack.generation);
              break;
            default:
              resync = m.cursor != 0 && ack.generation != m.generation;
              if (resync) m.cursor = 0;
              break;
          }
        }
        if (resync) {
          mobs.resyncs.add();
          emit("HUB RESYNC party=" + std::to_string(i) +
               " generation=" + std::to_string(ack.generation));
        }
        net::SubscribeRequest req;
        req.request_id = i + 1;
        req.role = cfg_.role;
        req.n = cfg_.n;
        req.has_slack = true;
        req.slack = budget_.threshold(cfg_.role, cfg_.n, cfg_.max_value);
        req.check_every_ms =
            static_cast<std::uint64_t>(cfg_.check_every.count());
        if (!net::write_frame(sock, net::MsgType::kSubscribe, req.encode(),
                              net::deadline_in(cfg_.io_deadline))) {
          break;
        }
        cycle_ok = true;
        std::uint64_t last_seq = 0;
        while (!st.stop_requested()) {
          if (!sock.wait_readable(
                  net::deadline_in(std::chrono::milliseconds(100)))) {
            continue;
          }
          const net::ReadStatus rs =
              net::read_frame(sock, frame, net::deadline_in(cfg_.io_deadline));
          if (rs != net::ReadStatus::kOk) {
            if (rs == net::ReadStatus::kMalformed) mobs.protocol_errors.add();
            break;
          }
          if (frame.type == net::MsgType::kErr) {
            net::ErrReply e;
            emit("HUB LEG ERROR party=" + std::to_string(i) + " " +
                 (net::ErrReply::decode(frame.payload, e) ? e.message
                                                          : "(undecodable)"));
            break;
          }
          net::PushUpdate u;
          if (frame.type != net::MsgType::kPushUpdate ||
              !net::PushUpdate::decode(frame.payload, u)) {
            mobs.protocol_errors.add();
            break;
          }
          // A generation moved mid-subscription or a seq gap both mean the
          // chain is broken; drop the leg and let the reconnect handshake
          // sort out whether a rebase is needed.
          if (u.request_id != req.request_id || u.role != cfg_.role ||
              u.generation != ack.generation || u.seq != last_seq + 1) {
            mobs.protocol_errors.add();
            break;
          }
          last_seq = u.seq;
          std::string err;
          if (!apply_push(i, u, err)) {
            mobs.protocol_errors.add();
            emit("HUB LEG DESYNC party=" + std::to_string(i) + " " + err);
            break;
          }
          mobs.updates.add();
          pushed_any = true;
          backoff = cfg_.reconnect_base;
          recompute();
        }
      } while (false);
      sock.close();
    }
    set_leg_down(i);
    if (cfg_.breaker_enabled) {
      if (cycle_ok) {
        if (breaker_open) {
          breaker_open = false;
          mobs.breaker_closes.add();
          emit("HUB BREAKER CLOSED party=" + std::to_string(i));
        }
        breaker_failures = 0;
      } else if (!breaker_open &&
                 ++breaker_failures >= cfg_.breaker_threshold) {
        breaker_open = true;
        mobs.breaker_trips.add();
        emit("HUB BREAKER OPEN party=" + std::to_string(i));
      }
      // A failed probe cycle keeps the breaker open: fall through to
      // another cooldown below.
    }
    if (st.stop_requested()) break;
    if (breaker_open) {
      // One probe cycle per cooldown; every skipped reconnect in between
      // is a fast fail the dead endpoint never sees.
      mobs.breaker_fast_fails.add();
      nap(cfg_.breaker_cooldown);
      mobs.breaker_probes.add();
      backoff = cfg_.reconnect_base;
      continue;
    }
    nap(backoff);
    if (!pushed_any) {
      backoff = std::min(backoff * 2, cfg_.reconnect_max);
    }
  }
}

}  // namespace waves::monitor
