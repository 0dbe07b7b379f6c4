#include "net/server.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "obs/export.hpp"
#include "obs/monitor_obs.hpp"
#include "obs/net_obs.hpp"
#include "obs/trace.hpp"

namespace waves::net {

void BasicPartyState::observe(bool bit) {
  std::lock_guard lk(mu_);
  wave_.update(bit);
  ++items_;
}

void BasicPartyState::observe_batch(const util::PackedBitStream& bits) {
  std::lock_guard lk(mu_);
  wave_.update_batch(bits);
  items_ += bits.size();
}

core::Estimate BasicPartyState::query(std::uint64_t n) const {
  std::lock_guard lk(mu_);
  return wave_.query(n);
}

std::uint64_t BasicPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

std::uint64_t BasicPartyState::change_cursor() const {
  std::lock_guard lk(mu_);
  return wave_.change_cursor();
}

recovery::BasicPartyCheckpoint BasicPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::BasicPartyCheckpoint{items_, wave_.checkpoint()};
}

void BasicPartyState::restore(const recovery::BasicPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  wave_ = core::DetWave::restore(inv_eps_, window_, ck.wave);
  items_ = ck.cursor;
}

void SumPartyState::observe(std::uint64_t value) {
  std::lock_guard lk(mu_);
  wave_.update(value);
  ++items_;
}

void SumPartyState::observe_batch(std::span<const std::uint64_t> values) {
  std::lock_guard lk(mu_);
  for (const std::uint64_t v : values) wave_.update(v);
  items_ += values.size();
}

core::Estimate SumPartyState::query(std::uint64_t n) const {
  std::lock_guard lk(mu_);
  return wave_.query(n);
}

std::uint64_t SumPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

std::uint64_t SumPartyState::change_cursor() const {
  std::lock_guard lk(mu_);
  return wave_.change_cursor();
}

recovery::SumPartyCheckpoint SumPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::SumPartyCheckpoint{items_, wave_.checkpoint()};
}

void SumPartyState::restore(const recovery::SumPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  wave_ = core::SumWave::restore(inv_eps_, window_, max_value_, ck.wave);
  items_ = ck.cursor;
}

void AggPartyState::observe(std::int64_t value) {
  std::lock_guard lk(mu_);
  wave_.update(value);
  ++items_;
}

void AggPartyState::observe_batch(std::span<const std::int64_t> values) {
  std::lock_guard lk(mu_);
  wave_.update_bulk(values);
  items_ += values.size();
}

std::int64_t AggPartyState::value() const {
  std::lock_guard lk(mu_);
  return wave_.value();
}

std::uint64_t AggPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

recovery::AggPartyCheckpoint AggPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::AggPartyCheckpoint{items_, wave_.checkpoint()};
}

bool AggPartyState::restore(const recovery::AggPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  if (ck.wave.values.size() != std::min(ck.wave.pos, wave_.window())) {
    return false;
  }
  wave_ = agg::AggWave::restore(wave_.op(), wave_.window(), ck.wave);
  items_ = ck.cursor;
  return true;
}

PartyServer::PartyServer(ServerConfig cfg, distributed::CountParty* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kCount), count_(party) {}

PartyServer::PartyServer(ServerConfig cfg, distributed::DistinctParty* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kDistinct), distinct_(party) {}

PartyServer::PartyServer(ServerConfig cfg, BasicPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kBasic), basic_(party) {}

PartyServer::PartyServer(ServerConfig cfg, SumPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kSum), sum_(party) {}

PartyServer::PartyServer(ServerConfig cfg, AggPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kAgg), agg_(party) {}

// ~PartyServer, start, stop and drain live in server_loop.cpp, where
// LoopCore is complete.

void PartyServer::note_checkpoint() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  last_checkpoint_ns_.store(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
}

HealthReply PartyServer::health_reply(std::uint64_t request_id) const {
  HealthReply r;
  r.request_id = request_id;
  r.role = role_;
  r.party_id = cfg_.party_id;
  r.generation = cfg_.generation;
  switch (role_) {
    case PartyRole::kCount:
      r.items_observed = count_->items_observed();
      break;
    case PartyRole::kDistinct:
      r.items_observed = distinct_->items_observed();
      break;
    case PartyRole::kBasic:
      r.items_observed = basic_->items();
      break;
    case PartyRole::kSum:
      r.items_observed = sum_->items();
      break;
    case PartyRole::kAgg:
      r.items_observed = agg_->items();
      break;
  }
  const auto now = Clock::now();
  r.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - started_)
          .count());
  const std::uint64_t ck = last_checkpoint_ns_.load(std::memory_order_relaxed);
  if (ck == 0) {
    r.checkpoint_age_ms = ~std::uint64_t{0};
  } else {
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
    r.checkpoint_age_ms = now_ns >= ck ? (now_ns - ck) / 1'000'000 : 0;
  }
  return r;
}

HelloAck PartyServer::hello_ack() const {
  HelloAck ack;
  ack.role = role_;
  ack.party_id = cfg_.party_id;
  ack.generation = cfg_.generation;
  switch (role_) {
    case PartyRole::kCount:
      ack.instances = static_cast<std::uint64_t>(count_->instances());
      ack.items_observed = count_->items_observed();
      // All instances share the window parameter; a delta-capable client
      // needs it to derive snapshots from mirrored checkpoints.
      ack.window = count_->instances() > 0 ? count_->instance(0).window() : 0;
      break;
    case PartyRole::kDistinct:
      ack.instances = static_cast<std::uint64_t>(distinct_->instances());
      ack.items_observed = distinct_->items_observed();
      ack.window =
          distinct_->instances() > 0 ? distinct_->instance(0).window() : 0;
      break;
    case PartyRole::kBasic:
      ack.window = basic_->window();
      ack.items_observed = basic_->items();
      break;
    case PartyRole::kSum:
      ack.window = sum_->window();
      ack.items_observed = sum_->items();
      break;
    case PartyRole::kAgg:
      ack.window = agg_->window();
      ack.items_observed = agg_->items();
      break;
  }
  return ack;
}

template <class Party, class Encoder>
void PartyServer::pull_reply(const Party& party, PullChain<Encoder>& st,
                             const SnapshotRequest& req,
                             DeltaReply& r) const {
  const auto& obs = obs::NetServerObs::instance();
  std::lock_guard lk(st.mu);
  // Unchanged fast-path: the client's baseline is our current one and the
  // party ingested nothing since it was taken — echo the cursor, empty
  // body, no synopsis walk at all.
  if (req.since_cursor != 0 && req.since_cursor == st.chain.cursor() &&
      party.items_observed() == st.chain.items()) {
    r.base_cursor = st.chain.cursor();
    r.cursor = st.chain.cursor();
    obs.delta_unchanged.add();
    return;
  }
  // Retry cache (count only), nothing ingested since the cached body was
  // encoded:
  //   - same nonzero since_cursor as the previous reply — the client never
  //     applied it (timeout, reconnect), so the identical body is still the
  //     right answer even though the chain has moved past it;
  //   - a bootstrap (since_cursor 0) after a full reply — the cached full
  //     body *is* the current baseline, so it is re-shipped under the same
  //     cursor instead of re-walking and re-encoding the whole synopsis.
  const bool retry =
      req.since_cursor != 0 && req.since_cursor == st.cached_since;
  const bool rebootstrap = req.since_cursor == 0 && st.cached_base_cursor == 0;
  if (st.cache_valid && (retry || rebootstrap) &&
      party.items_observed() == st.cached_items) {
    r.base_cursor = st.cached_base_cursor;
    r.cursor = st.cached_cursor;
    r.body = st.cached_body;
  } else {
    r.base_cursor = st.chain.next(party, req.since_cursor, r.body);
    r.cursor = st.chain.cursor();
    if constexpr (std::is_same_v<Party, distributed::CountParty>) {
      st.cache_valid = true;
      st.cached_since = req.since_cursor;
      st.cached_items = st.chain.items();
      st.cached_base_cursor = r.base_cursor;
      st.cached_cursor = r.cursor;
      st.cached_body = r.body;
    }
  }
  (r.base_cursor != 0 ? obs.delta_replies : obs.delta_full).add();
}

void PartyServer::answer(Session& s, const SnapshotRequest& req) {
  // Server-side handling span. When the request carries a trace context
  // (extension tag 2) this joins the client's trace: a later format=trace
  // scrape of this process returns it under the same trace id, and
  // `wavecli query --trace` stitches it below the client's per-party span.
  auto span = obs::Tracer::instance().start(
      "party.answer", obs::TraceContext{req.trace_id, req.parent_span_id});
  span.set("party", static_cast<double>(cfg_.party_id));
  span.set("n", static_cast<double>(req.n));
  auto send = [&](MsgType type, const Bytes& payload) {
    span.set("reply_bytes", static_cast<double>(payload.size()));
    reply(s, type, payload);
  };

  if (req.role != role_) {
    ErrReply err{req.request_id, ErrCode::kWrongRole,
                 std::string("party serves role ") + role_name(role_)};
    send(MsgType::kErr, err.encode());
    return;
  }

  // Count and distinct always answer under the DeltaReply framing. A
  // request without extension tag 1 reads as since_cursor 0 and gets the
  // self-contained full form.
  switch (role_) {
    case PartyRole::kCount:
    case PartyRole::kDistinct: {
      DeltaReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.role = role_;
      {
        // Covers the checkpoint walk (which contends with the ingest lock)
        // and the delta diff — the "interference" phase.
        auto d = obs::Tracer::instance().start("party.delta", span.context());
        if (role_ == PartyRole::kCount) {
          pull_reply(*count_, count_pull_, req, r);
        } else {
          pull_reply(*distinct_, distinct_pull_, req, r);
        }
        d.set("body_bytes", static_cast<double>(r.body.size()));
        d.set("full", r.base_cursor == 0 ? 1.0 : 0.0);
      }
      send(MsgType::kDeltaReply, r.encode());
      return;
    }
    case PartyRole::kBasic: {
      const core::Estimate est = basic_->query(req.n);
      TotalReply r{req.request_id, cfg_.generation, est.value, est.exact,
                   basic_->items()};
      send(MsgType::kTotalReply, r.encode());
      return;
    }
    case PartyRole::kSum: {
      const core::Estimate est = sum_->query(req.n);
      TotalReply r{req.request_id, cfg_.generation, est.value, est.exact,
                   sum_->items()};
      send(MsgType::kTotalReply, r.encode());
      return;
    }
    case PartyRole::kAgg: {
      AggReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.op = agg_->op();
      r.value = agg_->value();
      r.items_observed = agg_->items();
      r.window = agg_->window();
      send(MsgType::kAggReply, r.encode());
      return;
    }
  }
}

void PartyServer::subscribe(Session& s, const SubscribeRequest& req) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  // Joins the subscriber's trace (tag 2) like party.answer does, so one
  // `wavecli hub` bring-up stitches across processes.
  auto span = obs::Tracer::instance().start(
      "party.subscribe", obs::TraceContext{req.trace_id, req.parent_span_id});
  span.set("party", static_cast<double>(cfg_.party_id));
  span.set("n", static_cast<double>(req.n));
  // A replacing kSubscribe restarts the chain from scratch. A nonzero
  // since_cursor (tag 1) can never name one of our baselines — they are
  // per-subscription and this one is new — so per the DeltaReply fallback
  // rule the chain always opens with a full body; the field is accepted
  // for forward compatibility with server-side persistent baselines.
  Subscription& sub = s.sub;
  sub = Subscription{};
  sub.active = true;
  sub.request_id = req.request_id;
  sub.n = req.n;
  if (req.has_slack) sub.slack = req.slack;
  sub.check = req.check_every_ms > 0
                  ? std::chrono::milliseconds(req.check_every_ms)
                  : cfg_.push_check;
  mobs.subscribes.add();
  push_update(s);
}

void PartyServer::push_update(Session& s) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  Subscription& sub = s.sub;
  PushUpdate u;
  u.request_id = sub.request_id;
  u.seq = sub.seq + 1;
  u.generation = cfg_.generation;
  u.role = role_;
  switch (role_) {
    // The same chain encoder as the pull path, but this subscription's
    // own chain — two subscribers at different points in their chains
    // never corrupt each other.
    case PartyRole::kCount:
      u.base_cursor = sub.count_chain.next(*count_, sub.cursor, u.body);
      u.items_observed = sub.count_chain.items();
      break;
    case PartyRole::kDistinct:
      u.base_cursor = sub.distinct_chain.next(*distinct_, sub.cursor, u.body);
      u.items_observed = sub.distinct_chain.items();
      break;
    case PartyRole::kBasic: {
      const core::Estimate est = basic_->query(sub.n);
      distributed::put_fixed64(u.body,
                               std::bit_cast<std::uint64_t>(est.value));
      distributed::put_varint(u.body, est.exact ? 1 : 0);
      u.items_observed = basic_->items();
      sub.pushed_value = est.value;
      sub.last_change = basic_->change_cursor();
      break;
    }
    case PartyRole::kSum: {
      const core::Estimate est = sum_->query(sub.n);
      distributed::put_fixed64(u.body,
                               std::bit_cast<std::uint64_t>(est.value));
      distributed::put_varint(u.body, est.exact ? 1 : 0);
      u.items_observed = sum_->items();
      sub.pushed_value = est.value;
      sub.last_change = sum_->change_cursor();
      break;
    }
    case PartyRole::kAgg:
      return;  // unreachable: subscribe() rejects the agg role
  }
  u.cursor = sub.cursor + 1;
  sub.cursor = u.cursor;
  sub.seq = u.seq;
  Bytes payload = u.encode();
  mobs.pushes.add();
  mobs.push_bytes.add(kHeaderSize + payload.size());
  if (u.base_cursor == 0) {
    mobs.push_full.add();
  } else {
    mobs.push_delta.add();
  }
  reply(s, MsgType::kPushUpdate, payload);
}

void PartyServer::drift_tick(Session& s) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  Subscription& sub = s.sub;
  mobs.push_checks.add();
  switch (role_) {
    case PartyRole::kCount:
    case PartyRole::kDistinct: {
      // Count-based windows expire only when items arrive, so the party's
      // item cursor covers window-expiry drift too: a quiescent stream is
      // provably drift-free and the check costs one atomic-ish read.
      const bool count = role_ == PartyRole::kCount;
      const std::uint64_t items =
          count ? count_->items_observed() : distinct_->items_observed();
      const std::uint64_t pushed =
          count ? sub.count_chain.items() : sub.distinct_chain.items();
      if (items == pushed ||
          static_cast<double>(items - pushed) < sub.slack) {
        return;
      }
      push_update(s);
      return;
    }
    case PartyRole::kBasic: {
      // change_cursor gates the (lock + query) estimate walk: if the wave
      // didn't mutate since the last check, the estimate can't have moved.
      const std::uint64_t cc = basic_->change_cursor();
      if (cc == sub.last_change) return;
      sub.last_change = cc;
      const double v = basic_->query(sub.n).value;
      if (std::abs(v - sub.pushed_value) < sub.slack) return;
      push_update(s);
      return;
    }
    case PartyRole::kSum: {
      const std::uint64_t cc = sum_->change_cursor();
      if (cc == sub.last_change) return;
      sub.last_change = cc;
      const double v = sum_->query(sub.n).value;
      if (std::abs(v - sub.pushed_value) < sub.slack) return;
      push_update(s);
      return;
    }
    case PartyRole::kAgg:
      return;
  }
}

void PartyServer::process_frame(Session& s, MsgType type,
                                const Bytes& payload) {
  const auto& obs = obs::NetServerObs::instance();
  auto err_out = [&](std::uint64_t request_id, ErrCode code,
                     std::string message) {
    reply(s, MsgType::kErr,
          ErrReply{request_id, code, std::move(message)}.encode());
  };
  // A frame that loses the protocol: its Err is the last reply.
  auto fail = [&](const char* message) {
    obs.frame_errors.add();
    err_out(0, ErrCode::kBadRequest, message);
    core_->finish(s);
  };

  switch (type) {
    case MsgType::kHello: {
      Hello hello;
      if (!Hello::decode(payload, hello)) {
        fail("bad hello");
        return;
      }
      reply(s, MsgType::kHelloAck, hello_ack().encode());
      break;
    }
    case MsgType::kSnapshotRequest: {
      obs.requests.add();
      SnapshotRequest req;
      if (!SnapshotRequest::decode(payload, req)) {
        fail("bad snapshot request");
        return;
      }
      answer(s, req);
      break;
    }
    case MsgType::kMetricsRequest: {
      // Scrape of this process's obs registry. No Hello required: a
      // scrape-only connection (wavecli metrics --connect, the CI schema
      // check) sends this as its first frame.
      MetricsRequest req;
      if (!MetricsRequest::decode(payload, req)) {
        fail("bad metrics request");
        return;
      }
      MetricsReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.format = req.format;
      switch (req.format) {
        case MetricsFormat::kProm:
          r.text = obs::prometheus_text();
          break;
        case MetricsFormat::kJson:
          r.text = obs::json_text();
          break;
        case MetricsFormat::kTrace:
          r.text = obs::trace_text(req.trace_filter);
          break;
      }
      reply(s, MsgType::kMetricsReply, r.encode());
      break;
    }
    case MsgType::kHealthRequest: {
      // Liveness probe (src/supervise/). Like kMetricsRequest, no Hello
      // required: a supervisor's probe connection sends this as its
      // first frame and never touches snapshot state.
      HealthRequest req;
      if (!HealthRequest::decode(payload, req)) {
        fail("bad health request");
        return;
      }
      reply(s, MsgType::kHealthReply, health_reply(req.request_id).encode());
      obs.health_probes.add();
      break;
    }
    case MsgType::kSubscribe: {
      obs.requests.add();
      SubscribeRequest req;
      if (!SubscribeRequest::decode(payload, req)) {
        fail("bad subscribe request");
        return;
      }
      // Typed rejections keep the connection: the request parsed fine,
      // the framing is intact, and the peer may fall back to polling.
      const char* reject = nullptr;
      if (!cfg_.enable_push) {
        reject = "push subscriptions disabled";
      } else if (role_ == PartyRole::kAgg) {
        reject = "push unsupported for role agg";
      }
      if (reject != nullptr) {
        err_out(req.request_id, ErrCode::kBadRequest, reject);
        break;
      }
      if (req.role != role_) {
        err_out(req.request_id, ErrCode::kWrongRole,
                std::string("party serves role ") + role_name(role_));
        break;
      }
      subscribe(s, req);
      break;
    }
    case MsgType::kUnsubscribe: {
      Unsubscribe req;
      if (!Unsubscribe::decode(payload, req)) {
        fail("bad unsubscribe");
        return;
      }
      // No reply by design: frames are processed in order, so the next
      // request/reply exchange on this connection is unambiguous.
      s.sub = Subscription{};
      obs::MonitorPartyObs::instance().unsubscribes.add();
      break;
    }
    default: {
      fail("unexpected message type");
      return;
    }
  }
  if (s.sub.active) drift_tick(s);
}

}  // namespace waves::net
