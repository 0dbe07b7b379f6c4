// The party side of the TCP transport: PartyServer wraps one synopsis
// backend (a distributed::CountParty / DistinctParty, or the Scenario-1
// totals states below) behind a listening socket and answers framed
// Hello / SnapshotRequest messages. The `waved` daemon is a thin CLI shell
// around this class; tests and benches embed it in-process.
//
// Concurrency: the connection core (net/conn_core.hpp) runs one EventLoop
// thread for every connection, and process_frame below answers each frame
// on that thread, straight into the connection's write queue. Push-drift
// checks are timer-wheel entries, so thousands of idle subscriptions cost
// no threads. Backends are internally locked (the parties) or locked here
// (the totals states), so an ingestion thread may keep feeding while the
// referee queries — the model's "parties observe, referee asks" split. An
// answer waits for the party lock while an ingest batch holds it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "agg/agg_wave.hpp"
#include "core/det_wave.hpp"
#include "core/sum_wave.hpp"
#include "distributed/party.hpp"
#include "net/conn_core.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta_chain.hpp"

namespace waves::net {

/// Scenario-1 Basic Counting backend: a DetWave plus the lock the bare core
/// class doesn't carry (parties bring their own; the totals wrappers need
/// one here to let ingestion overlap queries).
class BasicPartyState {
 public:
  BasicPartyState(std::uint64_t inv_eps, std::uint64_t window)
      : wave_(inv_eps, window), inv_eps_(inv_eps), window_(window) {}

  void observe(bool bit);
  void observe_batch(const util::PackedBitStream& bits);
  [[nodiscard]] core::Estimate query(std::uint64_t n) const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  /// Monotone mutation counter (the wave's) — the push leg's cheap "did
  /// anything change since the last drift check" gate.
  [[nodiscard]] std::uint64_t change_cursor() const;

  [[nodiscard]] recovery::BasicPartyCheckpoint checkpoint() const;
  /// Replace the wave with the checkpointed state (parameters must match
  /// this state's construction).
  void restore(const recovery::BasicPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  core::DetWave wave_;
  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t items_ = 0;
};

/// Scenario-1 Sum backend (SumWave over integer values in [0..max_value]).
class SumPartyState {
 public:
  SumPartyState(std::uint64_t inv_eps, std::uint64_t window,
                std::uint64_t max_value)
      : wave_(inv_eps, window, max_value),
        inv_eps_(inv_eps),
        window_(window),
        max_value_(max_value) {}

  void observe(std::uint64_t value);
  void observe_batch(std::span<const std::uint64_t> values);
  [[nodiscard]] core::Estimate query(std::uint64_t n) const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  /// See BasicPartyState::change_cursor.
  [[nodiscard]] std::uint64_t change_cursor() const;

  [[nodiscard]] recovery::SumPartyCheckpoint checkpoint() const;
  /// Same contract as BasicPartyState::restore.
  void restore(const recovery::SumPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  core::SumWave wave_;
  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t max_value_;
  std::uint64_t items_ = 0;
};

/// Exact-aggregate backend (agg::AggWave over signed int64 values). Same
/// locking contract as the totals states; batch ingest rides the SIMD bulk
/// path.
class AggPartyState {
 public:
  AggPartyState(agg::AggOp op, std::uint64_t window) : wave_(op, window) {}

  void observe(std::int64_t value);
  void observe_batch(std::span<const std::int64_t> values);
  [[nodiscard]] std::int64_t value() const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept {
    return wave_.window();
  }
  [[nodiscard]] agg::AggOp op() const noexcept { return wave_.op(); }

  [[nodiscard]] recovery::AggPartyCheckpoint checkpoint() const;
  /// Replace the wave with the checkpointed state. False, touching
  /// nothing, when the checkpoint cannot come from a wave of this window
  /// (it holds other than min(pos, window) values): a daemon restarted
  /// with another --window replays instead.
  [[nodiscard]] bool restore(const recovery::AggPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  agg::AggWave wave_;
  std::uint64_t items_ = 0;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0: ephemeral; read back via port()
  std::uint64_t party_id = 0;
  // The daemon's epoch, advertised in HelloAck and stamped on every reply;
  // a StateStore-backed daemon bumps and persists it at startup.
  std::uint64_t generation = 0;
  // Per-connection I/O deadline: a partial frame must complete, and a
  // queued reply drain, within this long or the connection is closed.
  std::chrono::milliseconds io_deadline{5000};
  // Accept kSubscribe and run eps-slack push legs (src/monitor/). Off,
  // subscriptions are rejected with kBadRequest — `waved --push off`.
  bool enable_push = true;
  // Default drift-check cadence for subscriptions that don't carry their
  // own (tag-3 check_every_ms of 0).
  std::chrono::milliseconds push_check{25};
  // Hard cap on live connections (the fd budget). Over the cap, a fresh
  // accept is answered with one ErrReply{kOverloaded} frame and closed —
  // typed, counted in waves_net_server_overload_rejected_total — so a
  // watcher stampede or a socket leak degrades loudly instead of
  // exhausting the daemon.
  std::size_t max_connections = 64;
};

/// One party daemon: serves exactly one role, determined by which backend
/// the constructor receives (backends are borrowed, not owned — the caller
/// keeps them alive and may keep feeding them).
class PartyServer {
 public:
  PartyServer(ServerConfig cfg, distributed::CountParty* party);
  PartyServer(ServerConfig cfg, distributed::DistinctParty* party);
  PartyServer(ServerConfig cfg, BasicPartyState* party);
  PartyServer(ServerConfig cfg, SumPartyState* party);
  PartyServer(ServerConfig cfg, AggPartyState* party);
  ~PartyServer();

  PartyServer(const PartyServer&) = delete;
  PartyServer& operator=(const PartyServer&) = delete;

  /// Bind + listen + start the event loop. False if the bind fails.
  [[nodiscard]] bool start();
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] PartyRole role() const noexcept { return role_; }
  /// Stop accepting, join the loop thread, close the listener.
  /// Idempotent.
  void stop();
  /// Graceful shutdown: stop accepting new connections immediately, then
  /// give in-flight handlers up to `grace` to finish their current exchange
  /// before stopping them. Used by waved's SIGTERM drain.
  void drain(std::chrono::milliseconds grace);
  /// Record that the backend's state was just durably checkpointed; health
  /// replies report milliseconds since the most recent call (~0 = never).
  /// Called from waved's save path — safe from any thread.
  void note_checkpoint();

 private:
  // The pull chain: one delta chain shared by every client of this
  // server. Its cursor (not the party's item count) is the wire cursor, so
  // two clients interleaving requests can never hold different baselines
  // under the same cursor value — a since_cursor that isn't the chain's
  // current one simply gets a full reply.
  //
  // The count role adds a retry cache. A client that timed out and retries
  // the same since_cursor would otherwise miss the (already advanced)
  // baseline and force a full resync; as long as nothing was ingested in
  // between, re-shipping the previous body verbatim is exactly equivalent.
  // The same cache answers repeated bootstraps (since_cursor 0) on a
  // quiescent party without re-encoding.
  template <class Encoder>
  struct PullChain {
    std::mutex mu;
    Encoder chain;
    bool cache_valid = false;
    std::uint64_t cached_since = 0;        // request's since_cursor
    std::uint64_t cached_items = 0;        // items_observed at encode time
    std::uint64_t cached_base_cursor = 0;  // reply fields, verbatim
    std::uint64_t cached_cursor = 0;
    Bytes cached_body;
  };

  // One connection's active push subscription (at most one; a replacing
  // kSubscribe restarts the chain). Owned by its connection — no
  // cross-connection sharing, so the per-subscription delta chains need no
  // locks beyond the party's own.
  struct Subscription {
    bool active = false;
    std::uint64_t request_id = 0;
    std::uint64_t n = 0;
    double slack = 1.0;  // absolute threshold, role units (see protocol.hpp)
    std::chrono::milliseconds check{25};
    std::uint64_t seq = 0;     // last pushed seq (0 = none yet)
    std::uint64_t cursor = 0;  // push-chain cursor (0 = no baseline)
    // Drift trackers for basic/sum (count/distinct compare the party's
    // items against their chain's): what the subscriber last saw.
    double pushed_value = 0.0;
    std::uint64_t last_change = 0;  // change_cursor at last check
    // The push chain (count/distinct; only the role's flavour is used).
    recovery::CountDeltaEncoder count_chain;
    recovery::DistinctDeltaEncoder distinct_chain;
  };

  // One connection: the core's state plus its subscription.
  struct Session : ConnCore::Conn {
    Subscription sub;
    EventLoop::TimerId drift_timer = 0;
  };

  [[nodiscard]] HelloAck hello_ack() const;
  [[nodiscard]] HealthReply health_reply(std::uint64_t request_id) const;
  /// The frame state machine: decode one frame, queue its reply frames (if
  /// any) on `s`, update its subscription, then run the drift check. A
  /// frame that loses the protocol ends the connection after its reply.
  void process_frame(Session& s, MsgType type, const Bytes& payload);
  /// Drift check + conditional push; also called on every timer-wheel
  /// tick of a subscribed connection.
  void drift_tick(Session& s);
  /// Queues the role-appropriate reply (or Err) for a decoded request.
  void answer(Session& s, const SnapshotRequest& req);
  /// Opens `s.sub` for a decoded kSubscribe and queues the initial
  /// full-state push (the ack).
  void subscribe(Session& s, const SubscribeRequest& req);
  /// Unconditional push of the current state (initial ack, drift firing).
  void push_update(Session& s);
  void reply(Session& s, MsgType type, const Bytes& payload) {
    core_->send(s, type, payload);
  }
  /// The DeltaReply fields for a pull request, off the shared pull chain.
  template <class Party, class Encoder>
  void pull_reply(const Party& party, PullChain<Encoder>& st,
                  const SnapshotRequest& req, DeltaReply& r) const;

  ServerConfig cfg_;
  PartyRole role_;
  distributed::CountParty* count_ = nullptr;
  distributed::DistinctParty* distinct_ = nullptr;
  BasicPartyState* basic_ = nullptr;
  SumPartyState* sum_ = nullptr;
  AggPartyState* agg_ = nullptr;

  mutable PullChain<recovery::CountDeltaEncoder> count_pull_;
  mutable PullChain<recovery::DistinctDeltaEncoder> distinct_pull_;

  Listener listener_;

  // Health-probe sources: process-relative steady timestamps in ns. 0 in
  // last_checkpoint_ns_ means "never checkpointed this generation".
  Clock::time_point started_ = Clock::now();
  std::atomic<std::uint64_t> last_checkpoint_ns_{0};

  // The connection core (server_loop.cpp); null until start().
  struct LoopCore;
  std::unique_ptr<ConnCore> core_;
};

}  // namespace waves::net
