// MonitorHub — the referee side of continuous monitoring.
//
// The hub inverts the polling referee: instead of fetching every party each
// round, it opens one push leg per party (Hello -> kSubscribe with the
// party's eps-slack share, tag 3) and keeps a checkpoint mirror per party
// that kPushUpdate frames edit in place — full bodies rebase it, delta
// bodies (the PR-7 codecs) apply to it. Every applied push recomputes the
// merged estimate *through the same combine code the polling referee runs*
// (distributed::union_count / distinct_count over a mirror-backed
// SnapshotSource, with hashes re-derived from the deployment seed), so a
// hub estimate is byte-identical to what a `wavecli query` against the
// same party states returns — the property the loopback test diffs.
//
// Fault model mirrors the polling client's quorum rules: a dead leg marks
// its party missing, which fails the merged estimate closed for
// count/distinct and degrades it (error_slack = missing * n * max_value)
// for basic/sum totals. Legs reconnect with bounded exponential backoff;
// a HelloAck carrying a new generation means the party restarted, so the
// mirror is dropped and the subscription rebases on the full initial push
// (epoch-aware resync — the "HUB RESYNC" event operators grep for).
//
// Fan-out: the hub runs its own listener speaking the same three frames to
// any number of `wavecli watch` subscribers. Watcher connections carry
// EstimateUpdate bodies in kPushUpdate frames — the merged estimate, not
// checkpoints — pushed whenever the hub's revision advances, so N watchers
// cost one recompute plus N small frames per change and *zero* traffic
// while the streams are quiescent.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "monitor/slack.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "recovery/delta_chain.hpp"

namespace waves::monitor {

struct HubConfig {
  std::vector<net::Endpoint> parties;
  net::PartyRole role = net::PartyRole::kCount;
  std::uint64_t n = 0;  // monitored window
  // Global staleness budget, split across parties per `split` (slack.hpp).
  double eps = 0.05;
  SlackSplit split = SlackSplit::kUniform;
  std::uint64_t max_value = 1;  // sum-role slack + degraded widening
  // Party-side drift-check cadence carried in the subscription (tag 3).
  std::chrono::milliseconds check_every{25};
  std::chrono::milliseconds io_deadline{2000};
  // Leg reconnect backoff (bounded exponential, reset on a live push).
  std::chrono::milliseconds reconnect_base{50};
  std::chrono::milliseconds reconnect_max{1000};
  // Per-leg circuit breaker: `breaker_threshold` consecutive failed
  // connect/subscribe cycles trip it, an open leg stops hammering the
  // endpoint and retries one probe cycle per cooldown (the quorum math
  // already owns the missing party), a successful probe closes it. Counted
  // in the waves_monitor_hub_breaker_* families.
  bool breaker_enabled = true;
  int breaker_threshold = 5;
  std::chrono::milliseconds breaker_cooldown{1000};
  std::uint64_t client_id = 0;
  // Watcher fan-out listener; port 0 binds ephemeral (watch_port()).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t max_watchers = 64;
  // Per-watcher write budget: an EstimateUpdate push that cannot complete
  // within it evicts the watcher with a typed kOverloaded close (counted
  // in waves_monitor_hub_watcher_evicted_total). The budget is a timer on
  // the stalled write queue, so one slow peer never delays the healthy
  // watchers' fan-out.
  std::chrono::milliseconds watcher_write_budget{250};
  // Kernel send-buffer cap (SO_SNDBUF) for each accepted watcher socket;
  // 0 keeps the OS default. Bounding it makes the write budget an effective
  // backpressure bound — with the default auto-tuned buffer the kernel
  // absorbs megabytes of unread pushes before a write ever blocks.
  int watcher_sndbuf = 0;
  // Count/distinct merge parameters — must match the deployment (stored
  // coins: the hub re-derives the shared hashes from the seed, exactly
  // like NetworkCountSource).
  core::RandWave::Params count_params{};
  core::DistinctWave::Params distinct_params{};
  int instances = 0;
  std::uint64_t shared_seed = 0;
  // Operator-visible lifecycle events ("HUB RESYNC party=2 generation=7").
  // Called from leg threads, serialized by the hub; may be empty.
  std::function<void(const std::string&)> on_event;
};

/// Published merged estimate; `revision` bumps on every recompute, so a
/// consumer can wait for change instead of polling.
struct HubEstimate {
  std::uint64_t revision = 0;
  distributed::QueryStatus status = distributed::QueryStatus::kFailed;
  double value = 0.0;
  bool exact = false;
  std::uint64_t missing = 0;
  double error_slack = 0.0;
};

class MonitorHub {
 public:
  explicit MonitorHub(HubConfig cfg);
  ~MonitorHub();

  MonitorHub(const MonitorHub&) = delete;
  MonitorHub& operator=(const MonitorHub&) = delete;

  /// Bind the watcher listener and start the party legs + accept loop.
  /// False if the bind fails.
  [[nodiscard]] bool start();
  /// Stop all legs and watchers, close the listener. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t watch_port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] const HubConfig& config() const noexcept { return cfg_; }

  /// Current merged estimate (cheap copy under the estimate lock).
  [[nodiscard]] HubEstimate estimate() const;
  /// Block until the revision exceeds `after` or `timeout` passes; returns
  /// the estimate either way.
  [[nodiscard]] HubEstimate wait_revision(
      std::uint64_t after, std::chrono::milliseconds timeout) const;

 private:
  template <class Source, class Party, class Checkpoint>
  friend class MirrorSource;

  /// One party's pushed state.
  struct PartyMirror {
    bool live = false;
    // count/distinct: the checkpoint mirror the push chain edits (only the
    // role's flavour is used).
    recovery::Mirror<distributed::CountPartyCheckpoint> count;
    recovery::Mirror<distributed::DistinctPartyCheckpoint> distinct;
    // basic/sum: the local total, and the push cursor and epoch it came
    // under (cursor 0 = none yet).
    double value = 0.0;
    bool exact = false;
    std::uint64_t cursor = 0;
    std::uint64_t generation = 0;
  };

  void leg_loop(std::size_t i, const std::stop_token& st);
  /// Fold one decoded push into mirror i. False (with a diagnostic) on any
  /// cursor/codec mismatch — the leg drops and resubscribes.
  [[nodiscard]] bool apply_push(std::size_t i, const net::PushUpdate& u,
                                std::string& err);
  void set_leg_down(std::size_t i);
  /// Re-derive the merged estimate from the mirrors and publish it.
  void recompute();
  void emit(const std::string& line);
  // Event-loop watcher core (hub_loop.cpp).
  [[nodiscard]] bool watch_start();
  void watch_stop();
  void watch_notify();

  HubConfig cfg_;
  SlackBudget budget_;
  // Hash oracles: never-fed reference parties built from the deployment
  // seed (stored coins), exactly like NetworkCountSource's.
  std::unique_ptr<distributed::CountParty> count_ref_;
  std::unique_ptr<distributed::DistinctParty> distinct_ref_;

  // Lock order: mu_ before est_mu_ (recompute publishes under both).
  mutable std::mutex mu_;  // mirrors and the round buffers
  std::vector<PartyMirror> mirrors_;
  distributed::RoundBuffers<core::RandWaveSnapshot> count_round_;
  distributed::RoundBuffers<core::DistinctSnapshot> distinct_round_;

  mutable std::mutex est_mu_;
  mutable std::condition_variable est_cv_;
  HubEstimate est_;

  std::mutex event_mu_;

  net::Listener listener_;
  std::vector<std::jthread> legs_;

  // Watcher fan-out on the connection core (net/conn_core.hpp): one loop
  // multiplexes every watcher, pushes go through non-blocking write
  // queues with latest-wins estimate coalescing. Party legs stay threads —
  // there are only ever a handful, and they block in read_frame by design.
  // Opaque here (defined in hub_loop.cpp) with a custom deleter so this
  // header needs no event-loop types.
  struct WatchCore;
  struct WatchCoreDeleter {
    void operator()(WatchCore* core) const;
  };
  std::unique_ptr<WatchCore, WatchCoreDeleter> watch_core_;
};

}  // namespace waves::monitor
