// The live deployment every workload drives: t=4 Union-Counting parties,
// each behind its own PartyServer, a polling referee over TCP
// (NetworkCountSource), a MonitorHub holding one push leg per party, and one
// raw watcher connection on the hub. Public APIs only.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "monitor/hub.hpp"
#include "monitor/slack.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace perfbench {

using namespace waves;
using Clock = std::chrono::steady_clock;

constexpr int kParties = 4;
constexpr std::uint64_t kWindow = std::uint64_t{1} << 14;
constexpr int kInstances = 5;
constexpr std::uint64_t kSharedSeed = 7;  // the deployment's stored coins
constexpr double kHubEps = 0.05;
constexpr std::chrono::milliseconds kCheckEvery{2};

inline core::RandWave::Params params() {
  return {.eps = 0.2, .window = kWindow, .c = 36};
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] inline void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

/// Bernoulli(1/2) bits packed 64 per word (splitmix64), one per party.
class WordStream {
 public:
  explicit WordStream(std::uint64_t seed) : state_(seed) {}

  /// Replace `out` with the next ceil(bits / 64) words.
  void fill(std::vector<std::uint64_t>& out, std::uint64_t bits) {
    out.resize((bits + 63) / 64);
    for (std::uint64_t& w : out) w = next();
  }

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The merged estimates one consumer of the hub received, timestamped on
/// receipt. Several hub revisions can carry the same state (each leg's
/// recompute may publish once the mirrors align), so a round is settled by
/// the first revision after the round began that carries the oracle value.
class History {
 public:
  struct Entry {
    std::uint64_t revision = 0;
    bool ok = false;
    double value = 0.0;
    std::int64_t at_ns = 0;
  };

  void note(const Entry& e) {
    {
      std::lock_guard lk(mu_);
      entries_.push_back(e);
      if (entries_.size() > kKeep) entries_.erase(entries_.begin());
      ++updates_;
    }
    cv_.notify_all();
  }

  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] Entry latest() const {
    std::lock_guard lk(mu_);
    return entries_.empty() ? Entry{} : entries_.back();
  }

  [[nodiscard]] std::uint64_t updates() const {
    std::lock_guard lk(mu_);
    return updates_;
  }

  /// Block until an entry after `revision` arrives; false on timeout or a
  /// closed source.
  [[nodiscard]] bool wait_after(std::uint64_t revision,
                                Clock::time_point deadline) const {
    std::unique_lock lk(mu_);
    return cv_.wait_until(lk, deadline, [&] {
      return closed_ ||
             (!entries_.empty() && entries_.back().revision > revision);
    }) && !closed_;
  }

  /// The first entry after `revision` that is ok and carries `value`,
  /// waiting for it until `deadline`.
  [[nodiscard]] std::optional<Entry> wait_match(
      std::uint64_t revision, double value, Clock::time_point deadline) const {
    std::unique_lock lk(mu_);
    std::optional<Entry> hit;
    (void)cv_.wait_until(lk, deadline, [&] {
      for (const Entry& e : entries_) {
        if (e.revision > revision && e.ok && e.value == value) {
          hit = e;
          return true;
        }
      }
      return closed_;
    });
    return hit;
  }

 private:
  static constexpr std::size_t kKeep = 256;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::uint64_t updates_ = 0;
  bool closed_ = false;
};

/// One raw watcher connection on the hub: Hello, kSubscribe, then a reader
/// thread that records every EstimateUpdate it receives.
class Watcher {
 public:
  Watcher() = default;
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;
  ~Watcher() { stop(); }

  /// Handshake and read the subscription's ack; starts the reader thread.
  [[nodiscard]] bool start(std::uint16_t port, std::string& err) {
    const auto dl = [] { return net::deadline_in(std::chrono::seconds(5)); };
    sock_ = net::tcp_connect("127.0.0.1", port, dl());
    if (!sock_.valid()) return err = "watcher connect failed", false;
    net::Frame f;
    if (!net::write_frame(sock_, net::MsgType::kHello, net::Hello{99}.encode(),
                          dl()) ||
        net::read_frame(sock_, f, dl()) != net::ReadStatus::kOk ||
        f.type != net::MsgType::kHelloAck) {
      return err = "watcher handshake failed", false;
    }
    const net::SubscribeRequest req{1, net::PartyRole::kCount, kWindow};
    net::EstimateUpdate ack;
    if (!net::write_frame(sock_, net::MsgType::kSubscribe, req.encode(),
                          dl()) ||
        net::read_frame(sock_, f, dl()) != net::ReadStatus::kOk ||
        f.type != net::MsgType::kPushUpdate ||
        !net::EstimateUpdate::decode(f.payload, ack)) {
      return err = "watcher subscribe failed", false;
    }
    note(ack);
    thread_ = std::jthread([this](const std::stop_token& st) { run(st); });
    return true;
  }

  void stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
    sock_.close();
  }

  [[nodiscard]] const History& history() const noexcept { return history_; }

 private:
  void note(const net::EstimateUpdate& u) {
    history_.note({u.round, u.status == 1, u.value, now_ns()});
  }

  void run(const std::stop_token& st) {
    net::Frame f;
    net::EstimateUpdate u;
    while (!st.stop_requested()) {
      // Poll for the stop request; once bytes arrive, give the whole frame
      // a full deadline so a timeout never splits one.
      if (!sock_.wait_readable(
              net::deadline_in(std::chrono::milliseconds(50)))) {
        continue;
      }
      const net::ReadStatus rs = net::read_frame(
          sock_, f, net::deadline_in(std::chrono::seconds(5)));
      if (rs == net::ReadStatus::kOk && f.type == net::MsgType::kPushUpdate &&
          net::EstimateUpdate::decode(f.payload, u)) {
        note(u);
        continue;
      }
      break;  // closed, malformed, or an unexpected frame
    }
    history_.close();
  }

  net::Socket sock_;
  History history_;
  std::jthread thread_;  // last: joined before the socket and history go
};

/// Members are declared so that destruction stops the watcher, then the
/// hub, then the servers, before the parties they borrow go away.
struct Deployment {
  std::vector<std::unique_ptr<distributed::CountParty>> parties;
  std::vector<const distributed::CountParty*> views;  // the in-process oracle
  std::vector<WordStream> streams;
  std::vector<std::uint64_t> fed;  // items ingested per party
  std::vector<std::unique_ptr<net::PartyServer>> servers;
  std::unique_ptr<net::NetworkCountSource> source;
  std::unique_ptr<monitor::MonitorHub> hub;
  std::unique_ptr<Watcher> watcher;
  double push_threshold = 0.0;  // items a party ingests before it pushes

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (watcher) watcher->stop();
    if (hub) hub->stop();
    for (auto& s : servers) s->stop();
  }

  /// Draw party j's next `bits` stream bits into `words`.
  void draw(int j, std::uint64_t bits, std::vector<std::uint64_t>& words) {
    streams[static_cast<std::size_t>(j)].fill(words, bits);
  }

  /// Ingest them into party j through the batch path.
  void observe(int j, const std::vector<std::uint64_t>& words,
               std::uint64_t bits) {
    parties[static_cast<std::size_t>(j)]->observe_words(words, bits);
    fed[static_cast<std::size_t>(j)] += bits;
  }

  [[nodiscard]] core::Estimate oracle() const {
    return distributed::union_count(views, kWindow);
  }
};

inline std::uint64_t stream_seed(std::uint64_t seed, int party) {
  return seed * 0x100000001b3ULL + static_cast<std::uint64_t>(party) + 1;
}

/// Build, prefill and bootstrap one deployment. Dies on any failure: a
/// deployment that cannot come up is not a measurement.
inline std::unique_ptr<Deployment> set_up(std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  std::vector<net::Endpoint> endpoints;
  std::vector<std::uint64_t> scratch;
  for (int j = 0; j < kParties; ++j) {
    d->parties.push_back(std::make_unique<distributed::CountParty>(
        params(), kInstances, kSharedSeed));
    d->views.push_back(d->parties.back().get());
    d->streams.emplace_back(stream_seed(seed, j));
    d->fed.push_back(0);
    d->draw(j, 2 * kWindow, scratch);  // window prefilled to 2n
    d->observe(j, scratch, 2 * kWindow);
    d->servers.push_back(std::make_unique<net::PartyServer>(
        net::ServerConfig{}, d->parties.back().get()));
    if (!d->servers.back()->start()) die("party server failed to start");
    endpoints.push_back({"127.0.0.1", d->servers.back()->port()});
  }
  const core::Estimate truth = d->oracle();

  // The referee's bootstrap: connections plus the one full fetch that seeds
  // its delta mirrors.
  d->source = std::make_unique<net::NetworkCountSource>(
      endpoints, params(), kInstances, kSharedSeed);
  const distributed::QueryResult boot =
      distributed::union_count(*d->source, kWindow);
  if (boot.status != distributed::QueryStatus::kOk ||
      boot.estimate.value != truth.value) {
    die("bootstrap query disagrees with the in-process referee");
  }

  monitor::HubConfig cfg;
  cfg.parties = endpoints;
  cfg.role = net::PartyRole::kCount;
  cfg.n = kWindow;
  cfg.eps = kHubEps;
  cfg.split = monitor::SlackSplit::kUniform;
  cfg.check_every = kCheckEvery;
  cfg.count_params = params();
  cfg.instances = kInstances;
  cfg.shared_seed = kSharedSeed;
  d->push_threshold = monitor::SlackBudget{kHubEps, kParties, cfg.split}
                          .threshold(net::PartyRole::kCount, kWindow, 1);
  d->hub = std::make_unique<monitor::MonitorHub>(cfg);
  if (!d->hub->start()) die("hub failed to start");
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  monitor::HubEstimate est = d->hub->estimate();
  while (est.status != distributed::QueryStatus::kOk ||
         est.value != truth.value) {
    if (Clock::now() > give_up) die("hub never settled on the bootstrap");
    est = d->hub->wait_revision(est.revision, std::chrono::milliseconds(50));
  }

  d->watcher = std::make_unique<Watcher>();
  std::string err;
  if (!d->watcher->start(d->hub->watch_port(), err)) die(err);
  const History::Entry ack = d->watcher->history().latest();
  if (!ack.ok || ack.value != truth.value) {
    die("watcher ack disagrees with the in-process referee");
  }
  return d;
}

}  // namespace perfbench
