// waved — one party of a distributed-streams deployment as a standalone
// TCP daemon.
//
//   waved --role count|distinct|basic|sum|agg --party-id I --parties T
//         [--port P]            listen port (default 0 = ephemeral)
//         [--host H]            bind address (default 127.0.0.1)
//         [--op sum|min|max]    aggregate op (agg role only; default sum)
//         [--eps E] [--window N] [--instances K] [--seed S]
//         [--items M] [--stream-seed S2] [--density D] [--noise X]
//         [--value-space V] [--skew Z] [--max-value R]
//         [--state-dir DIR]     durable checkpoints + generation (epoch)
//         [--checkpoint-every-items N]  checkpoint cadence during ingest
//         [--ingest-chunk N]    feed N items at a time (default: all)
//         [--ingest-delay-ms MS] pause between chunks (crash-test pacing)
//         [--serve-seconds SEC] exit after SEC seconds (default: run until
//                               SIGINT/SIGTERM)
//         [--push on|off]       accept kSubscribe push legs (default on;
//                               off rejects subscriptions with kBadRequest)
//         [--push-check-ms MS]  default drift-check cadence for
//                               subscriptions that don't carry their own
//         [--max-conns K]       live-connection cap; over it, a fresh
//                               accept gets one ErrReply{kOverloaded} and
//                               the close (default 64)
//
// The daemon builds its synopsis with the deployment's shared seed (--seed;
// the referee derives the same hash functions from it), ingests its
// deterministic share of the feed_config stream family, prints
//
//   WAVED READY role=<role> party=<I> port=<P> items=<M> generation=<G>
//
// on stdout (the loopback test and any orchestrator parse this line to
// learn the ephemeral port), then serves snapshot requests until told to
// stop. Exit code 2 on usage errors, 1 if the listener cannot bind or the
// state dir is unusable.
//
// Crash safety: with --state-dir the daemon bumps and persists a generation
// number at startup, restores the newest valid checkpoint (replaying only
// items [cursor, M) of the deterministic feed — the synopsis is the state,
// Theorems 2/5-7), checkpoints periodically and at ingest completion, and
// on SIGTERM drains connections gracefully, writes a final checkpoint, and
// exits 0. A corrupt or truncated checkpoint is rejected by its CRC
// envelope (WAVED CHECKPOINT REJECTED on stdout, counted in
// waves_recovery_checkpoints_rejected_total) and the daemon falls back to
// replaying the feed from scratch — same answers, just a longer start.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "agg/agg_wave.hpp"
#include "distributed/party.hpp"
#include "feed_config.hpp"
#include "net/io_model.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_obs.hpp"
#include "obs/trace.hpp"
#include "recovery/state_store.hpp"
#include "util/simd.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Options {
  std::string role;
  std::string op = "sum";  // agg role only
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  // Defaults mirror `wavecli query` so an all-default deployment keeps the
  // byte-for-byte --connect/--local parity (feed defaults live in FeedSpec).
  int party_id = 0;
  double eps = 0.05;
  std::uint64_t window = 4096;
  int instances = 3;
  std::uint64_t seed = 1;
  double serve_seconds = 0.0;  // 0: until signaled
  std::string state_dir;       // empty: no durability
  std::uint64_t checkpoint_every = 0;  // 0: only at ingest end / drain
  std::uint64_t ingest_chunk = 0;      // 0: one batch
  std::uint64_t ingest_delay_ms = 0;
  bool push = true;
  std::uint64_t push_check_ms = 25;
  std::uint64_t max_conns = 64;
  waves::tools::FeedSpec feed;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: waved --role count|distinct|basic|sum|agg --party-id I "
      "--parties T\n"
      "             [--port P] [--host H] [--op sum|min|max]\n"
      "             [--eps E] [--window N]\n"
      "             [--instances K] [--seed S] [--items M] "
      "[--stream-seed S2]\n"
      "             [--density D] [--noise X] [--value-space V] [--skew Z]\n"
      "             [--max-value R] [--state-dir DIR]\n"
      "             [--checkpoint-every-items N] [--ingest-chunk N]\n"
      "             [--ingest-delay-ms MS] [--serve-seconds SEC]\n"
      "             [--push on|off] [--push-check-ms MS] [--max-conns K]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    // Every flag takes a value; a trailing flag without one is a usage
    // error, not something to silently default.
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--role") {
      o.role = val;
    } else if (flag == "--op") {
      o.op = val;
    } else if (flag == "--host") {
      o.host = val;
    } else if (flag == "--port") {
      o.port = static_cast<std::uint16_t>(std::strtoul(val, nullptr, 10));
    } else if (flag == "--party-id") {
      o.party_id = std::atoi(val);
    } else if (flag == "--parties") {
      o.feed.parties = std::atoi(val);
    } else if (flag == "--eps") {
      o.eps = std::atof(val);
    } else if (flag == "--window") {
      o.window = std::strtoull(val, nullptr, 10);
    } else if (flag == "--instances") {
      o.instances = std::atoi(val);
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--items") {
      o.feed.items = std::strtoull(val, nullptr, 10);
    } else if (flag == "--stream-seed") {
      o.feed.stream_seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--density") {
      o.feed.density = std::atof(val);
    } else if (flag == "--noise") {
      o.feed.noise = std::atof(val);
    } else if (flag == "--value-space") {
      o.feed.value_space = std::strtoull(val, nullptr, 10);
    } else if (flag == "--skew") {
      o.feed.skew = std::atof(val);
    } else if (flag == "--max-value") {
      o.feed.max_value = std::strtoull(val, nullptr, 10);
    } else if (flag == "--state-dir") {
      o.state_dir = val;
    } else if (flag == "--checkpoint-every-items") {
      o.checkpoint_every = std::strtoull(val, nullptr, 10);
    } else if (flag == "--ingest-chunk") {
      o.ingest_chunk = std::strtoull(val, nullptr, 10);
    } else if (flag == "--ingest-delay-ms") {
      o.ingest_delay_ms = std::strtoull(val, nullptr, 10);
    } else if (flag == "--serve-seconds") {
      o.serve_seconds = std::atof(val);
    } else if (flag == "--push") {
      const std::string v = val;
      if (v != "on" && v != "off") return std::nullopt;
      o.push = v == "on";
    } else if (flag == "--push-check-ms") {
      o.push_check_ms = std::strtoull(val, nullptr, 10);
    } else if (flag == "--max-conns") {
      o.max_conns = std::strtoull(val, nullptr, 10);
    } else {
      return std::nullopt;
    }
  }
  if (o.role != "count" && o.role != "distinct" && o.role != "basic" &&
      o.role != "sum" && o.role != "agg") {
    return std::nullopt;
  }
  if (o.op != "sum" && o.op != "min" && o.op != "max") return std::nullopt;
  if (o.eps <= 0.0 || o.eps >= 1.0 || o.window < 1 || o.instances < 1 ||
      o.feed.parties < 1 || o.party_id < 0 ||
      o.party_id >= o.feed.parties) {
    return std::nullopt;
  }
  return o;
}

using waves::recovery::StateKind;
using waves::recovery::StateStore;

// The daemon's durability context. When --state-dir is absent every method
// is a cheap no-op, keeping the ephemeral path identical to before.
struct Durability {
  std::optional<StateStore> store;
  StateKind kind = StateKind::kCount;
  std::uint64_t generation = 0;

  [[nodiscard]] bool enabled() const { return store.has_value(); }
};

// Load + validate the checkpoint body for the daemon's role; on success
// calls `apply(body)` which returns the restored cursor (or nullopt when
// the body is structurally incompatible, e.g. another instance count or
// window).
// Returns the items already accounted for (0 on any fallback-to-empty).
template <typename Apply>
std::uint64_t try_restore(Durability& dur, Apply apply) {
  if (!dur.enabled()) return 0;
  std::uint64_t ck_generation = 0;
  waves::recovery::Bytes body;
  waves::recovery::OpenStatus why{};
  const auto status = dur.store->load(dur.kind, ck_generation, body, &why);
  if (status == StateStore::LoadStatus::kMissing) return 0;
  if (status != StateStore::LoadStatus::kOk) {
    std::printf("WAVED CHECKPOINT REJECTED reason=%s\n",
                status == StateStore::LoadStatus::kRejected
                    ? waves::recovery::open_status_name(why)
                    : "io-error");
    std::fflush(stdout);
    return 0;
  }
  auto span = waves::obs::Tracer::instance().start("recovery.restore");
  const std::optional<std::uint64_t> cursor = apply(body);
  if (!cursor) {
    // The envelope was intact but the body doesn't fit this deployment
    // shape (different --instances or --window / a decode bug): same
    // fallback as corruption, and counted the same way.
    waves::obs::RecoveryObs::instance().checkpoints_rejected.add();
    std::printf("WAVED CHECKPOINT REJECTED reason=bad-body\n");
    std::fflush(stdout);
    return 0;
  }
  span.set("generation", static_cast<double>(ck_generation));
  span.set("cursor", static_cast<double>(*cursor));
  std::printf("WAVED RESTORED generation=%llu cursor=%llu\n",
              static_cast<unsigned long long>(ck_generation),
              static_cast<unsigned long long>(*cursor));
  std::fflush(stdout);
  return *cursor;
}

// Feed items [cursor, total) through `observe(from, n)`, checkpointing via
// `save()` every checkpoint_every items, pacing with the chunk/delay knobs.
// A SIGTERM mid-ingest stops early after a final checkpoint; the caller
// re-checks g_stop.
template <typename Observe, typename Save>
void ingest(const Options& o, std::uint64_t cursor, std::uint64_t total,
            Observe observe, Save save) {
  const std::uint64_t chunk =
      o.ingest_chunk == 0 ? (total > cursor ? total - cursor : 0)
                          : o.ingest_chunk;
  std::uint64_t done = cursor;
  std::uint64_t since_save = 0;
  while (done < total && g_stop == 0) {
    const std::uint64_t n = std::min(chunk, total - done);
    observe(done, n);
    done += n;
    since_save += n;
    if (o.checkpoint_every > 0 && since_save >= o.checkpoint_every) {
      save();
      since_save = 0;
    }
    if (o.ingest_delay_ms > 0 && done < total) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(o.ingest_delay_ms));
    }
  }
  save();
}

int serve(const Options& o, waves::net::PartyServer& server,
          std::uint64_t items, std::uint64_t generation,
          const std::function<void()>& save) {
  if (!server.start()) {
    std::fprintf(stderr, "waved: cannot listen on %s:%u\n", o.host.c_str(),
                 o.port);
    return 1;
  }
  // Exported so a remote scrape (wavecli metrics --connect) can observe the
  // epoch directly — the kill -9 recovery test diffs this gauge across a
  // restart.
  waves::obs::Registry::instance()
      .gauge("waves_party_generation")
      .set(static_cast<double>(generation));
  waves::obs::Registry::instance()
      .gauge("waves_party_id")
      .set(static_cast<double>(o.party_id));
  // io= rides at the end so existing port=/generation= scrapers (the
  // loopback test's sed, the supervisor's READY parser) keep matching.
  std::printf("WAVED READY role=%s party=%d port=%u items=%llu "
              "generation=%llu io=%s\n",
              o.role.c_str(), o.party_id, server.port(),
              static_cast<unsigned long long>(items),
              static_cast<unsigned long long>(generation),
              waves::net::io_model_name(waves::net::default_io_model()));
  std::fflush(stdout);

  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (o.serve_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() >= o.serve_seconds) {
      break;
    }
  }
  // Graceful drain: no new connections, in-flight exchanges get one
  // io-deadline tick to finish, then a final durable checkpoint.
  server.drain(std::chrono::milliseconds(5000));
  save();
  std::printf("WAVED DRAINED role=%s party=%d\n", o.role.c_str(),
              o.party_id);
  std::fflush(stdout);
  return 0;
}

// Shared per-role driver: restore, differentially replay, serve.
//   kind          which StateKind the role persists
//   encode_ck     () -> sealed body bytes of the backend's current state
//   apply_ck      (body) -> restored cursor, nullopt if incompatible
//   observe       (from, n) feed items [from, from+n)
//   items_now     () -> backend's item count (for the READY line)
template <typename EncodeCk, typename ApplyCk, typename Observe,
          typename ItemsNow>
int run_role(const Options& o, waves::net::ServerConfig cfg,
             waves::net::PartyServer& server, StateKind kind,
             EncodeCk encode_ck, ApplyCk apply_ck, Observe observe,
             ItemsNow items_now) {
  Durability dur;
  dur.kind = kind;
  if (!o.state_dir.empty()) {
    dur.store.emplace(o.state_dir);
    if (!dur.store->prepare()) {
      std::fprintf(stderr, "waved: state dir unusable: %s\n",
                   dur.store->error().c_str());
      return 1;
    }
    // peek_generation() already bumped and persisted the epoch; reuse it so
    // checkpoints are sealed under the same generation HelloAck advertises.
    dur.generation = cfg.generation;
  }

  const std::function<void()> save = [&dur, &server, &encode_ck] {
    if (!dur.enabled()) return;
    if (!dur.store->save(dur.kind, dur.generation, encode_ck())) {
      std::fprintf(stderr, "waved: checkpoint write failed: %s\n",
                   dur.store->error().c_str());
      return;
    }
    // Health replies report checkpoint age relative to the last *durable*
    // write, so a failed save keeps the age growing — exactly what a
    // supervisor watching for stuck durability wants to see.
    server.note_checkpoint();
  };

  const std::uint64_t cursor = try_restore(dur, apply_ck);
  ingest(o, cursor, o.feed.items, observe, save);
  if (g_stop != 0) {
    std::printf("WAVED DRAINED role=%s party=%d\n", o.role.c_str(),
                o.party_id);
    std::fflush(stdout);
    return 0;  // SIGTERM during ingest: state saved, never went READY
  }
  return serve(o, server, items_now(), dur.generation, save);
}

// Reads the generation before server construction so the ServerConfig can
// carry it (the PartyServer is built by the caller of run_role).
std::uint64_t peek_generation(const Options& o) {
  if (o.state_dir.empty()) return 0;
  StateStore store(o.state_dir);
  if (!store.prepare()) return 0;
  return store.bump_generation();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts) return usage();
  const Options& o = *opts;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  using namespace waves;
  // Which ingest kernel set this process selected (WAVES_SIMD=OFF builds and
  // WAVES_SIMD_DISABLED=1 environments report "scalar").
  std::printf("WAVED SIMD kernels=%s\n",
              util::simd::name(util::simd::active()));
  std::fflush(stdout);
  net::ServerConfig cfg;
  cfg.host = o.host;
  cfg.port = o.port;
  cfg.party_id = static_cast<std::uint64_t>(o.party_id);
  cfg.enable_push = o.push;
  if (o.push_check_ms > 0) {
    cfg.push_check = std::chrono::milliseconds(o.push_check_ms);
  }
  if (o.max_conns > 0) {
    cfg.max_connections = static_cast<std::size_t>(o.max_conns);
  }

  if (o.role == "count") {
    distributed::CountParty party(tools::count_params(o.eps, o.window),
                                  o.instances, o.seed);
    const auto streams = tools::bit_streams(o.feed);
    const auto& bits = streams[static_cast<std::size_t>(o.party_id)];
    net::ServerConfig role_cfg = cfg;
    role_cfg.generation = peek_generation(o);
    net::PartyServer server(role_cfg, &party);
    return run_role(
        o, role_cfg, server, recovery::StateKind::kCount,
        [&party] { return recovery::encode(party.checkpoint()); },
        [&party](const recovery::Bytes& body)
            -> std::optional<std::uint64_t> {
          distributed::CountPartyCheckpoint ck;
          if (!recovery::decode(body, ck) || !party.restore(ck)) {
            return std::nullopt;
          }
          return ck.cursor;
        },
        [&party, &bits](std::uint64_t from, std::uint64_t n) {
          if (from == 0 && n == bits.size()) {
            party.observe_batch(bits);
            return;
          }
          for (std::uint64_t i = from; i < from + n; ++i) {
            party.observe(bits.bit(i));
          }
        },
        [&party] { return party.items_observed(); });
  }
  if (o.role == "distinct") {
    distributed::DistinctParty party(
        tools::distinct_params(o.eps, o.window, o.feed.value_space,
                               o.feed.parties),
        o.instances, o.seed);
    const auto values = tools::value_stream(o.feed, o.party_id);
    net::ServerConfig role_cfg = cfg;
    role_cfg.generation = peek_generation(o);
    net::PartyServer server(role_cfg, &party);
    return run_role(
        o, role_cfg, server, recovery::StateKind::kDistinct,
        [&party] { return recovery::encode(party.checkpoint()); },
        [&party](const recovery::Bytes& body)
            -> std::optional<std::uint64_t> {
          distributed::DistinctPartyCheckpoint ck;
          if (!recovery::decode(body, ck) || !party.restore(ck)) {
            return std::nullopt;
          }
          return ck.cursor;
        },
        [&party, &values](std::uint64_t from, std::uint64_t n) {
          party.observe_batch(std::span<const std::uint64_t>(
              values.data() + from, static_cast<std::size_t>(n)));
        },
        [&party] { return party.items_observed(); });
  }

  if (o.role == "agg") {
    agg::AggOp op = agg::AggOp::kSum;
    if (o.op == "min") op = agg::AggOp::kMin;
    if (o.op == "max") op = agg::AggOp::kMax;
    net::AggPartyState party(op, o.window);
    // Same deterministic feed as the sum role; values fit max_value so the
    // widening cast to signed is exact.
    const auto uvalues = tools::sum_stream(o.feed, o.party_id);
    const std::vector<std::int64_t> values(uvalues.begin(), uvalues.end());
    net::ServerConfig role_cfg = cfg;
    role_cfg.generation = peek_generation(o);
    net::PartyServer server(role_cfg, &party);
    return run_role(
        o, role_cfg, server, recovery::StateKind::kAgg,
        [&party] { return recovery::encode(party.checkpoint()); },
        [&party](const recovery::Bytes& body)
            -> std::optional<std::uint64_t> {
          recovery::AggPartyCheckpoint ck;
          if (!recovery::decode(body, ck) || !party.restore(ck)) {
            return std::nullopt;
          }
          return ck.cursor;
        },
        [&party, &values](std::uint64_t from, std::uint64_t n) {
          party.observe_batch(std::span<const std::int64_t>(
              values.data() + from, static_cast<std::size_t>(n)));
        },
        [&party] { return party.items(); });
  }

  const std::uint64_t inv_eps =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(1.0 / o.eps + 0.5));
  if (o.role == "basic") {
    net::BasicPartyState party(inv_eps, o.window);
    const auto streams = tools::bit_streams(o.feed);
    const auto& bits = streams[static_cast<std::size_t>(o.party_id)];
    net::ServerConfig role_cfg = cfg;
    role_cfg.generation = peek_generation(o);
    net::PartyServer server(role_cfg, &party);
    return run_role(
        o, role_cfg, server, recovery::StateKind::kBasic,
        [&party] { return recovery::encode(party.checkpoint()); },
        [&party](const recovery::Bytes& body)
            -> std::optional<std::uint64_t> {
          recovery::BasicPartyCheckpoint ck;
          if (!recovery::decode(body, ck)) return std::nullopt;
          party.restore(ck);
          return ck.cursor;
        },
        [&party, &bits](std::uint64_t from, std::uint64_t n) {
          if (from == 0 && n == bits.size()) {
            party.observe_batch(bits);
            return;
          }
          for (std::uint64_t i = from; i < from + n; ++i) {
            party.observe(bits.bit(i));
          }
        },
        [&party] { return party.items(); });
  }
  // sum
  net::SumPartyState party(inv_eps, o.window, o.feed.max_value);
  const auto values = tools::sum_stream(o.feed, o.party_id);
  net::ServerConfig role_cfg = cfg;
  role_cfg.generation = peek_generation(o);
  net::PartyServer server(role_cfg, &party);
  return run_role(
      o, role_cfg, server, recovery::StateKind::kSum,
      [&party] { return recovery::encode(party.checkpoint()); },
      [&party](const recovery::Bytes& body)
          -> std::optional<std::uint64_t> {
        recovery::SumPartyCheckpoint ck;
        if (!recovery::decode(body, ck)) return std::nullopt;
        party.restore(ck);
        return ck.cursor;
      },
      [&party, &values](std::uint64_t from, std::uint64_t n) {
        party.observe_batch(std::span<const std::uint64_t>(
            values.data() + from, static_cast<std::size_t>(n)));
      },
      [&party] { return party.items(); });
}
