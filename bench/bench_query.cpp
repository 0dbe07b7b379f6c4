// E18 — fast query path: steady-state delta snapshots vs full snapshots
// over the real TCP transport, at t=4 and t=16 parties.
//
// The claim under test: once a referee has queried a deployment, the next
// round only needs the *edit* since its mirror — bytes proportional to the
// items ingested between rounds (Theorems 5-7 charge the synopsis transfer
// per query; the delta path amortizes it across rounds) — plus persistent
// connections and a serial, allocation-free combine on the referee. The
// full baseline is a cold referee: a fresh client per round
// (built outside the timed span), so every timed query pays connect, Hello
// and the self-contained full-form DeltaReply per party. Every round is
// asserted bit-identical across both clients and the in-process referee;
// CI checks parity == 1 and byte_ratio >= 5 at t=16.
//
// Allocation counts come from the shared counting allocator
// (tools/alloc_hook.hpp + obs::alloc_count(), the same hook wavecli
// installs): the scratch-buffer reuse in frame/wire/protocol should make a
// steady-state delta round allocate strictly less than a full-snapshot
// round. Per-phase durations come from the client's flight recorder
// (obs/flight.hpp): where a query's wall time goes, split into
// connect/send/wait/decode/apply per party fetch. Both are zero under
// WAVES_OBS=OFF.
//
// JSON lines:
//   e18_query_path    {parties, mode, rounds, bytes_per_query, query_ms,
//                      allocs_per_query, fetch_connect_ms, fetch_send_ms,
//                      fetch_wait_ms, fetch_decode_ms, fetch_apply_ms,
//                      fetch_total_ms, fetch_allocs, fetch_records, parity}
//   e18_delta_vs_full {parties, full_bytes, delta_bytes, byte_ratio,
//                      full_ms, delta_ms, full_allocs, delta_allocs,
//                      full_fetch_allocs, delta_fetch_allocs, parity}
//   e18_encode_alloc  {ops, fresh_allocs_per_op, reused_allocs_per_op}
//
// The fetch_* fields are means per party fetch (over the flight records the
// ring kept for that mode's rounds), not per query: a query fans out to t
// parties in parallel, so per-query wall time tracks the slowest fetch, not
// the sum.
//
// `--smoke` shrinks rounds and stream sizes for CI.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

// The process-wide counting operator new/delete (no-op under
// WAVES_OBS=OFF). Must precede any allocation we want counted.
#include "alloc_hook.hpp"
#include "bench_common.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"
#include "stream/generators.hpp"

namespace waves {
namespace {

constexpr std::uint64_t kWindow = 1 << 14;  // matches E12b for comparability
constexpr int kInstances = 5;
constexpr std::uint64_t kSeed = 7;

struct ModeResult {
  double bytes_per_query = 0.0;
  double query_ms = 0.0;
  double allocs_per_query = 0.0;
  // Flight-recorder aggregates: means per party fetch over the records the
  // ring kept for this mode's rounds (zero under WAVES_OBS=OFF).
  double fetch_connect_ms = 0.0;
  double fetch_send_ms = 0.0;
  double fetch_wait_ms = 0.0;
  double fetch_decode_ms = 0.0;
  double fetch_apply_ms = 0.0;
  double fetch_total_ms = 0.0;
  double fetch_allocs = 0.0;
  std::uint64_t fetch_records = 0;
  bool parity = true;
};

/// One steady-state measurement: `rounds` queries against live servers,
/// a small ingest chunk between rounds, parity checked against the
/// in-process referee every round. `source_for_round` runs outside the
/// timed span and hands back the client the round queries through.
ModeResult run_rounds(
    const std::function<net::NetworkCountSource&()>& source_for_round,
    std::vector<std::unique_ptr<distributed::CountParty>>& owners,
    const std::vector<const distributed::CountParty*>& ps,
    stream::BernoulliBits& gen, int rounds, int chunk) {
  ModeResult res;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
  double seconds = 0.0;
  bench::Stopwatch sw;
  obs::FlightRecorder::instance().clear();  // keep only this mode's records
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < chunk; ++i) {
      const bool b = gen.next();
      for (auto& o : owners) o->observe(b);
    }
    const core::Estimate direct = distributed::union_count(ps, kWindow);
    net::NetworkCountSource& source = source_for_round();
    distributed::WireStats stats;
    const std::uint64_t a0 = obs::alloc_count();
    sw.start();
    const distributed::QueryResult q =
        distributed::union_count(source, kWindow, &stats);
    seconds += sw.seconds();
    allocs += obs::alloc_count() - a0;
    bytes += stats.bytes;
    res.parity = res.parity &&
                 q.status == distributed::QueryStatus::kOk &&
                 q.estimate.value == direct.value;  // bit-identical
  }
  res.bytes_per_query =
      static_cast<double>(bytes) / static_cast<double>(rounds);
  res.query_ms = seconds * 1e3 / rounds;
  res.allocs_per_query =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  for (const auto& rec : obs::FlightRecorder::instance().recent()) {
    res.fetch_connect_ms += rec.connect_s * 1e3;
    res.fetch_send_ms += rec.send_s * 1e3;
    res.fetch_wait_ms += rec.wait_s * 1e3;
    res.fetch_decode_ms += rec.decode_s * 1e3;
    res.fetch_apply_ms += rec.apply_s * 1e3;
    res.fetch_total_ms += rec.total_s * 1e3;
    res.fetch_allocs += static_cast<double>(rec.allocs);
    ++res.fetch_records;
  }
  if (res.fetch_records > 0) {
    const double n = static_cast<double>(res.fetch_records);
    res.fetch_connect_ms /= n;
    res.fetch_send_ms /= n;
    res.fetch_wait_ms /= n;
    res.fetch_decode_ms /= n;
    res.fetch_apply_ms /= n;
    res.fetch_total_ms /= n;
    res.fetch_allocs /= n;
  }
  return res;
}

void emit_mode(int t, const char* mode, int rounds, const ModeResult& r) {
  bench::JsonLine("e18_query_path")
      .field("parties", static_cast<std::uint64_t>(t))
      .field("mode", mode)
      .field("rounds", static_cast<std::uint64_t>(rounds))
      .field("bytes_per_query", r.bytes_per_query)
      .field("query_ms", r.query_ms)
      .field("allocs_per_query", r.allocs_per_query)
      .field("fetch_connect_ms", r.fetch_connect_ms)
      .field("fetch_send_ms", r.fetch_send_ms)
      .field("fetch_wait_ms", r.fetch_wait_ms)
      .field("fetch_decode_ms", r.fetch_decode_ms)
      .field("fetch_apply_ms", r.fetch_apply_ms)
      .field("fetch_total_ms", r.fetch_total_ms)
      .field("fetch_allocs", r.fetch_allocs)
      .field("fetch_records", r.fetch_records)
      .field("parity", static_cast<std::uint64_t>(r.parity ? 1 : 0))
      .emit();
  bench::row_line({std::to_string(t), mode, bench::fmt(r.bytes_per_query, 0),
                   bench::fmt(r.query_ms, 3),
                   bench::fmt(r.allocs_per_query, 0),
                   r.parity ? "1" : "0"});
}

void e18_for_parties(int t, bool smoke) {
  const core::RandWave::Params params{.eps = 0.2, .window = kWindow, .c = 36};
  const std::uint64_t backlog = smoke ? kWindow : 2 * kWindow;
  const int rounds = smoke ? 10 : 50;
  const int chunk = 32;  // items per party between rounds: the steady state

  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<const distributed::CountParty*> ps;
  std::vector<std::unique_ptr<net::PartyServer>> servers;
  std::vector<net::Endpoint> endpoints;
  for (int j = 0; j < t; ++j) {
    owners.push_back(
        std::make_unique<distributed::CountParty>(params, kInstances, kSeed));
    ps.push_back(owners.back().get());
    servers.push_back(std::make_unique<net::PartyServer>(net::ServerConfig{},
                                                         owners.back().get()));
    if (!servers.back()->start()) {
      std::fprintf(stderr, "e18: failed to start party server %d\n", j);
      std::exit(1);
    }
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  stream::BernoulliBits gen(0.4, 3);
  for (std::uint64_t i = 0; i < backlog; ++i) {
    const bool b = gen.next();
    for (auto& o : owners) o->observe(b);
  }

  // Full: a cold referee per round, so every fetch is the bootstrap.
  std::unique_ptr<net::NetworkCountSource> cold;
  const ModeResult rf = run_rounds(
      [&]() -> net::NetworkCountSource& {
        cold.reset();
        cold = std::make_unique<net::NetworkCountSource>(endpoints, params,
                                                         kInstances, kSeed);
        return *cold;
      },
      owners, ps, gen, rounds, chunk);
  emit_mode(t, "full", rounds, rf);
  cold.reset();

  // Delta: one warm referee. Warm it after the full rounds (which moved
  // every server's baseline) so steady state starts with the connections
  // established and the mirror bootstrapped.
  net::NetworkCountSource delta(endpoints, params, kInstances, kSeed);
  (void)distributed::union_count(delta, kWindow);
  const ModeResult rd = run_rounds(
      [&]() -> net::NetworkCountSource& { return delta; }, owners, ps, gen,
      rounds, chunk);
  emit_mode(t, "delta", rounds, rd);

  bench::JsonLine("e18_delta_vs_full")
      .field("parties", static_cast<std::uint64_t>(t))
      .field("full_bytes", rf.bytes_per_query)
      .field("delta_bytes", rd.bytes_per_query)
      .field("byte_ratio", rf.bytes_per_query /
                               (rd.bytes_per_query > 0.0 ? rd.bytes_per_query
                                                         : 1.0))
      .field("full_ms", rf.query_ms)
      .field("delta_ms", rd.query_ms)
      .field("full_allocs", rf.allocs_per_query)
      .field("delta_allocs", rd.allocs_per_query)
      .field("full_fetch_allocs", rf.fetch_allocs)
      .field("delta_fetch_allocs", rd.fetch_allocs)
      .field("parity",
             static_cast<std::uint64_t>(rf.parity && rd.parity ? 1 : 0))
      .emit();
}

// Direct evidence for the encode-buffer reuse in wire.cpp: serializing the
// same snapshots into a fresh Bytes per call vs appending into a reused
// buffer via encode_into. Steady state, the reused path should allocate
// (near) nothing per op once the buffer and the per-instance scratch have
// grown to size.
void e18_encode_alloc() {
  const core::RandWave::Params params{.eps = 0.2, .window = kWindow, .c = 36};
  distributed::CountParty party(params, kInstances, kSeed);
  stream::BernoulliBits gen(0.4, 3);
  for (std::uint64_t i = 0; i < kWindow; ++i) party.observe(gen.next());
  const auto snaps = party.snapshots(kWindow);
  constexpr int kOps = 1000;

  const auto measure = [&](auto&& op) {
    op();  // warm up: scratch buffers reach steady-state capacity
    const std::uint64_t a0 = obs::alloc_count();
    for (int i = 0; i < kOps; ++i) op();
    return static_cast<double>(obs::alloc_count() - a0) / kOps;
  };

  const double fresh = measure([&] {
    const distributed::Bytes b = distributed::encode(
        std::span<const core::RandWaveSnapshot>(snaps));
    if (b.empty()) std::exit(1);  // keep the encode observable
  });
  distributed::Bytes reused_buf;
  const double reused = measure([&] {
    reused_buf.clear();
    distributed::encode_into(
        reused_buf, std::span<const core::RandWaveSnapshot>(snaps));
    if (reused_buf.empty()) std::exit(1);
  });

  bench::JsonLine("e18_encode_alloc")
      .field("ops", static_cast<std::uint64_t>(kOps))
      .field("fresh_allocs_per_op", fresh)
      .field("reused_allocs_per_op", reused)
      .emit();
  bench::row_line({"encode", "fresh", bench::fmt(fresh, 2)});
  bench::row_line({"encode", "reused", bench::fmt(reused, 2)});
}

}  // namespace
}  // namespace waves

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  waves::bench::header(
      "E18 fast query path: steady-state delta vs full snapshots over TCP "
      "(t, mode, bytes/query, query_ms, allocs/query, parity)");
  waves::bench::row_line(
      {"t", "mode", "bytes/query", "query_ms", "allocs/query", "parity"});
  waves::e18_for_parties(4, smoke);
  waves::e18_for_parties(16, smoke);
  waves::e18_encode_alloc();
  std::printf(
      "Expected shape: delta bytes/query track the between-round ingest "
      "(chunk * entry cost), not the synopsis; full bytes/query are the "
      "cold-referee bootstrap (handshake + full checkpoint per party). "
      "Parity must be 1 everywhere.\n");
  return 0;
}
