// E22 — connection scale on the event-loop core.
//
// Two claims under test, one per phase:
//
//   query   Hundreds of open connections driven by a bounded worker pool
//           (tools/loadgen.hpp): the server's one loop thread answers them
//           all, with a bounded p99.
//   idle    Thousands of push subscriptions that never push cost an fd, a
//           state machine, and a timer-wheel slot each — not a thread.
//           Resident thread count and RSS-per-subscription show it. The
//           server is asked to *hold* 2048 live subscriptions (256 in
//           --smoke).
//
// Parity: after the query load, one union_count round over the real
// NetworkCountSource must equal the in-process referee over the same party
// bit-for-bit (parity=1 in every row).
//
// JSON lines:
//   e22_net_scale {io, phase, conns, opened, qps, p50_us, p99_us, errors,
//                  threads, rss_per_conn_bytes, parity}
//
// `--smoke` shrinks connection counts and request totals for CI. The
// process raises RLIMIT_NOFILE to its hard limit up front; connection
// goals are clamped to what the limit leaves after client+server fds
// (each connection costs two — both ends live here).
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/io_model.hpp"
#include "net/server.hpp"
#include "stream/generators.hpp"

namespace waves {
namespace {

constexpr std::uint64_t kWindow = 4096;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 11;

core::RandWave::Params params() {
  return {.eps = 0.2, .window = kWindow, .c = 36};
}

struct PhaseRow {
  const char* io = "";
  const char* phase = "";
  std::size_t conns = 0;   // goal
  std::size_t opened = 0;  // actually handshaken and held
  tools::LoadStats load;
  std::uint64_t threads = 0;
  double rss_per_conn = 0.0;
  int parity = 0;  // network round == in-process referee
};

void emit_row(const PhaseRow& r) {
  bench::JsonLine("e22_net_scale")
      .field("io", r.io)
      .field("phase", r.phase)
      .field("conns", static_cast<std::uint64_t>(r.conns))
      .field("opened", static_cast<std::uint64_t>(r.opened))
      .field("qps", r.load.qps)
      .field("p50_us", r.load.p50_us)
      .field("p99_us", r.load.p99_us)
      .field("errors", r.load.errors)
      .field("threads", r.threads)
      .field("rss_per_conn_bytes", r.rss_per_conn)
      .field("parity", static_cast<std::uint64_t>(r.parity))
      .emit();
  bench::row_line({r.io, r.phase, bench::fmt_u(r.opened),
                   bench::fmt(r.load.qps, 0), bench::fmt(r.load.p99_us, 0),
                   bench::fmt_u(r.threads), bench::fmt(r.rss_per_conn, 0),
                   r.parity == 1 ? "1" : "0"});
}

std::size_t fd_budget() {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
  }
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  return static_cast<std::size_t>(rl.rlim_cur);
}

/// Run both phases against one server. Returns the query-round value the
/// caller compares with the in-process referee for parity.
double run_server(distributed::CountParty& party, std::size_t query_conns,
                  std::uint64_t requests, std::size_t idle_subs,
                  std::vector<PhaseRow>& rows) {
  net::ServerConfig cfg;
  cfg.max_connections = query_conns + idle_subs + 16;
  net::PartyServer server(cfg, &party);
  if (!server.start()) {
    std::fprintf(stderr, "e22: server start failed\n");
    std::exit(1);
  }
  const char* io = net::io_model_name(net::default_io_model());
  const std::string host = "127.0.0.1";
  const auto deadline = std::chrono::milliseconds(10000);

  // -- query phase ---------------------------------------------------------
  PhaseRow q;
  q.io = io;
  q.phase = "query";
  q.conns = query_conns;
  {
    auto conns = tools::open_conns(host, server.port(), query_conns,
                                   deadline);
    q.opened = conns.size();
    q.load = tools::query_load(conns, net::PartyRole::kCount, kWindow,
                               /*workers=*/8, requests, deadline);
    q.threads = tools::resident_threads();
  }

  // Parity round over the real referee path, while the server is still up.
  double value = std::nan("");
  {
    net::NetworkCountSource src({{host, server.port()}}, params(),
                                kInstances, kSeed);
    const distributed::QueryResult r =
        distributed::union_count(src, kWindow);
    if (r.status == distributed::QueryStatus::kOk) value = r.estimate.value;
  }

  // -- idle-subscription phase --------------------------------------------
  PhaseRow idle;
  idle.io = io;
  idle.phase = "idle";
  idle.conns = idle_subs;
  {
    const std::uint64_t rss0 = tools::resident_bytes();
    auto conns = tools::open_conns(host, server.port(), idle_subs, deadline);
    // Infinite slack + slow cadence: the subscriptions are pure standing
    // state, no drift push ever fires during the hold.
    const std::size_t subbed = tools::subscribe_idle(
        conns, net::PartyRole::kCount, kWindow, /*slack=*/1e18,
        /*check_every_ms=*/250, deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    idle.opened = subbed;
    idle.threads = tools::resident_threads();
    const std::uint64_t rss1 = tools::resident_bytes();
    if (subbed > 0) {
      idle.rss_per_conn = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                          static_cast<double>(subbed);
    }
  }

  server.stop();
  rows.push_back(q);
  rows.push_back(idle);
  return value;
}

void e22(bool smoke) {
  const std::uint64_t backlog = 2 * kWindow;
  const std::size_t query_conns = smoke ? 64 : 512;
  const std::uint64_t requests = smoke ? 2000 : 20000;
  std::size_t idle_subs = smoke ? 256 : 2048;

  // Each held connection costs two fds in this process (client + server
  // end); leave slack for the party sockets, the listener, and stdio.
  const std::size_t budget = fd_budget();
  const std::size_t max_conns = budget > 512 ? (budget - 256) / 2 : 64;
  idle_subs = std::min(idle_subs, max_conns);

  distributed::CountParty party(params(), kInstances, kSeed);
  stream::BernoulliBits gen(0.4, 3);
  for (std::uint64_t i = 0; i < backlog; ++i) party.observe(gen.next());

  std::vector<PhaseRow> rows;
  const double v_net =
      run_server(party, query_conns, requests, idle_subs, rows);
  const std::vector<const distributed::CountParty*> ps{&party};
  const double v_direct = distributed::union_count(ps, kWindow).value;

  // Bit-identical to the in-process referee (NaN-safe: NaN means a failed
  // round, which is parity 0).
  const int parity = (v_net == v_direct && !std::isnan(v_net)) ? 1 : 0;
  for (auto& r : rows) {
    r.parity = parity;
    emit_row(r);
  }
}

}  // namespace
}  // namespace waves

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  waves::bench::header("E22: connection scale on the event-loop core");
  waves::bench::row_line({"io", "phase", "opened", "qps", "p99_us",
                          "threads", "rss/conn", "parity"});
  waves::e22(smoke);
  return 0;
}
