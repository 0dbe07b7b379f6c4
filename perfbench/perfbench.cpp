// perfbench — the repository's one benchmark: a live t=4 Union-Counting
// deployment (deployment.hpp) driven through three workloads.
//
//   ingest  closed loop; each round one feeder thread per party ingests
//           64 Ki Bernoulli(1/2) bits, then the round is answered.
//   query   closed loop; each round the main thread ingests 64 bits per
//           party, then the round is answered.
//   push    open loop; every 20 ms each party ingests a 256-bit burst (more
//           than its slack share), then the round is answered.
//
// Every round ends at an aligned stream boundary (the positionwise union
// needs equal stream lengths) and is answered on both paths a user sees:
// when the round pushed the parties past their slack shares, the benchmark
// waits for the hub's watcher to receive the new merged estimate (push
// path), then it polls the parties over TCP with distributed::union_count
// (query path). Both answers must be bit-identical to the in-process
// referee over the same party objects; a mismatch exits with code 3.
//
// Usage:
//   perfbench --workload ingest|query|push --seed N --seconds S
//             [--trace-out FILE]
//
// The last stdout line is `RESULT {json}`. The build with PERFBENCH_TRACED=1
// (the perfbench_traced target) also installs the counting allocator, drains
// the flight recorder every round, records spans around each layer call and
// reports the per-layer metrics; the plain build measures only the
// end-to-end metrics.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if PERFBENCH_TRACED
#include "alloc_hook.hpp"
#endif
#include "deployment.hpp"
#include "net/io_model.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"
#include "obs/monitor_obs.hpp"
#include "obs/net_obs.hpp"
#include "spans.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

constexpr bool kTraced = PERFBENCH_TRACED != 0;
constexpr int kSetups = 9;
constexpr std::uint64_t kReplayCap = 1024;  // set bits replayed per feed
constexpr std::chrono::seconds kSettleTimeout{1};
constexpr double kSingleThreadSeconds = 0.5;

struct Workload {
  const char* name;
  std::uint64_t bits;                // per party per round
  bool parallel;                     // one feeder thread per party
  std::chrono::milliseconds period;  // 0: closed loop
  int warmup_rounds;
};

constexpr Workload kWorkloads[] = {
    {"ingest", std::uint64_t{1} << 16, true, std::chrono::milliseconds(0), 3},
    {"query", 64, false, std::chrono::milliseconds(0), 50},
    {"push", 256, false, std::chrono::milliseconds(20), 10},
};

std::atomic<int> g_sink{0};  // keeps the gf2 replay observable

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One party's ingest in one round.
struct FeedRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t replay_start_ns = 0;
  std::int64_t replay_end_ns = 0;
  std::uint64_t set_bits = 0;
  std::uint64_t replay_calls = 0;
};

/// Draw and ingest one round's bits for party j. The traced build then
/// replays up to kReplayCap of the round's set-bit positions through the
/// party's hashes, which times the gf2 layer's share of the ingest.
void feed(Deployment& d, int j, std::uint64_t bits,
          std::vector<std::uint64_t>& words, FeedRecord& rec) {
  const std::uint64_t base = d.fed[static_cast<std::size_t>(j)];
  d.draw(j, bits, words);
  rec.start_ns = now_ns();
  d.observe(j, words, bits);
  rec.end_ns = now_ns();
  if constexpr (!kTraced) return;
  const distributed::CountParty& party =
      *d.parties[static_cast<std::size_t>(j)];
  rec.set_bits = 0;
  for (std::uint64_t w : words) {
    rec.set_bits += static_cast<std::uint64_t>(std::popcount(w));
  }
  rec.replay_start_ns = now_ns();
  int sink = 0;
  std::uint64_t sampled = 0;
  for (std::size_t wi = 0; wi < words.size() && sampled < kReplayCap; ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0 && sampled < kReplayCap) {
      const auto b = static_cast<std::uint64_t>(std::countr_zero(w));
      w &= w - 1;
      const std::uint64_t p = base + wi * 64 + b + 1;
      for (int i = 0; i < party.instances(); ++i) {
        sink += party.instance(i).hash().level(p);
      }
      ++sampled;
    }
  }
  rec.replay_end_ns = now_ns();
  rec.replay_calls = sampled * static_cast<std::uint64_t>(party.instances());
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

/// One feeder thread per party, released together each round.
class Feeders {
 public:
  Feeders(Deployment& d, std::uint64_t bits, std::vector<FeedRecord>& recs)
      : d_(d), bits_(bits), recs_(recs) {
    for (int j = 0; j < kParties; ++j) {
      threads_.emplace_back([this, j] { loop(j); });
    }
  }
  Feeders(const Feeders&) = delete;
  Feeders& operator=(const Feeders&) = delete;
  ~Feeders() {
    stop_ = true;
    start_.arrive_and_wait();
    threads_.clear();  // joins
  }

  void run_round() {
    start_.arrive_and_wait();
    finish_.arrive_and_wait();
  }

 private:
  void loop(int j) {
    std::vector<std::uint64_t> words;
    for (;;) {
      start_.arrive_and_wait();
      if (stop_) return;
      feed(d_, j, bits_, words, recs_[static_cast<std::size_t>(j)]);
      finish_.arrive_and_wait();
    }
  }

  Deployment& d_;
  std::uint64_t bits_;
  std::vector<FeedRecord>& recs_;
  std::atomic<bool> stop_{false};
  std::barrier<> start_{kParties + 1};
  std::barrier<> finish_{kParties + 1};
  std::vector<std::jthread> threads_;  // last: joined before the barriers go
};

/// Timing decorator around the network source: the collect half of a
/// union_count (the rest is the referee's combine).
class TimedSource final : public distributed::CountSnapshotSource {
 public:
  explicit TimedSource(distributed::CountSnapshotSource& inner)
      : inner_(inner) {}
  [[nodiscard]] std::size_t party_count() const override {
    return inner_.party_count();
  }
  [[nodiscard]] int instances() const override { return inner_.instances(); }
  [[nodiscard]] const gf2::ExpHash& hash(int instance) const override {
    return inner_.hash(instance);
  }
  [[nodiscard]] const char* transport() const override {
    return inner_.transport();
  }
  std::vector<std::vector<core::RandWaveSnapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing,
      distributed::WireStats* stats,
      distributed::CollectStats& info) override {
    start_ns = now_ns();
    auto out = inner_.collect(n, missing, stats, info);
    end_ns = now_ns();
    return out;
  }

  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

 private:
  distributed::CountSnapshotSource& inner_;
};

/// Records every hub revision as it is published (traced build), so the
/// hub's settle time is timestamped the same way as the watcher's receipt.
class HubObserver {
 public:
  explicit HubObserver(const monitor::MonitorHub& hub) : hub_(hub) {
    thread_ = std::jthread([this](const std::stop_token& st) { run(st); });
  }

  [[nodiscard]] const History& history() const noexcept { return history_; }

 private:
  void run(const std::stop_token& st) {
    std::uint64_t last = hub_.estimate().revision;
    while (!st.stop_requested()) {
      const monitor::HubEstimate e =
          hub_.wait_revision(last, std::chrono::milliseconds(50));
      if (e.revision <= last) continue;
      last = e.revision;
      history_.note({e.revision, e.status == distributed::QueryStatus::kOk,
                     e.value, now_ns()});
    }
  }

  const monitor::MonitorHub& hub_;
  History history_;
  std::jthread thread_;  // last: joined before the history goes
};

struct Stats {
  std::uint64_t rounds = 0;
  std::uint64_t items = 0;
  std::uint64_t queries = 0;
  std::uint64_t query_bytes = 0;
  std::uint64_t bursts = 0;  // rounds whose push settled at the watcher
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  // Time inside the program's calls: ingest plus poll. The benchmark's own
  // waits (open-loop schedule, push settle) and oracle checks are left out.
  std::int64_t busy_ns = 0;
  std::vector<double> query_ms;
  std::vector<double> push_ms;
  std::vector<double> gen_lag_ms;
  // Traced build only.
  std::vector<double> collect_ms;
  std::vector<double> combine_ms;
  std::vector<double> hub_settle_ms;
  std::vector<double> deliver_ms;
  std::vector<double> fetch_max_ms;
  std::vector<double> feeder_skew;
  double observe_ns = 0.0;
  double replay_ns = 0.0;
  double replay_calls = 0.0;
  double set_bits = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t fetches = 0;
  double fetch_send_s = 0.0;
  double fetch_wait_s = 0.0;
  double fetch_decode_s = 0.0;
  double fetch_apply_s = 0.0;
  double fetch_total_s = 0.0;
  double fetch_allocs = 0.0;
  double fetch_attempts = 0.0;
  double fetch_delta_applied = 0.0;
};

class Runner {
 public:
  Runner(const Workload& w, Deployment& d, SpanLog& spans, std::uint64_t seed)
      : w_(w),
        d_(d),
        spans_(spans),
        timed_(*d.source),
        recs_(kParties),
        jitter_(stream_seed(seed, kParties)) {
    if (w_.parallel) feeders_ = std::make_unique<Feeders>(d_, w_.bits, recs_);
    if constexpr (kTraced) observer_ = std::make_unique<HubObserver>(*d_.hub);
  }

  /// Run rounds until `seconds` of loop time or `max_rounds` rounds.
  /// Returns the loop's wall time in ns.
  std::int64_t run(double seconds, std::uint64_t max_rounds, Stats& s) {
    const std::int64_t t0 = now_ns();
    const auto limit = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t period =
        std::chrono::duration_cast<std::chrono::nanoseconds>(w_.period)
            .count();
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
      std::int64_t due = now_ns();
      if (period > 0) {
        // Each burst lands at a random offset within the first half of its
        // slot, so its phase against the parties' 2 ms drift-check tick
        // varies burst to burst instead of being fixed for a whole run.
        due = t0 + static_cast<std::int64_t>(r) * period;
        if (due - t0 >= limit) break;
        due += static_cast<std::int64_t>(
            jitter_.next() % static_cast<std::uint64_t>(period / 2));
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
      } else if (due - t0 >= limit) {
        break;
      }
      round(due, r, s);
    }
    return now_ns() - t0;
  }

 private:
  void round(std::int64_t due, std::uint64_t r, Stats& s) {
    const std::uint64_t root = kTraced ? spans_.reserve() : 0;
    Marks m;
    m.r0 = now_ns();
    // Hub revisions up to here carry earlier rounds' states.
    const std::uint64_t before = d_.hub->estimate().revision;

    // Ingest: every party reaches the same stream length.
    if (feeders_) {
      feeders_->run_round();
    } else {
      for (int j = 0; j < kParties; ++j) {
        feed(d_, j, w_.bits, words_, recs_[static_cast<std::size_t>(j)]);
      }
    }
    m.i1 = now_ns();
    std::int64_t first = recs_[0].start_ns;
    std::int64_t last = recs_[0].end_ns;
    for (const FeedRecord& rec : recs_) {
      first = std::min(first, rec.start_ns);
      last = std::max(last, rec.end_ns);
    }
    ++s.rounds;
    s.items += w_.bits * kParties;
    s.gen_lag_ms.push_back(ms(first - due));

    // Push path: a round that moved every party past its slack share must
    // reach the watcher. Wait for the hub's first publication before polling,
    // so the poll does not race the push legs.
    since_push_ += static_cast<double>(w_.bits);
    const bool crossing = since_push_ >= d_.push_threshold;
    const auto deadline = Clock::now() + kSettleTimeout;
    m.crossing = crossing;
    m.s0 = now_ns();
    bool published = false;
    if (crossing) {
      since_push_ = 0.0;
      ++s.attempted;
      published = d_.watcher->history().wait_after(before, deadline);
    }
    m.s1 = now_ns();

    // Query path: one TCP union_count at the aligned boundary.
    distributed::CountSnapshotSource& src =
        kTraced ? static_cast<distributed::CountSnapshotSource&>(timed_)
                : *d_.source;
    distributed::WireStats wire;
    if constexpr (kTraced) {
      obs::FlightRecorder::instance().clear();
      m.allocs0 = obs::alloc_count();
    }
    m.q0 = now_ns();
    const distributed::QueryResult q =
        distributed::union_count(src, kWindow, &wire);
    m.q1 = now_ns();
    if constexpr (kTraced) m.allocs1 = obs::alloc_count();
    s.busy_ns += (m.i1 - m.r0) + (m.q1 - m.q0);
    ++s.attempted;
    ++s.queries;
    s.query_bytes += wire.bytes;
    if (q.status == distributed::QueryStatus::kOk) {
      s.query_ms.push_back(ms(m.q1 - m.q0));
    } else {
      ++s.failed;
    }

    // Correctness gate against the in-process referee.
    m.c0 = now_ns();
    const core::Estimate truth = d_.oracle();
    if (q.status == distributed::QueryStatus::kOk &&
        q.estimate.value != truth.value) {
      ++s.mismatches;
    }
    m.c1 = now_ns();

    // The push answer is the watcher's first update of this round carrying
    // the oracle value. Its latency runs from when the round was due to be
    // published: the schedule slot (open loop) or the end of ingest.
    if (crossing) {
      const History& seen = d_.watcher->history();
      const auto got =
          published ? seen.wait_match(before, truth.value, deadline)
                    : std::nullopt;
      if (got) {
        ++s.bursts;
        const std::int64_t from = w_.period.count() > 0 ? due : last;
        s.push_ms.push_back(ms(got->at_ns - from));
        if constexpr (kTraced) {
          const auto hub = observer_->history().wait_match(
              before, truth.value, deadline);
          if (hub) {
            s.hub_settle_ms.push_back(ms(hub->at_ns - from));
            s.deliver_ms.push_back(ms(got->at_ns - hub->at_ns));
          }
        }
      } else if (const History::Entry e = seen.latest();
                 e.revision > before && e.ok) {
        ++s.mismatches;  // settled, on a value the parties do not hold
      } else {
        ++s.failed;
      }
    }

    if constexpr (kTraced) trace_round(root, r, m, s);
  }

  // Timestamps of one round's phases: start, ingest end, push settle,
  // query, oracle.
  struct Marks {
    std::int64_t r0 = 0;
    std::int64_t i1 = 0;
    std::int64_t s0 = 0;
    std::int64_t s1 = 0;
    std::int64_t q0 = 0;
    std::int64_t q1 = 0;
    std::int64_t c0 = 0;
    std::int64_t c1 = 0;
    bool crossing = false;
    std::uint64_t allocs0 = 0;
    std::uint64_t allocs1 = 0;
  };

  void trace_round(std::uint64_t root, std::uint64_t r, const Marks& m,
                   Stats& s) {
    const std::int64_t collect = timed_.end_ns - timed_.start_ns;
    s.allocs += m.allocs1 - m.allocs0;
    s.collect_ms.push_back(ms(collect));
    s.combine_ms.push_back(ms(m.q1 - m.q0 - collect));
    double fetch_max = 0.0;
    for (const obs::FlightRecord& f :
         obs::FlightRecorder::instance().recent()) {
      ++s.fetches;
      s.fetch_send_s += f.send_s;
      s.fetch_wait_s += f.wait_s;
      s.fetch_decode_s += f.decode_s;
      s.fetch_apply_s += f.apply_s;
      s.fetch_total_s += f.total_s;
      s.fetch_allocs += static_cast<double>(f.allocs);
      s.fetch_attempts += f.attempts;
      s.fetch_delta_applied += f.delta_applied ? 1.0 : 0.0;
      fetch_max = std::max(fetch_max, f.total_s * 1e3);
    }
    s.fetch_max_ms.push_back(fetch_max);
    double slowest = 0.0;
    double fastest = 0.0;
    for (const FeedRecord& rec : recs_) {
      const auto dur = static_cast<double>(rec.end_ns - rec.start_ns);
      slowest = std::max(slowest, dur);
      fastest = fastest == 0.0 ? dur : std::min(fastest, dur);
      s.observe_ns += dur;
      s.replay_ns +=
          static_cast<double>(rec.replay_end_ns - rec.replay_start_ns);
      s.replay_calls += static_cast<double>(rec.replay_calls);
      s.set_bits += static_cast<double>(rec.set_bits);
      spans_.add("distributed.observe", root, r, rec.start_ns, rec.end_ns);
      spans_.add("gf2.replay", root, r, rec.replay_start_ns, rec.replay_end_ns);
    }
    s.feeder_skew.push_back(slowest / std::max(fastest, 1.0));
    if (m.crossing) spans_.add("monitor.settle", root, r, m.s0, m.s1);
    const std::uint64_t uc = spans_.reserve();
    spans_.add("net.collect", uc, r, timed_.start_ns, timed_.end_ns);
    spans_.add("distributed.union_count", root, r, m.q0, m.q1, uc);
    spans_.add("bench.oracle", root, r, m.c0, m.c1);
    spans_.add("bench.round", 0, r, m.r0, now_ns(), root);
  }

  const Workload& w_;
  Deployment& d_;
  SpanLog& spans_;
  TimedSource timed_;
  std::vector<FeedRecord> recs_;
  std::vector<std::uint64_t> words_;
  WordStream jitter_;  // open-loop burst offsets
  double since_push_ = 0.0;
  std::unique_ptr<HubObserver> observer_;
  std::unique_ptr<Feeders> feeders_;  // last: joined first
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Single-thread baseline: one fresh party, one thread, the workload's
/// chunk size, timed inside observe_words only. Items per second, in Mi.
double single_thread_mitems_s(const Workload& w, std::uint64_t seed) {
  distributed::CountParty party(params(), kInstances, kSharedSeed);
  WordStream stream(stream_seed(seed, 0));
  std::vector<std::uint64_t> words;
  stream.fill(words, 2 * kWindow);
  party.observe_words(words, 2 * kWindow);
  std::int64_t busy = 0;
  std::uint64_t items = 0;
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(
                                            kSingleThreadSeconds * 1e9);
  while (now_ns() < until) {
    stream.fill(words, w.bits);
    const std::int64_t t0 = now_ns();
    party.observe_words(words, w.bits);
    busy += now_ns() - t0;
    items += w.bits;
  }
  return static_cast<double>(items) / 1048576.0 /
         (static_cast<double>(busy) / 1e9);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      a.workload = nullptr;
      break;
    }
  }
  if (a.workload == nullptr || a.seconds <= 0.0 || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|query|push --seed N "
                 "--seconds S [--trace-out FILE]\n");
    std::exit(2);
  }
  return a;
}

int run(const Args& a) {
  const Workload& w = *a.workload;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetups; ++k) {
    dep.reset();
    if constexpr (kTraced) obs::FlightRecorder::instance().clear();
    const std::int64_t t0 = now_ns();
    dep = set_up(a.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // The bootstrap fetches are the only ones that open connections.
  double connect_ms = 0.0;
  std::uint64_t connects = 0;
  for (const obs::FlightRecord& f : obs::FlightRecorder::instance().recent()) {
    if (f.connect_s > 0.0) {
      connect_ms += f.connect_s * 1e3;
      ++connects;
    }
  }

  SpanLog spans;
  Stats stats;
  std::int64_t wall_ns = 0;
  const auto& mobs = obs::MonitorPartyObs::instance();
  std::uint64_t pushes0 = 0;
  std::uint64_t push_bytes0 = 0;
  std::uint64_t wakeups0 = 0;
  std::uint64_t revision0 = 0;
  std::uint64_t updates0 = 0;
  {
    Runner runner(w, *dep, spans, a.seed);
    Stats warm;
    (void)runner.run(a.seconds, static_cast<std::uint64_t>(w.warmup_rounds),
                     warm);
    spans.clear();
    pushes0 = mobs.pushes.value();
    push_bytes0 = mobs.push_bytes.value();
    wakeups0 = obs::NetLoopObs::instance().wakeups.value();
    revision0 = dep->hub->estimate().revision;
    updates0 = dep->watcher->history().updates();
    wall_ns = runner.run(a.seconds, UINT64_MAX, stats);
  }
  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  // Rates are over busy time, so on the open loop they are the program's
  // rate, not the schedule's, and no loop counts hub timer latency.
  const double busy_s = static_cast<double>(stats.busy_ns) / 1e9;
  const double bursts = static_cast<double>(stats.bursts);
  const double queries = static_cast<double>(stats.queries);

  std::vector<std::pair<std::string, double>> m = {
      {"setup_s", percentile(setup_s, 0.5)},
      {"ingest_mitems_s",
       static_cast<double>(stats.items) / 1048576.0 / busy_s},
      {"query_p50_ms", percentile(stats.query_ms, 0.5)},
      {"query_qps", queries / busy_s},
      {"bytes_per_query",
       ratio(static_cast<double>(stats.query_bytes), queries)},
      {"push_p50_ms", percentile(stats.push_ms, 0.5)},
      {"push_bytes_per_burst",
       ratio(static_cast<double>(mobs.push_bytes.value() - push_bytes0),
             bursts)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  if constexpr (kTraced) {
    const double items = static_cast<double>(stats.items);
    const double level_ns = ratio(stats.replay_ns, stats.replay_calls);
    std::uint64_t space_bits = 0;
    for (const auto& p : dep->parties) space_bits += p->space_bits();
    const double fetches = static_cast<double>(stats.fetches);
    const double rounds = static_cast<double>(stats.rounds);
    const std::vector<std::pair<std::string, double>> layers = {
        {"gf2.level_ns", level_ns},
        {"gf2.hash_share",
         ratio(level_ns * stats.set_bits * kInstances, stats.observe_ns)},
        {"core.space_bits", static_cast<double>(space_bits)},
        {"distributed.observe_ns_per_item", ratio(stats.observe_ns, items)},
        {"distributed.observe_busy_share",
         ratio(stats.observe_ns, kParties * static_cast<double>(wall_ns))},
        {"distributed.feeder_skew", percentile(stats.feeder_skew, 0.5)},
        {"distributed.single_thread_mitems_s",
         single_thread_mitems_s(w, a.seed)},
        {"distributed.collect_ms", percentile(stats.collect_ms, 0.5)},
        {"distributed.combine_ms", percentile(stats.combine_ms, 0.5)},
        {"distributed.referee_allocs_per_query",
         ratio(static_cast<double>(stats.allocs), queries)},
        {"net.fetch_connect_ms",
         ratio(connect_ms, static_cast<double>(connects))},
        {"net.fetch_send_ms", ratio(stats.fetch_send_s * 1e3, fetches)},
        {"net.fetch_wait_ms", ratio(stats.fetch_wait_s * 1e3, fetches)},
        {"net.fetch_decode_ms", ratio(stats.fetch_decode_s * 1e3, fetches)},
        {"net.fetch_total_ms", ratio(stats.fetch_total_s * 1e3, fetches)},
        {"net.fetch_max_ms", percentile(stats.fetch_max_ms, 0.5)},
        {"net.fetch_allocs", ratio(stats.fetch_allocs, fetches)},
        {"net.attempts_per_fetch", ratio(stats.fetch_attempts, fetches)},
        {"net.loop_wakeups_per_query",
         ratio(static_cast<double>(obs::NetLoopObs::instance().wakeups.value() -
                                   wakeups0),
               queries)},
        {"recovery.apply_ms", ratio(stats.fetch_apply_s * 1e3, fetches)},
        {"recovery.delta_applied_ratio",
         ratio(stats.fetch_delta_applied, fetches)},
        {"monitor.hub_settle_ms", percentile(stats.hub_settle_ms, 0.5)},
        {"monitor.watcher_deliver_ms", percentile(stats.deliver_ms, 0.5)},
        {"monitor.pushes_per_burst",
         ratio(static_cast<double>(mobs.pushes.value() - pushes0), bursts)},
        {"monitor.hub_revisions_per_burst",
         ratio(static_cast<double>(dep->hub->estimate().revision - revision0),
               bursts)},
        {"monitor.watcher_updates_per_burst",
         ratio(static_cast<double>(dep->watcher->history().updates() -
                                   updates0),
               bursts)},
        {"bench.gen_lag_ms", percentile(stats.gen_lag_ms, 0.5)},
        {"bench.query_p90_ms", percentile(stats.query_ms, 0.9)},
        {"bench.query_p99_ms", percentile(stats.query_ms, 0.99)},
        {"bench.push_p90_ms", percentile(stats.push_ms, 0.9)},
        {"bench.push_p99_ms", percentile(stats.push_ms, 0.99)},
        {"bench.query_samples", static_cast<double>(stats.query_ms.size())},
        {"bench.push_samples", static_cast<double>(stats.push_ms.size())},
    };
    m.insert(m.end(), layers.begin(), layers.end());
    for (const auto& [name, self_ns] : spans.self_ns_by_name()) {
      m.emplace_back("trace." + name + ".self_ms",
                     ratio(self_ns / 1e6, rounds));
    }
    if (!a.trace_out.empty() && !spans.write_jsonl(a.trace_out)) {
      die("cannot write spans to " + a.trace_out);
    }
    std::printf(
        "ACCOUNT query_p50_ms=%.4f collect_p50_ms=%.4f combine_p50_ms=%.4f "
        "collect_plus_combine_ms=%.4f\n",
        percentile(stats.query_ms, 0.5), percentile(stats.collect_ms, 0.5),
        percentile(stats.combine_ms, 0.5),
        percentile(stats.collect_ms, 0.5) + percentile(stats.combine_ms, 0.5));
  }
  dep.reset();

  std::printf(
      "STAMP {\"workload\":\"%s\",\"seed\":%llu,\"traced\":%d,\"nproc\":%u,"
      "\"cpu\":%s,\"simd\":\"%s\",\"io_model\":\"%s\",\"build_type\":\"%s\","
      "\"waves_obs\":%d,\"rounds\":%llu,\"wall_s\":%.3f}\n",
      w.name, static_cast<unsigned long long>(a.seed), kTraced ? 1 : 0,
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      util::simd::name(util::simd::detected()),
      net::io_model_name(net::default_io_model()), PERFBENCH_BUILD_TYPE,
      WAVES_OBS_ENABLED, static_cast<unsigned long long>(stats.rounds), wall_s);
  std::string metrics;
  for (const auto& [name, value] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics += (metrics.empty() ? "" : ",") + json_string(name) + ":" + buf;
  }
  std::printf(
      "RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"mismatches\":%llu,\"metrics\":{%s}}\n",
      stats.mismatches == 0 ? "true" : "false",
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.mismatches), metrics.c_str());
  std::fflush(stdout);
  return stats.mismatches == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
