#include "distributed/referee.hpp"

#include <cassert>
#include <list>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "core/median_estimator.hpp"
#include "distributed/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace waves::distributed {

namespace {

// Per-protocol/transport instruments and round span name. The span tracer
// keeps the per-round story (parties contacted, messages, encoded bytes,
// decode failures, latency); these aggregate across rounds. Each pair is
// built on first use and kept for the process (a handful exist), so a
// round formats no names and makes no registry lookups.
struct RoundObs {
  std::string protocol;
  std::string transport;
  // referee.union_count / referee.union_count_wire / ...: the names from
  // before the SnapshotSource refactor, with a suffix for every transport
  // but "direct".
  std::string span_name;
  const obs::Counter& rounds;
  const obs::Counter& messages;
  const obs::Histogram& bytes_h;
  const obs::Histogram& seconds_h;
};

const RoundObs& round_obs(std::string_view protocol, std::string_view span_base,
                          std::string_view transport) {
  static std::mutex mu;
  static std::list<RoundObs> made;  // a list: references stay put
  std::lock_guard lk(mu);
  for (const RoundObs& o : made) {
    if (o.protocol == protocol && o.transport == transport) return o;
  }
  const std::string labels = "protocol=\"" + std::string(protocol) +
                             "\",transport=\"" + std::string(transport) + "\"";
  std::string span_name(span_base);
  if (transport != "direct") span_name += "_" + std::string(transport);
  obs::Registry& reg = obs::Registry::instance();
  return made.emplace_back(RoundObs{
      std::string(protocol), std::string(transport), std::move(span_name),
      reg.counter("waves_referee_rounds_total", labels),
      reg.counter("waves_referee_messages_total", labels),
      reg.histogram("waves_referee_round_bytes", labels, obs::bytes_buckets()),
      reg.histogram("waves_referee_round_seconds", labels,
                    obs::latency_buckets())});
}

void finish_round(const RoundObs& m, obs::Span& span, std::size_t parties,
                  const CollectStats& info) {
  span.set("parties", static_cast<double>(parties));
  span.set("messages", static_cast<double>(info.messages));
  span.set("bytes", static_cast<double>(info.bytes));
  span.set("decode_failures", static_cast<double>(info.decode_failures));
  const double dt = span.end();
  m.rounds.add();
  m.messages.add(info.messages);
  m.bytes_h.observe(static_cast<double>(info.bytes));
  m.seconds_h.observe(dt);
}

std::string quorum_error(const char* protocol,
                         const std::vector<std::size_t>& missing) {
  std::string msg = std::string(protocol) +
                    " fails closed under partial quorum; missing parties:";
  for (std::size_t j : missing) msg += " " + std::to_string(j);
  return msg;
}

// Fig. 6 steps 2-3 / Sec. 5 levelwise union, per instance, then the
// median over instances — identical for every transport. Each instance's
// combine sees a view of the parties' snapshots where collect left them.
template <class Snapshot, class Combine>
core::Estimate combine_median(RoundBuffers<Snapshot>& buf, int m,
                              std::uint64_t n, Combine&& combine) {
  buf.instance.resize(buf.by_party.size());
  buf.per_instance.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < buf.by_party.size(); ++j) {
      buf.instance[j] = &buf.by_party[j][static_cast<std::size_t>(i)];
    }
    buf.per_instance[static_cast<std::size_t>(i)] =
        combine(std::span<const Snapshot* const>(buf.instance), i);
  }
  return core::Estimate{core::median_in_place(buf.per_instance), false, n};
}

// The caller's buffers on their way from the default collect_into, through
// a decorator's by-value collect, to the default collect of the source it
// wraps. Per thread, because that whole path runs on the calling thread.
// A decorator that never reaches a default collect leaves them here until
// the thread's next round replaces them.
template <class Snapshot>
std::vector<std::vector<Snapshot>>& handoff() {
  thread_local std::vector<std::vector<Snapshot>> slot;
  return slot;
}

}  // namespace

void CountSnapshotSource::collect_into(
    std::uint64_t n, std::vector<std::size_t>& missing, WireStats* stats,
    CollectStats& info, std::vector<std::vector<core::RandWaveSnapshot>>& out) {
  handoff<core::RandWaveSnapshot>() = std::move(out);
  out = collect(n, missing, stats, info);
}

std::vector<std::vector<core::RandWaveSnapshot>> CountSnapshotSource::collect(
    std::uint64_t n, std::vector<std::size_t>& missing, WireStats* stats,
    CollectStats& info) {
  auto out = std::exchange(handoff<core::RandWaveSnapshot>(), {});
  collect_into(n, missing, stats, info, out);
  return out;
}

void DistinctSnapshotSource::collect_into(
    std::uint64_t n, std::vector<std::size_t>& missing, WireStats* stats,
    CollectStats& info, std::vector<std::vector<core::DistinctSnapshot>>& out) {
  handoff<core::DistinctSnapshot>() = std::move(out);
  out = collect(n, missing, stats, info);
}

std::vector<std::vector<core::DistinctSnapshot>>
DistinctSnapshotSource::collect(std::uint64_t n,
                                std::vector<std::size_t>& missing,
                                WireStats* stats, CollectStats& info) {
  auto out = std::exchange(handoff<core::DistinctSnapshot>(), {});
  collect_into(n, missing, stats, info, out);
  return out;
}

InProcessCountSource::InProcessCountSource(
    std::span<const CountParty* const> parties, bool via_wire)
    : parties_(parties), via_wire_(via_wire) {
  assert(!parties_.empty());
  for (const CountParty* p : parties_) {
    assert(p->instances() == parties_.front()->instances());
    (void)p;
  }
}

std::size_t InProcessCountSource::party_count() const {
  return parties_.size();
}

int InProcessCountSource::instances() const {
  return parties_.front()->instances();
}

const gf2::ExpHash& InProcessCountSource::hash(int instance) const {
  return parties_.front()->instance(instance).hash();
}

const char* InProcessCountSource::transport() const {
  return via_wire_ ? "wire" : "direct";
}

void InProcessCountSource::collect_into(
    std::uint64_t n, std::vector<std::size_t>&, WireStats* stats,
    CollectStats& info, std::vector<std::vector<core::RandWaveSnapshot>>& out) {
  out.resize(parties_.size());
  for (std::size_t j = 0; j < parties_.size(); ++j) {
    const CountParty* p = parties_[j];
    auto snaps = p->snapshots(n);
    if (!via_wire_) {
      for (const auto& s : snaps) {
        ++info.messages;
        const std::uint64_t b = wire_bytes(s);
        info.bytes += b;
        if (stats != nullptr) {
          stats->add(b, paper_bits(s, p->instance(0).top_level()));
        }
      }
      out[j] = std::move(snaps);
    } else {
      out[j].resize(snaps.size());
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        const Bytes enc = encode(snaps[i]);
        ++info.messages;
        info.bytes += enc.size();
        if (stats != nullptr) {
          stats->add(enc.size(), static_cast<double>(enc.size()) * 8.0);
        }
        const bool ok = decode(enc, out[j][i]);
        if (!ok) {
          ++info.decode_failures;
          out[j][i] = {};
        }
        assert(ok && "wire round-trip must succeed");
      }
    }
  }
}

InProcessDistinctSource::InProcessDistinctSource(
    std::span<const DistinctParty* const> parties, bool via_wire)
    : parties_(parties), via_wire_(via_wire) {
  assert(!parties_.empty());
  for (const DistinctParty* p : parties_) {
    assert(p->instances() == parties_.front()->instances());
    (void)p;
  }
}

std::size_t InProcessDistinctSource::party_count() const {
  return parties_.size();
}

int InProcessDistinctSource::instances() const {
  return parties_.front()->instances();
}

const gf2::ExpHash& InProcessDistinctSource::hash(int instance) const {
  return parties_.front()->instance(instance).hash();
}

const char* InProcessDistinctSource::transport() const {
  return via_wire_ ? "wire" : "direct";
}

void InProcessDistinctSource::collect_into(
    std::uint64_t n, std::vector<std::size_t>&, WireStats* stats,
    CollectStats& info, std::vector<std::vector<core::DistinctSnapshot>>& out) {
  out.resize(parties_.size());
  for (std::size_t j = 0; j < parties_.size(); ++j) {
    const DistinctParty* p = parties_[j];
    auto snaps = p->snapshots(n);
    if (!via_wire_) {
      for (const auto& s : snaps) {
        ++info.messages;
        const std::uint64_t b = wire_bytes(s);
        info.bytes += b;
        if (stats != nullptr) {
          stats->add(b, paper_bits(s, p->instance(0).top_level(),
                                   p->instance(0).top_level()));
        }
      }
      out[j] = std::move(snaps);
    } else {
      out[j].resize(snaps.size());
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        const Bytes enc = encode(snaps[i]);
        ++info.messages;
        info.bytes += enc.size();
        if (stats != nullptr) {
          stats->add(enc.size(), static_cast<double>(enc.size()) * 8.0);
        }
        const bool ok = decode(enc, out[j][i]);
        if (!ok) {
          ++info.decode_failures;
          out[j][i] = {};
        }
        assert(ok && "wire round-trip must succeed");
      }
    }
  }
}

QueryResult union_count(CountSnapshotSource& source, std::uint64_t n,
                        WireStats* stats,
                        RoundBuffers<core::RandWaveSnapshot>& buffers) {
  const RoundObs& metrics =
      round_obs("union", "referee.union_count", source.transport());
  // The round span roots the query's trace (or joins an enclosing one);
  // the ambient scope lets the transport's fan-out — and, over TCP, the
  // parties' server-side spans — stitch under it.
  auto span = obs::Tracer::instance().start_auto(metrics.span_name);
  const obs::TraceScope trace_scope(span.context());
  QueryResult r;
  if (source.party_count() == 0) {
    r.error = "union counting: no parties configured";
    return r;
  }
  CollectStats info;
  source.collect_into(n, r.missing, stats, info, buffers.by_party);
  span.set("missing", static_cast<double>(r.missing.size()));
  if (!r.missing.empty()) {
    finish_round(metrics, span, source.party_count(), info);
    r.error = quorum_error("union counting", r.missing);
    r.estimate = core::Estimate{0.0, false, n};
    return r;
  }
  r.estimate = combine_median(
      buffers, source.instances(), n,
      [&](std::span<const core::RandWaveSnapshot* const> inst, int i) {
        return core::referee_union_count(inst, n, source.hash(i),
                                         buffers.merge)
            .value;
      });
  r.status = QueryStatus::kOk;
  finish_round(metrics, span, source.party_count(), info);
  return r;
}

QueryResult distinct_count(DistinctSnapshotSource& source, std::uint64_t n,
                           WireStats* stats,
                           const std::function<bool(std::uint64_t)>& predicate,
                           RoundBuffers<core::DistinctSnapshot>& buffers) {
  const RoundObs& metrics =
      round_obs("distinct", "referee.distinct_count", source.transport());
  auto span = obs::Tracer::instance().start_auto(metrics.span_name);
  const obs::TraceScope trace_scope(span.context());
  QueryResult r;
  if (source.party_count() == 0) {
    r.error = "distinct values: no parties configured";
    return r;
  }
  CollectStats info;
  source.collect_into(n, r.missing, stats, info, buffers.by_party);
  span.set("missing", static_cast<double>(r.missing.size()));
  if (!r.missing.empty()) {
    finish_round(metrics, span, source.party_count(), info);
    r.error = quorum_error("distinct values", r.missing);
    r.estimate = core::Estimate{0.0, false, n};
    return r;
  }
  r.estimate = combine_median(
      buffers, source.instances(), n,
      [&](std::span<const core::DistinctSnapshot* const> inst, int i) {
        return core::referee_distinct_count(inst, n, source.hash(i),
                                            predicate, buffers.merge)
            .value;
      });
  r.status = QueryStatus::kOk;
  finish_round(metrics, span, source.party_count(), info);
  return r;
}

// Per-thread buffers keep a thread's repeated rounds allocation-free
// without the caller holding any; rounds on different threads never share.
QueryResult union_count(CountSnapshotSource& source, std::uint64_t n,
                        WireStats* stats) {
  thread_local RoundBuffers<core::RandWaveSnapshot> buffers;
  return union_count(source, n, stats, buffers);
}

QueryResult distinct_count(DistinctSnapshotSource& source, std::uint64_t n,
                           WireStats* stats,
                           const std::function<bool(std::uint64_t)>& predicate) {
  thread_local RoundBuffers<core::DistinctSnapshot> buffers;
  return distinct_count(source, n, stats, predicate, buffers);
}

core::Estimate union_count(std::span<const CountParty* const> parties,
                           std::uint64_t n, WireStats* stats) {
  InProcessCountSource source(parties, /*via_wire=*/false);
  return union_count(source, n, stats).estimate;
}

core::Estimate distinct_count(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats, const std::function<bool(std::uint64_t)>& predicate) {
  InProcessDistinctSource source(parties, /*via_wire=*/false);
  return distinct_count(source, n, stats, predicate).estimate;
}

core::Estimate union_count_wire(std::span<const CountParty* const> parties,
                                std::uint64_t n, WireStats* stats) {
  InProcessCountSource source(parties, /*via_wire=*/true);
  return union_count(source, n, stats).estimate;
}

core::Estimate distinct_count_wire(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats, const std::function<bool(std::uint64_t)>& predicate) {
  InProcessDistinctSource source(parties, /*via_wire=*/true);
  return distinct_count(source, n, stats, predicate).estimate;
}

}  // namespace waves::distributed
