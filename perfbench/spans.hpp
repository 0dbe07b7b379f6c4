// In-memory spans for the traced run.
//
// The benchmark records one span around each call it makes into a layer
// (party ingest, the referee query, the collect inside it, the push settle),
// all parented under one root span per round. Spans stay in memory while the
// run measures; at exit they are written out as JSON lines and reduced to
// each span name's self time: its duration minus the part of that interval
// its children cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t round = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve() {
    std::lock_guard lk(mu_);
    return ++next_id_;
  }

  /// Record a finished span; `id` 0 assigns a fresh one. Returns the id.
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t round, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id = 0) {
    std::lock_guard lk(mu_);
    if (id == 0) id = ++next_id_;
    spans_.push_back(Span{id, parent, round, name, start_ns, end_ns});
    return id;
  }

  /// Self time per span name, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_ns_by_name() const {
    std::lock_guard lk(mu_);
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      std::int64_t covered = 0;
      if (auto it = children.find(s.id); it != children.end()) {
        covered = union_length(it->second, s.start_ns, s.end_ns);
      }
      self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return self;
  }

  /// One JSON object per span, in recording order. False if the file
  /// cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::lock_guard lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"round\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.round), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

  void clear() {
    std::lock_guard lk(mu_);
    spans_.clear();
  }

 private:
  // Length of the union of `iv`, clipped to [lo, hi].
  static std::int64_t union_length(
      std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
      std::int64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) total += cur_hi - cur_lo;
    return total;
  }

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
