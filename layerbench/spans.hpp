// Spans and the arithmetic the benchmark reports over them.
//
// The benchmark times every public call it makes from the outside. A
// SpanRecorder keeps a stack of open calls; with recording on it also keeps
// one Span per call (name, start, end, parent, request id) in memory until
// the run ends. With recording off it only reads the clock, so the
// untraced and traced runs share one code path.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace layerbench {

struct Span {
  const char* name = "";   // static string: layer.operation
  std::int64_t start_ns = 0;  // since the recorder's origin
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the span vector, -1 for a root
  std::uint64_t id = 0;       // request id: phone seq, tick, profile index
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool record)
      : record_(record), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Opens a span nested in the innermost open one.
  void Begin(const char* name, std::uint64_t id = 0) {
    const std::int64_t now = Now();
    if (record_) {
      const int parent = open_.empty() ? -1 : open_.back().index;
      open_.push_back({now, static_cast<int>(spans_.size())});
      spans_.push_back({name, now, 0, parent, id});
    } else {
      open_.push_back({now, -1});
    }
  }

  // Closes the innermost open span; returns its duration in nanoseconds.
  std::int64_t End() {
    const std::int64_t now = Now();
    const Open top = open_.back();
    open_.pop_back();
    if (top.index >= 0) spans_[static_cast<std::size_t>(top.index)].end_ns = now;
    return now - top.start_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    std::int64_t start_ns;
    int index;  // -1 when not recording
  };
  bool record_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
};

// Length of the union of [start, end) intervals.
inline std::int64_t UnionLength(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// Time each span's direct children cover, clipped to the span itself.
inline std::vector<std::int64_t> ChildCover(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    kids[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
  }
  std::vector<std::int64_t> cover(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    cover[i] = UnionLength(std::move(kids[i]));
  return cover;
}

// Self time: a span's duration minus the time its child spans cover.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self = ChildCover(spans);
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].end_ns - spans[i].start_ns) - self[i];
  return self;
}

// Share of span `root`'s duration that its direct children cover.
inline double Coverage(const std::vector<Span>& spans, int root) {
  const Span& r = spans[static_cast<std::size_t>(root)];
  const std::int64_t dur = r.end_ns - r.start_ns;
  if (dur <= 0) return 0.0;
  return static_cast<double>(ChildCover(spans)[static_cast<std::size_t>(root)]) /
         static_cast<double>(dur);
}

// 1-based nearest rank of the p-th percentile among n samples: ceil(p·n/100),
// with a tolerance so that 99.9% of 10000 is 9990, not 9991.
inline std::size_t NearestRank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

// Nearest-rank percentile of an ascending sample; 0 for an empty one.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = NearestRank(sorted.size(), p);
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// Samples strictly above the nearest-rank p-th percentile's position.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n - std::min(n, std::max<std::size_t>(NearestRank(n, p), 1));
}

// The highest percentile of {50, 90, 95, 99, 99.9} that leaves at least ten
// samples beyond it; 0 when even the median does not.
inline double HighestSupportedPercentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9})
    if (SamplesBeyond(n, p) >= 10) best = p;
  return best;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Chrome trace_event JSON (complete events on one thread), the format
// chrome://tracing and Perfetto open, as `sor trace --chrome` writes.
inline std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"";
    out += s.name;
    out += "\",\"ts\":" + std::to_string(static_cast<double>(s.start_ns) / 1e3);
    out += ",\"dur\":" +
           std::to_string(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace layerbench
