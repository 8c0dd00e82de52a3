// Shared pieces of the perfbench program: the clock, percentile summaries,
// the in-memory span recorder, and the records the verification step
// compares against the in-process reference.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "util/types.h"

namespace perfbench {

using vicinity::Distance;
using vicinity::NodeId;

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Samples of one measured quantity, one window per timed slice of a run,
/// each tagged with the share of the machine's CPU time the hypervisor
/// stole while the slice ran. The machine's cores are shared with other
/// guests, and one 10 ms tick of steal in a slice can double that slice's
/// p99: every latency that waits for a thread on another core waits for
/// the stolen core. So a metric is taken over the quiet slices only: every
/// slice with the least steal of the series (on most runs, none), and at
/// least the two quietest. A latency percentile is the median of the
/// per-slice percentiles over the quiet slices, a rate the median of their
/// rates.
class Series {
 public:
  /// One slice: its latency samples (none for a rate-only series), its
  /// completion rate (0 for a latency-only series) and its steal.
  void add(std::vector<double> latencies, double rate, double steal) {
    slices_.push_back({std::move(latencies), rate, steal});
  }

  double p50() const { return per_slice(0.5); }
  double p99() const { return per_slice(0.99); }
  double rate() const {
    std::vector<double> r;
    for (const Slice* s : quiet()) r.push_back(s->rate);
    return percentile(r, 0.5);
  }
  /// The samples behind p50() and p99(): those of the quiet slices.
  std::size_t samples() const {
    std::size_t n = 0;
    for (const Slice* s : quiet()) n += s->samples.size();
    return n;
  }
  std::vector<double> all() const {
    std::vector<double> out;
    for (const Slice& s : slices_) {
      out.insert(out.end(), s.samples.begin(), s.samples.end());
    }
    return out;
  }

 private:
  struct Slice {
    std::vector<double> samples;
    double rate;
    double steal;
  };

  static constexpr std::size_t kMinQuiet = 2;

  std::vector<const Slice*> quiet() const {
    std::vector<const Slice*> out;
    for (const Slice& s : slices_) out.push_back(&s);
    std::stable_sort(out.begin(), out.end(), [](const Slice* a, const Slice* b) {
      return a->steal < b->steal;
    });
    std::size_t n = std::min(kMinQuiet, out.size());
    while (n < out.size() && out[n]->steal <= out[0]->steal) ++n;
    out.resize(n);
    return out;
  }

  double per_slice(double q) const {
    std::vector<double> per;
    for (const Slice* s : quiet()) {
      std::vector<double> v = s->samples;
      if (!v.empty()) per.push_back(percentile(v, q));
    }
    return percentile(per, 0.5);
  }

  std::vector<Slice> slices_;
};

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Pair {
  NodeId s = 0;
  NodeId t = 0;
};

/// One answer as the verification compares it: distance, resolution
/// method and exactness must all match the reference bit for bit.
struct Answer {
  Distance dist = vicinity::kInfDistance;
  std::uint8_t method = 0;
  bool exact = false;

  bool operator==(const Answer&) const = default;
};

/// One DISTANCE request sent over the wire, with what came back.
struct WireReply {
  std::uint32_t pair = 0;  ///< index into the workload's pair list
  vicinity::net::Status status = vicinity::net::Status::kOk;
  bool answered = false;
  std::uint64_t epoch = 0;
  Answer answer;
};

/// Span recorder: every span is kept in memory and written out once, at
/// the end of the run, as JSON lines. Spans of one wire request carry the
/// request id as their id; every other span gets a fresh id. A disabled
/// tracer records nothing, so untraced runs pay one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t attr;  ///< QueryMethod / Op ordinal, or 0
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }

  bool on() const { return on_; }

  /// Fresh span id, from a range wire request ids never reach.
  std::uint64_t next_id() { return ++last_id_; }

  void span(const char* name, std::uint64_t id, std::uint64_t parent,
            std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t attr = 0) {
    if (on_) spans_.push_back({name, id, parent, start_ns, end_ns, attr});
  }

  /// A point-in-time snapshot (STATS, /proc) as one JSON object body.
  void event(const std::string& name, const std::string& fields) {
    if (!on_) return;
    events_.push_back("{\"event\":\"" + name + "\",\"t_ns\":" +
                      std::to_string(now_ns()) + "," + fields + "}");
  }

  /// Durations (µs) of the spans named `name` whose attr passes attr_ok.
  template <typename Pred>
  std::vector<double> durations_us(const char* name, Pred attr_ok) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name && attr_ok(s.attr)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  void write(const std::string& path) const {
    if (!on_) return;
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << ",\"attr\":"
          << s.attr << "}\n";
    }
    for (const std::string& e : events_) out << e << "\n";
  }

 private:
  bool on_;
  std::uint64_t last_id_ = std::uint64_t{1} << 40;
  std::vector<Span> spans_;
  std::vector<std::string> events_;
};

}  // namespace perfbench
