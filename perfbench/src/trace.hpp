#pragma once
// Span tracer and result plumbing of the benchmark.
//
// Spans are recorded only from the benchmark's own code, around each call
// into a layer of the library (name, start, end, parent span, request id).
// They are kept in memory and written once, at exit, together with the
// per-layer self time (a span's duration minus the part of its interval
// that its child spans cover) and the counters taken at the same
// boundaries.  With tracing off every Span is a no-op, so the untraced run
// measures the end-to-end metrics without the tracer's cost.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time the benchmark process started (initialized before main runs).
[[nodiscard]] Clock::time_point process_start();

class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0.0;  // seconds since process start
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1;  // -1 = root
    std::uint64_t request = 0;  // spans of one request share this id
  };

  static Tracer& get();

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  /// Open a span under the calling thread's innermost open span.
  std::int64_t begin(const std::string& name, std::uint64_t request);
  void end(std::int64_t id);

  /// Counters at the same boundaries (summed), recorded even when tracing
  /// is off so checks and metrics can read them.
  void add(const std::string& counter, double v);
  [[nodiscard]] double counter(const std::string& name) const;

  /// Sum of the durations (inclusive) of every closed span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Per-name self time: duration minus the union of child intervals.
  [[nodiscard]] std::map<std::string, double> self_times() const;

  /// Spans, self times and counters as one JSON document.
  [[nodiscard]] std::string to_json() const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // closed and open spans, by id
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t request = 0,
                bool enabled = true)
      : id_(enabled && Tracer::get().on() ? Tracer::get().begin(name, request)
                                          : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

/// One workload run's outcome: the last stdout line of the benchmark.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, for stderr
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Record a failed output check (the run stays measurable but reports
  /// correct=false).
  void fail_check(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
};

/// Median / nearest-rank percentile of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Peak resident set of this process (RUSAGE_SELF) in MB.
[[nodiscard]] double self_peak_rss_mb();

/// Escape a string for a JSON document.
[[nodiscard]] std::string json_str(const std::string& s);
/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string json_num(double v);

}  // namespace pb
