#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pb {

namespace {

const Clock::time_point g_process_start = Clock::now();

// Innermost open span of the calling thread (-1 = none).
thread_local std::int64_t tl_current = -1;

}  // namespace

Clock::time_point process_start() { return g_process_start; }

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request) {
  const double now = since(g_process_start);
  std::lock_guard<std::mutex> lk(mu_);
  Record r;
  r.name = name;
  r.start = now;
  r.end = -1.0;
  r.id = static_cast<std::int64_t>(spans_.size());
  r.parent = tl_current;
  r.request = request;
  spans_.push_back(std::move(r));
  tl_current = spans_.back().id;
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  const double now = since(g_process_start);
  std::lock_guard<std::mutex> lk(mu_);
  Record& r = spans_[static_cast<std::size_t>(id)];
  r.end = now;
  tl_current = r.parent;
}

void Tracer::add(const std::string& counter, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[counter] += v;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  double s = 0.0;
  for (const Record& r : spans_)
    if (r.name == name && r.end >= r.start) s += r.end - r.start;
  return s;
}

std::map<std::string, double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Record& r : spans_)
    if (r.parent >= 0 && r.end >= r.start)
      kids[static_cast<std::size_t>(r.parent)].push_back({r.start, r.end});
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end < r.start) continue;
    // Union of the child intervals clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (auto [s, e] : iv) {
      s = std::max(s, r.start);
      e = std::min(e, r.end);
      if (e <= s) continue;
      if (s > hi) {
        if (hi > lo) covered += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[r.name] += (r.end - r.start) - covered;
  }
  return out;
}

std::string Tracer::to_json() const {
  const auto self = self_times();
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out += (i ? ",\n" : "\n");
    out += "{\"name\":" + json_str(r.name) + ",\"id\":" + std::to_string(r.id) +
           ",\"parent\":" + std::to_string(r.parent) +
           ",\"request\":" + std::to_string(r.request) +
           ",\"start\":" + json_num(r.start) + ",\"end\":" + json_num(r.end) + "}";
  }
  out += "],\n\"self_s\":{";
  bool first = true;
  for (const auto& [name, s] : self) {
    out += (first ? "" : ",") + json_str(name) + ":" + json_num(s);
    first = false;
  }
  out += "},\n\"counters\":{";
  first = true;
  for (const auto& [name, v] : counters_) {
    out += (first ? "" : ",") + json_str(name) + ":" + json_num(v);
    first = false;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(at, v.size() - 1)];
}

double self_peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace pb
