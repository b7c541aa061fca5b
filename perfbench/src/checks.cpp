#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

namespace pb::check {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Euler's criterion: a is a square mod the odd prime q.
bool is_square_mod(std::uint64_t a, std::uint64_t q) {
  std::uint64_t base = a % q, e = (q - 1) / 2, r = 1;
  while (e) {
    if (e & 1) r = r * base % q;
    base = base * base % q;
    e >>= 1;
  }
  return r == 1;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

Dist bfs(const Graph& g, Vertex src) {
  Dist d(g.num_vertices(), -1);
  std::vector<Vertex> frontier{src}, next;
  d[src] = 0;
  for (std::int32_t level = 1; !frontier.empty(); ++level) {
    next.clear();
    for (const Vertex u : frontier)
      for (const Vertex w : g.neighbors(u))
        if (d[w] < 0) {
          d[w] = level;
          next.push_back(w);
        }
    frontier.swap(next);
  }
  return d;
}

AllPairs all_pairs(const Graph& g, unsigned threads) {
  const Vertex n = g.num_vertices();
  std::atomic<Vertex> next{0};
  std::mutex mu;
  std::int32_t diameter = 0;
  double sum = 0.0;
  std::uint64_t pairs = 0;
  bool connected = true;
  auto work = [&] {
    std::int32_t dia = 0;
    double s = 0.0;
    std::uint64_t p = 0;
    bool conn = true;
    for (Vertex u; (u = next.fetch_add(1)) < n;) {
      const Dist d = bfs(g, u);
      for (Vertex v = 0; v < n; ++v) {
        if (v == u) continue;
        if (d[v] < 0) {
          conn = false;
          continue;
        }
        dia = std::max(dia, d[v]);
        s += d[v];
        ++p;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    diameter = std::max(diameter, dia);
    sum += s;
    pairs += p;
    connected = connected && conn;
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  return {diameter, pairs ? sum / static_cast<double>(pairs) : 0.0, connected};
}

double zero_load_ns(const sfly::sim::SimConfig& cfg, std::uint32_t message_bytes) {
  const double last_packet = std::min(message_bytes, cfg.packet_bytes);
  return message_bytes / cfg.bandwidth_bytes_per_ns + cfg.link_latency_ns +
         cfg.router_latency_ns + last_packet / cfg.bandwidth_bytes_per_ns +
         cfg.nic_latency_ns;
}

std::string sim_row(const sfly::engine::SimResult& r, const SimExpect& e) {
  const std::string at = "row " + std::to_string(r.index) + " (" + r.topology +
                         " " + r.label + "): ";
  if (!r.ok) return at + "not ok: " + r.error;
  if (!e.churn) {
    if (r.messages != e.expected_messages)
      return at + "delivered " + std::to_string(r.messages) + " messages, " +
             std::to_string(e.expected_messages) + " were scheduled";
    if (r.delivered != 1.0) return at + "delivered fraction " + num(r.delivered);
  } else {
    // Under churn some messages may be lost, never duplicated.
    if (r.messages > e.expected_messages ||
        std::llround(r.delivered * static_cast<double>(e.expected_messages)) !=
            static_cast<long long>(r.messages))
      return at + "churn row delivered " + std::to_string(r.messages) + " of " +
             std::to_string(e.expected_messages) + " at fraction " +
             num(r.delivered);
  }
  if (r.messages > 0 &&
      !(r.mean_latency_ns <= r.p99_latency_ns &&
        r.p99_latency_ns <= r.max_latency_ns &&
        r.max_latency_ns <= r.completion_ns))
    return at + "latencies out of order: mean " + num(r.mean_latency_ns) +
           " p99 " + num(r.p99_latency_ns) + " max " + num(r.max_latency_ns) +
           " completion " + num(r.completion_ns);
  if (e.zero_load > 0.0 && r.mean_latency_ns < e.zero_load)
    return at + "mean latency " + num(r.mean_latency_ns) +
           " ns is below the zero-load bound " + num(e.zero_load);
  if (r.diameter != static_cast<double>(e.diameter))
    return at + "diameter " + num(r.diameter) + ", BFS says " +
           std::to_string(e.diameter);
  return {};
}

std::uint64_t halo3d26_messages(std::uint64_t nx, std::uint64_t ny,
                                std::uint64_t nz, std::uint64_t iters) {
  return nx * ny * nz * 26 * iters;
}

std::uint64_t fft_messages(std::uint64_t px, std::uint64_t py) {
  return px * py * ((px - 1) + (py - 1));
}

std::string same_row(const sfly::engine::SimResult& a,
                     const sfly::engine::SimResult& b) {
  const std::pair<const char*, std::pair<double, double>> f[] = {
      {"diameter", {a.diameter, b.diameter}},
      {"max_latency_ns", {a.max_latency_ns, b.max_latency_ns}},
      {"mean_latency_ns", {a.mean_latency_ns, b.mean_latency_ns}},
      {"p99_latency_ns", {a.p99_latency_ns, b.p99_latency_ns}},
      {"completion_ns", {a.completion_ns, b.completion_ns}},
      {"delivered", {a.delivered, b.delivered}},
      {"post_churn_p99_ns", {a.post_churn_p99_ns, b.post_churn_p99_ns}}};
  const std::string at = "row " + std::to_string(a.index) + " (" + a.topology +
                         " " + a.label + "): ";
  if (a.ok != b.ok) return at + "ok differs";
  for (const auto& [name, v] : f)
    if (!bits_equal(v.first, v.second))
      return at + name + " " + num(v.first) + " != " + num(v.second);
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> c[] = {
      {"messages", {a.messages, b.messages}}, {"events", {a.events, b.events}},
      {"packets", {a.packets, b.packets}},    {"reroutes", {a.reroutes, b.reroutes}},
      {"drops", {a.drops, b.drops}}};
  for (const auto& [name, v] : c)
    if (v.first != v.second)
      return at + name + " " + std::to_string(v.first) +
             " != " + std::to_string(v.second);
  return {};
}

std::string distances(double diameter, double mean_hops, const AllPairs& ref) {
  if (!ref.connected) return "reference BFS finds the graph disconnected";
  if (diameter != static_cast<double>(ref.diameter))
    return "diameter " + num(diameter) + ", BFS says " +
           std::to_string(ref.diameter);
  // Both are means of the same integers; allow only summation-order noise.
  if (std::fabs(mean_hops - ref.mean_hops) > 1e-9 * ref.mean_hops)
    return "mean hops " + num(mean_hops) + ", BFS says " + num(ref.mean_hops);
  return {};
}

std::string lps_shape(const Graph& g, std::uint64_t p, std::uint64_t q) {
  const std::uint64_t full = q * (q * q - 1);
  const std::uint64_t want = is_square_mod(p, q) ? full / 2 : full;
  if (g.num_vertices() != want)
    return "LPS(" + std::to_string(p) + "," + std::to_string(q) + ") has " +
           std::to_string(g.num_vertices()) + " vertices, closed form " +
           std::to_string(want);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) != p + 1)
      return "vertex " + std::to_string(v) + " has degree " +
             std::to_string(g.degree(v)) + ", want " + std::to_string(p + 1);
  return {};
}

std::string ramanujan(double lambda, std::uint64_t p, std::uint64_t q) {
  const double bound = 2.0 * std::sqrt(static_cast<double>(p));
  if (static_cast<double>(q) <= bound) return {};  // outside the guarantee
  if (lambda > bound + 1e-9)
    return "lambda " + num(lambda) + " exceeds 2 sqrt(p) = " + num(bound);
  return {};
}

std::string bisection(const Graph& g, const std::vector<std::uint8_t>& side,
                      std::uint64_t reported_cut, double fiedler_lb) {
  const Vertex n = g.num_vertices();
  if (side.size() != n) return "side vector has the wrong length";
  std::uint64_t cut = 0, ones = 0;
  for (Vertex u = 0; u < n; ++u) {
    if (side[u] > 1) return "side vector holds a value other than 0/1";
    ones += side[u];
    for (const Vertex w : g.neighbors(u))
      if (u < w && side[u] != side[w]) ++cut;
  }
  if (cut != reported_cut)
    return "side vector cuts " + std::to_string(cut) + " edges, reported " +
           std::to_string(reported_cut);
  const std::uint64_t zeros = n - ones;
  if ((ones > zeros ? ones - zeros : zeros - ones) > 1)
    return "parts of " + std::to_string(zeros) + " and " + std::to_string(ones) +
           " vertices";
  if (fiedler_lb > static_cast<double>(cut) + 1e-9)
    return "Fiedler lower bound " + num(fiedler_lb) + " exceeds the cut " +
           std::to_string(cut);
  return {};
}

std::string next_hops(const Graph& g, Vertex dst, const Dist& d,
                      const std::vector<Vertex>& srcs,
                      const std::function<std::uint32_t(Vertex)>& reported_distance,
                      const std::function<std::uint32_t(Vertex)>& reported_count) {
  for (const Vertex u : srcs) {
    if (u == dst) continue;
    const std::string at =
        "pair " + std::to_string(u) + "->" + std::to_string(dst) + ": ";
    if (reported_distance(u) != static_cast<std::uint32_t>(d[u]))
      return at + "distance " + std::to_string(reported_distance(u)) +
             ", BFS says " + std::to_string(d[u]);
    std::uint32_t want = 0;
    for (const Vertex w : g.neighbors(u)) want += d[w] == d[u] - 1;
    if (reported_count(u) != want)
      return at + std::to_string(reported_count(u)) + " minimal next hops, " +
             std::to_string(want) + " neighbours are one hop closer";
  }
  return {};
}

std::string walk(const Graph& g, Vertex dst, const Dist& d,
                 const std::vector<Vertex>& path, bool minimal) {
  if (path.empty()) return "empty path";
  for (std::size_t i = 1; i < path.size(); ++i)
    if (path[i] >= g.num_vertices() || !g.has_edge(path[i - 1], path[i]))
      return "hop " + std::to_string(i) + " (" + std::to_string(path[i - 1]) +
             "->" + std::to_string(path[i]) + ") is not an edge";
  if (path.back() != dst)
    return "walk ends at " + std::to_string(path.back()) + ", not at " +
           std::to_string(dst);
  if (minimal && path.size() - 1 != static_cast<std::size_t>(d[path.front()]))
    return "walk from " + std::to_string(path.front()) + " takes " +
           std::to_string(path.size() - 1) + " hops, BFS distance is " +
           std::to_string(d[path.front()]);
  return {};
}

std::string route(const Graph& g, const RouteAnswer& a, const Dist& to_dst,
                  const Dist& to_mid, bool expect_valiant) {
  if (a.path.empty() || a.path.front() != a.src)
    return "route does not start at its source";
  if (a.valiant != expect_valiant)
    return std::string("route ") + (a.valiant ? "is" : "is not") +
           " Valiant, expected otherwise";
  if (!a.valiant) return walk(g, a.dst, to_dst, a.path, /*minimal=*/true);
  if (std::string w = walk(g, a.dst, to_dst, a.path, false); !w.empty()) return w;
  const auto leg = static_cast<std::size_t>(to_mid[a.src]);
  // The first leg closes in on the intermediate one hop at a time.
  for (std::size_t i = 1; i < a.path.size() && i <= leg; ++i)
    if (to_mid[a.path[i]] != to_mid[a.path[i - 1]] - 1)
      return "Valiant route leaves the minimal path to its intermediate " +
             std::to_string(a.intermediate) + " at hop " + std::to_string(i);
  // A packet is delivered where it meets its destination, also when that
  // happens on the way to the intermediate.
  if (a.path.size() - 1 < leg) return {};
  if (a.path[leg] != a.intermediate)
    return "Valiant route does not reach its intermediate " +
           std::to_string(a.intermediate) + " after " + std::to_string(leg) +
           " hops";
  if (a.path.size() - 1 != leg + static_cast<std::size_t>(to_dst[a.intermediate]))
    return "Valiant route takes " + std::to_string(a.path.size() - 1) +
           " hops, minimal legs sum to " +
           std::to_string(leg + static_cast<std::size_t>(to_dst[a.intermediate]));
  return {};
}

std::string rank_order(const std::vector<RankEntry>& e) {
  for (std::size_t i = 1; i < e.size(); ++i) {
    const RankEntry& a = e[i - 1];
    const RankEntry& b = e[i];
    bool ordered;
    if (a.fits != b.fits)
      ordered = a.fits;
    else if (a.mu1 != b.mu1)
      ordered = a.mu1 > b.mu1;
    else if (a.mean_hops != b.mean_hops)
      ordered = a.mean_hops < b.mean_hops;
    else
      ordered = a.name < b.name;
    if (!ordered)
      return "ranking places " + a.name + " before " + b.name +
             " against the documented order";
  }
  return {};
}

std::string stats(const StatsAnswer& s, std::uint64_t sent) {
  if (s.queries != sent)
    return "daemon counted " + std::to_string(s.queries) + " queries, " +
           std::to_string(sent) + " were sent";
  if (s.errors != 0) return "daemon reports " + std::to_string(s.errors) + " errors";
  if (s.tables_built || s.index_built || s.cells_built)
    return "warm daemon rebuilt routing artifacts (tables " +
           std::to_string(s.tables_built) + ", index " +
           std::to_string(s.index_built) + ", cells " +
           std::to_string(s.cells_built) + ")";
  return {};
}

std::string same_bytes(const std::string& what, const std::string& a,
                       const std::string& b) {
  if (a == b) return {};
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return what + " differ at byte " + std::to_string(i) + " (sizes " +
         std::to_string(a.size()) + " and " + std::to_string(b.size()) + ")";
}

std::string journal(const std::string& text, std::uint64_t expected_rows) {
  auto field = [](const std::string& line, const std::string& key,
                  std::string& out) {
    const std::string k = "\"" + key + "\":";
    const auto at = line.find(k);
    if (at == std::string::npos) return false;
    auto end = line.find_first_of(",}", at + k.size());
    out = line.substr(at + k.size(), end - at - k.size());
    return true;
  };
  std::uint64_t rows = 0, batch_size = 0, next_index = 0;
  bool in_batch = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) return "journal ends in a torn line";
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
      return "journal line is not a JSON object: " + line.substr(0, 60);
    std::string v;
    if (field(line, "batch", v)) {
      if (in_batch && next_index != batch_size)
        return "batch ended after " + std::to_string(next_index) + " of " +
               std::to_string(batch_size) + " rows";
      if (!field(line, "scenarios", v)) return "batch header without scenarios";
      batch_size = std::stoull(v);
      next_index = 0;
      in_batch = true;
      continue;
    }
    if (!in_batch) return "row before any batch header";
    if (!field(line, "index", v) || std::stoull(v) != next_index)
      return "row " + std::to_string(next_index) + " missing or out of order";
    if (!field(line, "ok", v) || v != "true")
      return "row " + std::to_string(next_index) + " is not ok";
    ++next_index;
    ++rows;
  }
  if (in_batch && next_index != batch_size)
    return "last batch ended after " + std::to_string(next_index) + " of " +
           std::to_string(batch_size) + " rows";
  if (rows != expected_rows)
    return "journal holds " + std::to_string(rows) + " rows, expected " +
           std::to_string(expected_rows);
  return {};
}

}  // namespace pb::check
