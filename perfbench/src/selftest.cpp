// perfbench_selftest — every output check of the benchmark accepts a
// correct output and rejects a corrupted one.
//
//   python3 perfbench/run.py --selftest
//
// Correct outputs come from the library on small inputs (LPS(5,13), an
// 8-cycle, a one-message simulation); each is then corrupted the way a
// faulty program could get it wrong.  Exit 0 when every case behaves.

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "core/spectralfly_net.hpp"
#include "partition/bisection.hpp"
#include "routing/cell_index.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "sim/motifs.hpp"
#include "spectral/spectra.hpp"
#include "topo/lps.hpp"

namespace {

using namespace sfly;
namespace check = pb::check;

int g_bad = 0;

void accepts(const char* what, const std::string& err) {
  if (!err.empty()) {
    std::printf("FAIL  %-44s rejected a correct output: %s\n", what, err.c_str());
    ++g_bad;
  } else {
    std::printf("ok    %-44s accepts the correct output\n", what);
  }
}

void rejects(const char* what, const std::string& err) {
  if (err.empty()) {
    std::printf("FAIL  %-44s accepted a corrupted output\n", what);
    ++g_bad;
  } else {
    std::printf("ok    %-44s rejects: %s\n", what, err.c_str());
  }
}

void expect_true(const char* what, bool ok) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  g_bad += !ok;
}

Graph cycle(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 0; v < n; ++v) e.push_back({v, (v + 1) % n});
  return Graph::from_edges(n, e);
}

void sim_checks() {
  // The zero-load bound holds for a lone message, which meets it exactly
  // when source and destination share a router.
  const sim::SimConfig cfg;
  core::NetworkOptions opts;
  auto net = core::Network::from_graph("C8", cycle(8), opts);
  auto s = net.make_simulator(1);
  s->send(0, 1, 4096, 0.0);
  s->run();
  const double bound = check::zero_load_ns(cfg, 4096);
  expect_true("zero-load bound <= a lone message's latency",
              s->message_latency().max() >= bound - 1e-9);

  // Motif message counts from the definitions match what the motifs send.
  auto run = [&](sim::Motif& m) {
    auto sim2 = net.make_simulator(1);
    return sim::run_motif(*sim2, m, 1).messages;
  };
  sim::Halo3D26 halo(3, 3, 3, 2);
  expect_true("Halo3D26(3,3,3,2) message count", run(halo) == check::halo3d26_messages(3, 3, 3, 2));
  sim::FftAllToAll fft(4, 4, 2048);
  expect_true("FFT(4,4) message count", run(fft) == check::fft_messages(4, 4));

  engine::SimResult r;
  r.ok = true;
  r.index = 7;
  r.messages = 8192;
  r.delivered = 1.0;
  r.mean_latency_ns = 2000;
  r.p99_latency_ns = 3000;
  r.max_latency_ns = 4000;
  r.completion_ns = 9000;
  r.diameter = 3;
  check::SimExpect e;
  e.expected_messages = 8192;
  e.zero_load = bound;
  e.diameter = 3;
  accepts("sim row", check::sim_row(r, e));
  auto bad = r;
  bad.messages -= 1;
  rejects("sim row: a message lost", check::sim_row(bad, e));
  bad = r;
  bad.messages += 1;
  rejects("sim row: a message delivered twice", check::sim_row(bad, e));
  bad = r;
  bad.ok = false;
  rejects("sim row: not ok", check::sim_row(bad, e));
  bad = r;
  bad.mean_latency_ns = 3500;
  rejects("sim row: mean above p99", check::sim_row(bad, e));
  bad = r;
  bad.max_latency_ns = 9500;
  rejects("sim row: max above completion", check::sim_row(bad, e));
  bad = r;
  bad.mean_latency_ns = bound / 2;
  bad.p99_latency_ns = bound / 2;
  rejects("sim row: mean below the zero-load bound", check::sim_row(bad, e));
  bad = r;
  bad.diameter = 4;
  rejects("sim row: diameter differs from BFS", check::sim_row(bad, e));
  auto churn = e;
  churn.churn = true;
  bad = r;
  bad.messages = 8000;
  bad.delivered = 8000.0 / 8192.0;
  accepts("churn row with losses", check::sim_row(bad, churn));
  bad.delivered = 1.0;
  rejects("churn row: fraction disagrees with count", check::sim_row(bad, churn));

  accepts("bitwise row", check::same_row(r, r));
  bad = r;
  bad.mean_latency_ns = std::nextafter(r.mean_latency_ns, 1e9);
  rejects("bitwise row: last bit of the mean", check::same_row(r, bad));
  bad = r;
  bad.events += 1;
  rejects("bitwise row: one more event", check::same_row(r, bad));
}

void topo_checks() {
  // BFS on a graph whose answer is known: C8 has diameter 4 and mean
  // distance (2 * (1 + 2 + 3) + 4) / 7.
  const Graph c8 = cycle(8);
  const auto ap8 = check::all_pairs(c8, 2);
  expect_true("BFS on C8", ap8.diameter == 4 && std::fabs(ap8.mean_hops - 16.0 / 7) < 1e-12);

  const Graph g = topo::lps_graph({5, 13});
  const auto ap = check::all_pairs(g, 4);
  accepts("distances", check::distances(ap.diameter, ap.mean_hops, ap));
  rejects("distances: diameter off by one", check::distances(ap.diameter + 1, ap.mean_hops, ap));
  rejects("distances: mean hops off", check::distances(ap.diameter, ap.mean_hops * 1.001, ap));

  accepts("LPS(5,13) shape", check::lps_shape(g, 5, 13));
  rejects("LPS shape: wrong closed form", check::lps_shape(g, 5, 11));
  auto edges = g.edge_list();
  edges.pop_back();
  const Graph cut_one = Graph::from_edges(g.num_vertices(), edges);
  rejects("LPS shape: one edge missing", check::lps_shape(cut_one, 5, 13));

  const Spectra sp = compute_spectra(g);
  accepts("Ramanujan bound", check::ramanujan(sp.lambda, 5, 13));
  rejects("Ramanujan bound: lambda too large",
          check::ramanujan(2 * std::sqrt(5.0) + 0.01, 5, 13));

  BisectionOptions bo;
  bo.restarts = 2;
  const auto b = bisect(g, bo);
  const double fiedler = sp.bisection_lower_bound(g.num_vertices());
  accepts("bisection", check::bisection(g, b.side, b.cut_edges, fiedler));
  rejects("bisection: reported cut off by one",
          check::bisection(g, b.side, b.cut_edges + 1, fiedler));
  auto side = b.side;
  for (auto& s : side)
    if (s == 0) {
      s = 1;
      break;
    }
  rejects("bisection: one vertex moved", check::bisection(g, side, b.cut_edges, fiedler));
  rejects("bisection: Fiedler bound above the cut",
          check::bisection(g, b.side, b.cut_edges, static_cast<double>(b.cut_edges) + 1));

  const auto tb = routing::Tables::build(g);
  const auto nh = routing::NextHopIndex::build(g, tb);
  const Vertex dst = 17;
  const auto d = check::bfs(g, dst);
  std::vector<Vertex> srcs;
  for (Vertex v = 0; v < g.num_vertices(); v += 7) srcs.push_back(v);
  auto dist = [&](Vertex u) { return static_cast<std::uint32_t>(tb.distance(u, dst)); };
  auto count = [&](Vertex u) { return nh.count(u, dst); };
  accepts("next-hop counts", check::next_hops(g, dst, d, srcs, dist, count));
  rejects("next-hop counts: one hop extra",
          check::next_hops(g, dst, d, srcs, dist, [&](Vertex u) { return count(u) + 1; }));
  rejects("next-hop counts: distance off by one",
          check::next_hops(g, dst, d, srcs, [&](Vertex u) { return dist(u) + 1; }, count));

  const auto ci = routing::CellIndex::build(g, {.max_cell_size = 16});
  auto cq = ci.make_query(g);
  cq.prepare(dst);
  std::vector<Vertex> hops;
  auto cell_count = [&](Vertex u) {
    hops.clear();
    cq.minimal_next_hops(u, hops);
    return static_cast<std::uint32_t>(hops.size());
  };
  accepts("CellIndex distances and hops",
          check::next_hops(g, dst, d, srcs, [&](Vertex u) { return cq.distance(u); },
                           cell_count));
  std::vector<Vertex> path{srcs[3]};
  for (std::uint64_t h = 0; path.back() != dst; ++h)
    path.push_back(cq.sample_next_hop(path.back(), h));
  accepts("CellQuery walk", check::walk(g, dst, d, path, true));
  auto detour = path;
  detour.insert(detour.begin() + 1, {g.neighbors(path[0])[0], path[0]});
  rejects("walk: detour", check::walk(g, dst, d, detour, true));
  auto jump = path;
  jump.erase(jump.begin() + 1);
  rejects("walk: a hop that is not an edge", check::walk(g, dst, d, jump, true));
  auto short_walk = path;
  short_walk.pop_back();
  rejects("walk: stops early", check::walk(g, dst, d, short_walk, true));

  // Route answers: minimal and Valiant.
  check::RouteAnswer ra;
  ra.src = path.front();
  ra.dst = dst;
  ra.path = path;
  const check::Dist none;
  accepts("minimal route", check::route(g, ra, d, none, false));
  rejects("route: Valiant expected", check::route(g, ra, d, none, true));
  ra.path = detour;
  rejects("route: longer than minimal", check::route(g, ra, d, none, false));
  // Valiant: minimal to an intermediate, then minimal to dst.
  const Vertex mid = 40;
  const auto dm = check::bfs(g, mid);
  std::vector<Vertex> leg1{ra.src}, leg2;
  for (Vertex at = ra.src; at != mid;)
    for (const Vertex w : g.neighbors(at))
      if (dm[w] == dm[at] - 1) {
        leg1.push_back(at = w);
        break;
      }
  for (Vertex at = mid; at != dst;)
    for (const Vertex w : g.neighbors(at))
      if (d[w] == d[at] - 1) {
        leg2.push_back(at = w);
        break;
      }
  check::RouteAnswer va = ra;
  va.valiant = true;
  va.intermediate = mid;
  va.path = leg1;
  va.path.insert(va.path.end(), leg2.begin(), leg2.end());
  accepts("Valiant route", check::route(g, va, d, dm, true));
  check::RouteAnswer early = va;  // meets its destination on the first leg
  early.dst = leg1[2];
  early.path.assign(leg1.begin(), leg1.begin() + 3);
  accepts("Valiant route delivered on its first leg",
          check::route(g, early, check::bfs(g, early.dst), dm, true));
  va.intermediate = mid + 1;
  rejects("Valiant route: misses its intermediate",
          check::route(g, va, d, check::bfs(g, mid + 1), true));
}

void service_checks() {
  std::vector<check::RankEntry> e = {{"A", true, 0.5, 2.1},
                                     {"B", true, 0.5, 2.3},
                                     {"C", true, 0.4, 1.9},
                                     {"D", false, 0.9, 1.0}};
  accepts("rank order", check::rank_order(e));
  std::swap(e[0], e[1]);
  rejects("rank order: mean-hops tie-break swapped", check::rank_order(e));
  std::swap(e[0], e[1]);
  std::swap(e[2], e[3]);
  rejects("rank order: non-fitting topology first", check::rank_order(e));

  check::StatsAnswer s{101, 0, 0, 0, 0};
  accepts("stats", check::stats(s, 101));
  rejects("stats: a query uncounted", check::stats(s, 102));
  s.tables_built = 1;
  rejects("stats: tables rebuilt after warm start", check::stats(s, 101));
  s = {101, 1, 0, 0, 0};
  rejects("stats: an error", check::stats(s, 101));
}

void fleet_checks() {
  const std::string j =
      "{\"batch\":\"sweep\",\"campaign\":\"c\",\"scenarios\":2}\n"
      "{\"index\":0,\"topology\":\"A\",\"ok\":true,\"x\":1}\n"
      "{\"index\":1,\"topology\":\"B\",\"ok\":true,\"x\":2}\n";
  accepts("journal", check::journal(j, 2));
  rejects("journal: a row missing", check::journal(j.substr(0, j.rfind("{\"index\":1")), 2));
  std::string not_ok = j;
  not_ok.replace(not_ok.rfind("\"ok\":true"), 9, "\"ok\":false");
  rejects("journal: a row not ok", check::journal(not_ok, 2));
  rejects("journal: torn last line", check::journal(j.substr(0, j.size() - 3), 2));
  accepts("byte identity", check::same_bytes("outputs", j, j));
  std::string flipped = j;
  flipped[40] ^= 1;
  rejects("byte identity: one bit flipped", check::same_bytes("outputs", j, flipped));
}

}  // namespace

int main() {
  sim_checks();
  topo_checks();
  service_checks();
  fleet_checks();
  std::printf("%s: %d case(s) misbehaved\n", g_bad ? "FAILED" : "PASSED", g_bad);
  return g_bad ? 1 : 0;
}
