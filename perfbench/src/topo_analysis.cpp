// topo_analysis: a cold analysis run, no simulation.
//
// Set-up generates every graph.  Each round then starts from a fresh
// Engine (no cached artifacts) and runs the Table-I structure and spectral
// scenarios through Engine::run (diameter, mean hops, girth, FM bisection,
// lambda / mu1), builds exact Tables + NextHopIndex for the four
// paper-scale topologies, and builds a CellIndex for LPS(5,29) (12,180
// routers) and DF(a=8,h=4,g=520) (4,160 routers), both above the
// 4096-router exact threshold.  All-pairs BFS, Lanczos, FM bisection and
// recursive bisection do the work.

#include <memory>

#include "checks.hpp"
#include "engine/engine.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "partition/recursive_bisection.hpp"
#include "routing/cell_index.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "spectral/spectra.hpp"
#include "topo/factory.hpp"
#include "workloads.hpp"

namespace pb {

using namespace sfly;

namespace {

struct Topo {
  std::string name;
  std::shared_ptr<const Graph> graph;
  std::uint64_t lps_p = 0, lps_q = 0;  // set for LPS instances
};

Topo generate(const std::string& spec, std::uint64_t p = 0, std::uint64_t q = 0) {
  Span span("topo.generate");
  auto parsed = topo::parse_topology(spec);
  auto g = std::make_shared<const Graph>(parsed.build());
  Tracer::get().add("topo.routers", g->num_vertices());
  Tracer::get().add("topo.links", static_cast<double>(g->num_edges()));
  return {parsed.name, std::move(g), p, q};
}

// Table-I size classes 0 and 1 (all four families) plus the LPS of class 2.
std::vector<Topo> table1() {
  return {generate("LPS(11,7)", 11, 7), generate("SF(7)"), generate("BF(13,3)"),
          generate("DF(12)"),           generate("LPS(23,11)", 23, 11),
          generate("SF(17)"),           generate("BF(37,3)"),
          generate("DF(24)"),           generate("LPS(53,17)", 53, 17)};
}

std::vector<Vertex> sample(Rng& rng, Vertex n, std::size_t k) {
  std::vector<Vertex> out(k);
  for (auto& v : out) v = static_cast<Vertex>(uniform_below(rng, n));
  return out;
}

// What one round produced, kept for the checks.
struct RoundOut {
  std::vector<engine::Result> rows;  // structure, spectral per table1 topology
  std::vector<std::shared_ptr<const routing::Tables>> tables;
  std::vector<std::shared_ptr<const routing::NextHopIndex>> nhis;
  std::vector<std::shared_ptr<const routing::CellIndex>> cells;
};

RoundOut analyze(const std::vector<Topo>& t1, const std::vector<Topo>& paper,
                 const std::vector<Topo>& large, std::uint64_t seed) {
  RoundOut out;
  engine::Engine eng;  // cold: a fresh artifact cache every round
  std::vector<engine::Scenario> batch;
  for (const auto& t : t1) {
    eng.register_topology(t.name, [g = t.graph] { return *g; });
    engine::Scenario st;
    st.topology = t.name;
    st.kind = engine::Kind::kStructure;
    st.want_girth = true;
    st.bisection_restarts = 2;
    st.seed = seed;
    batch.push_back(st);
    engine::Scenario sp = st;
    sp.kind = engine::Kind::kSpectral;
    batch.push_back(sp);
  }
  {
    Span span("engine.run");
    out.rows = eng.run(batch);
  }
  for (const auto& t : paper) {
    std::shared_ptr<const routing::Tables> tb;
    {
      Span span("routing.tables.build");
      tb = std::make_shared<const routing::Tables>(routing::Tables::build(*t.graph));
    }
    Span span("routing.nhi.build");
    out.nhis.push_back(std::make_shared<const routing::NextHopIndex>(
        routing::NextHopIndex::build(*t.graph, *tb)));
    out.tables.push_back(std::move(tb));
  }
  for (const auto& t : large) {
    Span span("routing.cell.build");
    out.cells.push_back(std::make_shared<const routing::CellIndex>(
        routing::CellIndex::build(*t.graph)));
  }
  return out;
}

}  // namespace

void run_topo_analysis(const Options& o, Report& rep) {
  // --- set-up: topology generation ---------------------------------------
  std::vector<Topo> t1, paper, large;
  {
    Span span("setup");
    t1 = table1();
    for (const auto& pt : paper_topologies()) {
      Span gen("topo.generate");
      auto g = std::make_shared<const Graph>(pt.build());
      Tracer::get().add("topo.routers", g->num_vertices());
      Tracer::get().add("topo.links", static_cast<double>(g->num_edges()));
      paper.push_back({pt.name, std::move(g), pt.name == "SpectralFly" ? 23u : 0u,
                       pt.name == "SpectralFly" ? 13u : 0u});
    }
    large = {generate("LPS(5,29)", 5, 29), generate("DF(8,4,520)")};
  }
  const double setup_s = since(process_start());
  const std::uint64_t seed = derive(o.seed, 1);

  // --- timed rounds ------------------------------------------------------
  const auto tables0 = routing::Tables::builds();
  const auto nhi0 = routing::NextHopIndex::builds();
  const auto cells0 = routing::CellIndex::builds();
  std::vector<double> round_s;
  RoundOut first;
  bool rounds_identical = true;
  const auto t_measure = Clock::now();
  do {
    const auto t0 = Clock::now();
    RoundOut r;
    {
      Span span("analysis");
      r = analyze(t1, paper, large, seed);
    }
    round_s.push_back(since(t0));
    const std::uint64_t ops = r.rows.size() + r.nhis.size() * 2 + r.cells.size();
    rep.attempted += ops;
    for (const auto& row : r.rows) rep.failed += !row.ok;
    if (round_s.size() == 1) {
      first = std::move(r);
    } else {
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        const auto& a = first.rows[i];
        const auto& b = r.rows[i];
        if (a.diameter != b.diameter || a.mean_hops != b.mean_hops ||
            a.girth != b.girth || a.bisection != b.bisection ||
            a.lambda != b.lambda || a.mu1 != b.mu1)
          rounds_identical = false;
      }
    }
  } while (since(t_measure) < o.seconds);
  const double rounds = static_cast<double>(round_s.size());
  const double peak_rss = self_peak_rss_mb();
  const auto tables_built = routing::Tables::builds() - tables0;
  const auto nhi_built = routing::NextHopIndex::builds() - nhi0;
  const auto cells_built = routing::CellIndex::builds() - cells0;

  // --- checks ------------------------------------------------------------
  if (!rounds_identical) rep.fail_check("a later round's analysis differs from the first");
  Rng rng(derive(o.seed, 2));
  for (std::size_t i = 0; i < t1.size(); ++i) {
    const Topo& t = t1[i];
    const engine::Result& st = first.rows[2 * i];
    const engine::Result& sp = first.rows[2 * i + 1];
    if (!st.ok || !sp.ok) continue;  // counted in failed
    const auto ref = check::all_pairs(*t.graph, kWidth);
    auto fail = [&](const std::string& err) {
      if (!err.empty()) rep.fail_check(t.name + ": " + err);
    };
    fail(check::distances(st.diameter, st.mean_hops, ref));
    if (t.lps_p) {
      fail(check::lps_shape(*t.graph, t.lps_p, t.lps_q));
      fail(check::ramanujan(sp.lambda, t.lps_p, t.lps_q));
    }
    BisectionOptions bo;
    bo.restarts = 2;
    bo.seed = seed;
    const auto cut = bisect(*t.graph, bo);
    fail(check::bisection(*t.graph, cut.side, static_cast<std::uint64_t>(st.bisection),
                          sp.fiedler_bisection_lb));
  }
  for (std::size_t i = 0; i < paper.size(); ++i) {
    const Topo& t = paper[i];
    if (t.lps_p) {
      if (auto err = check::lps_shape(*t.graph, t.lps_p, t.lps_q); !err.empty())
        rep.fail_check(t.name + ": " + err);
    }
    const auto& tb = *first.tables[i];
    const auto& nh = *first.nhis[i];
    for (const Vertex dst : sample(rng, t.graph->num_vertices(), 3)) {
      const auto d = check::bfs(*t.graph, dst);
      const auto err = check::next_hops(
          *t.graph, dst, d, sample(rng, t.graph->num_vertices(), 200),
          [&](Vertex u) { return tb.distance(u, dst); },
          [&](Vertex u) { return nh.count(u, dst); });
      if (!err.empty()) rep.fail_check(t.name + " NextHopIndex: " + err);
    }
  }
  for (std::size_t i = 0; i < large.size(); ++i) {
    const Topo& t = large[i];
    if (t.lps_p) {
      if (auto err = check::lps_shape(*t.graph, t.lps_p, t.lps_q); !err.empty())
        rep.fail_check(t.name + ": " + err);
    }
    auto cq = first.cells[i]->make_query(*t.graph);
    std::vector<Vertex> hops;
    for (const Vertex dst : sample(rng, t.graph->num_vertices(), 3)) {
      const auto d = check::bfs(*t.graph, dst);
      cq.prepare(dst);
      const auto srcs = sample(rng, t.graph->num_vertices(), 200);
      const auto err = check::next_hops(
          *t.graph, dst, d, srcs, [&](Vertex u) { return cq.distance(u); },
          [&](Vertex u) {
            hops.clear();
            cq.minimal_next_hops(u, hops);
            return static_cast<std::uint32_t>(hops.size());
          });
      if (!err.empty()) rep.fail_check(t.name + " CellIndex: " + err);
      for (std::size_t k = 0; k < 20; ++k) {
        std::vector<Vertex> path{srcs[k]};
        for (std::uint64_t hop = 0; path.back() != dst && hop < 255; ++hop)
          path.push_back(cq.sample_next_hop(path.back(), split_seed(seed, hop)));
        if (auto err = check::walk(*t.graph, dst, d, path, true); !err.empty()) {
          rep.fail_check(t.name + " CellQuery walk: " + err);
          break;
        }
      }
    }
  }

  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", peak_rss, "MB");
  rep.e2e("run_s", median(round_s), "s");
  if (!o.trace) return;

  // --- per-layer calls, each timed alone on the same topologies ----------
  auto& tr = Tracer::get();
  double cut_edges = 0;
  for (const auto& t : t1) {
    {
      Span span("graph.distance_stats");
      (void)distance_stats(*t.graph);
    }
    {
      Span span("graph.girth");
      (void)girth(*t.graph);
    }
    {
      BisectionOptions bo;
      bo.restarts = 2;
      bo.seed = seed;
      Span span("partition.bisect");
      cut_edges += static_cast<double>(bisect(*t.graph, bo).cut_edges);
    }
    Span span("spectral.spectra");
    (void)compute_spectra(*t.graph);
  }
  double cells = 0, boundary = 0, cell_bytes = 0;
  std::vector<double> prepare_ms, distance_ns;
  for (std::size_t i = 0; i < large.size(); ++i) {
    const Topo& t = large[i];
    {
      const routing::CellIndex::Options co;
      partition::CellPartitionOptions po;
      po.max_cell_size = co.max_cell_size;
      po.seed = co.seed;
      po.restarts = co.restarts;
      po.fm_passes = co.fm_passes;
      Span span("routing.cell.partition");
      (void)partition::recursive_bisection(*t.graph, po);
    }
    const auto& ci = *first.cells[i];
    cells += ci.num_cells();
    boundary += ci.num_boundary();
    cell_bytes += static_cast<double>(ci.memory_bytes());
    auto cq = ci.make_query(*t.graph);
    const Vertex n = t.graph->num_vertices();
    std::uint64_t sink = 0;
    for (const Vertex dst : sample(rng, n, 5)) {
      auto t0 = Clock::now();
      cq.prepare(dst);
      prepare_ms.push_back(since(t0) * 1e3);
      const auto srcs = sample(rng, n, 20000);
      t0 = Clock::now();
      for (const Vertex u : srcs) sink += cq.distance(u);
      distance_ns.push_back(since(t0) * 1e9 / static_cast<double>(srcs.size()));
    }
    tr.add("routing.cell.distance_sum", static_cast<double>(sink));
  }
  rep.layer("analyze_s", median(round_s), "s");
  rep.layer("topo.generate_s", tr.total("topo.generate"), "s");
  rep.layer("topo.routers", tr.counter("topo.routers"), "count");
  rep.layer("topo.links", tr.counter("topo.links"), "count");
  rep.layer("routing.tables.build_s", tr.total("routing.tables.build") / rounds, "s");
  double tb_bytes = 0, nh_bytes = 0, nh_entries = 0;
  for (std::size_t i = 0; i < paper.size(); ++i) {
    tb_bytes += static_cast<double>(first.tables[i]->memory_bytes());
    nh_bytes += static_cast<double>(first.nhis[i]->memory_bytes());
    nh_entries += static_cast<double>(first.nhis[i]->num_entries());
  }
  rep.layer("routing.tables.bytes", tb_bytes, "B");
  rep.layer("routing.tables.builds", static_cast<double>(tables_built) / rounds, "count");
  rep.layer("routing.nhi.build_s", tr.total("routing.nhi.build") / rounds, "s");
  rep.layer("routing.nhi.bytes", nh_bytes, "B");
  rep.layer("routing.nhi.entries", nh_entries, "count");
  rep.layer("routing.nhi.builds", static_cast<double>(nhi_built) / rounds, "count");
  rep.layer("routing.cell.build_s", tr.total("routing.cell.build") / rounds, "s");
  rep.layer("routing.cell.partition_s", tr.total("routing.cell.partition"), "s");
  rep.layer("routing.cell.bytes", cell_bytes, "B");
  rep.layer("routing.cell.cells", cells, "count");
  rep.layer("routing.cell.boundary", boundary, "count");
  rep.layer("routing.cell.builds", static_cast<double>(cells_built) / rounds, "count");
  rep.layer("routing.cell.prepare_ms", median(prepare_ms), "ms");
  rep.layer("routing.cell.distance_ns", median(distance_ns), "ns");
  rep.layer("partition.bisect_s", tr.total("partition.bisect"), "s");
  rep.layer("partition.cut_edges", cut_edges, "count");
  rep.layer("spectral.spectra_s", tr.total("spectral.spectra"), "s");
  rep.layer("graph.distance_stats_s", tr.total("graph.distance_stats"), "s");
  rep.layer("graph.girth_s", tr.total("graph.girth"), "s");
}

}  // namespace pb
