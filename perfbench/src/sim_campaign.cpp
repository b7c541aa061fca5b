// sim_campaign: the Fig. 6/8/9 shapes on the four paper-scale Section VI-B
// topologies, run through engine::Campaign with a JSONL journal sink.
//
// Set-up materializes the graphs, all-pairs Tables and NextHopIndex
// (~148 MB, far beyond L2).  Each round then runs the same sweep:
// synthetic patterns under minimal / UGAL-L / Valiant at two loads, a
// slice of Ember motifs, and a slice of mid-run churn, so the simulator
// event loop and next-hop picks do almost all of the work.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/spectralfly_net.hpp"
#include "engine/campaign.hpp"
#include "engine/sink.hpp"
#include "graph/failures.hpp"
#include "proc.hpp"
#include "sim/motifs.hpp"
#include "sim/traffic.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "workloads.hpp"

namespace pb {

using namespace sfly;

std::vector<PaperTopo> paper_topologies() {
  return {
      {"SpectralFly", [] { return topo::lps_graph({23, 13}); }, 8},
      {"DragonFly", [] { return topo::dragonfly_graph({16, 8, 69}); }, 8},
      {"SlimFly", [] { return topo::slimfly_graph({27}); }, 8},
      {"BundleFly",
       [] { return topo::bundlefly_graph({9, 9, topo::BundleShift::kAffine}); }, 6},
  };
}

namespace {

constexpr std::uint32_t kRanks = 1024;
constexpr std::uint32_t kMsgs = 8;
constexpr std::uint32_t kBytes = 4096;
// Seed stream of the engine's churn schedule (engine/engine.cpp); the
// reference re-run must draw the same timeline to compare bitwise.
constexpr std::uint64_t kChurnStream = 0xC4DE;

struct MotifDef {
  std::string name;
  std::function<std::unique_ptr<sim::Motif>()> make;
  std::uint64_t messages;
};

std::vector<MotifDef> motif_defs() {
  return {
      {"Halo3D26(8,8,8,2)",
       [] { return std::make_unique<sim::Halo3D26>(8, 8, 8, 2); },
       check::halo3d26_messages(8, 8, 8, 2)},
      {"FFT(16,16)", [] { return std::make_unique<sim::FftAllToAll>(16, 16, 2048); },
       check::fft_messages(16, 16)},
  };
}

std::vector<ChurnSpec> churn_levels() {
  ChurnSpec links;  // two links fail and come back
  links.link_kills = 2;
  links.start_ns = 1000.0;
  links.window_ns = 4000.0;
  links.repair_ns = 20000.0;
  ChurnSpec router;  // one router fails for good
  router.router_kills = 1;
  router.start_ns = 1000.0;
  router.window_ns = 4000.0;
  return {links, router};
}

// Times every call into the wrapped sink (the journal writer).
class TimedSink final : public engine::ResultSink {
 public:
  explicit TimedSink(engine::ResultSink& inner) : inner_(inner) {}
  void meta(const engine::BatchMeta& m) override { timed([&] { inner_.meta(m); }); }
  void begin(std::size_t total) override { timed([&] { inner_.begin(total); }); }
  void consume(const engine::SimResult& r) override {
    timed([&] { inner_.consume(r); });
  }
  void end() override { timed([&] { inner_.end(); }); }
  [[nodiscard]] bool wants_replay() const override { return inner_.wants_replay(); }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  template <class F>
  void timed(F&& f) {
    Span span("engine.sink");
    const auto t0 = Clock::now();
    f();
    seconds_ += since(t0);
  }
  engine::ResultSink& inner_;
  double seconds_ = 0.0;
};

// The scenario evaluation the engine performs, written out against the
// public Network/Simulator API so a row can be reproduced outside it.
// Spans are recorded for request ids > 0 only (the traced re-evaluation),
// not for the reference re-runs of the checks.
engine::SimResult simulate(const core::Network& net, const engine::SimScenario& s,
                           std::uint64_t request) {
  const bool spans = request > 0;
  engine::SimResult r;
  r.topology = s.topology;
  r.label = s.label;
  std::unique_ptr<sim::Simulator> simr;
  {
    Span span("sim.setup", request, spans);
    simr = net.make_simulator(s.seed);
    if (s.churn.any())
      simr->inject_failures(make_failure_schedule(
          net.topology(), s.churn, split_seed(s.seed, kChurnStream)));
  }
  r.diameter = net.diameter();
  const engine::Workload& w = s.workload;
  {
    Span span("sim.run", request, spans);
    if (w.motif) {
      auto motif = w.motif();
      const auto res = sim::run_motif(*simr, *motif, s.seed, w.motif_compute_ns);
      r.completion_ns = res.completion_ns;
      r.messages = res.messages;
      r.mean_latency_ns = res.mean_latency_ns;
      r.max_latency_ns = simr->message_latency().max();
      r.p99_latency_ns = simr->message_latency().percentile(0.99);
    } else {
      sim::SyntheticLoad load;
      load.pattern = w.pattern;
      load.nranks = w.nranks;
      load.message_bytes = w.message_bytes;
      load.messages_per_rank = w.messages_per_rank;
      load.offered_load = w.offered_load;
      load.seed = s.seed;
      load.placement = w.placement;
      const auto res = run_synthetic(*simr, load);
      r.max_latency_ns = res.max_latency_ns;
      r.mean_latency_ns = res.mean_latency_ns;
      r.p99_latency_ns = res.p99_latency_ns;
      r.completion_ns = res.completion_ns;
      r.messages = res.messages;
    }
  }
  r.events = simr->events_processed();
  r.packets = simr->packets_forwarded();
  r.reroutes = simr->packets_rerouted();
  r.drops = simr->packets_dropped();
  const std::size_t scheduled = simr->messages().size();
  r.delivered = scheduled ? static_cast<double>(simr->messages_delivered()) /
                                static_cast<double>(scheduled)
                          : 1.0;
  if (simr->first_failure_ns() < std::numeric_limits<double>::infinity())
    r.post_churn_p99_ns =
        simr->latency_since(simr->first_failure_ns()).percentile(0.99);
  r.ok = true;
  return r;
}

core::NetworkOptions network_options(const engine::SimScenario& s,
                                     std::uint32_t concentration) {
  core::NetworkOptions opts;
  opts.concentration = concentration;
  opts.routing = s.algo;
  opts.vcs = s.vcs;
  opts.sim = engine::EngineConfig{}.sim;
  return opts;
}

// One round's campaign: three phases over the registered topologies.
void declare(engine::Campaign& camp, const std::vector<PaperTopo>& topos,
             std::uint64_t seed) {
  // Builders are left empty: the topologies are registered (and their
  // artifacts materialized) once, in set-up.
  std::vector<engine::TopologySpec> specs;
  for (const auto& t : topos) specs.push_back({t.name, {}, t.concentration});

  engine::CampaignBuilder synth;
  synth.patterns({sim::Pattern::kRandom, sim::Pattern::kTranspose})
      .algos({routing::Algo::kMinimal, routing::Algo::kUgalL, routing::Algo::kValiant})
      .loads({0.3, 0.7})
      .topologies(specs)
      .each([seed](engine::Scenario& s) {
        s.workload.nranks = kRanks;
        s.workload.messages_per_rank = kMsgs;
        s.workload.message_bytes = kBytes;
        s.seed = derive(seed, 1);
      });
  camp.sims("synthetic", std::move(synth));

  std::vector<engine::MotifSpec> motifs;
  for (auto& m : motif_defs()) motifs.push_back({m.name, m.make});
  engine::CampaignBuilder mot;
  mot.motifs(motifs).topologies(specs).each([seed](engine::Scenario& s) {
    s.algo = routing::Algo::kMinimal;
    s.seed = derive(seed, 2);
  });
  camp.sims("motifs", std::move(mot));

  engine::CampaignBuilder churn;
  churn.churns(churn_levels()).topologies(specs).each([seed](engine::Scenario& s) {
    s.algo = routing::Algo::kUgalL;
    s.workload.offered_load = 0.5;
    s.workload.nranks = kRanks;
    s.workload.messages_per_rank = kMsgs;
    s.workload.message_bytes = kBytes;
    s.seed = derive(seed, 3);
  });
  camp.sims("churn", std::move(churn));
}

}  // namespace

void run_sim_campaign(const Options& o, Report& rep) {
  const auto topos = paper_topologies();
  engine::Engine eng;  // default width: every hardware thread

  // --- set-up: graphs, Tables, NextHopIndex ------------------------------
  std::size_t table_bytes = 0, nhi_bytes = 0, nhi_entries = 0;
  const auto tables0 = routing::Tables::builds();
  const auto nhi0 = routing::NextHopIndex::builds();
  {
    Span setup("setup");
    for (const auto& t : topos) {
      eng.register_topology(
          t.name,
          [build = t.build] {
            Span span("topo.generate");
            Graph g = build();
            Tracer::get().add("topo.routers", g.num_vertices());
            Tracer::get().add("topo.links", static_cast<double>(g.num_edges()));
            return g;
          },
          t.concentration);
      auto art = eng.artifacts().get(t.name);
      (void)art->graph();
      {
        Span span("routing.tables.build");
        table_bytes += art->tables()->memory_bytes();
      }
      {
        Span span("routing.nhi.build");
        const auto nh = art->next_hops();
        nhi_bytes += nh->memory_bytes();
        nhi_entries += nh->num_entries();
      }
    }
  }
  const double setup_s = since(process_start());
  const auto tables_built = routing::Tables::builds() - tables0;
  const auto nhi_built = routing::NextHopIndex::builds() - nhi0;

  // --- timed rounds ------------------------------------------------------
  const std::string journal_path = o.out_dir + "/sim_campaign.jsonl";
  std::vector<double> round_s, eval_s, sink_s;
  std::string first_journal;
  std::vector<engine::SimScenario> scenarios;
  std::vector<engine::SimResult> first_rows;
  bool rounds_identical = true;
  const auto t_measure = Clock::now();
  do {
    engine::Campaign camp(eng, "sim_campaign");
    declare(camp, topos, o.seed);
    std::FILE* f = std::fopen(journal_path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + journal_path);
    engine::JsonlSink jsonl(f);
    TimedSink timed(jsonl);
    const auto t0 = Clock::now();
    {
      Span span("sweep");
      camp.run({&timed});
    }
    round_s.push_back(since(t0));
    engine::checked_close(f, "sim_campaign journal");
    sink_s.push_back(timed.seconds());

    double eval = 0.0;
    std::vector<engine::SimResult> rows;
    for (const auto& ph : camp.phases()) {
      for (const auto& r : ph->sim_results()) {
        eval += r.wall_ms / 1e3;
        rows.push_back(r);
        ++rep.attempted;
        if (!r.ok) ++rep.failed;
      }
      if (round_s.size() == 1)
        scenarios.insert(scenarios.end(), ph->sims().begin(), ph->sims().end());
    }
    eval_s.push_back(eval);
    const std::string journal = read_file(journal_path);
    if (round_s.size() == 1) {
      first_journal = journal;
      first_rows = std::move(rows);
    } else if (journal != first_journal) {
      rounds_identical = false;
    }
  } while (since(t_measure) < o.seconds);
  const double peak_rss = self_peak_rss_mb();

  // --- checks ------------------------------------------------------------
  const auto sim_cfg = engine::EngineConfig{}.sim;
  std::map<std::string, std::int32_t> bfs_diameter;
  for (const auto& t : topos)
    bfs_diameter[t.name] =
        check::all_pairs(*eng.artifacts().get(t.name)->graph(), kWidth).diameter;
  const auto motifs = motif_defs();
  for (std::size_t i = 0; i < first_rows.size(); ++i) {
    const auto& s = scenarios[i];
    check::SimExpect e;
    e.churn = s.churn.any();
    e.diameter = bfs_diameter[s.topology];
    if (s.workload.motif) {
      for (const auto& m : motifs)
        if (m.name == s.label) e.expected_messages = m.messages;
    } else {
      e.expected_messages =
          static_cast<std::uint64_t>(s.workload.nranks) * s.workload.messages_per_rank;
      e.zero_load = check::zero_load_ns(sim_cfg, s.workload.message_bytes);
    }
    if (auto err = check::sim_row(first_rows[i], e); !err.empty()) rep.fail_check(err);
  }
  if (!rounds_identical) rep.fail_check("a later round's journal differs from the first");

  // A seeded sample re-run through a separately built Network, one thread.
  Rng pick(derive(o.seed, 4));
  for (int k = 0; k < 3; ++k) {
    const std::size_t i = uniform_below(pick, scenarios.size());
    const auto& s = scenarios[i];
    const auto& def =
        *std::find_if(topos.begin(), topos.end(),
                      [&](const PaperTopo& t) { return t.name == s.topology; });
    const auto net = core::Network::from_graph(
        s.topology, *eng.artifacts().get(s.topology)->graph(),
        network_options(s, def.concentration));
    auto ref = simulate(net, s, 0);
    ref.index = first_rows[i].index;
    if (auto err = check::same_row(first_rows[i], ref); !err.empty())
      rep.fail_check("separately built Network: " + err);
  }

  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", peak_rss, "MB");
  rep.e2e("run_s", median(round_s), "s");
  if (!o.trace) return;

  // --- traced re-evaluation: Artifacts::make_network -> make_simulator ->
  // run_synthetic / run_motif on kWidth threads, bitwise against the rows.
  std::vector<engine::SimResult> again(scenarios.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < scenarios.size();) {
      const auto& s = scenarios[i];
      auto art = eng.artifacts().get(s.topology);
      core::Network net = [&] {
        Span span("artifacts.make_network", i + 1);
        return art->make_network(s.topology, network_options(s, art->concentration()));
      }();
      again[i] = simulate(net, s, i + 1);
      again[i].index = first_rows[i].index;
    }
  };
  {
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < kWidth; ++t) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
  }
  double events = 0, packets = 0, messages = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (auto err = check::same_row(first_rows[i], again[i]); !err.empty())
      rep.fail_check("traced re-evaluation: " + err);
    events += static_cast<double>(again[i].events);
    packets += static_cast<double>(again[i].packets);
    messages += static_cast<double>(again[i].messages);
  }
  auto& tr = Tracer::get();
  rep.layer("sweep_s", median(round_s), "s");
  rep.layer("topo.generate_s", tr.total("topo.generate"), "s");
  rep.layer("topo.routers", tr.counter("topo.routers"), "count");
  rep.layer("topo.links", tr.counter("topo.links"), "count");
  rep.layer("routing.tables.build_s", tr.total("routing.tables.build"), "s");
  rep.layer("routing.tables.bytes", static_cast<double>(table_bytes), "B");
  rep.layer("routing.tables.builds",
            static_cast<double>(tables_built), "count");
  rep.layer("routing.nhi.build_s", tr.total("routing.nhi.build"), "s");
  rep.layer("routing.nhi.bytes", static_cast<double>(nhi_bytes), "B");
  rep.layer("routing.nhi.entries", static_cast<double>(nhi_entries), "count");
  rep.layer("routing.nhi.builds",
            static_cast<double>(nhi_built), "count");
  const double run = tr.total("sim.run");
  rep.layer("sim.setup_s", tr.total("sim.setup"), "s");
  rep.layer("sim.run_s", run, "s");
  rep.layer("sim.events", events, "count");
  rep.layer("sim.packets", packets, "count");
  rep.layer("sim.messages", messages, "count");
  rep.layer("sim.ns_per_event", events > 0 ? run * 1e9 / events : 0.0, "ns");
  rep.layer("engine.eval_s", median(eval_s), "s");
  rep.layer("engine.sink_s", median(sink_s), "s");
  rep.layer("engine.journal_bytes", static_cast<double>(first_journal.size()), "B");
}

}  // namespace pb
