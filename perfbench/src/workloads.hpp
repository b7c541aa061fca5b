#pragma once
// The four workloads of the benchmark.  Each one runs whole rounds of the
// same operations through the library's public entry points until
// --seconds have passed, checks the outputs apart from the program, and
// fills a Report with the end-to-end metrics (and, when traced, the
// per-layer ones).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  // where sflyd and bench_fig6_ugal were built
  std::string out_dir;  // scratch files of this run (journals, snapshot)
};

/// Concurrency of every workload: threads, worker processes and
/// connections together stay within the 4 cores of the reference machine.
inline constexpr unsigned kWidth = 4;

/// The i-th input seed derived from --seed.
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  return sfly::split_seed(seed, 0x9E3779B97F4A7C15ull + i) | 1;
}

/// The four paper-scale topologies of Section VI-B.
struct PaperTopo {
  std::string name;
  std::function<sfly::Graph()> build;
  std::uint32_t concentration = 8;
};
[[nodiscard]] std::vector<PaperTopo> paper_topologies();

void run_sim_campaign(const Options& o, Report& rep);
void run_topo_analysis(const Options& o, Report& rep);
void run_sflyd_queries(const Options& o, Report& rep);
void run_fleet_dispatch(const Options& o, Report& rep);

}  // namespace pb
