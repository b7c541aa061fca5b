#pragma once
// Output checks of the benchmark, computed apart from the program: the
// benchmark's own BFS, closed forms of the topologies, bounds the method
// must respect, and recounts of what the program reports.  Every check
// returns an empty string when the output passes and a one-line reason
// when it does not; perfbench_selftest feeds each one a corrupted output
// to show that it can fail.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "graph/graph.hpp"
#include "sim/simulator.hpp"

namespace pb::check {

using sfly::Graph;
using sfly::Vertex;
using Dist = std::vector<std::int32_t>;

/// Hop distances from `src` by breadth-first search (-1 = unreachable).
[[nodiscard]] Dist bfs(const Graph& g, Vertex src);

struct AllPairs {
  std::int32_t diameter = 0;
  double mean_hops = 0.0;  // over ordered pairs u != v
  bool connected = true;
};
/// All-pairs BFS on up to `threads` std::threads.
[[nodiscard]] AllPairs all_pairs(const Graph& g, unsigned threads);

// --- sim_campaign -----------------------------------------------------------

/// Lower bound on any message's latency with no other traffic: the whole
/// message serializes through the injection link, the last packet crosses
/// one link and one router, then serializes through the ejection link and
/// the NIC (0 network hops; more hops only add).
[[nodiscard]] double zero_load_ns(const sfly::sim::SimConfig& cfg,
                                  std::uint32_t message_bytes);

/// What a simulation row must satisfy.  `expected_messages` is the number
/// of messages the workload schedules; `zero_load` is 0 to skip that bound
/// (motif rows mix message sizes).
struct SimExpect {
  std::uint64_t expected_messages = 0;
  bool churn = false;
  double zero_load = 0.0;
  std::int32_t diameter = 0;
};
[[nodiscard]] std::string sim_row(const sfly::engine::SimResult& r,
                                  const SimExpect& e);

/// Message counts of the Ember motifs, from their definitions: Halo3D-26
/// sends to 26 neighbours per rank and iteration; the FFT all-to-alls send
/// to every other member of the row, then of the column.
[[nodiscard]] std::uint64_t halo3d26_messages(std::uint64_t nx, std::uint64_t ny,
                                              std::uint64_t nz, std::uint64_t iters);
[[nodiscard]] std::uint64_t fft_messages(std::uint64_t px, std::uint64_t py);

/// Every metric field of two rows is bitwise equal (wall_ms excluded).
[[nodiscard]] std::string same_row(const sfly::engine::SimResult& a,
                                   const sfly::engine::SimResult& b);

// --- topo_analysis ----------------------------------------------------------

[[nodiscard]] std::string distances(double diameter, double mean_hops,
                                    const AllPairs& ref);
/// Closed-form LPS(p,q) vertex count q(q^2-1)/2 when p is a square mod q,
/// q(q^2-1) otherwise, and (p+1)-regularity.
[[nodiscard]] std::string lps_shape(const Graph& g, std::uint64_t p,
                                    std::uint64_t q);
/// lambda <= 2 sqrt(p) whenever q > 2 sqrt(p) (the Ramanujan range).
[[nodiscard]] std::string ramanujan(double lambda, std::uint64_t p,
                                    std::uint64_t q);
/// The side vector cuts exactly `reported_cut` edges, its parts differ by
/// at most one vertex, and the Fiedler bound does not exceed the cut.
[[nodiscard]] std::string bisection(const Graph& g,
                                    const std::vector<std::uint8_t>& side,
                                    std::uint64_t reported_cut,
                                    double fiedler_lb);
/// For each sampled source u toward `dst` (distances `d` from a BFS at
/// dst): the reported distance equals d[u] and the reported count of
/// minimal next hops equals the recount of neighbours one hop closer.
[[nodiscard]] std::string next_hops(
    const Graph& g, Vertex dst, const Dist& d, const std::vector<Vertex>& srcs,
    const std::function<std::uint32_t(Vertex)>& reported_distance,
    const std::function<std::uint32_t(Vertex)>& reported_count);

/// A walk `path` from path.front() to `dst`: consecutive vertices are
/// adjacent and it ends at dst.  With `minimal`, its length equals the
/// BFS distance d[path.front()].
[[nodiscard]] std::string walk(const Graph& g, Vertex dst, const Dist& d,
                               const std::vector<Vertex>& path, bool minimal);

// --- sflyd_queries ----------------------------------------------------------

/// A route answer: src->dst walk along edges; minimal (and zero-load UGAL)
/// routes have BFS length; a Valiant route walks a minimal path toward its
/// intermediate, reaches it after d(src,mid) hops and then takes d(mid,dst)
/// more — unless it meets dst on the way there, where it is delivered (the
/// simulator ejects such packets at dst too).
struct RouteAnswer {
  Vertex src = 0, dst = 0;
  bool valiant = false;
  Vertex intermediate = 0;
  std::vector<Vertex> path;
};
[[nodiscard]] std::string route(const Graph& g, const RouteAnswer& a,
                                const Dist& to_dst, const Dist& to_mid,
                                bool expect_valiant);

/// One ranked entry as the daemon reports it.
struct RankEntry {
  std::string name;
  bool fits = false;
  double mu1 = 0.0;
  double mean_hops = 0.0;
};
/// Fits first, then mu1 descending, mean hops ascending, name ascending.
[[nodiscard]] std::string rank_order(const std::vector<RankEntry>& e);

/// The daemon's stats after the warm start: its query count equals the
/// queries sent (this stats query included), nothing failed, and no
/// routing artifact was rebuilt.
struct StatsAnswer {
  std::uint64_t queries = 0, errors = 0;
  std::uint64_t tables_built = 0, index_built = 0, cells_built = 0;
};
[[nodiscard]] std::string stats(const StatsAnswer& s, std::uint64_t sent);

// --- fleet_dispatch ---------------------------------------------------------

/// Byte identity of two outputs (first differing offset in the reason).
[[nodiscard]] std::string same_bytes(const std::string& what,
                                     const std::string& a,
                                     const std::string& b);
/// A campaign journal: batch header lines announce "scenarios":N and are
/// followed by rows "index":0..N-1, in order, each "ok":true.
[[nodiscard]] std::string journal(const std::string& text,
                                  std::uint64_t expected_rows);

}  // namespace pb::check
