// sflyd_queries: a warm-started sflyd answering a seeded, closed-loop query
// mix over loopback.
//
// Set-up runs a cold sflyd that builds the artifacts and writes the
// snapshot, then starts a second sflyd from that snapshot (mmap, no
// rebuild) and waits for its first `stats` answer.  Each round sends the
// same seeded list of queries over kConnections connections, each one
// waiting for its answer before sending the next (closed loop): mostly
// exact-mode routes (minimal / UGAL-L / Valiant), cell-mode routes on
// LPS(5,29) (12,180 routers, above 4096), small `sim` queries, 2-topology
// `rank` queries and one `stats`.  The counts are set so that each kind
// takes a comparable share of a round, so a change to any one of their
// paths moves the round time.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "proc.hpp"
#include "service/json.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "topo/factory.hpp"
#include "util/net.hpp"
#include "workloads.hpp"

namespace pb {

using namespace sfly;

namespace {

constexpr unsigned kConnections = 2;
constexpr unsigned kServerThreads = kWidth - kConnections;

// Daemon topologies: three paper-scale ones served from exact tables, one
// above engine::kCellExactThreshold served from a CellIndex.
const char* const kExact[] = {"LPS(23,13)", "DF(16,8,69)", "SF(27)"};
const char* const kCell[] = {"LPS(5,29)"};

constexpr int kRoutesPerRound = 1200;
constexpr int kCellRoutesPerRound = 6;
constexpr int kSimsPerRound = 2;
constexpr int kRanksPerRound = 2;

enum class Kind { kRoute, kCellRoute, kSim, kRank, kStats };

struct Query {
  Kind kind;
  std::string topo;  // canonical name (route / cell route / sim)
  std::string algo;
  std::uint64_t src = 0, dst = 0;
  std::string request;  // the frame payload
};

std::string quote(const std::string& s) { return "\"" + s + "\""; }

// Canonical names as the daemon reports them.
std::string canonical(const std::string& spec) {
  return topo::parse_topology(spec).name;
}

std::vector<Query> make_round(std::uint64_t seed,
                              const std::map<std::string, Vertex>& sizes) {
  Rng rng(seed);
  const char* const algos[] = {"minimal", "ugal-l", "valiant"};
  std::vector<Query> heavy, routes;
  auto route = [&](Kind kind, const std::string& topo) {
    Query q;
    q.kind = kind;
    q.topo = topo;
    q.algo = algos[uniform_below(rng, 3)];
    const Vertex n = sizes.at(topo);
    q.src = uniform_below(rng, n);
    do q.dst = uniform_below(rng, n);
    while (q.dst == q.src);
    q.request = "\"kind\":\"route\",\"topo\":" + quote(topo) + ",\"src\":" +
                std::to_string(q.src) + ",\"dst\":" + std::to_string(q.dst) +
                ",\"algo\":" + quote(q.algo) +
                ",\"seed\":" + std::to_string(uniform_below(rng, 1u << 30));
    return q;
  };
  for (int i = 0; i < kRoutesPerRound; ++i)
    routes.push_back(route(Kind::kRoute, canonical(kExact[i % 3])));
  for (int i = 0; i < kCellRoutesPerRound; ++i)
    heavy.push_back(route(Kind::kCellRoute, canonical(kCell[0])));
  for (int i = 0; i < kSimsPerRound; ++i) {
    Query q;
    q.kind = Kind::kSim;
    q.topo = canonical(kExact[i % 3]);
    q.request = "\"kind\":\"sim\",\"topo\":" + quote(q.topo) +
                ",\"algo\":\"ugal-l\",\"pattern\":\"random\",\"load\":0.5" +
                ",\"nranks\":1024,\"messages\":4,\"seed\":" +
                std::to_string(uniform_below(rng, 1u << 30));
    heavy.push_back(q);
  }
  for (int i = 0; i < kRanksPerRound; ++i) {
    Query q;
    q.kind = Kind::kRank;
    const std::string a = canonical(kExact[i % 3]), b = canonical(kExact[(i + 1) % 3]);
    q.request = "\"kind\":\"rank\",\"topos\":[" + quote(a) + "," + quote(b) +
                "],\"job_size\":" + std::to_string(1024 + uniform_below(rng, 8192));
    heavy.push_back(q);
  }
  Query stats;
  stats.kind = Kind::kStats;
  stats.request = "\"kind\":\"stats\"";
  heavy.push_back(stats);

  // Spread the heavy queries evenly through the routes so both connections
  // carry the same mix.
  std::vector<Query> out;
  const std::size_t every = routes.size() / heavy.size();
  std::size_t h = 0;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i % every == 0 && h < heavy.size()) out.push_back(heavy[h++]);
    out.push_back(routes[i]);
  }
  while (h < heavy.size()) out.push_back(heavy[h++]);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i].request = "{\"id\":" + std::to_string(i + 1) + "," + out[i].request + "}";
  return out;
}

// One closed-loop client connection over the frame protocol.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = net::tcp_connect("127.0.0.1", port);
    if (fd_ < 0) throw std::runtime_error("cannot connect to sflyd");
    if (!net::send_frame(fd_, net::FrameType::kHello, 0, net::hello_payload("query")))
      throw std::runtime_error("HELLO failed");
    net::Frame f;
    if (!net::read_frame_blocking(fd_, f, reader_, 60000) ||
        f.type != net::FrameType::kWelcome)
      throw std::runtime_error("no WELCOME from sflyd");
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string ask(const std::string& request) {
    if (!net::send_frame(fd_, net::FrameType::kData, seq_++, request))
      throw std::runtime_error("send to sflyd failed");
    net::Frame f;
    if (!net::read_frame_blocking(fd_, f, reader_, 120000) ||
        f.type != net::FrameType::kData)
      throw std::runtime_error("no answer from sflyd");
    return f.payload;
  }

 private:
  int fd_ = -1;
  std::uint32_t seq_ = 1;
  net::FrameReader reader_;
};

// Minimal readers for the daemon's flat answers (the checks do not use the
// program's own JSON scanner).
bool find_raw(const std::string& s, const std::string& key, std::string& out,
              std::size_t from = 0) {
  const std::string k = "\"" + key + "\":";
  const auto at = s.find(k, from);
  if (at == std::string::npos) return false;
  const auto b = at + k.size();
  const auto e = s.find_first_of(",}]", b);
  out = s.substr(b, e - b);
  return true;
}

std::uint64_t u64(const std::string& s, const std::string& key) {
  std::string v;
  if (!find_raw(s, key, v)) throw std::runtime_error("answer lacks " + key + ": " + s);
  return std::stoull(v);
}

bool ok(const std::string& answer) {
  std::string v;
  return find_raw(answer, "ok", v) && v == "true";
}

check::RouteAnswer parse_route(const std::string& s) {
  check::RouteAnswer a;
  a.src = static_cast<Vertex>(u64(s, "src"));
  a.dst = static_cast<Vertex>(u64(s, "dst"));
  std::string v;
  a.valiant = find_raw(s, "valiant", v) && v == "true";
  if (a.valiant) a.intermediate = static_cast<Vertex>(u64(s, "intermediate"));
  const auto p = s.find("\"path\":[");
  if (p == std::string::npos) throw std::runtime_error("route answer lacks a path");
  for (std::size_t i = p + 8; i < s.size() && s[i] != ']';) {
    std::size_t used = 0;
    a.path.push_back(static_cast<Vertex>(std::stoul(s.substr(i), &used)));
    i += used;
    if (s[i] == ',') ++i;
  }
  return a;
}

std::vector<check::RankEntry> parse_rank(const std::string& s) {
  std::vector<check::RankEntry> out;
  for (std::size_t at = s.find("{\"topology\":"); at != std::string::npos;
       at = s.find("{\"topology\":", at + 1)) {
    check::RankEntry e;
    const auto b = at + 13;
    e.name = s.substr(b, s.find('"', b) - b);
    std::string v;
    find_raw(s, "fits", v, at);
    e.fits = v == "true";
    find_raw(s, "mu1", v, at);
    e.mu1 = std::stod(v);
    find_raw(s, "mean_hops", v, at);
    e.mean_hops = std::stod(v);
    out.push_back(e);
  }
  return out;
}

std::uint16_t wait_port(const std::string& path, pid_t daemon) {
  for (int i = 0; i < 60000; ++i) {
    const std::string s = read_file(path);
    if (!s.empty() && s.back() == '\n') return static_cast<std::uint16_t>(std::stoul(s));
    ExitInfo info;
    if (try_reap(daemon, info))
      throw std::runtime_error("sflyd exited with " + std::to_string(info.status));
    nap(0.001);
  }
  throw std::runtime_error("sflyd never published its port");
}

}  // namespace

void run_sflyd_queries(const Options& o, Report& rep) {
  const std::string sflyd = o.bin_dir + "/sflyd";
  const std::string snap = o.out_dir + "/sflyd.snap";
  const std::string port_file = o.out_dir + "/sflyd.port";
  // The snapshot goes when the run ends, so the next run does not share
  // the disk with its write-back.
  struct Unlink {
    std::string path;
    ~Unlink() { ::unlink(path.c_str()); }
  } remove_snapshot{snap};
  std::string specs;
  for (const char* s : kExact) specs += std::string(specs.empty() ? "" : ",") + s;
  for (const char* s : kCell) specs += std::string(",") + s;

  // --- set-up: cold build + snapshot, warm start, first stats answer -----
  double peak_rss = 0.0;
  pid_t daemon = -1;
  std::unique_ptr<Conn> probe;
  std::uint64_t sent = 0;
  std::string first_stats;
  {
    Span setup("setup");
    {
      Span span("service.cold_build");
      const pid_t build = spawn({sflyd, "--topos", specs, "--save-snapshot", snap,
                                 "--build-only", "--threads",
                                 std::to_string(kServerThreads)},
                                o.out_dir + "/sflyd-build.out",
                                o.out_dir + "/sflyd-build.err");
      const ExitInfo info = wait_for(build, 150.0);
      if (info.status != 0)
        throw std::runtime_error("cold sflyd build exited with " +
                                 std::to_string(info.status) + ": " +
                                 read_file(o.out_dir + "/sflyd-build.err"));
      peak_rss = std::max(peak_rss, info.peak_rss_mb);
    }
    Span span("service.warm_start");
    ::unlink(port_file.c_str());
    daemon = spawn({sflyd, "--snapshot", snap, "--port", "0", "--threads",
                    std::to_string(kServerThreads)},
                   o.out_dir + "/sflyd.out", o.out_dir + "/sflyd.err",
                   {"SFLY_LISTEN_PORT_FILE=" + port_file});
    probe = std::make_unique<Conn>(wait_port(port_file, daemon));
    first_stats = probe->ask("{\"id\":1,\"kind\":\"stats\"}");
    ++sent;
  }
  const double setup_s = since(process_start());
  const std::uint16_t port = wait_port(port_file, daemon);

  // An in-process view of the same snapshot: vertex counts for the round
  // inputs here, reference answers and graphs for the checks later.
  service::QueryEngine local;
  double open_s = 0.0, snapshot_bytes = 0.0;
  {
    const auto t0 = Clock::now();
    Span span("service.snapshot_open");
    auto s = service::Snapshot::open(snap);
    service::Snapshot::load_into(s, local.engine().artifacts());
    open_s = since(t0);
    snapshot_bytes = static_cast<double>(s->size_bytes());
  }
  std::map<std::string, Vertex> sizes;
  for (const auto& name : local.engine().artifacts().names())
    sizes[name] = local.engine().artifacts().get(name)->graph()->num_vertices();
  const std::vector<Query> round = make_round(derive(o.seed, 1), sizes);

  // --- timed rounds: kConnections closed loops over the same list --------
  std::vector<std::unique_ptr<Conn>> conns;
  for (unsigned c = 0; c < kConnections; ++c) conns.push_back(std::make_unique<Conn>(port));
  std::vector<std::string> first_answers(round.size());
  std::map<Kind, std::vector<double>> rtt;  // seconds, every round
  std::vector<double> round_s;
  bool rounds_identical = true;
  double loop_s = 0.0;
  std::uint64_t answered = 0;
  const auto t_measure = Clock::now();
  do {
    std::vector<std::string> answers(round.size());
    std::vector<std::vector<std::pair<Kind, double>>> times(kConnections);
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    std::vector<std::string> errors(kConnections);
    for (unsigned c = 0; c < kConnections; ++c)
      clients.emplace_back([&, c] {
        try {
          for (std::size_t i = c; i < round.size(); i += kConnections) {
            Span span("service.query", i + 1);
            const auto q0 = Clock::now();
            answers[i] = conns[c]->ask(round[i].request);
            times[c].push_back({round[i].kind, since(q0)});
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (auto& t : clients) t.join();
    round_s.push_back(since(t0));
    for (const auto& e : errors)
      if (!e.empty()) throw std::runtime_error(e);
    for (const auto& per : times)
      for (const auto& [k, s] : per) rtt[k].push_back(s);
    for (std::size_t i = 0; i < round.size(); ++i) {
      ++rep.attempted;
      if (!ok(answers[i])) ++rep.failed;
      if (round_s.size() == 1)
        first_answers[i] = answers[i];
      else if (round[i].kind != Kind::kStats && answers[i] != first_answers[i])
        rounds_identical = false;
    }
    sent += round.size();
    answered += round.size();
  } while (since(t_measure) < o.seconds);
  loop_s = since(t_measure);
  conns.clear();

  const std::string last_stats = probe->ask("{\"id\":1,\"kind\":\"stats\"}");
  ++sent;
  probe.reset();
  const ExitInfo dinfo = stop(daemon, 10.0);
  peak_rss = std::max(peak_rss, dinfo.peak_rss_mb);

  // --- checks -----------------------------------------------------------
  auto stats_of = [](const std::string& a) {
    check::StatsAnswer s;
    s.queries = u64(a, "queries");
    s.errors = u64(a, "errors");
    s.tables_built = u64(a, "tables_built");
    s.index_built = u64(a, "index_built");
    s.cells_built = u64(a, "cells_built");
    return s;
  };
  if (auto err = check::stats(stats_of(first_stats), 1); !err.empty())
    rep.fail_check("first stats: " + err);
  if (auto err = check::stats(stats_of(last_stats), sent); !err.empty())
    rep.fail_check("last stats: " + err);
  if (!rounds_identical) rep.fail_check("a later round answered differently");

  std::map<std::pair<std::string, Vertex>, check::Dist> bfs_cache;
  auto dist = [&](const std::string& topo, Vertex v) -> const check::Dist& {
    auto& d = bfs_cache[{topo, v}];
    if (d.empty()) d = check::bfs(*local.engine().artifacts().get(topo)->graph(), v);
    return d;
  };
  std::map<std::string, double> mean_hops;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Query& q = round[i];
    const std::string& a = first_answers[i];
    if (!ok(a)) continue;  // counted in failed
    const std::string at = "query " + std::to_string(i + 1) + ": ";
    if (q.kind == Kind::kRoute || q.kind == Kind::kCellRoute) {
      const auto r = parse_route(a);
      const Graph& g = *local.engine().artifacts().get(q.topo)->graph();
      const auto& to_dst = dist(q.topo, r.dst);
      const check::Dist none;
      const auto& to_mid = r.valiant ? dist(q.topo, r.intermediate) : none;
      if (r.src != q.src || r.dst != q.dst)
        rep.fail_check(at + "route answers another pair");
      else if (auto err = check::route(g, r, to_dst, to_mid, q.algo == "valiant");
               !err.empty())
        rep.fail_check(at + q.topo + " " + q.algo + ": " + err);
    } else if (q.kind == Kind::kSim) {
      if (auto err = check::same_bytes("sim answer and in-process handle",
                                       a, local.handle(q.request));
          !err.empty())
        rep.fail_check(at + err);
    } else if (q.kind == Kind::kRank) {
      const auto entries = parse_rank(a);
      if (entries.size() != 2) rep.fail_check(at + "rank lists " +
                                              std::to_string(entries.size()) +
                                              " topologies, 2 were asked");
      if (auto err = check::rank_order(entries); !err.empty()) rep.fail_check(at + err);
      for (const auto& e : entries) {
        auto it = mean_hops.find(e.name);
        if (it == mean_hops.end())
          it = mean_hops
                   .emplace(e.name, check::all_pairs(
                                        *local.engine().artifacts().get(e.name)->graph(),
                                        kWidth)
                                        .mean_hops)
                   .first;
        if (std::fabs(e.mean_hops - it->second) > 1e-9 * it->second)
          rep.fail_check(at + e.name + " mean hops " + std::to_string(e.mean_hops) +
                         ", BFS says " + std::to_string(it->second));
      }
    }
  }

  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", peak_rss, "MB");
  rep.e2e("run_s", median(round_s), "s");
  if (!o.trace) return;

  // --- per-layer: the same requests through an in-process handle --------
  std::map<Kind, std::vector<double>> handle_us;
  std::vector<double> parse_us;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Query& q = round[i];
    if (q.kind == Kind::kStats) continue;
    auto t0 = Clock::now();
    service::JsonObject obj;
    (void)service::JsonObject::scan(q.request, obj);
    parse_us.push_back(since(t0) * 1e6);
    Span span("service.handle", i + 1);
    t0 = Clock::now();
    (void)local.handle(q.request);
    handle_us[q.kind].push_back(since(t0) * 1e6);
  }
  double write_s = 0.0;
  {
    const std::string again = o.out_dir + "/sflyd-rewrite.snap";
    const auto t0 = Clock::now();
    Span span("service.snapshot_write");
    service::write_snapshot(again, local.engine().artifacts());
    write_s = since(t0);
    ::unlink(again.c_str());
  }

  auto us = [&](Kind k) { return median(rtt[k]) * 1e6; };
  auto ms = [&](Kind k) { return median(rtt[k]) * 1e3; };
  const auto& routes = rtt[Kind::kRoute];
  rep.layer("queries_per_s", static_cast<double>(answered) / loop_s, "1/s");
  rep.layer("route_p50_us", us(Kind::kRoute), "us");
  // A p99 needs at least ten samples beyond it.
  rep.layer("route_p99_us", routes.size() >= 1000 ? percentile(routes, 0.99) * 1e6 : 0.0,
            "us");
  rep.layer("cell_route_p50_ms", ms(Kind::kCellRoute), "ms");
  rep.layer("rank_p50_ms", ms(Kind::kRank), "ms");
  rep.layer("sim_query_p50_ms", ms(Kind::kSim), "ms");
  rep.layer("service.parse_us", median(parse_us), "us");
  rep.layer("service.handle_us.route", median(handle_us[Kind::kRoute]), "us");
  rep.layer("service.handle_us.cell_route", median(handle_us[Kind::kCellRoute]), "us");
  rep.layer("service.handle_us.rank", median(handle_us[Kind::kRank]), "us");
  rep.layer("service.handle_us.sim", median(handle_us[Kind::kSim]), "us");
  rep.layer("service.wire_us", us(Kind::kRoute) - median(handle_us[Kind::kRoute]), "us");
  rep.layer("service.snapshot_write_s", write_s, "s");
  rep.layer("service.snapshot_open_s", open_s, "s");
  rep.layer("service.snapshot_bytes", snapshot_bytes, "B");
}

}  // namespace pb
