// perfbench — one run of one benchmark workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --out-dir DIR
//
// Prints, as its last stdout line, one JSON object with the keys
// correct / attempted / failed / metrics: the end-to-end metrics the
// workload measured when untraced, its per-layer metrics when traced
// (run.py completes the set from BENCHMARK.json).  The full record of the
// run (both metric sets when traced, spans, self times, counters and any
// failed checks) is written once, at exit, to
// OUT_DIR/NAME-seedN-traceT.json.  Exit 0 whenever the workload ran to
// its end (a failed output check reports correct=false); exit 1 when it
// could not run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "proc.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using pb::Report;

std::string metrics_json(const std::vector<Report::Metric>& got) {
  std::string out = "{";
  for (std::size_t i = 0; i < got.size(); ++i)
    out += std::string(i ? ", " : "") + pb::json_str(got[i].name) +
           ": {\"value\": " + pb::json_num(got[i].value) +
           ", \"unit\": " + pb::json_str(got[i].unit) + "}";
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_campaign|topo_analysis|"
               "sflyd_queries|fleet_dispatch\n"
               "                 --seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--bin-dir") o.bin_dir = v;
    else if (k == "--out-dir") o.out_dir = v;
    else return usage();
  }
  if (o.bin_dir.empty() || o.out_dir.empty() || o.seconds <= 0) return usage();
  const std::map<std::string, void (*)(const pb::Options&, Report&)> workloads = {
      {"sim_campaign", pb::run_sim_campaign},
      {"topo_analysis", pb::run_topo_analysis},
      {"sflyd_queries", pb::run_sflyd_queries},
      {"fleet_dispatch", pb::run_fleet_dispatch}};
  const auto w = workloads.find(o.workload);
  if (w == workloads.end()) return usage();

  pb::Tracer::get().enable(o.trace);
  Report rep;
  try {
    w->second(o, rep);
  } catch (const std::exception& e) {
    pb::stop_all();
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  pb::stop_all();
  for (const auto& err : rep.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", err.c_str());

  const std::string e2e = metrics_json(rep.end_to_end);
  const std::string layers = metrics_json(rep.per_layer);
  std::string errors = "[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i)
    errors += (i ? "," : "") + pb::json_str(rep.errors[i]);
  errors += "]";
  const std::string record_path = o.out_dir + "/" + o.workload + "-seed" +
                                  std::to_string(o.seed) + "-trace" +
                                  (o.trace ? "1" : "0") + ".json";
  std::ofstream(record_path)
      << "{\"workload\":" << pb::json_str(o.workload) << ",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"correct\":"
      << (rep.correct ? "true" : "false") << ",\"errors\":" << errors
      << ",\"end_to_end\":" << e2e << ",\"per_layer\":" << layers
      << ",\"trace_record\":" << pb::Tracer::get().to_json() << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              (o.trace ? layers : e2e).c_str());
  return 0;
}
