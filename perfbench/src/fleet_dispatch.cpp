// fleet_dispatch: a campaign of many cheap rows run by a local --workers
// fleet, so engine/dispatch, the worker transport and the journal wire
// protocol do most of the work.
//
// Each round launches `bench_fig6_ugal --ranks 256 --msgs 4 --workers 2
// --threads 2` (96 rows) and waits for it.  The smaller `--ranks 64 --msgs
// 2` grid was tried first: its fleet time spread from 0.8 to 4.4 s from one
// launch to the next on the reference machine, this one stays within a few
// percent.  Set-up is the time from the process start to the first row in
// the first fleet's journal.  After the rounds the same
// declaration runs single-process on one thread: its stdout and journal
// must be byte-identical to the fleet's, and its CPU time is the useful
// work the fleet's CPU time is compared with.

#include <unistd.h>

#include <stdexcept>

#include "checks.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::uint64_t kRows = 96;  // 4 patterns x 6 loads x 4 topologies

struct Run {
  double wall_s = 0.0;
  double first_row_s = 0.0;  // launch -> first row in the journal
  ExitInfo info;
  std::string out, journal;
};

Run launch(const Options& o, const std::string& tag, std::vector<std::string> extra) {
  const std::string journal = o.out_dir + "/fleet-" + tag + ".jsonl";
  std::vector<std::string> argv = {o.bin_dir + "/bench_fig6_ugal", "--ranks", "256",
                                   "--msgs", "4", "--seed",
                                   std::to_string(derive(o.seed, 1) % 1000000000),
                                   "--json", journal};
  argv.insert(argv.end(), extra.begin(), extra.end());
  Run r;
  ::unlink(journal.c_str());
  const auto t0 = Clock::now();
  const pid_t pid = spawn(argv, o.out_dir + "/fleet-" + tag + ".out",
                          o.out_dir + "/fleet-" + tag + ".err");
  {
    Span span("fleet." + tag, 0);
    bool seen_row = false;
    for (;;) {
      if (!seen_row) {
        const std::string j = read_file(journal);
        const auto nl = j.find('\n');
        if (nl != std::string::npos && j.find('\n', nl + 1) != std::string::npos) {
          r.first_row_s = since(t0);
          seen_row = true;
        }
      }
      if (try_reap(pid, r.info)) break;
      if (since(t0) > 150.0) {
        r.info = wait_for(pid, 0.0);
        throw std::runtime_error(tag + " run timed out");
      }
      nap(0.01);
    }
  }
  r.wall_s = since(t0);
  if (r.info.status != 0)
    throw std::runtime_error(tag + " run exited with " + std::to_string(r.info.status) +
                             ": " + read_file(o.out_dir + "/fleet-" + tag + ".err"));
  r.out = read_file(o.out_dir + "/fleet-" + tag + ".out");
  r.journal = read_file(journal);
  return r;
}

}  // namespace

void run_fleet_dispatch(const Options& o, Report& rep) {
  const std::vector<std::string> fleet = {"--workers", "2", "--threads", "2"};
  std::vector<Run> runs;
  double setup_s = 0.0;
  const auto t_measure = Clock::now();
  do {
    runs.push_back(launch(o, "workers", fleet));
    if (runs.size() == 1)
      setup_s = std::chrono::duration<double>(t_measure - process_start()).count() +
                runs[0].first_row_s;
    rep.attempted += kRows;
  } while (since(t_measure) < o.seconds);
  const Run single = launch(o, "single", {"--threads", "1"});

  // --- checks ------------------------------------------------------------
  const Run& first = runs.front();
  if (auto err = check::journal(first.journal, kRows); !err.empty())
    rep.fail_check("fleet journal: " + err);
  if (auto err = check::same_bytes("fleet and single-process journals", first.journal,
                                   single.journal);
      !err.empty())
    rep.fail_check(err);
  if (auto err = check::same_bytes("fleet and single-process stdout", first.out,
                                   single.out);
      !err.empty())
    rep.fail_check(err);
  for (std::size_t i = 1; i < runs.size(); ++i)
    if (runs[i].journal != first.journal || runs[i].out != first.out)
      rep.fail_check("fleet round " + std::to_string(i + 1) +
                     " differs from the first");

  std::vector<double> wall, first_row, cpu;
  double peak_rss = single.info.peak_rss_mb;
  for (const Run& r : runs) {
    wall.push_back(r.wall_s);
    first_row.push_back(r.first_row_s);
    cpu.push_back(r.info.cpu_s);
    peak_rss = std::max(peak_rss, r.info.peak_rss_mb);
  }
  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", peak_rss, "MB");
  rep.e2e("run_s", median(wall), "s");
  if (!o.trace) return;

  rep.layer("fleet_s", median(wall), "s");
  rep.layer("engine.dispatch.first_row_s", median(first_row), "s");
  rep.layer("engine.dispatch.per_row_ms", median(wall) * 1e3 / kRows, "ms");
  rep.layer("engine.dispatch.rows", static_cast<double>(kRows), "count");
  rep.layer("engine.dispatch.worker_cpu_s", median(cpu), "s");
  rep.layer("engine.dispatch.useful_cpu_ratio", single.info.cpu_s / median(cpu), "ratio");
}

}  // namespace pb
