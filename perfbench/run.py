#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # each output check rejects a corrupted output
    python3 perfbench/run.py --report       # medians of the records in .bench_out/

Run from the root of the repository.  The first call builds the library,
sflyd, bench_fig6_ugal and the benchmark program from source into
.bench_build/ (perfbench/CMakeLists.txt over the repository's own
CMakeLists.txt); later calls rebuild only what changed.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Build output and perfbench's diagnostics go to stderr.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["sim_campaign", "topo_analysis", "sflyd_queries", "fleet_dispatch"]
TARGETS = ["perfbench", "perfbench_selftest", "sflyd", "bench_fig6_ugal"]
JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS, "--target"] + TARGETS,
                   stdout=sys.stderr, check=True)


def session_pids(sid):
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == sid:  # field 6 of stat: session id
                pids.append(int(entry))
    return pids


def kill_session(sid):
    """SIGKILL every process of session `sid` and wait until they are gone."""
    deadline = time.time() + 10
    while time.time() < deadline:
        pids = session_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.05)


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin-dir", os.path.join(BUILD, "sfly"),
           "--out-dir", OUT]
    # Its own session, so that a timeout can stop perfbench together with
    # every daemon and worker it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session(proc.pid)
        proc.communicate()
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: workload failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    # Every metric of the selected set, in BENCHMARK.json order.  An
    # end-to-end metric must have been measured; a per-layer metric the
    # workload did not touch reads 0 (that layer did no work).
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    got, metrics = result["metrics"], {}
    for m in spec:
        v = got.get(m["name"])
        if v is None and not args.trace:
            print("run.py: %s was not measured" % m["name"], file=sys.stderr)
            return 1
        if v is not None and v["unit"] != m["unit"]:
            print("run.py: %s measured in %s, not %s" % (m["name"], v["unit"], m["unit"]),
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = v or {"value": 0, "unit": m["unit"]}
    unknown = set(got) - set(metrics)
    if unknown:
        print("run.py: metrics missing from BENCHMARK.json: %s" % sorted(unknown),
              file=sys.stderr)
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def report():
    """Median of every metric over the records in .bench_out/, per workload
    and trace mode; the tracing overhead is traced minus untraced."""
    records = {}
    for name in sorted(os.listdir(OUT) if os.path.isdir(OUT) else []):
        if name.endswith(".json") and "-seed" in name:
            with open(os.path.join(OUT, name)) as f:
                rec = json.load(f)
            records.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for w in WORKLOADS:
        plain, traced = records.get((w, 0), []), records.get((w, 1), [])
        for metric in ("setup_s", "peak_rss_mb", "run_s"):
            a = [r["end_to_end"][metric]["value"] for r in plain]
            b = [r["end_to_end"][metric]["value"] for r in traced]
            line = "%-15s %-12s" % (w, metric)
            if a:
                line += " untraced median %.4f (n=%d)" % (statistics.median(a), len(a))
            if a and b:
                line += "  traced %.4f  overhead %+.4f" % (
                    statistics.median(b), statistics.median(b) - statistics.median(a))
            print(line)
        for rec in traced[:1]:
            for k, v in rec["per_layer"].items():
                if v["value"]:
                    print("%-15s   %-34s %14.6g %s" % (w, k, v["value"], v["unit"]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--report", action="store_true")
    args = p.parse_args()
    if args.report:
        return report()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
