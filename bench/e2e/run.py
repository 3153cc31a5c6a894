#!/usr/bin/env python3
"""Build e2e_bench from this checkout and run it.

One measurement (what BENCHMARK.json's command runs):

    python3 bench/e2e/run.py --workload serve_cold --seed 1 --seconds 30 --trace 0

Several runs merged into one results file (medians and quartiles over the
runs, plus one traced run per workload for the per-layer numbers); with
two files the runs alternate between them:

    python3 bench/e2e/run.py --runs 5 --results a.json b.json

Comparison of two results files against BENCHMARK.json's bounds:

    python3 bench/e2e/run.py --check-against a.json b.json

Run it from the root of a rebench checkout.  It configures and builds
bench/e2e into .bench_build/ (set-up output goes to stderr), keeps the
benchmark's scratch state under .bench_build/work and its traces under
.bench_build/trace.  The measured program's stdout is passed through: its
last line is the JSON result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["serve_cold", "serve_cached", "history_check"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no rebench sources (src/CMakeLists.txt) in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def bench(args, **kwargs):
    return subprocess.run([BENCH, "--work", os.path.join(BUILD, "work")] + args,
                          cwd=ROOT, **kwargs)


def quartiles(values):
    """Median and quartiles by linear interpolation between order
    statistics, the definition e2e_bench uses for single runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def merge(docs):
    """Merges single-run results files: each metric's values are the runs'
    medians; median and quartiles are taken over them."""
    merged = {"schema": docs[0]["schema"], "fingerprint": docs[0]["fingerprint"],
              "runs": 0, "workloads": {}}
    runs = {}
    for doc in docs:
        for name, workload in doc["workloads"].items():
            entry = merged["workloads"].setdefault(
                name, {"attempted": 0, "failed": 0, "metrics": {}})
            entry["attempted"] += workload["attempted"]
            entry["failed"] += workload["failed"]
            # A traced run contributes its per-layer numbers only.
            traced = "per_layer" in workload
            for section in ("per_layer",) if traced else ("metrics",):
                for metric, value in workload[section].items():
                    slot = entry.setdefault(section, {}).setdefault(
                        metric, {"unit": value["unit"], "better": value["better"], "values": []})
                    slot["values"].append(value["median"])
            for layer, row in workload.get("self_time", {}).items():
                slot = entry.setdefault("self_time", {}).setdefault(
                    layer, {"ms_per_op": [], "share": []})
                slot["ms_per_op"].append(row["ms_per_op"])
                slot["share"].append(row["share"])
            if not traced:
                runs[name] = runs.get(name, 0) + 1
    for name, entry in merged["workloads"].items():
        entry["runs"] = runs.get(name, 0)
        for section in ("metrics", "per_layer"):
            for slot in entry.get(section, {}).values():
                slot["median"], slot["q1"], slot["q3"] = quartiles(slot["values"])
                slot["n"] = len(slot["values"])
        for slot in entry.get("self_time", {}).values():
            slot["ms_per_op"] = statistics.median(slot["ms_per_op"])
            slot["share"] = statistics.median(slot["share"])
    merged["runs"] = max(runs.values()) if runs else 0
    return merged


def run_sets(options):
    build()
    workloads = WORKLOADS if options.workload == "all" else [options.workload]
    sets = [[] for _ in options.results]
    with tempfile.TemporaryDirectory(dir=BUILD) as scratch:
        def measure(workload, index, trace):
            path = os.path.join(scratch, "%s-%d-%d.json" % (workload, index, trace))
            proc = bench(["--workload", workload, "--seed", str(options.seed),
                          "--seconds", str(options.seconds), "--trace", str(trace),
                          "--results", path], stdout=sys.stderr)
            if proc.returncode != 0:
                sys.exit("run.py: %s run %d failed" % (workload, index))
            with open(path) as handle:
                return json.load(handle)

        for index in range(options.runs * len(sets)):
            for workload in workloads:
                sets[index % len(sets)].append(measure(workload, index, 0))
        for workload in workloads:
            for docs in sets:
                docs.append(measure(workload, len(docs), 1))
    for path, docs in zip(options.results, sets):
        with open(path, "w") as handle:
            json.dump(merge(docs), handle, indent=1, sort_keys=True)
            handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--runs", type=int, default=0,
                        help="runs per results file (needs --results)")
    parser.add_argument("--results", nargs="+", default=[])
    parser.add_argument("--check-against", nargs=2, metavar=("BASELINE", "CANDIDATE"))
    options = parser.parse_args()

    if options.check_against:
        build()
        files = [os.path.abspath(path) for path in options.check_against]
        sys.exit(bench(["--check-against"] + files).returncode)
    if options.runs > 0:
        if not options.results:
            parser.error("--runs needs --results FILE [FILE]")
        run_sets(options)
        return
    build()
    args = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", str(options.seconds), "--trace", options.trace]
    if options.trace == "1":
        args += ["--trace-dir", os.path.join(BUILD, "trace")]
    sys.exit(bench(args).returncode)


if __name__ == "__main__":
    main()
