#!/usr/bin/env python3
"""perf_e2e_smoke: a quick end-to-end check of the benchmark itself.

    smoke.py --bench E2E_BENCH --cli REBENCH --benchmark-json BENCHMARK.json

1. `e2e_bench --quick --trace 1` prints every metric BENCHMARK.json names,
   with its unit, and every output check passes.
2. The benchmark resolves submissions like the CLI: the quick serve_cold
   queue drained by `rebench serve --once` and by the in-process daemon
   gives byte-identical verdict files.
"""
import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile


def fail(message):
    sys.exit("perf_e2e_smoke: FAIL: " + message)


def check_metrics(options, scratch):
    proc = subprocess.run(
        [options.bench, "--quick", "--trace", "1", "--work", os.path.join(scratch, "work"),
         "--trace-dir", os.path.join(scratch, "trace")],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail("e2e_bench --quick exited %d\n%s%s" % (proc.returncode, proc.stdout, proc.stderr))
    with open(options.benchmark_json) as handle:
        spec = json.load(handle)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        pattern = r"^\s+%s\s+\S+\s+%s(\s|$)" % (re.escape(metric["name"]), re.escape(metric["unit"]))
        if not re.search(pattern, proc.stdout, re.MULTILINE):
            fail("metric %s (%s) not printed" % (metric["name"], metric["unit"]))
    passes = proc.stdout.count(" checks: pass")
    if passes != len(spec["workloads"]) or "CHECK FAILED" in proc.stdout:
        fail("output checks did not all pass\n" + proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("summary line reports failures: %s" % result)


def check_resolver(options, scratch):
    cli_queue = os.path.join(scratch, "cli_queue")
    bench_queue = os.path.join(scratch, "bench_queue")
    subprocess.run([options.bench, "--emit-queue", cli_queue, "--seed", "1"], check=True)
    shutil.copytree(cli_queue, bench_queue)
    subprocess.run([options.cli, "serve", "--queue", cli_queue, "--store",
                    os.path.join(scratch, "cli_store"), "--once"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run([options.bench, "--drain", bench_queue, os.path.join(scratch, "bench_store")],
                   check=True)
    cli_verdicts = os.path.join(cli_queue, "verdicts")
    bench_verdicts = os.path.join(bench_queue, "verdicts")
    names = sorted(os.listdir(cli_verdicts))
    if not names or names != sorted(os.listdir(bench_verdicts)):
        fail("verdict sets differ between the CLI and the in-process drain")
    _, mismatch, errors = filecmp.cmpfiles(cli_verdicts, bench_verdicts, names, shallow=False)
    if mismatch or errors:
        fail("verdict bytes differ for %s" % (mismatch + errors))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--benchmark-json", required=True)
    options = parser.parse_args()
    scratch = tempfile.mkdtemp(prefix="perf_e2e_smoke-", dir=os.getcwd())
    try:
        check_metrics(options, scratch)
        check_resolver(options, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("PERF E2E SMOKE OK")


if __name__ == "__main__":
    main()
