#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 rundown_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds rundown_bench/ (which compiles the
program's sources from src/) into $CARGO_TARGET_DIR/rundown_bench, or
.bench_build/rundown_bench when that variable is unset, runs the measuring
binary, and prints its metric table followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (the traced run also writes a merged span file under the build
directory's traces/). Exits non-zero, printing no result, when the build,
the run or the metric lists fail.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rundown_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "config.json")) as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "rundown_bench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    rates = config["workloads"][args.workload].get("rates_jobs_per_s")
    if rates:
        cmd += ["--rates", ",".join(str(rates[k]) for k in ("low", "high", "overload"))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"the benchmark binary exited with code {proc.returncode}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
