#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ingest|query|push --seed N \
        --seconds S --trace 0|1

The first run configures and builds libwaves and the two benchmark binaries
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only check that the build is current.

--trace 0 runs the plain binary for S seconds and reports every end-to-end
metric BENCHMARK.json names. --trace 1 runs the plain binary and then the
traced one for S/2 seconds each, reports every per-layer metric, and derives
bench.trace_overhead.<metric> for each end-to-end metric: traced / untraced,
inverted for higher-is-better metrics, so above 1 means tracing costs. The
traced run's spans go to <build>/traces/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A wrong answer prints correct=false and exits 1; a build
or run failure exits 2 without a result line.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def run_binary(path, args, seconds):
    """Run one benchmark binary; returns (its RESULT object, other lines)."""
    try:
        proc = subprocess.run([path] + args, capture_output=True, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode not in (0, 3) or not results:
        fail(f"{os.path.basename(path)} exited {proc.returncode}")
    result = json.loads(results[-1][len("RESULT "):])
    return result, [l for l in lines if not l.startswith("RESULT ")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        fail("run from the repository root (BENCHMARK.json not found)")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload!r}")
    if a.seconds <= 0:
        fail("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    plain = os.path.join(build_dir, "perfbench")
    traced = os.path.join(build_dir, "perfbench_traced")
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    if a.trace == 0:
        runs = [run_binary(plain, common + ["--seconds", str(a.seconds)],
                           a.seconds)]
        wanted = spec["end_to_end"]
    else:
        half = a.seconds / 2
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, f"{a.workload}-seed{a.seed}.jsonl")
        runs = [run_binary(plain, common + ["--seconds", str(half)], half),
                run_binary(traced, common + ["--seconds", str(half),
                                             "--trace-out", spans], half)]
        wanted = spec["per_layer"]
        untraced, with_trace = runs[0][0]["metrics"], runs[1][0]["metrics"]
        # Oriented so that above 1 means the traced run reads worse.
        for m in spec["end_to_end"]:
            if not untraced[m["name"]] or not with_trace[m["name"]]:
                fail(f"{m['name']} read 0, so its trace overhead is undefined")
            ratio = with_trace[m["name"]] / untraced[m["name"]]
            with_trace["bench.trace_overhead." + m["name"]] = (
                ratio if m["better"] == "lower" else 1 / ratio)

    for _, lines in runs:
        for line in lines:
            print(line)
    got = runs[-1][0]["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        fail("binary did not report " + ", ".join(missing))
    correct = all(r["correct"] for r, _ in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
