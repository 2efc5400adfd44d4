#!/usr/bin/env python3
"""Verified-throughput benchmark: build mocc_perfbench and run one workload.

    python3 perfbench/run.py --workload sim-posthoc --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own CMake project over ../src, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
mocc_perfbench, checks its output against BENCHMARK.json, and prints as the last
line of stdout one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"verified_mops_per_s": {"value": 1998.4, "unit": "1/s"}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace plus a self-time table under <build>/traces/.
Exits non-zero without a result when the build or mocc_perfbench fails.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
OPTIMISED = ("Release", "RelWithDebInfo")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "mocc_perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "mocc_perfbench"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, expected):
    """Problems with the printed metric set; empty when it matches."""
    problems = []
    for name, entry in metrics.items():
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        elif name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif entry.get("unit") != expected[name]:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has value {value!r}")
    for name in expected:
        if name not in metrics:
            problems.append(f"metric {name} was not printed")
    return problems


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-dir", str(traces)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        fail("mocc_perfbench timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"mocc_perfbench exited with code {done.returncode}")
    host = json.loads(lines[0])["host"]
    if host["build_type"] not in OPTIMISED or not host["ndebug"]:
        fail(f"refusing to report from a non-optimised build: {host}")
    result = json.loads(lines[-1])

    mismatch = check_metrics(result["metrics"], expected_metrics(spec, args.trace))
    if mismatch:
        fail("; ".join(mismatch))
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
