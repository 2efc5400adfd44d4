#!/usr/bin/env python3
"""Run every workload over several seeds and report each end-to-end
metric's median and spread against its bound in BENCHMARK.json.

    python3 perfbench/sweep.py                      # 10 seeds, every workload
    python3 perfbench/sweep.py --seeds 5 --workloads sim-posthoc
    python3 perfbench/sweep.py --baseline           # also write perfbench/baseline.json

The spread is (Q3 - Q1) / median over the seeds, with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the bound is
flagged. --baseline adds one traced run per workload for the per-layer
numbers and writes medians, quartiles and host facts to baseline.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"sweep: {workload} seed {seed} failed (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["host"], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.seeds + 1):
            host, result = run(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"sweep: {workload} seed {seed} reported a failed verdict")
            results.append(result)
        baseline["host"] = host
        summary = {}
        print(f"{workload}: {args.seeds} seeds")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            steady &= flag == "ok"
            print(f"  {name:22s} median {statistics.median(values):<12.6g} "
                  f"spread {spread:7.4f}  bound {bound:<5} {flag:4s} "
                  + " ".join(f"{v:.4g}" for v in values))
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "unit": results[0]["metrics"][name]["unit"]}
        entry = {"end_to_end": summary}
        if args.baseline:
            _, traced = run(workload, 1, args.seconds, 1)
            entry["per_layer_seed_1"] = traced["metrics"]
        baseline["workloads"][workload] = entry
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
