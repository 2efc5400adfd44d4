"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Builds the benchmark and makes short runs of every workload (about a
minute once built).
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_WORKLOADS = ["sim-posthoc", "sim-chaos-stream"]
# Per-layer metrics of the simulated workloads that depend on the seed
# alone: virtual time, message counts and window counts.
DETERMINISTIC = [
    "query_latency_p50_ticks", "query_latency_p99_ticks",
    "update_latency_p50_ticks", "update_latency_p99_ticks",
    "sim.msgs_per_mop", "sim.bytes_per_mop", "sim.virtual_ticks",
    "abcast.msgs_per_update", "protocols.msgs_per_query", "fault.link_msgs_per_mop",
    "fault.retransmits_per_mop", "fault.dup_suppressed", "obs.live.windows",
    "abcast.agree_ticks_p50", "sim.net_ticks_p50", "protocols.queue_ticks_p50",
]

_runs = {}


def run(workload, trace, seed=5, repeat=0, root=ROOT):
    """CompletedProcess of one short run; repeated calls are cached."""
    key = (workload, trace, seed, repeat, str(root))
    if key not in _runs:
        _runs[key] = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return _runs[key]


def result(workload, trace, **kwargs):
    done = run(workload, trace, **kwargs)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_spec_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += WORKLOADS
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_every_printed_metric_is_declared(self):
        declared = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                    for m in SPEC[key]}
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res = result(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    for name, entry in res["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(declared.get(name), entry["unit"], name)

    def test_every_workload_prints_the_full_metric_set(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    self.assertEqual(set(result(workload, trace)["metrics"]),
                                     {m["name"] for m in SPEC[key]})


class TraceCoverage(unittest.TestCase):
    def test_layer_spans_cover_the_traced_wall_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                share = result(workload, 1)["metrics"]["trace.accounted_share"]["value"]
                self.assertGreater(share, 0.9)
                self.assertLess(share, 1.0)


class DeterministicCounts(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for workload in SIM_WORKLOADS:
            first = result(workload, 1)["metrics"]
            second = result(workload, 1, repeat=1)["metrics"]
            for name in DETERMINISTIC:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_counts_depend_on_the_seed(self):
        first = result("sim-posthoc", 1)["metrics"]
        other = result("sim-posthoc", 1, seed=6)["metrics"]
        self.assertNotEqual(first["update_latency_p50_ticks"]["value"],
                            other["update_latency_p50_ticks"]["value"])


class Isolation(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("sim-chaos-stream", 0, root=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
