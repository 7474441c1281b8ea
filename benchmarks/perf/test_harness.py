"""Self-test of the benchmark harness on tiny inputs.

Run it explicitly from the repository root; it is not part of the tier-1
suite::

    python3 benchmarks/perf/test_harness.py

Every workload runs once timed and twice traced on its ``--smoke`` inputs
(3 advise requests, a 4-bit per-bit adder), through ``run.py`` exactly as
a benchmark run would.  The checks: every metric ``BENCHMARK.json`` names
is emitted, traced self-time shares plus the unattributed share add up to
the traced wall, counters repeat exactly between the two traced runs, and
``compare`` finds a set of runs the same as itself.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return proc.stdout


def smoke_run(workload: str, trace: int, out: str) -> dict:
    stdout = bench(
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--smoke", "--out", out,
    )
    return json.loads(stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._dir = tempfile.TemporaryDirectory()
        cls.records = str(Path(cls._dir.name) / "runs.jsonl")
        cls.timed = {w: smoke_run(w, 0, cls.records) for w in WORKLOADS}
        cls.traced = {
            w: [smoke_run(w, 1, cls.records) for _ in range(2)]
            for w in WORKLOADS
        }

    @classmethod
    def tearDownClass(cls):
        cls._dir.cleanup()

    def test_every_listed_metric_is_emitted(self):
        for workload in WORKLOADS:
            for kind, result in (
                ("end_to_end", self.timed[workload]),
                ("per_layer", self.traced[workload][0]),
            ):
                with self.subTest(workload=workload, kind=kind):
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in SPEC[kind]),
                    )
                    for metric in SPEC[kind]:
                        self.assertEqual(
                            result["metrics"][metric["name"]]["unit"],
                            metric["unit"],
                        )

    def test_traced_self_times_reconcile_with_wall(self):
        """Layer self-time shares plus the unattributed share make up the
        traced wall within 1 %."""
        for workload in WORKLOADS:
            for result in self.traced[workload]:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                shares = sum(
                    v for k, v in metrics.items() if k.endswith(".self_pct")
                )
                with self.subTest(workload=workload):
                    self.assertGreater(metrics["run.wall_s"], 0.0)
                    self.assertAlmostEqual(
                        shares + metrics["run.unattributed_pct"], 100.0,
                        delta=1.0,
                    )
                    self.assertLess(metrics["run.unattributed_pct"], 10.0)
                    self.assertLess(metrics["run.trace_overhead_pct"], 5.0)

    def test_counters_repeat_exactly(self):
        counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            first, second = (r["metrics"] for r in self.traced[workload])
            for name in counters:
                with self.subTest(workload=workload, counter=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_compare_finds_runs_same_as_themselves(self):
        report = bench("compare", self.records, self.records)
        rows = [
            line for line in report.splitlines()
            if line.split(" ", 1)[0] in WORKLOADS
        ]
        self.assertEqual(len(rows), len(WORKLOADS) * len(SPEC["end_to_end"]))
        for row in rows:
            self.assertTrue(row.endswith("same"), row)


if __name__ == "__main__":
    unittest.main()
