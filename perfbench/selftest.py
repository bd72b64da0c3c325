"""Self-tests of the benchmark: the output check must fire, the generator must
be a pure function of the seed, the span arithmetic must be right, and the
reduced-size smoke mode must pass on every workload.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import outcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench" / f"selftest-{os.getpid()}"

CONFIG = {
    "kind": "rbsde",
    "lattice": {"T": 1.0, "N": 12, "mode": "recombining"},
    "side": "upper",
    "generator": "linear:-0.5,0.3",
    "terminal": "max(state, -0.8)",
    "upper": "max(state, -0.8) + 0.3 + 0.1*t",
}


def _run_experiment(out: Path) -> int:
    from drbsde_lab import cli

    SCRATCH.mkdir(parents=True, exist_ok=True)
    config = SCRATCH / "rbsde.json"
    config.write_text(json.dumps(CONFIG))
    return cli.main(["run", str(config), "--out", str(out)])


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.out = SCRATCH / "out"
        shutil.rmtree(self.out, ignore_errors=True)
        self.status = _run_experiment(self.out)
        self.problems, self.digests = outcheck.check_experiment(CONFIG, self.out, self.status)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def recheck(self, status=0):
        return outcheck.check_experiment(CONFIG, self.out, status)

    def test_intact_outputs_pass(self):
        self.assertEqual(self.status, 0)
        self.assertEqual(self.problems, [])
        self.assertNotIn("manifest.json", self.digests)
        self.assertIn("solution.csv", self.digests)

    def test_truncated_solution_csv_is_flagged(self):
        path = self.out / "solution.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        problems, _ = self.recheck()
        self.assertTrue(any("solution.csv has" in p for p in problems), problems)

    def test_changed_solution_csv_is_flagged_against_the_first_run(self):
        path = self.out / "solution.csv"
        path.write_bytes(path.read_bytes().replace(b"0.", b"1.", 1))
        problems, digests = self.recheck()
        self.assertEqual(problems, [])  # same row count, so only identity can catch it
        self.assertEqual(
            outcheck.compare_digests(self.digests, digests),
            ["solution.csv differs from the first run"],
        )

    def test_report_with_passed_false_is_flagged(self):
        path = self.out / "report.json"
        report = json.loads(path.read_text())
        report["passed"] = False
        path.write_text(json.dumps(report))
        problems, _ = self.recheck()
        self.assertIn("report.json says passed: false", problems)

    def test_missing_file_and_exit_status_are_flagged(self):
        (self.out / "obstacle.csv").unlink()
        problems, digests = self.recheck(status=1)
        self.assertIn("exit status 1", problems)
        self.assertIn("missing obstacle.csv", problems)
        self.assertIn(
            "obstacle.csv written in the first run but not in this one",
            outcheck.compare_digests(self.digests, digests),
        )

    def test_manifest_may_differ(self):
        (self.out / "manifest.json").write_text("{}\n")
        _, digests = self.recheck()
        self.assertEqual(outcheck.compare_digests(self.digests, digests), [])


class GeneratorTest(unittest.TestCase):
    def test_seed_moves_data_not_work(self):
        for workload in workloads.WORKLOADS:
            a = workloads.make_configs(workload, 1, "driver.npz")
            self.assertEqual(a, workloads.make_configs(workload, 1, "driver.npz"))
            b = workloads.make_configs(workload, 2, "driver.npz")
            self.assertNotEqual(a, b)
            for name in a:
                for key in ("kind", "lattice", "scheme", "generator", "cases", "samples", "mc"):
                    self.assertEqual(a[name].get(key), b[name].get(key), (workload, name, key))

    def test_all_kinds_are_covered(self):
        kinds = {
            cfg["kind"]
            for workload in workloads.WORKLOADS
            for cfg in workloads.make_configs(workload, 0, "driver.npz").values()
        }
        from drbsde_lab.cli import KINDS

        self.assertEqual(kinds, set(KINDS))


class SpanTableTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ("cli.main", 0.0, 10.0, -1, "x", None),
            ("bsde.step_candidate", 1.0, 4.0, 0, "x", None),
            ("generator.fn", 2.0, 3.0, 1, "x", {"points": 7}),
            ("generator.fn", 5.0, 6.0, 0, "x", {"points": 3}),
        ]
        table = tracer.span_table(spans)
        self.assertEqual(table["cli.main"]["self_s"], 6.0)
        self.assertEqual(table["bsde.step_candidate"]["self_s"], 2.0)
        self.assertEqual(table["generator.fn"], {"calls": 2, "total_s": 2.0, "self_s": 2.0, "points": 10})
        layers = tracer.layer_metrics(table, distinct_solves=0)
        self.assertEqual(layers["generator.evals_per_step"], 2.0)
        self.assertEqual(layers["cli.self_s"] + layers["bsde.self_s"] + layers["generator.self_s"], 10.0)


class EstimatorTest(unittest.TestCase):
    def test_run_s_sums_each_experiments_fastest_time(self):
        import run

        results = [{"experiment_s": [1.0, 5.0]}, {"experiment_s": [2.0, 3.0]}]
        self.assertEqual(run.fastest_run_s(results), 4.0)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_declares_what_run_prints(self):
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        layers = tracer.layer_metrics(tracer.span_table([]), 0)
        printed = {name: run._unit(name) for name in [*layers, "trace.overhead"]}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, printed)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_passes(self):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)


if __name__ == "__main__":
    unittest.main()
