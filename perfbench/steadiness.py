"""Steadiness check of the benchmark itself.

Runs ``run.py --trace 0`` on every workload for each seed, interleaving the
workloads (seed-major order), and prints for each end-to-end metric the
median of the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Every run measures ``run.py``'s default, ``run_seconds`` from
``BENCHMARK.json``.  A spread is compared with the metric's bound there; the
benchmark is steady when every spread stays below a third of its bound.

Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)

    values: dict = {w: {} for w in names}
    correct = True
    for seed in args.seeds:
        for workload in names:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            correct &= done.returncode == 0 and summary["correct"]
            print(f"{workload} seed {seed}: {json.dumps(summary)}", flush=True)
            for metric, m in summary["metrics"].items():
                values[workload].setdefault(metric, []).append(m["value"])

    steady = True
    print(f"{'workload':<16}{'metric':<13}{'n':>3}{'median':>12}{'spread':>9}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        for workload in names:
            vals = values[workload].get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            steady &= spread < bound / 3
            print(f"{workload:<16}{metric['name']:<13}{len(vals):>3}{med:>12.6g}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
    print(f"correct: {correct}; steady: {steady}")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
