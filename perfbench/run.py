"""drbsde-lab benchmark: end-to-end and per-layer metrics of ``drbsde-lab run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-battery --seed 1 --trace 0
    python3 perfbench/run.py --workload mc-paths --seed 1 --trace 1
    python3 perfbench/run.py --smoke

The load is a closed loop with one client: one worker process at a time runs
the workload's experiments one after another through
``drbsde_lab.cli.main(["run", config, "--out", dir])``, with BLAS and OpenMP
threads pinned to 1.  Every run gets a fresh worker, so module memos start
empty as in a user's ``drbsde-lab run`` call.  Inputs come from ``--seed``
alone (see ``workloads.py``); outputs go under ``.perfbench/`` in the
checkout and are checked and deleted outside the timed region.

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` prints ``run_s``, ``setup_s``, ``peak_rss_mb`` and
``failed_ratio``.  Noise on a shared host only ever slows a run, and it comes
in stretches of seconds to minutes, so the timings report what the run's
workers did when uncontended: ``run_s`` is the sum over the workload's
experiments of each experiment's fastest time among the run's workers, and
``setup_s`` the fastest set-up.  ``peak_rss_mb`` is the median.  The median,
an upper percentile where the sample count allows, and the extremes of every
metric are printed too.

``--trace 1`` alternates untraced and traced workers and prints the per-layer
metrics of the traced ones (see ``tracer.py``), ``trace.overhead`` and each
layer's self-time share.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/selftest.py`` checks that the output check fires and
runs ``--smoke``; ``python3 perfbench/steadiness.py --seeds 1-10`` measures
the run-to-run spread of every end-to-end metric against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import outcheck  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
MAX_RUNS = 200
HARD_LIMIT_S = 150.0  # whole measuring loop; workers still running then are killed
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_ratio", "_per_step", "overhead")):
        return "1"
    return "count"


class Session:
    """One invocation on one workload: inputs, workers, output checks."""

    def __init__(self, workload: str, seed: int, small: bool):
        self.workload = workload
        self.work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = workloads.write_inputs(workload, seed, self.work / "inputs", small)
        self.configs = {n: json.loads(p.read_text()) for n, p in self.inputs.items()}
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.last_trace = None

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        for var in THREAD_VARS:
            env[var] = "1"
        return env

    def run_worker(self, traced: bool, timeout: float):
        """Run the workload once in a fresh worker, killed after ``timeout``
        seconds; returns its result or None."""
        idx = self.runs
        self.runs += 1
        run_dir = self.work / f"run-{idx}"
        experiments = [[n, str(p), str(run_dir / n)] for n, p in self.inputs.items()]
        plan = {
            "src": str(SRC),
            "experiments": experiments,
            "result": str(self.work / f"result-{idx}.json"),
            "trace": str(self.work / f"spans-{idx}.jsonl") if traced else None,
        }
        plan_path = self.work / f"plan-{idx}.json"
        plan_path.write_text(json.dumps(plan))

        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            stdout=subprocess.PIPE,
            env=self._env(),
            cwd=ROOT,
            text=True,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            setup_s = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        result = None
        if ready and code == 0:
            result = json.loads(Path(plan["result"]).read_text())
            result["setup_s"] = setup_s
            statuses = result["statuses"]
        else:
            statuses = [f"worker {'failed' if ready else 'never ready'} ({code})"] * len(experiments)
        for (name, _config, out), status in zip(experiments, statuses):
            self._check(idx, name, Path(out), status)
        if traced and result is not None:
            self.last_trace = Path(plan["trace"])
        shutil.rmtree(run_dir, ignore_errors=True)
        return result

    def _check(self, idx: int, name: str, out: Path, status) -> None:
        self.attempted += 1
        problems, digests = outcheck.check_experiment(self.configs[name], out, status)
        reference = self.reference.setdefault(name, digests)
        if reference is not digests:
            problems += outcheck.compare_digests(reference, digests)
        if problems:
            self.failed += 1
        for problem in problems:
            print(f"FAIL {self.workload} run {idx} {name}: {problem}")

    def close(self) -> None:
        if self.last_trace is not None and self.last_trace.is_file():
            keep = WORK / f"trace-{self.workload}.jsonl"
            os.replace(self.last_trace, keep)
            print(f"spans of the last traced run: {keep.relative_to(ROOT)}")
        shutil.rmtree(self.work, ignore_errors=True)


def drive(session: Session, seconds: float, trace: bool, min_runs: int):
    """Closed loop: start a worker after the previous one ends, until the
    next would likely overrun ``seconds``; returns (untraced, traced)."""
    untraced, traced = [], []
    costs = []
    began = time.perf_counter()
    deadline = began + HARD_LIMIT_S
    while len(untraced) < MAX_RUNS:
        t0 = time.perf_counter()
        untraced.append(session.run_worker(False, deadline - t0))
        if trace:
            traced.append(session.run_worker(True, deadline - time.perf_counter()))
        costs.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - began
        if len(untraced) >= min_runs and elapsed + statistics.median(costs) > seconds:
            break
        if time.perf_counter() >= deadline:
            break
    return [r for r in untraced if r], [r for r in traced if r]


def upper_percentile(values):
    """Highest of p90/p75 with at least ten samples beyond it, else None."""
    for p in (90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def fastest_run_s(results) -> float:
    """Sum over the experiments of each one's fastest time in ``results``."""
    return sum(min(times) for times in zip(*(r["experiment_s"] for r in results)))


def end_to_end(results) -> dict:
    reported = {
        "run_s": ("sum of per-experiment minima", fastest_run_s(results)),
        "setup_s": ("minimum", min(r["setup_s"] for r in results)),
        "peak_rss_mb": ("median", statistics.median(r["peak_rss_mb"] for r in results)),
    }
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        how, value = reported[name]
        metrics[name] = {"value": value, "unit": unit}
        values = [r[name] for r in results]
        tail = upper_percentile(values)
        extra = f", p{tail[0]} {tail[1]:.6g}" if tail else ""
        print(f"  {name:<12} {value:.6g} {unit} ({how})  per worker: median "
              f"{statistics.median(values):.6g} of {len(values)}{extra}; "
              f"min {min(values):.6g}, max {max(values):.6g}")
    return metrics


def per_layer(untraced, traced) -> dict:
    names = list(traced[0]["layers"])
    metrics = {}
    for name in names:
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": _unit(name)}
    overhead = fastest_run_s(traced) / fastest_run_s(untraced)
    metrics["trace.overhead"] = {"value": overhead, "unit": "1"}
    return metrics


def session_experiments(traced) -> list:
    names = (key.split("/", 1)[0] for key in traced[0]["by_experiment"])
    return list(dict.fromkeys(names))


def trace_report(workload: str, traced, metrics: dict) -> None:
    """Each layer's self-time share, plus the ROADMAP claims this workload tests."""
    selfs = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(selfs.values()) or 1.0
    spans = statistics.median(r["spans"] for r in traced)
    print(f"  self-time share per layer ({workload}, median of {len(traced)} traced runs"
          f" of {spans:.0f} spans each):")
    for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<10} {100.0 * value / total:6.2f} %  {value:.4f} s")
    print("  per-layer metrics:")
    for name, m in metrics.items():
        print(f"    {name:<28} {m['value']:.6g} {m['unit']}")

    def inclusive(*names, table="table", prefix=""):
        return statistics.median(
            sum(r[table].get(prefix + n, {}).get("total_s", 0.0) for n in names)
            for r in traced
        )

    writers = ("bsde.write_solution_csv", "lattice.write_process_csv")
    solvers = ("bsde.solve_bsde", "rbsde.solve_rbsde", "drbsde.solve_drbsde")
    experiments = inclusive("cli.main")
    if workload == "tree-dump":
        print(f"  claim: dumps are {100 * inclusive(*writers) / experiments:.1f} % "
              f"of the experiments; dumps / solve (ROADMAP: 100-400x):")
        for name in session_experiments(traced):
            dumps = inclusive(*writers, table="by_experiment", prefix=f"{name}/")
            solves = inclusive(*solvers, table="by_experiment", prefix=f"{name}/")
            if solves:
                print(f"    {name:<8} {dumps / solves:8.1f}x  ({dumps:.4f} s / {solves:.4f} s)")
    if workload == "mc-paths":
        sim = inclusive("mc.simulate_paths")
        mc_solve = inclusive("mc.solve_mc")
        print(f"  claim: simulate_paths is {100 * sim / experiments:.1f} % and solve_mc "
              f"{100 * mc_solve / experiments:.1f} % of the experiment (ROADMAP: most of MC)")
    if workload == "verify-battery":
        share = metrics["dynkin.pair_table_s"]["value"] + metrics["generator.eval_s"]["value"]
        print(f"  claim: dynkin.pair_table_s + generator.eval_s = "
              f"{100 * share / total:.1f} % of self time")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int):
    """Size of the CPU's level-``level`` unified cache, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != str(level):
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _revision() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance(session: Session) -> dict:
    l2 = _cache_bytes(2)
    largest = workloads.largest_array_bytes(session.configs)
    return {
        "revision": _revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": l2,
        "l3_bytes": _cache_bytes(3),
        "largest_array_bytes_computed": largest,
        "largest_array_over_l2": round(largest / l2, 3) if l2 else None,
        "load": "closed loop, one client, fresh worker per run, BLAS threads 1",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(workload, seed, small=False)
    try:
        print(f"provenance: {json.dumps(provenance(session), sort_keys=True)}")
        print(f"workload {workload}: {workloads.WHY[workload]}")
        untraced, traced = drive(session, seconds, trace, MIN_TRACED_PAIRS if trace else MIN_RUNS)
        print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and "
              f"{len(traced)} traced runs, {session.attempted} experiments")
        correct = session.failed == 0 and bool(untraced) and (bool(traced) or not trace)
        metrics = {}
        if untraced:
            e2e = end_to_end(untraced)
            if trace and traced:
                metrics = per_layer(untraced, traced)
                trace_report(workload, traced, metrics)
            else:
                metrics = e2e
        ratio = session.failed / max(session.attempted, 1)
        print(f"  {'failed_ratio':<12} {ratio:.6g} 1  ({session.failed}/{session.attempted})")
    finally:
        session.close()
    return {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def smoke() -> dict:
    """Reduced-size inputs; each workload once untraced and once traced."""
    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        session = Session(workload, 0, small=True)
        try:
            untraced, traced = drive(session, 0.0, trace=True, min_runs=1)
        finally:
            session.close()
        attempted += session.attempted
        failed += session.failed
        ok = bool(untraced and traced) and session.failed == 0
        if untraced:
            metrics[f"{workload}.run_s"] = {"value": untraced[0]["run_s"], "unit": "s"}
        print(f"smoke {workload}: {'ok' if ok else 'FAILED'} "
              f"({session.failed}/{session.attempted} experiments failed)")
    correct = failed == 0 and len(metrics) == len(workloads.WORKLOADS)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at reduced size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "drbsde_lab" / "cli.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        summary = smoke()
    else:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
