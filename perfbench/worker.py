"""One benchmark worker: a fresh process that runs one workload once.

Usage: ``python3 worker.py <plan.json>``.  The plan names the package
source directory, the experiments as ``[name, config, out_dir]`` triples in
run order, the result file and, for a traced run, the span file to write.

The worker imports ``drbsde_lab.cli``, prints ``ready``, runs every
experiment through ``drbsde_lab.cli.main(["run", config, "--out", out_dir])``
and writes the plan's result file: the exit statuses, the wall time of each
experiment and of all of them (``run_s``) and the process's peak resident
memory.  The parent times set-up from process start to the ``ready`` line.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _peak_rss_kib() -> int:
    """Peak resident memory of this process since its exec.

    ``VmHWM`` belongs to the post-exec address space only; ``ru_maxrss`` also
    carries the high-water mark of the parent that forked this worker.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()

    import drbsde_lab
    import drbsde_lab.cli as cli

    if src not in Path(drbsde_lab.__file__).resolve().parents:
        print(f"drbsde_lab imported from {drbsde_lab.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if plan.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, drbsde_lab)

    print("ready", flush=True)
    sys.stdout = sys.stderr  # the parent reads nothing after "ready"

    statuses = []
    experiment_s = []
    for name, config, out in plan["experiments"]:
        if tracer is not None:
            tracer.experiment = name
        start = perf_counter()
        try:
            status = cli.main(["run", config, "--out", out])
        except Exception:  # a crash is a failed experiment, not a lost run
            traceback.print_exc()
            status = "exception"
        experiment_s.append(perf_counter() - start)
        statuses.append(status)
    result = {
        "statuses": statuses,
        "run_s": sum(experiment_s),
        "experiment_s": experiment_s,
        "peak_rss_mb": _peak_rss_kib() / 1024.0,
    }
    if tracer is not None:
        tracer.dump(plan["trace"])
        table = tracing.span_table(tracer.spans)
        result["layers"] = tracing.layer_metrics(table, tracer.distinct_solves)
        result["table"] = table
        result["by_experiment"] = tracing.span_table(tracer.spans, by_experiment=True)
        result["spans"] = len(tracer.spans)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
