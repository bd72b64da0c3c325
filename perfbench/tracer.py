"""Out-of-program tracing: spans around the public functions of each layer.

:func:`install` replaces the public functions of the nine ``drbsde_lab``
modules with timing wrappers, at every module that binds them by name (for
example ``step_candidate`` in ``bsde``, ``rbsde`` and ``drbsde``).  The
driver is traced by wrapping the ``fn`` of every ``Generator`` that the CLI's
``registry_generator`` returns; mirrored and penalized drivers call through
that wrapper, so they are counted too.

A span is ``(name, start, end, parent, experiment, count)``: ``name`` is
``module.function``, ``parent`` the index of the enclosing span (-1 at the
top), ``experiment`` the id the worker set before the call, and ``count`` the
work measured at the same boundary (points evaluated, pairs computed, bytes
written, ...).  Spans stay in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
from time import perf_counter

import numpy as np

LAYERS = ("cli", "exprs", "lattice", "generator", "bsde", "rbsde", "drbsde", "dynkin", "mc")

# private functions that carry a layer's work and are worth their own span
EXTRA = {"dynkin": ("_pair_table_block",)}

# methods and classmethods traced on their classes
METHODS = {"lattice": (("Lattice", "node_ids"),)}
CLASSMETHODS = {
    "lattice": (("AdaptedProcess", "from_function"), ("TerminalPayoff", "from_function")),
}

DRIVER_SPAN = "generator.fn"


def _points(args, kwargs, result):
    return int(np.broadcast(*(np.asarray(a) for a in args[1:4])).size)


def _pairs(args, kwargs, result):
    tau_flags, gamma_flags = args[2], args[3]
    return int(tau_flags[0].shape[0] * gamma_flags[0].shape[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _solution_rows(args, kwargs, result):
    return args[1].lattice.total_nodes


def _paths(args, kwargs, result):
    return int(result.M)


def _bundle_bytes(args, kwargs, result):
    # computed from the array sizes, not measured
    return int(result.increments.nbytes + result.states.nbytes)


# span name -> {count name: function of (args, kwargs, result)}
COUNTS = {
    DRIVER_SPAN: {"points": _points},
    "dynkin._pair_table_block": {"pairs": _pairs},
    "bsde.write_solution_csv": {"bytes": _file_bytes, "rows": _solution_rows},
    "lattice.write_process_csv": {"bytes": _file_bytes},
    "mc.simulate_paths": {"paths": _paths, "bundle_bytes": _bundle_bytes},
}


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.experiment = None
        self._games: dict = {}

    def wrap(self, name: str, fn):
        counters = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, done = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = None
                if counters is not None and done:
                    count = {k: f(args, kwargs, result) for k, f in counters.items()}
                spans[sid] = (name, start, end, parent, self.experiment, count)

        return traced

    def solve_key(self, game, scheme) -> None:
        """Record which (game, scheme) a ``solve_drbsde`` call solved."""
        self._games.setdefault((self.experiment, id(game), scheme), game)

    @property
    def distinct_solves(self) -> int:
        return len(self._games)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def install(tracer: Tracer, package) -> None:
    """Patch every layer of ``package`` (the imported ``drbsde_lab``)."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    binders = [package, *modules.values()]

    replaced = {}
    for layer, module in modules.items():
        targets = dict(_public_functions(module))
        for name in EXTRA.get(layer, ()):
            targets[name] = getattr(module, name)
        for name, fn in targets.items():
            replaced[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        for cls_name, meth in CLASSMETHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            fn = vars(cls)[meth].__func__
            setattr(cls, meth, classmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}", fn)))

    for module in binders:
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(module, name, wrapper)

    solve = modules["drbsde"].solve_drbsde

    def solve_drbsde(lattice, game, *args, **kwargs):
        tracer.solve_key(game, args[0] if args else kwargs.get("scheme", "explicit"))
        return solve(lattice, game, *args, **kwargs)

    for module in binders:
        if getattr(module, "solve_drbsde", None) is solve:
            setattr(module, "solve_drbsde", solve_drbsde)

    registry = modules["cli"].registry_generator

    def registry_generator(spec):
        g = registry(spec)
        return dataclasses.replace(g, fn=tracer.wrap(DRIVER_SPAN, g.fn))

    modules["cli"].registry_generator = registry_generator


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

# per-layer time metric -> span names whose self time it sums
SELF_TIME = {
    "exprs.compile_s": ("exprs.compile_expression",),
    "lattice.tabulate_s": (
        "lattice.build_lattice",
        "lattice.AdaptedProcess.from_function",
        "lattice.TerminalPayoff.from_function",
    ),
    "lattice.node_ids_s": ("lattice.Lattice.node_ids",),
    "lattice.write_process_s": ("lattice.write_process_csv",),
    "generator.eval_s": (DRIVER_SPAN,),
    "bsde.step_s": ("bsde.step_candidate",),
    "bsde.g_evaluate_s": ("bsde.g_evaluate",),
    "bsde.write_solution_s": ("bsde.write_solution_csv",),
    "rbsde.penalization_s": ("rbsde.penalization_run",),
    "rbsde.solve_s": ("rbsde.solve_rbsde",),
    "drbsde.solve_s": ("drbsde.solve_drbsde",),
    "drbsde.pasting_s": ("drbsde.pasting_construct",),
    "drbsde.cross_validate_s": ("drbsde.cross_validate",),
    "dynkin.pair_table_s": ("dynkin._pair_table_block", "dynkin.pair_value_table"),
    "dynkin.saddle_s": ("dynkin.verify_saddle",),
    "mc.simulate_s": ("mc.simulate_paths",),
    "mc.solve_s": ("mc.solve_mc",),
}

# per-layer count metric -> (span name, count key or None for calls)
COUNT_METRICS = {
    "cli.experiments": ("cli.run_experiment", None),
    "lattice.write_process_bytes": ("lattice.write_process_csv", "bytes"),
    "generator.evals": (DRIVER_SPAN, None),
    "generator.points": (DRIVER_SPAN, "points"),
    "bsde.steps": ("bsde.step_candidate", None),
    "bsde.g_evaluates": ("bsde.g_evaluate", None),
    "bsde.write_solution_bytes": ("bsde.write_solution_csv", "bytes"),
    "bsde.write_solution_rows": ("bsde.write_solution_csv", "rows"),
    "drbsde.solves": ("drbsde.solve_drbsde", None),
    "drbsde.pastings": ("drbsde.pasting_construct", None),
    "dynkin.pairs": ("dynkin._pair_table_block", "pairs"),
    "mc.paths": ("mc.simulate_paths", "paths"),
    "mc.bundle_bytes": ("mc.simulate_paths", "bundle_bytes"),
}


def span_table(spans, by_experiment: bool = False) -> dict:
    """Span name (``experiment/name`` when ``by_experiment``) ->
    {calls, total_s, self_s, <count keys>}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _exp, _count in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict = {}
    for i, (name, start, end, _parent, exp, count) in enumerate(spans):
        key = f"{exp}/{name}" if by_experiment else name
        row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        for key, value in (count or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def layer_metrics(table: dict, distinct_solves: int) -> dict:
    """The benchmark's per-layer metrics from one traced run's span table."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".", 1)[0] == layer
        )
    for metric, names in SELF_TIME.items():
        out[metric] = sum(table[n]["self_s"] for n in names if n in table)
    for metric, (name, key) in COUNT_METRICS.items():
        row = table.get(name, {})
        out[metric] = row.get("calls" if key is None else key, 0)
    steps = out["bsde.steps"]
    out["generator.evals_per_step"] = out["generator.evals"] / steps if steps else 0.0
    solves = out["drbsde.solves"]
    out["drbsde.useful_solve_ratio"] = distinct_solves / solves if solves else 0.0
    return out
