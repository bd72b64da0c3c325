"""Batch experiment harness.

``drbsde-lab run <config.json>`` dispatches one experiment -- a solve, a
penalization sweep, a pasting cross-check, a game-value verification, an
axiom or hypothesis sweep, or a Monte Carlo cross-check -- and writes its
reports under the output directory.  Exit status: 0 when every requested
verification passes its tolerance, 1 on verification failure (reports are
still written), 2 on configuration or size-guard errors, 3 when a solver
fails (an implicit step does not converge, a regression is singular), 4 on
any other exception, an internal error; after a 3 or a 4 the report says
``"passed": false`` and names the error (an implicit failure also gives its
step, node and residual, ``null`` when not finite).

Every config key is a row of ``FIELDS``, checked for every kind before a
run starts; each size's ceiling derives from ``MEMORY_BUDGET``.

``drbsde-lab verify-all <dir>`` runs every ``*.json`` config in a directory
and aggregates a pass/fail table.

Report files are byte-identical across runs of the same config; the run
manifest additionally records wall time and is exempt from that guarantee.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import (FixedPointError, Solution, solve_bsde, verify_evaluation_axioms,
                   write_solution_csv, write_solution_sidecar)
from .drbsde import DynkinGame, cross_validate, solve_drbsde, write_ledger_csv
from .dynkin import (_check_oracle_tree, game_value_oracle, verify_saddle, write_game_report,
                     write_pair_table_csv)
from .exprs import ExpressionError, compile_expression
from .generator import DEFAULT_BOX, Generator, check_hypotheses, registry_generator
from .lattice import (AdaptedProcess, Lattice, TerminalPayoff, _write_json, build_lattice,
                      write_process_csv)
from .mc import (McProblem, PathDataError, RegressionBasis, SingularRegressionError,
                 simulate_paths, solve_mc, write_bundle_csv, write_mc_sidecar)
from .rbsde import (DEFAULT_SCHEDULE, _check_reflected_inputs, _check_schedule, penalization_run,
                    solve_rbsde, write_penalization_csv)

KINDS = ("bsde", "rbsde", "drbsde", "dynkin-verify", "penalization", "pasting", "axioms",
         "hypotheses", "mc-crosscheck")

# Every size ceiling derives from this one budget: a config whose run would
# hold more at once is a config error.  The costs per unit are peak-RSS
# slopes (numpy 2.4, x86-64) rounded up to whole float64 counts.
MEMORY_BUDGET = 1 << 30
NODE_BYTES = 32       # one solution's Y, Z, K, J at a node; the run's data take one set more
PATH_STEP_BYTES = 16  # a simulated path's increment and value at one step
COLUMN_BYTES = 64     # a path's share of one regression column: design, fit, passes
SAMPLE_BYTES = 128    # one hypothesis sample's draws, driver values and margins
CASE_BYTES = 64       # one axiom case's payoffs, events and rules at a node, over the run


class ConfigError(ValueError):
    pass


@contextmanager
def _config_check():
    """Inputs checked inside are config data: their errors are config errors."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# -- size ceilings: (largest value the budget admits, what it sizes), or None
# -- when the kind allocates nothing by the field

def _nodes(v) -> int:
    n = v["lattice.N"]
    return (1 << n + 1) - 1 if v["lattice.mode"] == "full-tree" else (n + 1) * (n + 2) // 2


def _node_sets(v, levels: int) -> int:
    """Node arrays a run holds, in sets of ``NODE_BYTES``: its data and one
    per solution, a penalty sweep of ``levels`` holding every level of both
    families."""
    return 2 + 2 * levels if v["kind"] in ("penalization", "pasting") else 2


# lattice.N counts at most the default schedule's levels, so a longer schedule
# is blamed on the schedule's own ceiling
def _lattice_ceiling(v):
    per_node = NODE_BYTES * _node_sets(v, min(len(v["schedule"]), len(DEFAULT_SCHEDULE)))
    most, mode = MEMORY_BUDGET // per_node, v["lattice.mode"]
    n = (most + 1).bit_length() - 2 if mode == "full-tree" else (math.isqrt(8 * most + 1) - 3) // 2
    return n, f"a {mode} lattice of at most {most} nodes at {per_node} bytes a node"


def _path_bytes(v) -> int:
    """Budget the lattice solve leaves to the path bundle and regressions."""
    return MEMORY_BUDGET - _nodes(v) * NODE_BYTES * _node_sets(v, len(v["schedule"]))


# a path holds PATH_STEP_BYTES a step and COLUMN_BYTES for each of the basis's
# degree + 1 columns and three working ones
def _paths_ceiling(v):
    if v["kind"] == "mc-crosscheck":
        per_path = PATH_STEP_BYTES * v["lattice.N"] + COLUMN_BYTES * 4  # at degree 0
        return _path_bytes(v) // per_path, f"paths of {v['lattice.N']} steps beside the lattice"


def _degree_ceiling(v):
    if v["kind"] == "mc-crosscheck":
        per_path = _path_bytes(v) // v["mc.M"] - PATH_STEP_BYTES * v["lattice.N"]
        return per_path // COLUMN_BYTES - 4, f"regressions on {v['mc.M']} paths"


def _levels_ceiling(v):
    if v["kind"] in ("penalization", "pasting"):
        sets = MEMORY_BUDGET // (NODE_BYTES * _nodes(v))
        return (sets - 2) // 2, (f"penalty levels on {_nodes(v)} nodes at "
                                 f"{2 * NODE_BYTES} bytes a node and level")


def _cases_ceiling(v):
    if v["kind"] == "axioms":
        return MEMORY_BUDGET // (CASE_BYTES * _nodes(v)), f"axiom cases on {_nodes(v)} nodes"


def _samples_ceiling(v):
    if v["kind"] == "hypotheses":
        return MEMORY_BUDGET // SAMPLE_BYTES, "hypothesis samples"


@dataclass(frozen=True)
class Field:
    """One config key: its JSON type, its default and its bounds.

    ``low`` is the least value and ``above`` a strict lower bound;
    ``ceiling(values)`` bounds a size by ``MEMORY_BUDGET``; ``choices`` are
    the allowed strings; ``label`` names the field in messages (its path
    by default).  An absent required key is an error; another absent key
    takes its default, which is not checked."""

    type: str
    default: object = None
    low: float | None = None
    above: float | None = None
    ceiling: object = None
    choices: tuple = ()
    required: bool = False
    label: str | None = None


# Every key a config may hold, nested ones by dotted path, in check order.
# Every key is checked whatever the kind; a kind the value never reaches
# still rejects it.
FIELDS = {
    "kind": Field("choice", choices=KINDS, required=True),
    "lattice": Field("object"),
    "lattice.T": Field("real", 1.0, above=0),
    "lattice.N": Field("int", 8, low=1, ceiling=_lattice_ceiling),
    "lattice.mode": Field("choice", "recombining", choices=("recombining", "full-tree")),
    "generator": Field("generator", "zero"),
    "generator.name": Field("str", required=True, label="generator name"),
    "generator.kappa": Field("real"),
    "generator.lam": Field("real"),
    "generator.alpha": Field("real"),
    "generator.h": Field("real"),
    "scheme": Field("choice", "explicit", choices=("explicit", "implicit")),
    "side": Field("choice", "lower", choices=("lower", "upper")),
    "terminal": Field("expression"),
    "lower": Field("expression"),
    "upper": Field("expression"),
    "schedule": Field("schedule", DEFAULT_SCHEDULE, ceiling=_levels_ceiling),
    "seed": Field("int", 0, low=0),
    "cases": Field("int", 50, low=1, ceiling=_cases_ceiling),
    "samples": Field("int", 2000, low=1, ceiling=_samples_ceiling),
    "box": Field("box", DEFAULT_BOX),
    "expected_failures": Field("names", (), choices=("H1", "H2", "H3", "H4", "H5")),
    "mc": Field("object"),
    "mc.M": Field("int", 100_000, low=100, ceiling=_paths_ceiling),
    "mc.degree": Field("int", 3, low=0, ceiling=_degree_ceiling, label="basis degree"),
    "tolerances": Field("object"),
    # route agreement, oracle equality, saddle slack
    "tolerances.value_gap": Field("real", 1e-10, low=0),
    # direct solvers are exact
    "tolerances.flat_off": Field("real", 0.0, low=0),
    "tolerances.axioms": Field("real", 1e-10, low=0),
    # MC vs lattice: 3*SE + fraction*scale
    "tolerances.mc_scale_fraction": Field("real", 0.05, low=0),
    "out": Field("str"),
    "write_pair_table": Field("bool", False),
    "write_paths": Field("bool", False),
}

# object path ("" for the config itself) -> its keys, in table order
_KEYS: dict = {}
for _parent, _, _key in (path.rpartition(".") for path in FIELDS):
    _KEYS.setdefault(_parent, []).append(_key)


def _check_keys(what: str, spec, known) -> None:
    """A config object must be a JSON object, and an unknown key of one is an
    error, so a misspelt key never leaves its default in place."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {spec!r}")
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"bad {what} spec {spec!r}: unknown keys {sorted(unknown)}, "
                          f"expected among {list(known)}")


def _number(label: str, value, what: str = "a number") -> float:
    """A JSON number as a float: ``true`` and ``"2"`` are config errors,
    never read as 1 and 2."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be {what}, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{label} must be {what} within the float range") from exc


def _check(path: str, f: Field, value):
    """``value`` of key ``path`` checked against its row, as the run reads it."""
    label = f.label or path
    if f.type == "int":
        # 4 and 4.0 pass; 4.7 is a config error, not a truncation, and so is true
        if not (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer()):
            raise ConfigError(f"{label} must be an integer, got {value!r}")
        if f.low is not None and value < f.low:
            raise ConfigError(f"{label} must be >= {f.low}, got {value!r}")
        return int(value)
    if f.type == "real":
        # NaN or a negative tolerance fails every check and inf passes every one
        x = _number(label, value, "a number" if f.low is None else f"a finite number >= {f.low}")
        if not (math.isfinite(x) and (f.low is None or x >= f.low)
                and (f.above is None or x > f.above)):
            bound = (f" >= {f.low}" if f.low is not None
                     else f" > {f.above}" if f.above is not None else "")
            raise ConfigError(f"{label} must be a finite number{bound}, got {value!r}")
        return x
    if f.type == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{label} must be true or false, got {value!r}")
    if f.type == "str" and not isinstance(value, str):
        raise ConfigError(f"{label} must be a string, got {value!r}")
    if f.type == "choice" and value not in f.choices:
        raise ConfigError(f"{label} must be one of {f.choices}, got {value!r}")
    if f.type == "object":
        _check_keys(label, value, _KEYS[path])
    if f.type == "generator":
        if isinstance(value, dict):
            _check_keys(label, value, _KEYS[path])
        elif not isinstance(value, str):
            raise ConfigError(f"{label} must be a registry name or an object, got {value!r}")
    if f.type == "expression":
        if not isinstance(value, str):
            raise ConfigError(f"{label!r} must be an expression string, got {value!r}")
        try:
            return compile_expression(value)
        except ExpressionError as exc:
            raise ConfigError(f"bad {label!r} expression: {exc}") from exc
    if f.type == "schedule":
        if not isinstance(value, list):
            raise ConfigError(f"{label} must be a list of numbers, got {value!r}")
        with _config_check():
            return _check_schedule([_number("penalty level", n) for n in value])
    if f.type == "box":
        # only an absent box takes the default: [], false and 0 are errors
        if not (isinstance(value, (list, tuple)) and len(value) == 4
                and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value)):
            raise ConfigError(f"{label} must be a list of four (lo, hi) pairs, got {value!r}")
        box = tuple(tuple(_number("box bound", x) for x in pair) for pair in value)
        if not all(0.0 <= hi - lo < math.inf for lo, hi in box):  # NaN fails too
            raise ConfigError(f"{label} needs (lo, hi) pairs with lo <= hi and hi - lo "
                              f"finite, got {box}")
        return box
    if f.type == "names":
        if not (isinstance(value, list)
                and all(isinstance(name, str) and name in f.choices for name in value)):
            raise ConfigError(f"{label} must list names among {list(f.choices)}")
        return tuple(value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the raw dict, which round-trips losslessly, and its
    values checked against ``FIELDS``, read by key path (``cfg["mc.M"]``)."""

    raw: dict
    values: dict = field(repr=False, compare=False)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the JSON decoder's stack
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Walk ``FIELDS`` once: each key checked in table order, nested keys
        inside their checked object, then each size against its ceiling."""
        _check_keys("config", raw, _KEYS[""])
        values = {"": raw}
        for path, f in FIELDS.items():
            parent, _, key = path.rpartition(".")
            spec = values[parent]
            if isinstance(spec, dict) and (key in spec or f.required):
                values[path] = _check(path, f, spec.get(key))
            else:
                values[path] = f.default
        for path, f in FIELDS.items():
            ceiling = f.ceiling and f.ceiling(values)
            size = len(values[path]) if f.type == "schedule" else values[path]
            if ceiling and size > ceiling[0]:
                parent, _, key = path.rpartition(".")
                got = (f"{size} levels" if f.type == "schedule"
                       else repr((values[parent] or {}).get(key, values[path])))
                raise ConfigError(
                    f"{f.label or path} must be <= {ceiling[0]} ({ceiling[1]}, within the "
                    f"{MEMORY_BUDGET >> 20} MiB memory budget), got {got}")
        return cls(raw, values)

    def __getitem__(self, path: str):
        return self.values[path]

    def dumps(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    # -- inputs that need data or I/O ------------------------------------

    def lattice(self) -> Lattice:
        if self["lattice"] is None:
            raise ConfigError(f"{self['kind']} config needs a 'lattice' object")
        with _config_check():
            return build_lattice(self["lattice.T"], self["lattice.N"], self["lattice.mode"])

    def generator(self) -> Generator:
        spec = self["generator"]
        try:
            g = registry_generator(spec if isinstance(spec, str) else self["generator.name"])
            overrides = {key: self[f"generator.{key}"] for key in _KEYS["generator"]
                         if key != "name" and self[f"generator.{key}"] is not None}
            return replace(g, **overrides) if overrides else g
        except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc

    def terminal(self, lattice: Lattice) -> TerminalPayoff:
        fn = self["terminal"]
        if fn is None:
            raise ConfigError(f"{self['kind']} config needs a 'terminal' expression")
        with _config_check():
            return TerminalPayoff.from_function(lattice, lambda s: fn(lattice.T, s))

    def obstacle(self, key: str, lattice: Lattice):
        if self[key] is None:
            return None
        process = AdaptedProcess.from_function(lattice, self[key])
        for k, values in enumerate(process.values):
            bad = ~np.isfinite(values)
            if bad.any():
                raise ConfigError(f"{key!r} obstacle is not finite at node "
                                  f"{lattice.node_label(k, int(np.argmax(bad)))}")
        return process


def _solution_files(out: Path, sol: Solution) -> None:
    write_solution_csv(out / "solution.csv", sol)
    write_solution_sidecar(out / "solution.meta.json", sol)


def _run_bsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    xi = cfg.terminal(lat)
    sol = solve_bsde(lat, xi, cfg.generator(), cfg["scheme"])
    _solution_files(out, sol)
    # bitwise: the solver must hand the terminal data through untouched
    terminal_matches = sol.Y.terminal().tobytes() == xi.values.tobytes()
    checks = {"terminal_matches": terminal_matches,
              "guard_ok": bool(sol.meta["monotone_guard_ok"])}
    return {"passed": terminal_matches, "checks": checks, "y0": sol.root_value}


def _one_obstacle(cfg: ExperimentConfig, lat: Lattice):
    """``(side, obstacle, terminal)`` of a one-obstacle config, checked."""
    side = cfg["side"]
    obstacle, xi = cfg.obstacle(side, lat), cfg.terminal(lat)
    if obstacle is None:
        raise ConfigError(f"{cfg['kind']} config needs a {side!r} obstacle expression")
    with _config_check():
        _check_reflected_inputs(lat, xi, obstacle, side)
    return side, obstacle, xi


def _run_rbsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    side, obstacle, xi = _one_obstacle(cfg, lat)
    sol = solve_rbsde(lat, xi, cfg.generator(), obstacle, side, cfg["scheme"])
    _solution_files(out, sol)
    write_process_csv(out / "obstacle.csv", obstacle)
    flat = sol.flat_off_lower() if side == "lower" else sol.flat_off_upper()
    bound_ok = all(np.all(y >= o if side == "lower" else y <= o)
                   for y, o in zip(sol.Y.values, obstacle.values))
    return {"passed": flat <= cfg["tolerances.flat_off"] and bound_ok,
            "checks": {"flat_off": flat, "obstacle_respected": bound_ok}, "y0": sol.root_value}


def _game(cfg: ExperimentConfig, lat: Lattice) -> DynkinGame:
    lower = cfg.obstacle("lower", lat)
    upper = cfg.obstacle("upper", lat)
    if lower is None or upper is None:
        raise ConfigError("two-obstacle configs need 'lower' and 'upper' expressions")
    try:
        return DynkinGame(xi=cfg.terminal(lat), g=cfg.generator(), L=lower, U=upper)
    except ValueError as exc:  # SeparationError included
        raise ConfigError(str(exc)) from exc


def _run_drbsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    sol = solve_drbsde(lat, game, cfg["scheme"])
    _solution_files(out, sol)
    flat = max(sol.flat_off_lower(), sol.flat_off_upper())
    between = all(np.all((y >= lo) & (y <= up))
                  for y, lo, up in zip(sol.Y.values, game.L.values, game.U.values))
    checks = {"flat_off": flat, "between_obstacles": between,
              "separation_margin": game.separation_margin()}
    return {"passed": flat <= cfg["tolerances.flat_off"] and between, "checks": checks,
            "y0": sol.root_value}


def _run_dynkin_verify(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    tol = cfg["tolerances.value_gap"]
    with _config_check():
        _check_oracle_tree(lat)
    sol = solve_drbsde(lat, game, cfg["scheme"])  # one solve serves both checks
    oracle = game_value_oracle(lat, game, cfg["scheme"], tol, solution=sol)
    saddle = verify_saddle(lat, game, sol, cfg["scheme"], tol, cfg["seed"])
    passed = oracle.passed and saddle.passed
    write_game_report(out / "game_report.txt", oracle, passed)
    if cfg["write_pair_table"]:
        write_pair_table_csv(out / "pair_table.csv", oracle.table)
    checks = {"y0": oracle.y0, "sup_inf": oracle.sup_inf, "inf_sup": oracle.inf_sup,
              "oracle_gap": oracle.oracle_gap, "n_rules": oracle.n_rules,
              "saddle_violation": saddle.max_saddle_violation,
              "saddle_equality_gap": saddle.saddle_equality_gap,
              "sandwich_slack": saddle.sandwich_slack}
    return {"passed": passed, "checks": checks, "y0": oracle.y0}


def _run_penalization(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    side, obstacle, xi = _one_obstacle(cfg, lat)
    levels, report = penalization_run(lat, xi, cfg.generator(), obstacle, side,
                                      cfg["schedule"], cfg["scheme"])
    write_penalization_csv(out / "penalization.csv", report)
    _solution_files(out, levels[-1])
    passed = report.total_violations == 0 and np.isfinite(report.final_gap)
    checks = {"violations": report.total_violations, "final_gap": report.final_gap,
              "converged": report.converged, "gap_tolerance": report.gap_tolerance}
    return {"passed": bool(passed), "checks": checks}


def _run_pasting(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    if lat.mode != "full-tree":
        raise ConfigError("pasting experiments need a full-tree lattice")
    game = _game(cfg, lat)
    report = cross_validate(lat, game, cfg["scheme"], cfg["schedule"])
    ledger = report.ledger
    _solution_files(out, report.pasted)
    write_ledger_csv(out / "ledger.csv", ledger)
    tol = cfg["tolerances.value_gap"]
    passed = (report.gap_direct_pasting <= tol and ledger.max_depth <= lat.N + 1
              and report.order_violation <= tol)
    checks = {"gap_direct_pasting": report.gap_direct_pasting,
              "gap_direct_increasing": report.gap_direct_increasing,
              "gap_direct_decreasing": report.gap_direct_decreasing,
              "squeeze_violation": report.squeeze_violation, "ledger_max_depth": ledger.max_depth,
              "flat_off_lower": report.flat_off_lower, "flat_off_upper": report.flat_off_upper}
    return {"passed": bool(passed), "checks": checks}


def _run_axioms(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    if lat.mode != "full-tree":
        raise ConfigError("axioms experiments need a full-tree lattice")
    report = verify_evaluation_axioms(
        lat, cfg.generator(), cases=cfg["cases"], seed=cfg["seed"], scheme=cfg["scheme"],
        tol=cfg["tolerances.axioms"],
    )
    checks = {name: {"status": c.status, "worst": c.worst, "cases": c.cases}
              for name, c in report.checks.items()}
    return {"passed": report.all_pass, "checks": checks}


def _run_hypotheses(cfg: ExperimentConfig, out: Path) -> dict:
    report = check_hypotheses(cfg.generator(), cfg["samples"], cfg["box"], cfg["seed"])
    checks = {name: {"passed": r.passed, "worst": r.worst, "counterexample": r.counterexample}
              for name, r in report.results.items()}
    unexpected = [name for name, r in report.results.items()
                  if (not r.passed) != (name in cfg["expected_failures"])]
    return {"passed": not unexpected, "checks": checks, "unexpected": unexpected}


def _run_mc_crosscheck(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    lattice_sol = solve_drbsde(lat, game, cfg["scheme"])
    paths = simulate_paths(lat.T, lat.N, cfg["mc.M"], cfg["seed"])
    problem = McProblem(terminal=lambda states: cfg["terminal"](lat.T, states),
                        lower=cfg["lower"], upper=cfg["upper"])
    try:
        result = solve_mc(paths, problem, cfg.generator(), RegressionBasis(cfg["mc.degree"]),
                          cfg["scheme"])
    except PathDataError as exc:
        raise ConfigError(str(exc)) from exc
    write_mc_sidecar(out / "mc_estimate.json", result)
    if cfg["write_paths"]:
        write_bundle_csv(out / "paths.csv", paths)
    scale = game.scale()
    gap = abs(result.y0 - lattice_sol.root_value)
    budget = 3.0 * result.stderr + cfg["tolerances.mc_scale_fraction"] * scale
    checks = {"lattice_y0": lattice_sol.root_value, "mc_y0": result.y0,
              "stderr": result.stderr, "gap": gap, "budget": budget,
              "sanity_gate": paths.gate_ok, "max_condition": result.max_condition}
    return {"passed": bool(gap <= budget and paths.gate_ok), "checks": checks}


_DISPATCH = {"bsde": _run_bsde, "rbsde": _run_rbsde, "drbsde": _run_drbsde,
             "dynkin-verify": _run_dynkin_verify, "penalization": _run_penalization,
             "pasting": _run_pasting, "axioms": _run_axioms, "hypotheses": _run_hypotheses,
             "mc-crosscheck": _run_mc_crosscheck}


def run_experiment(config: ExperimentConfig, out_dir) -> int:
    """Run one experiment; returns the process exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    status = None
    try:
        payload = _DISPATCH[config["kind"]](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- any other exception is exit 4
        status = 3 if isinstance(exc, (FixedPointError, SingularRegressionError)) else 4
        what = "solver failure" if status == 3 else f"internal error: {type(exc).__name__}"
        print(f"{what}: {exc}", file=sys.stderr)
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, FixedPointError):
            error["step"] = exc.step
            error["node"] = exc.node
            error["residual"] = exc.residual if math.isfinite(exc.residual) else None
        payload = {"passed": False, "error": error}
    _write_json(out / "report.json", {"kind": config["kind"], **payload})
    _write_json(out / "manifest.json", {
        "config_sha256": config.digest(),
        "kind": config["kind"],
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    })
    if status is not None:
        return status
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drbsde-lab", description="batch solver and verifier for reflected backward equations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="JSON config file")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")

    all_p = sub.add_parser("verify-all", help="run every config in a directory")
    all_p.add_argument("config_dir")
    all_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = ExperimentConfig.load(args.config)
            if args.seed is not None:
                cfg = ExperimentConfig.from_dict({**cfg.raw, "seed": args.seed})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out = args.out or cfg["out"] or Path(args.config).with_suffix("").name + "_out"
        return run_experiment(cfg, out)

    base = Path(args.config_dir)
    configs = sorted(base.glob("*.json"))
    if not configs:
        print(f"no configs found in {base}", file=sys.stderr)
        return 2
    out_base = Path(args.out) if args.out else base / "results"
    names = {0: "PASS", 1: "FAIL", 2: "CONFIG-ERROR", 3: "SOLVER-ERROR", 4: "INTERNAL-ERROR"}
    worst = 0
    rows = []
    for path in configs:
        try:
            cfg = ExperimentConfig.load(path)
        except ConfigError as exc:
            print(f"config error in {path.name}: {exc}", file=sys.stderr)
            rows.append((path.name, "CONFIG-ERROR"))
            worst = max(worst, 2)
            continue
        status = run_experiment(cfg, out_base / path.stem)
        rows.append((path.name, names[status]))
        worst = max(worst, status)
    width = max(len(name) for name, _ in rows)
    print(f"{'config'.ljust(width)}  status")
    for name, status in rows:
        print(f"{name.ljust(width)}  {status}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
