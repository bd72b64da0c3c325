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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import (
    FixedPointError,
    Solution,
    solve_bsde,
    verify_evaluation_axioms,
    write_solution_csv,
    write_solution_sidecar,
)
from .drbsde import (
    DynkinGame,
    SeparationError,
    cross_validate,
    solve_drbsde,
    write_ledger_csv,
)
from .dynkin import (
    _check_oracle_tree,
    game_value_oracle,
    verify_saddle,
    write_game_report,
    write_pair_table_csv,
)
from .exprs import ExpressionError, compile_expression
from .generator import DEFAULT_BOX, Generator, check_hypotheses, registry_generator
from .lattice import (
    AdaptedProcess,
    Lattice,
    TerminalPayoff,
    _write_json,
    build_lattice,
    write_process_csv,
)
from .mc import (
    McProblem,
    PathDataError,
    RegressionBasis,
    SingularRegressionError,
    simulate_paths,
    solve_mc,
    write_bundle_csv,
    write_mc_sidecar,
)
from .rbsde import (_check_reflected_inputs, _check_schedule, penalization_run, solve_rbsde,
                    write_penalization_csv)

KINDS = (
    "bsde",
    "rbsde",
    "drbsde",
    "dynkin-verify",
    "penalization",
    "pasting",
    "axioms",
    "hypotheses",
    "mc-crosscheck",
)

DEFAULT_TOLERANCES = {
    "value_gap": 1e-10,        # route agreement, oracle equality, saddle slack
    "flat_off": 0.0,           # direct solvers are exact
    "axioms": 1e-10,
    "mc_scale_fraction": 0.05, # MC vs lattice: 3*SE + fraction*scale
}

# every top-level key some kind reads; one set for all kinds
CONFIG_KEYS = ("kind", "lattice", "generator", "scheme", "side", "terminal", "lower", "upper",
               "seed", "cases", "samples", "box", "expected_failures", "schedule",
               "tolerances", "out", "write_pair_table", "write_paths", "mc")


class ConfigError(ValueError):
    pass


@contextmanager
def _config_check():
    """Inputs checked inside are config data: their errors are config errors."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(what: str, spec, known) -> None:
    """A config object must be a JSON object, and an unknown key of one is an
    error, so a misspelt key never leaves its default in place."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {spec!r}")
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"bad {what} spec {spec!r}: unknown keys {sorted(unknown)}, "
                          f"expected among {list(known)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated view of one experiment; the raw dict round-trips losslessly."""

    raw: dict

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
        _check_keys("config", raw, CONFIG_KEYS)
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
        tolerances = raw.get("tolerances", {})
        _check_keys("tolerances", tolerances, DEFAULT_TOLERANCES)
        for key, value in tolerances.items():
            # NaN or a negative fails every check and inf passes every one
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and 0 <= value <= sys.float_info.max):
                raise ConfigError(f"tolerance {key} must be a finite number >= 0, got {value!r}")
        if not isinstance(raw.get("out", ""), str):
            raise ConfigError(f"out must be a string, got {raw['out']!r}")
        for key in ("write_pair_table", "write_paths"):
            if not isinstance(raw.get(key, False), bool):
                raise ConfigError(f"{key} must be true or false, got {raw[key]!r}")
        return cls(raw)

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    def dumps(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    # -- typed accessors -------------------------------------------------

    def lattice(self) -> Lattice:
        spec = self.raw.get("lattice")
        _check_keys("lattice", spec, ("T", "N", "mode"))
        with _config_check():
            return build_lattice(
                self.real("T", spec.get("T", 1.0)),
                self.integer("N", 8, spec),
                spec.get("mode", "recombining"),
            )

    def generator(self) -> Generator:
        spec = self.raw.get("generator", "zero")
        constants = ("kappa", "lam", "alpha", "h")
        if isinstance(spec, dict):
            _check_keys("generator", spec, ("name", *constants))
        try:
            if isinstance(spec, str):
                return registry_generator(spec)
            if isinstance(spec, dict):
                if not isinstance(spec.get("name"), str):
                    raise ValueError(f"generator name must be a string, got {spec.get('name')!r}")
                g = registry_generator(spec["name"])
                overrides = {key: self.real(key, spec[key]) for key in constants if key in spec}
                if overrides:
                    g = replace(g, **overrides)
                return g
        except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc
        raise ConfigError(f"bad generator spec {spec!r}")

    def expression(self, key: str, required: bool = False):
        src = self.raw.get(key)
        if src is None:
            if required:
                raise ConfigError(f"config needs a {key!r} expression")
            return None
        if not isinstance(src, str):
            raise ConfigError(f"{key!r} must be an expression string, got {src!r}")
        try:
            return compile_expression(src)
        except ExpressionError as exc:
            raise ConfigError(f"bad {key!r} expression: {exc}") from exc

    def terminal(self, lattice: Lattice) -> TerminalPayoff:
        fn = self.expression("terminal", required=True)
        with _config_check():
            return TerminalPayoff.from_function(lattice, lambda s: fn(lattice.T, s))

    def obstacle(self, key: str, lattice: Lattice):
        fn = self.expression(key)
        if fn is None:
            return None
        process = AdaptedProcess.from_function(lattice, fn)
        for k, values in enumerate(process.values):
            bad = ~np.isfinite(values)
            if bad.any():
                i = int(np.argmax(bad))
                raise ConfigError(f"{key!r} obstacle is not finite at node "
                                  f"(k={k}, id={lattice.node_ids(k, i, i + 1)[0]})")
        return process

    def tolerance(self, key: str) -> float:
        return float(self.raw.get("tolerances", {}).get(key, DEFAULT_TOLERANCES[key]))

    def integer(self, key: str, default: int, spec: dict | None = None,
                low: float = -math.inf) -> int:
        """Integral number ``key`` of ``spec`` (the top level by default), at
        least ``low``: ``4`` and ``4.0`` pass, ``4.7`` is a config error, not
        a truncation, and so is ``true``."""
        with _config_check():
            value = (self.raw if spec is None else spec).get(key, default)
            if not (isinstance(value, int) and not isinstance(value, bool)
                    or isinstance(value, float) and value.is_integer()):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value!r}")
            return int(value)

    @staticmethod
    def real(name: str, value) -> float:
        """Real-number field ``name`` holding ``value``: a JSON number, so
        ``true`` and ``"2"`` are config errors, never read as 1 and 2."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError as exc:  # an integer beyond the float range
            raise ConfigError(f"{name} must be a number within the float range") from exc

    def choice(self, key: str, default: str, allowed) -> str:
        value = self.raw.get(key, default)
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
        return value

    @property
    def scheme(self) -> str:
        return self.choice("scheme", "explicit", ("explicit", "implicit"))

    @property
    def seed(self) -> int:
        return self.integer("seed", 0, low=0)

    @property
    def schedule(self):
        with _config_check():
            levels = self.raw.get("schedule", [1, 4, 16, 64, 256, 1024])
            if not isinstance(levels, list):
                raise ValueError(f"schedule must be a list of numbers, got {levels!r}")
            return _check_schedule([self.real("penalty level", n) for n in levels])


def _solution_files(out: Path, sol: Solution) -> None:
    write_solution_csv(out / "solution.csv", sol)
    write_solution_sidecar(out / "solution.meta.json", sol)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def _run_bsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    xi = cfg.terminal(lat)
    sol = solve_bsde(lat, xi, cfg.generator(), cfg.scheme)
    _solution_files(out, sol)
    # bitwise: the solver must hand the terminal data through untouched
    terminal_matches = sol.Y.terminal().tobytes() == xi.values.tobytes()
    checks = {
        "terminal_matches": terminal_matches,
        "guard_ok": bool(sol.meta["monotone_guard_ok"]),
    }
    return {"passed": terminal_matches, "checks": checks, "y0": sol.root_value}


def _one_obstacle(cfg: ExperimentConfig, lat: Lattice):
    """``(side, obstacle, terminal)`` of a one-obstacle config, checked."""
    side = cfg.choice("side", "lower", ("lower", "upper"))
    obstacle, xi = cfg.obstacle(side, lat), cfg.terminal(lat)
    if obstacle is None:
        raise ConfigError(f"{cfg.kind} config needs a {side!r} obstacle expression")
    with _config_check():
        _check_reflected_inputs(lat, xi, obstacle, side)
    return side, obstacle, xi


def _run_rbsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    side, obstacle, xi = _one_obstacle(cfg, lat)
    sol = solve_rbsde(lat, xi, cfg.generator(), obstacle, side, cfg.scheme)
    _solution_files(out, sol)
    write_process_csv(out / "obstacle.csv", obstacle)
    flat = sol.flat_off_lower() if side == "lower" else sol.flat_off_upper()
    bound_ok = all(
        bool(np.all(sol.Y[k] >= obstacle[k] - 1e-15)) if side == "lower"
        else bool(np.all(sol.Y[k] <= obstacle[k] + 1e-15))
        for k in range(lat.N + 1)
    )
    passed = flat <= cfg.tolerance("flat_off") and bound_ok
    return {
        "passed": passed,
        "checks": {"flat_off": flat, "obstacle_respected": bound_ok},
        "y0": sol.root_value,
    }


def _game(cfg: ExperimentConfig, lat: Lattice) -> DynkinGame:
    lower = cfg.obstacle("lower", lat)
    upper = cfg.obstacle("upper", lat)
    if lower is None or upper is None:
        raise ConfigError("two-obstacle configs need 'lower' and 'upper' expressions")
    try:
        return DynkinGame(xi=cfg.terminal(lat), g=cfg.generator(), L=lower, U=upper)
    except (SeparationError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _run_drbsde(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    sol = solve_drbsde(lat, game, cfg.scheme)
    _solution_files(out, sol)
    flat = max(sol.flat_off_lower(), sol.flat_off_upper())
    between = all(
        bool(np.all((sol.Y[k] >= game.L[k] - 1e-15) & (sol.Y[k] <= game.U[k] + 1e-15)))
        for k in range(lat.N + 1)
    )
    passed = flat <= cfg.tolerance("flat_off") and between
    return {
        "passed": passed,
        "checks": {
            "flat_off": flat,
            "between_obstacles": between,
            "separation_margin": game.separation_margin(),
        },
        "y0": sol.root_value,
    }


def _run_dynkin_verify(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    tol = cfg.tolerance("value_gap")
    with _config_check():
        _check_oracle_tree(lat)
    sol = solve_drbsde(lat, game, cfg.scheme)  # one solve serves both checks
    oracle = game_value_oracle(lat, game, cfg.scheme, tol, solution=sol)
    saddle = verify_saddle(lat, game, sol, cfg.scheme, tol, cfg.seed)
    write_game_report(out / "game_report.txt", oracle)
    if cfg.raw.get("write_pair_table", False):
        write_pair_table_csv(out / "pair_table.csv", oracle.table)
    passed = oracle.passed and saddle.passed
    return {
        "passed": passed,
        "checks": {
            "y0": oracle.y0,
            "sup_inf": oracle.sup_inf,
            "inf_sup": oracle.inf_sup,
            "oracle_gap": oracle.oracle_gap,
            "n_rules": oracle.n_rules,
            "saddle_violation": saddle.max_saddle_violation,
            "saddle_equality_gap": saddle.saddle_equality_gap,
            "sandwich_slack": saddle.sandwich_slack,
        },
        "y0": oracle.y0,
    }


def _run_penalization(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    side, obstacle, xi = _one_obstacle(cfg, lat)
    levels, report = penalization_run(
        lat, xi, cfg.generator(), obstacle, side, cfg.schedule, cfg.scheme
    )
    write_penalization_csv(out / "penalization.csv", report)
    _solution_files(out, levels[-1])
    passed = report.total_violations == 0 and np.isfinite(report.final_gap)
    return {
        "passed": bool(passed),
        "checks": {
            "violations": report.total_violations,
            "final_gap": report.final_gap,
            "converged": report.converged,
            "gap_tolerance": report.gap_tolerance,
        },
    }


def _run_pasting(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    if lat.mode != "full-tree":
        raise ConfigError("pasting experiments need a full-tree lattice")
    game = _game(cfg, lat)
    report = cross_validate(lat, game, cfg.scheme, cfg.schedule)
    ledger = report.ledger
    _solution_files(out, report.pasted)
    write_ledger_csv(out / "ledger.csv", ledger)
    tol = cfg.tolerance("value_gap")
    passed = (
        report.gap_direct_pasting <= tol
        and ledger.max_depth <= lat.N + 1
        and report.order_violation <= tol
    )
    return {
        "passed": bool(passed),
        "checks": {
            "gap_direct_pasting": report.gap_direct_pasting,
            "gap_direct_increasing": report.gap_direct_increasing,
            "gap_direct_decreasing": report.gap_direct_decreasing,
            "squeeze_violation": report.squeeze_violation,
            "ledger_max_depth": ledger.max_depth,
            "flat_off_lower": report.flat_off_lower,
            "flat_off_upper": report.flat_off_upper,
        },
    }


def _run_axioms(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    if lat.mode != "full-tree":
        raise ConfigError("axioms experiments need a full-tree lattice")
    cases = cfg.integer("cases", 50, low=1)
    report = verify_evaluation_axioms(
        lat, cfg.generator(), cases=cases, seed=cfg.seed, scheme=cfg.scheme,
        tol=cfg.tolerance("axioms"),
    )
    checks = {
        name: {"status": c.status, "worst": c.worst, "cases": c.cases}
        for name, c in report.checks.items()
    }
    return {"passed": report.all_pass, "checks": checks}


def _run_hypotheses(cfg: ExperimentConfig, out: Path) -> dict:
    with _config_check():
        box = cfg.raw.get("box", DEFAULT_BOX)
        if not (isinstance(box, (list, tuple)) and len(box) == 4
                and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in box)):
            raise ValueError(f"box must be a list of four (lo, hi) pairs, got {box!r}")
        box = tuple(tuple(cfg.real("box bound", x) for x in pair) for pair in box)
        samples = cfg.integer("samples", 2000, low=1)
        if not all(0.0 <= hi - lo < math.inf for lo, hi in box):  # NaN fails too
            raise ValueError(f"box needs (lo, hi) pairs with lo <= hi and hi - lo finite, "
                             f"got {box}")
    report = check_hypotheses(cfg.generator(), samples, box, cfg.seed)
    expected_fail = cfg.raw.get("expected_failures", [])
    if not (isinstance(expected_fail, list)
            and all(isinstance(name, str) and name in report.results for name in expected_fail)):
        raise ConfigError(f"expected_failures must list names among {sorted(report.results)}")
    checks = {
        name: {
            "passed": r.passed,
            "worst": r.worst,
            "counterexample": r.counterexample,
        }
        for name, r in report.results.items()
    }
    unexpected = [
        name for name, r in report.results.items()
        if (not r.passed) != (name in expected_fail)
    ]
    return {
        "passed": not unexpected,
        "checks": checks,
        "unexpected": unexpected,
    }


def _run_mc_crosscheck(cfg: ExperimentConfig, out: Path) -> dict:
    lat = cfg.lattice()
    game = _game(cfg, lat)
    lattice_sol = solve_drbsde(lat, game, cfg.scheme)

    with _config_check():
        mc_spec = cfg.raw.get("mc", {})
        _check_keys("mc", mc_spec, ("M", "degree"))
        m_paths = cfg.integer("M", 100_000, mc_spec)
        basis = RegressionBasis(cfg.integer("degree", 3, mc_spec))
        paths = simulate_paths(lat.T, lat.N, m_paths, cfg.seed)
    term_fn = cfg.expression("terminal", required=True)
    problem = McProblem(
        terminal=lambda states: term_fn(lat.T, states),
        lower=cfg.expression("lower"),
        upper=cfg.expression("upper"),
    )
    try:
        result = solve_mc(paths, problem, cfg.generator(), basis, cfg.scheme)
    except PathDataError as exc:
        raise ConfigError(str(exc)) from exc
    write_mc_sidecar(out / "mc_estimate.json", result)
    if cfg.raw.get("write_paths", False):
        write_bundle_csv(out / "paths.csv", paths)
    scale = game.scale()
    gap = abs(result.y0 - lattice_sol.root_value)
    budget = 3.0 * result.stderr + cfg.tolerance("mc_scale_fraction") * scale
    return {
        "passed": bool(gap <= budget and paths.gate_ok),
        "checks": {
            "lattice_y0": lattice_sol.root_value,
            "mc_y0": result.y0,
            "stderr": result.stderr,
            "gap": gap,
            "budget": budget,
            "sanity_gate": paths.gate_ok,
            "max_condition": result.max_condition,
        },
    }


_DISPATCH = {
    "bsde": _run_bsde,
    "rbsde": _run_rbsde,
    "drbsde": _run_drbsde,
    "dynkin-verify": _run_dynkin_verify,
    "penalization": _run_penalization,
    "pasting": _run_pasting,
    "axioms": _run_axioms,
    "hypotheses": _run_hypotheses,
    "mc-crosscheck": _run_mc_crosscheck,
}


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
        payload = _DISPATCH[config.kind](config, out)
    except (ConfigError, SeparationError) as exc:
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
    _write_json(out / "report.json", {"kind": config.kind, **payload})
    _write_json(out / "manifest.json", {
        "config_sha256": config.digest(),
        "kind": config.kind,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    })
    if status is not None:
        return status
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drbsde-lab",
        description="batch solver and verifier for reflected backward equations",
    )
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
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        raw = dict(cfg.raw)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(raw)
        out = args.out or raw.get("out") or Path(args.config).with_suffix("").name + "_out"
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
