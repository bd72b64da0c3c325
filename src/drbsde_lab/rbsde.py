"""One-obstacle reflected solvers and the penalty approximation toward them.

The reflected solution is the backward induction that projects the plain
candidate onto the admissible side of the obstacle and books the projection
as a compensator increment, so the flat-off products ``(Y - L) * dK`` vanish
node by node, exactly.  The projection is ``bsde._reflect``, run by
``bsde._reflected_sweep``, where an upper obstacle runs as the sign-flip
mirror of a lower solve to keep the signed zeros of the pinned outputs.

The penalty route replaces the projection by an implicit one-node solve of

    y = a + dt * n * (L - y)^+          (lower obstacle)

whose closed form ``y = a`` above the obstacle, ``(a + dt*n*L)/(1 + dt*n)``
below, is monotone in both ``a`` and ``n``.  Treating the penalty implicitly
even inside the explicit scheme is deliberate: an explicit penalty term
destroys step monotonicity for large ``n``, which would break the monotone
convergence structure the reports assert.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bsde import Solution, _reflected_sweep, g_evaluate, random_rule, step_candidate
from .generator import Generator
from .lattice import AdaptedProcess, Lattice, StoppingRule, TerminalPayoff


def _check_reflected_inputs(lattice, xi, obstacle, side):
    if not lattice.same_grid(xi.lattice) or not lattice.same_grid(obstacle.lattice):
        raise ValueError("terminal data and obstacle must live on the lattice")
    lower = side == "lower"
    bad = obstacle.terminal() > xi.values if lower else xi.values > obstacle.terminal()
    if bad.any():
        i = int(np.argmax(bad))
        what = "obstacle above terminal data" if lower else "terminal data above obstacle"
        raise ValueError(f"terminal order violated: {what} at node "
                         f"(k={lattice.N}, id={lattice.node_ids(lattice.N, i, i + 1)[0]})")


def solve_rbsde(
    lattice: Lattice,
    xi: TerminalPayoff,
    g: Generator,
    obstacle: AdaptedProcess,
    side: str = "lower",
    scheme: str = "explicit",
) -> Solution:
    """Reflected solve with one obstacle on either side.

    The upper side runs as the sign-flip mirror of a lower solve (see
    ``bsde._reflected_sweep``), and its meta says so.
    """
    _check_reflected_inputs(lattice, xi, obstacle, side)
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown obstacle side {side!r}")
    sol, = _reflected_sweep(lattice, g, xi.values, scheme, **{side: obstacle}, meta=(
        {"route": "sign-flip of lower solve"} if side == "upper" else None))
    return sol


# ----------------------------------------------------------------------
# penalization driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PenalizationReport:
    """Convergence record of a penalty schedule against the reflected solve."""

    side: str
    schedule: tuple[float, ...]
    sup_gaps: tuple[float, ...]
    monotonicity_violations: tuple[int, ...]
    flat_off_residuals: tuple[float, ...]
    converged: bool
    final_gap: float
    gap_tolerance: float

    @property
    def total_violations(self) -> int:
        return sum(self.monotonicity_violations)

    def rows(self):
        return list(zip(self.schedule, self.sup_gaps, self.monotonicity_violations))


def write_penalization_csv(path, report: PenalizationReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "sup_gap", "violations"])
        for n, gap, viol in report.rows():
            w.writerow([f"{n:.17g}", f"{gap:.17g}", viol])


def _check_schedule(schedule) -> tuple[float, ...]:
    schedule = tuple(float(n) for n in schedule)
    if not schedule:
        raise ValueError("penalty schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("penalty schedule must be strictly increasing")
    return schedule


def _penalization_report(levels, reference: Solution, obstacle: AdaptedProcess,
                         side: str, schedule) -> PenalizationReport:
    """Convergence of penalty levels toward ``reference``.

    ``side`` names the penalized obstacle: levels rise toward the reference
    below a lower obstacle and fall toward it under an upper one.
    """
    lat = reference.lattice
    scale = 1.0 + reference.Y.sup_norm()
    tol = 1e-6 * scale
    # the closed-form step is monotone in exact arithmetic; level values
    # whose true difference sits below one ulp may still round either way
    floor = 64.0 * np.finfo(float).eps * scale
    sign = 1.0 if side == "lower" else -1.0

    gaps, violations, residuals = [], [], []
    prev = None
    for n, sol in zip(schedule, levels):
        gaps.append(max(
            float(np.max(np.abs(sol.Y[k] - reference.Y[k])))
            for k in range(lat.N + 1)
        ))
        viol = 0
        if prev is not None:
            for k in range(lat.N + 1):
                viol += int(np.count_nonzero(sign * (sol.Y[k] - prev.Y[k]) < -floor))
        violations.append(viol)
        # penalty compensator increment at each node: dt * n * distance past
        # the obstacle; its product with the overshoot is the flat-off residual
        resid = 0.0
        for k in range(lat.N + 1):
            dist = np.maximum(sign * (obstacle[k] - sol.Y[k]), 0.0)
            resid = max(resid, float(np.max(dist * (lat.dt * n * dist))))
        residuals.append(resid)
        prev = sol

    return PenalizationReport(
        side=side,
        schedule=schedule,
        sup_gaps=tuple(gaps),
        monotonicity_violations=tuple(violations),
        flat_off_residuals=tuple(residuals),
        converged=gaps[-1] <= tol,
        final_gap=gaps[-1],
        gap_tolerance=tol,
    )


def penalization_run(
    lattice: Lattice,
    xi: TerminalPayoff,
    g: Generator,
    obstacle: AdaptedProcess,
    side: str = "lower",
    schedule=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0),
    scheme: str = "explicit",
):
    """Solve the penalized family along ``schedule`` and report convergence.

    Levels approach the reflected solution from below (lower obstacle) or
    above (upper); the report counts node-wise monotonicity violations
    between consecutive levels and the sup-norm gap to the reflected solve.
    """
    schedule = _check_schedule(schedule)
    _check_reflected_inputs(lattice, xi, obstacle, side)

    reflected = solve_rbsde(lattice, xi, g, obstacle, side, scheme)
    levels = _reflected_sweep(lattice, g, xi.values, scheme, **{side: obstacle},
                              penalty=(side, schedule))
    return levels, _penalization_report(levels, reflected, obstacle, side, schedule)


# ----------------------------------------------------------------------
# hitting rules and the optimal-stopping check
# ----------------------------------------------------------------------


def default_eps_hit(solution: Solution) -> float:
    # contact sets {Y = L} have measure zero under floating point
    return 1e-9 * (1.0 + solution.Y.sup_norm())


def first_hitting(
    solution: Solution,
    nu: Optional[StoppingRule] = None,
    target: str = "lower",
    eps_hit: Optional[float] = None,
) -> StoppingRule:
    """First node at/after ``nu`` where Y touches the requested obstacle.

    Interior nodes enter the rule when ``Y <= L + eps`` (lower) or
    ``Y >= U - eps`` (upper); the horizon stops unconditionally.
    """
    lat = solution.lattice
    obstacle = (
        solution.obstacle_lower if target == "lower" else solution.obstacle_upper
    )
    if target not in ("lower", "upper"):
        raise ValueError(f"unknown hitting target {target!r}")
    if obstacle is None:
        raise ValueError(f"solution carries no {target} obstacle")
    eps = default_eps_hit(solution) if eps_hit is None else float(eps_hit)
    if eps < 0:
        raise ValueError("eps_hit must be nonnegative")

    if nu is None:
        nu = StoppingRule.at_step(lat, 0)
    elif lat.mode != "full-tree" and not nu.is_deterministic():
        raise ValueError(
            "path-dependent start rules need the full-tree backend"
        )

    started = _started_mask(nu)
    flags = []
    for k in range(lat.N):
        hit = (
            solution.Y[k] <= obstacle[k] + eps
            if target == "lower"
            else solution.Y[k] >= obstacle[k] - eps
        )
        flags.append(hit & started[k])
    flags.append(np.ones(lat.n_nodes(lat.N), dtype=bool))
    return StoppingRule(lat, tuple(flags))


def _started_mask(nu: StoppingRule) -> list[np.ndarray]:
    """Per node: the start rule has fired at or before this node (flagged
    here, or no path reaches it unstopped); exact on the full tree, and on
    the walk for the deterministic rules :func:`first_hitting` accepts."""
    return [f | ~r for f, r in zip(nu.flags, nu.not_yet_stopped())]


@dataclass(frozen=True)
class SnellReport:
    mode: str
    max_gap: float
    rules_checked: int
    sandwich_slack: float
    equality_gap: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_gap <= self.tol
            and self.sandwich_slack <= self.tol
            and self.equality_gap <= self.tol
        )


def verify_snell(
    lattice: Lattice,
    solution: Solution,
    xi: TerminalPayoff,
    g: Generator,
    mode: str = "backward",
    scheme: Optional[str] = None,
    tol: float = 1e-10,
    sample_rules: int = 12,
    seed: int = 0,
) -> SnellReport:
    """Check that the reflected Y is the value of stopping the reward process.

    ``backward`` recomputes the stopped-value recursion independently and
    compares node-wise; ``enumerate`` maximizes the evaluation of the reward
    over every stopping rule on a small full tree.  Both modes also check
    the supermartingale sandwich: evaluating Y at any sampled rule never
    exceeds Y now, with equality once the rule is capped at the first
    contact time.
    """
    lat = lattice
    if solution.obstacle_lower is None:
        raise ValueError("verify_snell needs a lower-reflected solution")
    obstacle = solution.obstacle_lower
    scheme = scheme or solution.meta.get("scheme", "explicit")

    # reward: obstacle while running, terminal data at the horizon
    reward_vals = [obstacle[k].copy() for k in range(lat.N)]
    reward_vals.append(np.asarray(xi.values, dtype=float))
    reward = AdaptedProcess(lat, tuple(reward_vals))

    max_gap = 0.0
    rules_checked = 0
    if mode == "backward":
        vals = np.asarray(xi.values, dtype=float)
        for k in range(lat.N - 1, -1, -1):
            cand, _ = step_candidate(lat, g, k, vals, scheme)
            vals = np.maximum(obstacle[k], cand)
            max_gap = max(max_gap, float(np.max(np.abs(vals - solution.Y[k]))))
    elif mode == "enumerate":
        from .dynkin import enumerate_stopping_rules  # dynkin imports this module

        if lat.mode != "full-tree" or lat.N > 4:
            raise ValueError("enumeration needs a full tree with N <= 4")
        rules, _ = enumerate_stopping_rules(lat)
        tables = g_evaluate(lat, StoppingRule.at_step(lat, 0), rules, reward, g, scheme)
        best = max(float(table[0][0]) for table in tables)
        rules_checked = len(rules)
        max_gap = abs(best - solution.root_value)
    else:
        raise ValueError(f"unknown verification mode {mode!r}")

    # sandwich on sampled rules from the root, as one sweep
    rng = np.random.default_rng(seed)
    root = StoppingRule.at_step(lat, 0)
    tau_sharp = first_hitting(solution, root, "lower")
    gammas = [random_rule(lat, rng) if lat.mode == "full-tree"
              else StoppingRule.at_step(lat, int(rng.integers(0, lat.N + 1)))
              for _ in range(sample_rules)]
    y0 = solution.root_value
    tables = g_evaluate(lat, root, gammas + [gamma.union(tau_sharp) for gamma in gammas],
                        solution.Y, g, scheme)
    sandwich_slack = max([0.0] + [float(t[0][0]) - y0 for t in tables[:sample_rules]])
    equality_gap = max([0.0] + [abs(float(t[0][0]) - y0) for t in tables[sample_rules:]])
    return SnellReport(
        mode=mode,
        max_gap=max_gap,
        rules_checked=rules_checked,
        sandwich_slack=sandwich_slack,
        equality_gap=equality_gap,
        tol=tol,
    )
