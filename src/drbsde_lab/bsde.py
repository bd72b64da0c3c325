"""Backward-induction kernel for equations with a nonlinear driver.

Every backward step in the package is :func:`step_candidate`.  It splits the
next-step slice into children, giving the exact conditional expectation
``E`` and the martingale integrand ``Z``, and hands them to
:func:`_driver_update`, the one place the new value is computed:

* explicit scheme:  ``y = E + dt * g(t, state, E, Z)``
* implicit scheme:  ``y`` solves ``y = E + dt * g(t, state, y, Z)`` by a
  damped fixed point (damping ``1/(1 + dt*lam_plus)``, cap 100 iterations,
  tolerance 1e-12, else :class:`FixedPointError`, raised at once when the
  residual turns NaN, which never recovers); the driver is only
  one-sidedly monotone in ``y``, so the undamped iteration may diverge.

A stopped driver (see ``generator.stop_generator``) is switched off inside
:func:`step_candidate` itself, so every solver and oracle gives it the same
meaning.  :func:`backward_induction` runs "step, then project" from the
horizon to the root; the plain, reflected, doubly reflected, penalized and
pasted solvers and the evaluation operator between two stopping rules are
all projections plugged into it.  The independent oracles (the Snell
recursion and the Dynkin pair table) keep their own loops over the same
step.  The Monte Carlo backend shares :func:`_driver_update`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .generator import Generator
from .lattice import (
    AdaptedProcess,
    Lattice,
    StoppingRule,
    TerminalPayoff,
    conditional_expectation_chain,
    martingale_increment,
    _write_node_dump,
)

IMPLICIT_TOL = 1e-12
IMPLICIT_CAP = 100


class FixedPointError(RuntimeError):
    """Damped implicit iteration failed to meet tolerance within the cap.

    ``step`` is the time step, ``residual`` the last sup-norm residual
    (NaN or inf when the iterates left the finite range) and ``node`` the
    last-axis index (the node on a lattice) of the first NaN residual, or
    else of the largest.
    """

    def __init__(self, message: str, step: int, residual: float, node: int):
        super().__init__(message)
        self.step = step
        self.residual = residual
        self.node = node


def monotone_guard(lattice: Lattice, g: Generator) -> tuple[float, bool]:
    """Step-monotonicity guard ``sqrt(dt)*kappa + dt*lam_plus <= 1``.

    Computed from the declared driver constants; comparison-based checks
    refuse to assert when it fails.
    """
    value = lattice.sqrt_dt * g.kappa + lattice.dt * g.lam_plus
    return value, value <= 1.0 + 1e-12


def _nan_sup(x) -> float:
    """Sup norm ignoring NaN entries (post-frontier nodes); 0 when empty."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    keep = ~np.isnan(x)
    if not keep.any():
        return 0.0
    return float(np.max(np.abs(x[keep])))


def _driver_update(driver, expectation, dt: float, lam_plus: float, scheme: str,
                   k: int, stats: Optional[dict] = None):
    """New value from the conditional expectation ``E`` and ``driver(y)``.

    Explicit: ``E + dt * driver(E)``.  Implicit: the damped fixed point of
    ``y = E + dt * driver(y)``; raises :class:`FixedPointError` (naming step
    ``k``) when the cap is reached above tolerance or at the first NaN
    residual.  ``stats`` collects the largest iteration count.
    """
    if scheme == "explicit":
        return expectation + dt * driver(expectation)
    if scheme != "implicit":
        raise ValueError(f"unknown scheme {scheme!r}")

    damp = 1.0 / (1.0 + dt * lam_plus)
    y = expectation + dt * driver(expectation)
    # tolerances scale with the data (an absolute 1e-12 is unreachable in
    # float64 once values grow past ~1e4); iterate well beyond the
    # guaranteed tolerance when cheap, so truncation error cannot leak into
    # the exactness checks downstream
    scale = 1.0 + _nan_sup(expectation)
    fine = 1e-15 * scale
    # only post-frontier nodes, where E itself is NaN, are left out; a NaN
    # or inf residual anywhere else never converges
    frontier = np.isnan(expectation)
    residual = math.inf
    for it in range(1, IMPLICIT_CAP + 1):
        target = expectation + dt * driver(y)
        gap = np.abs(np.where(frontier, 0.0, target - y))
        residual = float(np.max(gap)) if gap.size else 0.0
        # NaN iterates stay NaN: no later iteration can converge
        if residual <= fine or math.isnan(residual):
            break
        y = y + damp * (target - y)
    if stats is not None:
        stats["max_iterations"] = max(stats.get("max_iterations", 0), it)
    if not residual <= IMPLICIT_TOL * scale:
        how = (f"diverged at iteration {it}" if math.isnan(residual)
               else f"did not converge within {IMPLICIT_CAP} iterations")
        node = int(np.unravel_index(np.argmax(gap), gap.shape)[-1])  # first NaN, if any
        raise FixedPointError(f"implicit step {k} {how} at node {node} "
                              f"(residual {residual:.3g})", k, residual, node)
    return target


def step_candidate(
    lattice: Lattice,
    g: Generator,
    k: int,
    next_values: np.ndarray,
    scheme: str,
    stats: Optional[dict] = None,
):
    """One backward step: returns ``(candidate, Z)`` at the step-``k`` nodes.

    Nodes run along the last axis of ``next_values``; leading axes are batch
    axes.  A stopped driver is off at nodes its rule has already passed.
    """
    down, up = lattice.split_children(next_values)
    expectation = 0.5 * (down + up)
    zval = (up - down) / (2.0 * lattice.sqrt_dt)
    t = lattice.time(k)
    states = lattice.states(k)
    if g.stop_rule is None:
        def driver(y):
            return g.fn(t, states, y, zval)
    else:
        active = g._active(lattice)[k]

        def driver(y):
            return active * g.fn(t, states, y, zval)

    cand = _driver_update(driver, expectation, lattice.dt, g.lam_plus, scheme, k, stats)
    return cand, zval


def backward_induction(lattice: Lattice, g: Generator, terminal, scheme: str, project):
    """Run "step, then project" from step ``N - 1`` down to the root.

    ``project(k, candidate)`` turns the step-``k`` candidate into
    ``(y, dK_k, dJ_k)``: the value and the compensator increments the
    projection books there.  Returns ``(Y, Z, dK, dJ, stats)``: four
    adapted processes (terminal slices ``terminal``, zero, zero, zero) and
    the implicit-iteration stats.
    """
    n = lattice.N
    zeros = np.zeros(lattice.n_nodes(n))
    yvals = [None] * n + [np.asarray(terminal, dtype=float)]
    zvals, dk, dj = [None] * n + [zeros], [None] * n + [zeros], [None] * n + [zeros]
    stats: dict = {}
    for k in range(n - 1, -1, -1):
        cand, zvals[k] = step_candidate(lattice, g, k, yvals[k + 1], scheme, stats)
        yvals[k], dk[k], dj[k] = project(k, cand)
    grids = (AdaptedProcess(lattice, tuple(v)) for v in (yvals, zvals, dk, dj))
    return (*grids, stats)


def _unprojected(k: int, cand: np.ndarray):
    """Projection of the plain equation: keep the candidate, book nothing."""
    zeros = np.zeros_like(cand)
    return cand, zeros, zeros


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------

SOLUTION_KINDS = ("plain", "reflected-lower", "reflected-upper", "doubly-reflected")


@dataclass(frozen=True)
class Solution:
    """Grid-valued solution quadruple.

    ``dK``/``dJ`` hold the compensator increments recorded at the step where
    the projection acts; the running compensators are the per-path partial
    sums, which start at zero.  ``Z`` is meaningful on pre-terminal nodes
    only (its terminal slice is zero-filled).
    """

    kind: str
    Y: AdaptedProcess
    Z: AdaptedProcess
    dK: AdaptedProcess
    dJ: AdaptedProcess
    meta: dict = field(default_factory=dict)
    obstacle_lower: Optional[AdaptedProcess] = None
    obstacle_upper: Optional[AdaptedProcess] = None

    def __post_init__(self):
        if self.kind not in SOLUTION_KINDS:
            raise ValueError(f"unknown solution kind {self.kind!r}")

    @property
    def lattice(self) -> Lattice:
        return self.Y.lattice

    @property
    def root_value(self) -> float:
        return float(self.Y[0][0])

    def flat_off_lower(self) -> float:
        """Worst node product ``(Y - L) * dK``; zero means the compensator
        only acts on the contact set."""
        if self.obstacle_lower is None:
            return 0.0
        return max(
            _nan_sup((self.Y[k] - self.obstacle_lower[k]) * self.dK[k])
            for k in range(self.lattice.N + 1)
        )

    def flat_off_upper(self) -> float:
        if self.obstacle_upper is None:
            return 0.0
        return max(
            _nan_sup((self.obstacle_upper[k] - self.Y[k]) * self.dJ[k])
            for k in range(self.lattice.N + 1)
        )


def _base_meta(lattice: Lattice, g: Generator, scheme: str) -> dict:
    guard_value, guard_ok = monotone_guard(lattice, g)
    meta = {
        "scheme": scheme,
        "dt": lattice.dt,
        "generator": g.name,
        "monotone_guard_value": guard_value,
        "monotone_guard_ok": guard_ok,
        "warnings": [],
    }
    if not guard_ok:
        meta["warnings"].append(
            f"monotone-step guard violated: sqrt(dt)*kappa + dt*lam+ = {guard_value:.6g} > 1"
        )
    if scheme == "implicit" and lattice.dt * g.lam_plus >= 1.0:
        meta["warnings"].append(
            f"dt*lam+ = {lattice.dt * g.lam_plus:.6g} >= 1: damped fixed point may stall"
        )
    return meta


def solve_bsde(
    lattice: Lattice, xi: TerminalPayoff, g: Generator, scheme: str = "explicit"
) -> Solution:
    """Solve the plain backward equation with terminal data ``xi``."""
    if not lattice.same_grid(xi.lattice):
        raise ValueError("terminal data lives on a different lattice")
    meta = _base_meta(lattice, g, scheme)
    Y, Z, dK, dJ, stats = backward_induction(lattice, g, xi.values, scheme, _unprojected)
    meta.update(stats)
    return Solution(kind="plain", Y=Y, Z=Z, dK=dK, dJ=dJ, meta=meta)


# ----------------------------------------------------------------------
# evaluation between stopping rules
# ----------------------------------------------------------------------


def _as_payoff_process(payoff, lattice: Lattice) -> AdaptedProcess:
    if isinstance(payoff, TerminalPayoff):
        return AdaptedProcess.from_terminal(payoff)
    if isinstance(payoff, AdaptedProcess):
        return payoff
    raise TypeError("payoff must be a TerminalPayoff or an AdaptedProcess")


def g_evaluate(
    lattice: Lattice,
    nu: StoppingRule,
    tau: StoppingRule,
    payoff,
    g: Generator,
    scheme: str = "explicit",
) -> AdaptedProcess:
    """Nonlinear evaluation of ``payoff`` collected at ``tau``, seen from ``nu``.

    Backward recursion: a node flagged by ``tau`` takes the payoff value (the
    driver integrates to nothing over the degenerate interval at the stop
    node); any earlier node takes one solver step from its children.  The
    returned table holds, at each node, the evaluation started there given
    the rule has not yet fired; entries strictly past the stop frontier are
    meaningless.  Read it at the first ``nu``-flag of each path -- the root,
    for a rule that stops immediately.
    """
    if not (lattice.same_grid(nu.lattice) and lattice.same_grid(tau.lattice)):
        raise ValueError("stopping rules live on a different lattice")
    if not nu.pathwise_le(tau):
        raise ValueError("start rule must stop no later than the collection rule")
    pay = _as_payoff_process(payoff, lattice)

    reach = tau.not_yet_stopped()
    for k in range(lattice.N + 1):
        live = tau.flags[k] & reach[k]
        if np.any(~np.isfinite(pay[k][live])):
            raise ValueError(f"payoff undefined at a step-{k} stop node")

    def collect(k, cand):
        flagged = tau.flags[k]
        cand[flagged] = pay[k][flagged]
        return _unprojected(k, cand)

    return backward_induction(lattice, g, pay[lattice.N], scheme, collect)[0]


def rule_values(table: AdaptedProcess, rule: StoppingRule) -> list[np.ndarray]:
    """Masked per-step view of a table at the canonical stop nodes of ``rule``."""
    canon = rule.canonicalize()
    reach = canon.not_yet_stopped()
    out = []
    for k in range(table.lattice.N + 1):
        sel = canon.flags[k] & reach[k]
        vals = np.full(table.lattice.n_nodes(k), np.nan)
        vals[sel] = table[k][sel]
        out.append(vals)
    return out


def martingale_represent(lattice: Lattice, xi: TerminalPayoff):
    """Decompose terminal data into its mean plus a stochastic-integral part.

    Returns ``(mean, Z)`` with the conditional-expectation chain satisfying
    ``M_{k+1} = M_k + Z_k * dB`` exactly at every node.
    """
    chain = conditional_expectation_chain(lattice, xi)
    zvals = [
        martingale_increment(lattice, k, chain[k + 1]) for k in range(lattice.N)
    ]
    zvals.append(np.zeros(lattice.n_nodes(lattice.N)))
    return float(chain[0][0]), AdaptedProcess(lattice, tuple(zvals))


# ----------------------------------------------------------------------
# evaluation-operator axioms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    status: str  # "pass" | "fail" | "skipped"
    worst: float = 0.0
    cases: int = 0


@dataclass(frozen=True)
class AxiomReport:
    generator: str
    tol: float
    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())

    def summary(self) -> str:
        lines = [f"evaluation axioms for {self.generator} (tol {self.tol:g})"]
        for name, c in self.checks.items():
            lines.append(f"  {name}: {c.status} (worst {c.worst:.3g}, {c.cases} cases)")
        return "\n".join(lines)


def random_rule(lattice: Lattice, rng, stop_prob: float = 0.25) -> StoppingRule:
    flags = [rng.random(lattice.n_nodes(k)) < stop_prob for k in range(lattice.N)]
    flags.append(np.ones(lattice.n_nodes(lattice.N), dtype=bool))
    return StoppingRule(lattice, tuple(flags))


def _probe_grid(lattice: Lattice):
    t = np.array([0.0, lattice.T / 3, lattice.T])
    s = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
    y = np.array([-3.0, -1.0, 0.0, 0.7, 2.0])
    z = np.array([-2.5, -1.0, 0.0, 0.4, 3.0])
    tt, ss, yy, zz = np.meshgrid(t, s, y, z, indexing="ij")
    return tt.ravel(), ss.ravel(), yy.ravel(), zz.ravel()


def _is_y_free(g: Generator, lattice: Lattice) -> bool:
    tt, ss, yy, zz = _probe_grid(lattice)
    base = g.fn(tt, ss, np.zeros_like(yy), zz)
    return _nan_sup(np.asarray(g.fn(tt, ss, yy, zz)) - base) <= 1e-14


def _kills_zero_z(g: Generator, lattice: Lattice) -> bool:
    tt, ss, yy, zz = _probe_grid(lattice)
    return _nan_sup(np.asarray(g.fn(tt, ss, yy, np.zeros_like(zz)))) <= 1e-14


def _kills_origin(g: Generator, lattice: Lattice) -> bool:
    tt, ss, yy, zz = _probe_grid(lattice)
    zero = np.zeros_like(tt)
    return _nan_sup(np.asarray(g.fn(tt, ss, zero, zero))) <= 1e-14


def _subtree_indicator(lattice: Lattice, rule: StoppingRule, picks: np.ndarray):
    """Events known at ``rule``: indicator fixed at the stop nodes, constant on
    the subtree below.  Full tree only."""
    reach = rule.not_yet_stopped()
    ind = []
    vals = np.zeros(1)
    offset = 0
    for k in range(lattice.N + 1):
        if k > 0:
            vals = lattice.spread_to_children(vals)
        fresh = rule.flags[k] & reach[k]
        take = int(np.count_nonzero(fresh))
        vals[fresh] = picks[offset:offset + take]
        offset += take
        ind.append(vals)
    return ind


def verify_evaluation_axioms(
    lattice: Lattice,
    g: Generator,
    cases: Optional[int] = None,
    seed: int = 0,
    scheme: str = "explicit",
    tol: float = 1e-10,
) -> AxiomReport:
    """Exercise the five structural properties of the evaluation operator.

    Checks monotonicity, time consistency through an intermediate rule,
    constant preservation, the zero-one law and translation invariance on
    sampled rule triples ``nu <= gamma <= tau`` with random payoffs.  Checks
    whose driver precondition fails (e.g. translation invariance for a
    y-dependent driver) are reported as skipped, not failed.
    """
    if lattice.mode != "full-tree":
        raise ValueError("axiom sampling works on the full-tree backend")
    n_cases = 20 if cases is None else int(cases)
    rng = np.random.default_rng(seed)

    y_free = _is_y_free(g, lattice)
    const_ok = _kills_zero_z(g, lattice)
    origin_ok = _kills_origin(g, lattice)

    worst = {
        "monotonicity": 0.0,
        "time-consistency": 0.0,
        "constant-preserving": 0.0,
        "zero-one-law": 0.0,
        "translation-invariance": 0.0,
    }
    counted = dict.fromkeys(worst, 0)

    root = StoppingRule.at_step(lattice, 0)
    for _ in range(n_cases):
        tau = random_rule(lattice, rng)
        gamma = tau.union(random_rule(lattice, rng))
        nu = gamma.union(random_rule(lattice, rng))

        xi_vals = [rng.normal(size=lattice.n_nodes(k)) for k in range(lattice.N + 1)]
        xi = AdaptedProcess(lattice, tuple(xi_vals))
        eta = AdaptedProcess(
            lattice,
            tuple(v + rng.exponential(0.5, size=v.shape) for v in xi_vals),
        )

        table_xi = g_evaluate(lattice, nu, tau, xi, g, scheme)
        table_eta = g_evaluate(lattice, nu, tau, eta, g, scheme)

        # (1) monotonicity at the nu stop nodes
        for a, b in zip(rule_values(table_xi, nu), rule_values(table_eta, nu)):
            diff = a - b
            worst["monotonicity"] = max(worst["monotonicity"], _nan_sup(np.maximum(diff, 0.0)))
        counted["monotonicity"] += 1

        # (2) time consistency: evaluate to gamma, then from gamma to nu
        composed = g_evaluate(lattice, nu, gamma, table_xi, g, scheme)
        for a, b in zip(rule_values(composed, nu), rule_values(table_xi, nu)):
            worst["time-consistency"] = max(worst["time-consistency"], _nan_sup(a - b))
        counted["time-consistency"] += 1

        # (3) constant preserving: data already known at nu is reproduced
        if const_ok:
            known = _subtree_indicator(
                lattice, nu, rng.normal(size=lattice.total_nodes)
            )
            known_p = AdaptedProcess(lattice, tuple(known))
            table_k = g_evaluate(lattice, nu, tau, known_p, g, scheme)
            for a, b in zip(rule_values(table_k, nu), rule_values(known_p, nu)):
                worst["constant-preserving"] = max(
                    worst["constant-preserving"], _nan_sup(a - b)
                )
            counted["constant-preserving"] += 1

        # (4) zero-one law on events known at nu
        ind = _subtree_indicator(
            lattice, nu, (rng.random(lattice.total_nodes) < 0.5).astype(float)
        )
        masked = AdaptedProcess(
            lattice, tuple(iv * xv for iv, xv in zip(ind, xi_vals))
        )
        table_m = g_evaluate(lattice, nu, tau, masked, g, scheme)
        for im, a, b in zip(
            rule_values(AdaptedProcess(lattice, tuple(ind)), nu),
            rule_values(table_m, nu),
            rule_values(table_xi, nu),
        ):
            worst["zero-one-law"] = max(worst["zero-one-law"], _nan_sup(im * (a - b)))
            if origin_ok:
                worst["zero-one-law"] = max(worst["zero-one-law"], _nan_sup(a - im * b))
        counted["zero-one-law"] += 1

        # (5) translation invariance for y-free drivers
        if y_free:
            shift = _subtree_indicator(lattice, nu, rng.normal(size=lattice.total_nodes))
            shifted = AdaptedProcess(
                lattice, tuple(sv + xv for sv, xv in zip(shift, xi_vals))
            )
            table_s = g_evaluate(lattice, nu, tau, shifted, g, scheme)
            for sm, a, b in zip(
                rule_values(AdaptedProcess(lattice, tuple(shift)), nu),
                rule_values(table_s, nu),
                rule_values(table_xi, nu),
            ):
                worst["translation-invariance"] = max(
                    worst["translation-invariance"], _nan_sup(a - (b + sm))
                )
            counted["translation-invariance"] += 1

    checks = {}
    skip = {
        "constant-preserving": not const_ok,
        "translation-invariance": not y_free,
    }
    for name in worst:
        if skip.get(name, False):
            checks[name] = AxiomCheck("skipped", 0.0, 0)
        else:
            status = "pass" if worst[name] <= tol else "fail"
            checks[name] = AxiomCheck(status, worst[name], counted[name])
    return AxiomReport(g.name, tol, checks)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

SOLUTION_HEADER = ["k", "node-id", "state", "Y", "Z", "K", "J"]


def write_solution_csv(path, sol: Solution) -> None:
    """Solution dump; the K and J columns hold the per-step increments."""
    lat = sol.lattice
    _write_node_dump(path, SOLUTION_HEADER, lat, lambda k: (
        sol.Y[k], sol.Z[k] if k < lat.N else None, sol.dK[k], sol.dJ[k]))


def write_solution_sidecar(path, sol: Solution) -> None:
    payload = {"kind": sol.kind}
    for key, val in sorted(sol.meta.items()):
        payload[key] = val
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
